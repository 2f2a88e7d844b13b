"""Triangulated skeleta: pseudomanifold structure and residue propagation.

A triangulated skeleton is a pure-dimensional simplicial complex given by its
top-dimensional cells.  Each top cell carries positive integer vertex
multiplicities (so ``b_sigma = gcd`` is available) and, optionally, a residue
magnitude ``|Res| >= 0``.  Codimension-one faces are stored explicitly with
the list of top cells containing them, and construction validates that these
incidence lists agree with the cell data.

Three operations are provided:

* `pseudomanifold_check` reports whether every codimension-one face lies in
  at most two top cells (non-branching), whether the top cells are connected
  through codimension-one faces (strong connectivity), and whether every
  codimension-one face lies in exactly two top cells (closedness).

* `residue_chain_propagate` spreads a residue magnitude from an anchor cell
  across the whole skeleton.  On a closed, non-branching, strongly connected
  skeleton whose top cells all have ``b_sigma = 1``, adjacent cells carry
  residues that are negatives of each other (the residue of a form along a
  chain of divisors has poles only at the two neighbouring cells, and the
  residue theorem forces the two values to sum to zero), so the magnitude is
  the same constant on every cell.  The returned map is that constant map;
  skeleta with boundary are rejected because a boundary face breaks the
  chain.

* `barycentric_subdivide` refines the dual complex of a reduced model into a
  triangulated skeleton whose cells are flags of faces.  The barycenter of a
  ``k``-dimensional face receives multiplicity ``k + 1`` (the blow-up of the
  corresponding stratum produces an exceptional divisor with multiplicity
  equal to the sum of the ``k + 1`` unit multiplicities), so a ``d``-simplex
  splits into ``(d + 1)!`` cells with multiplicities ``(1, 2, ..., d + 1)``
  and ``b_sigma = 1``.  Lattice volumes are preserved: each flag cell has
  normalized volume ``1 / (d! (d+1)!)`` and the ``(d + 1)!`` of them sum to
  the volume ``1 / d!`` of the original reduced simplex.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Mapping, Sequence

from .model import DualComplex, Face, ModelSpecError, WeightedSncModel, _parse_fields, parse_model_spec


class SkeletonError(ValueError):
    """Invalid skeleton data or an operation outside its preconditions."""


@dataclass(frozen=True)
class TopCell:
    """Top-dimensional simplex: labelled vertices with multiplicities.

    Parameters
    ----------
    cell_id:
        Unique identifier of the cell within its skeleton.
    vertices:
        Distinct vertex labels; their number fixes the cell dimension.
    multiplicities:
        Positive integer multiplicity of each vertex, aligned with
        ``vertices``.
    residue:
        Optional residue magnitude ``|Res|`` attached to the cell
        (must be finite and ``>= 0`` when present).
    """

    cell_id: str
    vertices: tuple[str, ...]
    multiplicities: tuple[int, ...]
    residue: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(self, "multiplicities", tuple(self.multiplicities))
        if not self.cell_id:
            raise SkeletonError("cell id must be nonempty")
        if not self.vertices:
            raise SkeletonError(f"cell {self.cell_id!r}: needs at least one vertex")
        if len(set(self.vertices)) != len(self.vertices):
            raise SkeletonError(f"cell {self.cell_id!r}: vertex labels must be distinct")
        if len(self.multiplicities) != len(self.vertices):
            raise SkeletonError(
                f"cell {self.cell_id!r}: {len(self.multiplicities)} multiplicities "
                f"for {len(self.vertices)} vertices"
            )
        for m in self.multiplicities:
            if not isinstance(m, int) or isinstance(m, bool) or m < 1:
                raise SkeletonError(
                    f"cell {self.cell_id!r}: multiplicities must be positive integers, got {m!r}"
                )
        if self.residue is not None:
            r = float(self.residue)
            if not math.isfinite(r) or r < 0:
                raise SkeletonError(f"cell {self.cell_id!r}: residue magnitude must be finite and >= 0")
            object.__setattr__(self, "residue", r)

    @property
    def dim(self) -> int:
        return len(self.vertices) - 1

    @property
    def b_sigma(self) -> int:
        return math.gcd(*self.multiplicities)


@dataclass(frozen=True)
class Facet:
    """Codimension-one face with the ids of the top cells containing it."""

    vertices: tuple[str, ...]
    cells: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(self, "cells", tuple(self.cells))
        if not self.vertices:
            raise SkeletonError("facet needs at least one vertex")
        if len(set(self.vertices)) != len(self.vertices):
            raise SkeletonError(f"facet {self.vertices!r}: vertex labels must be distinct")
        if not self.cells or len(set(self.cells)) != len(self.cells):
            raise SkeletonError(f"facet {self.vertices!r}: incident cell ids must be nonempty and distinct")


@dataclass(frozen=True)
class TriangulatedSkeleton:
    """Pure-dimensional simplicial complex given by top cells and facets.

    Construction validates that the skeleton is pure (all top cells share
    one dimension), that cell ids are unique, and that ``facets`` is exactly
    the set of codimension-one vertex sets of the cells, each listing
    precisely the top cells containing it.
    """

    cells: tuple[TopCell, ...]
    facets: tuple[Facet, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "cells", tuple(self.cells))
        object.__setattr__(self, "facets", tuple(self.facets))
        if not self.cells:
            raise SkeletonError("skeleton needs at least one top cell")
        ids = [c.cell_id for c in self.cells]
        if len(set(ids)) != len(ids):
            raise SkeletonError("top-cell ids must be unique")
        dims = {c.dim for c in self.cells}
        if len(dims) > 1:
            raise SkeletonError(f"top cells must share one dimension, got dimensions {sorted(dims)}")
        expected = _codim_one_incidence(self.cells)
        seen: set[frozenset[str]] = set()
        for f in self.facets:
            key = frozenset(f.vertices)
            if key in seen:
                raise SkeletonError(f"facet {f.vertices!r} listed twice")
            seen.add(key)
            if key not in expected:
                raise SkeletonError(f"facet {f.vertices!r} is not a codimension-one face of any cell")
            if sorted(f.cells) != sorted(expected[key]):
                raise SkeletonError(
                    f"facet {f.vertices!r}: incidence list {sorted(f.cells)} does not match "
                    f"the cells containing it {sorted(expected[key])}"
                )
        missing = set(expected) - seen
        if missing:
            example = tuple(sorted(next(iter(missing))))
            raise SkeletonError(f"codimension-one face {example!r} of some cell is missing from facets")

    @property
    def dim(self) -> int:
        return self.cells[0].dim

    def cell(self, cell_id: str) -> TopCell:
        for c in self.cells:
            if c.cell_id == cell_id:
                return c
        raise SkeletonError(f"no top cell {cell_id!r} in the skeleton")

    @classmethod
    def from_top_cells(cls, cells: Sequence[TopCell]) -> "TriangulatedSkeleton":
        """Build a skeleton from top cells, deriving the facet incidence lists."""
        cells = tuple(cells)
        ids = [c.cell_id for c in cells]
        if len(set(ids)) != len(ids):
            raise SkeletonError("top-cell ids must be unique")
        incidence = _codim_one_incidence(cells)
        facets = tuple(
            Facet(vertices=tuple(sorted(key)), cells=tuple(members))
            for key, members in sorted(incidence.items(), key=lambda kv: tuple(sorted(kv[0])))
        )
        return cls(cells=cells, facets=facets)

    @classmethod
    def from_dual_complex(
        cls,
        dual: DualComplex,
        residues: Mapping[str, float] | None = None,
    ) -> "TriangulatedSkeleton":
        """View the top-dimensional faces of a dual complex as a skeleton.

        Each top face becomes a cell whose vertices are its component names
        and whose multiplicities are the component multiplicities; ``residues``
        optionally attaches a magnitude to face id strings.  Complexes whose
        codimension-one strata have several connected pieces cannot be
        expressed with component-name vertices and are rejected.
        """
        d = dual.dim
        tops = dual.faces_of_dim(d)
        residues = dict(residues or {})
        cells = []
        for f in tops:
            cells.append(
                TopCell(
                    cell_id=f.id_string(),
                    vertices=f.components,
                    multiplicities=f.simplex.b,
                    residue=residues.pop(f.id_string(), None),
                )
            )
        if residues:
            raise SkeletonError(f"residues given for unknown top faces: {sorted(residues)}")
        if d >= 1:
            for g in dual.faces_of_dim(d - 1):
                if g.label != 0 or dual.model.stratum_count(g.components) > 1:
                    raise SkeletonError(
                        f"stratum {'&'.join(g.components)} has several connected pieces; "
                        "its vertex set would be ambiguous in the skeleton"
                    )
        return cls.from_top_cells(cells)


def _codim_one_incidence(cells: Sequence[TopCell]) -> dict[frozenset[str], list[str]]:
    """Map each codimension-one vertex set to the ids of the cells containing it."""
    incidence: dict[frozenset[str], list[str]] = {}
    for c in cells:
        if c.dim == 0:
            continue
        for i in range(len(c.vertices)):
            key = frozenset(c.vertices[:i] + c.vertices[i + 1 :])
            incidence.setdefault(key, []).append(c.cell_id)
    return incidence


@dataclass(frozen=True)
class PseudomanifoldReport:
    """Outcome of the three pseudomanifold checks."""

    nonbranching: bool
    strongly_connected: bool
    closed: bool

    @property
    def all_pass(self) -> bool:
        return self.nonbranching and self.strongly_connected and self.closed


def pseudomanifold_check(sk: TriangulatedSkeleton) -> PseudomanifoldReport:
    """Check the three pseudomanifold properties of a skeleton.

    Non-branching means every facet lies in at most two top cells; closed
    means every facet lies in exactly two; strong connectivity means any two
    top cells are joined by a chain of cells sharing facets.  Dimension-zero
    skeleta have no facets, so the first and third checks hold vacuously and
    connectivity requires a single cell.
    """
    nonbranching = all(len(f.cells) <= 2 for f in sk.facets)
    closed = all(len(f.cells) == 2 for f in sk.facets)

    adjacency: dict[str, set[str]] = {c.cell_id: set() for c in sk.cells}
    for f in sk.facets:
        for a in f.cells:
            for b in f.cells:
                if a != b:
                    adjacency[a].add(b)
    start = sk.cells[0].cell_id
    seen = {start}
    queue = deque([start])
    while queue:
        for nb in adjacency[queue.popleft()]:
            if nb not in seen:
                seen.add(nb)
                queue.append(nb)
    strongly_connected = len(seen) == len(sk.cells)

    return PseudomanifoldReport(
        nonbranching=nonbranching,
        strongly_connected=strongly_connected,
        closed=closed,
    )


def residue_chain_propagate(
    sk: TriangulatedSkeleton,
    anchor: str,
    rho: float | None = None,
) -> dict[str, float]:
    """Propagate a residue magnitude from ``anchor`` to every top cell.

    The residue of a holomorphic form along the divisor chain has poles
    exactly at the two cells adjacent across each facet, and those two
    residues sum to zero; the magnitude is therefore preserved across every
    facet.  Starting from the anchor's magnitude ``rho`` (taken from the
    anchor cell's ``residue`` field when not given), the propagation visits
    the whole skeleton and returns the constant map ``cell_id -> rho``.  The
    result does not depend on the anchor choice.

    Preconditions: the skeleton must be a closed, non-branching, strongly
    connected pseudomanifold (a boundary facet would end the chain and leave
    the residue there unconstrained) and every top cell must have
    ``b_sigma = 1``.
    """
    anchor_cell = sk.cell(anchor)
    if rho is None:
        rho = anchor_cell.residue
        if rho is None:
            raise SkeletonError(f"anchor {anchor!r} carries no residue magnitude and none was given")
    rho = float(rho)
    if not math.isfinite(rho) or rho < 0:
        raise SkeletonError("residue magnitude must be finite and >= 0")

    report = pseudomanifold_check(sk)
    if not report.closed:
        boundary = next(f for f in sk.facets if len(f.cells) != 2)
        raise SkeletonError(
            f"facet {boundary.vertices!r} lies in {len(boundary.cells)} top cell(s); "
            "residue propagation needs every facet shared by exactly two"
        )
    if not report.strongly_connected:
        raise SkeletonError("residue propagation needs a strongly connected skeleton")
    for c in sk.cells:
        if c.b_sigma != 1:
            raise SkeletonError(
                f"cell {c.cell_id!r} has b_sigma = {c.b_sigma}; propagation needs b_sigma = 1 "
                "on every top cell"
            )

    neighbours: dict[str, set[str]] = {c.cell_id: set() for c in sk.cells}
    for f in sk.facets:
        a, b = f.cells
        neighbours[a].add(b)
        neighbours[b].add(a)
    magnitudes: dict[str, float] = {anchor: rho}
    queue = deque([anchor])
    while queue:
        current = queue.popleft()
        for nb in neighbours[current]:
            if nb in magnitudes:
                if magnitudes[nb] != magnitudes[current]:
                    raise SkeletonError("conflicting residue magnitudes during propagation")
            else:
                magnitudes[nb] = magnitudes[current]
                queue.append(nb)
    return {c.cell_id: magnitudes[c.cell_id] for c in sk.cells}


def parse_skeleton_spec(
    text: str, name: str = "skeleton"
) -> tuple[WeightedSncModel, str | None, float | None]:
    """Parse a skeleton file: the model-spec format plus a ``[skeleton]`` section.

    The optional section holds a single line
    ``residue_anchor=<face-id> [rho=<float>]`` naming the top cell from which
    residue magnitudes propagate and, optionally, the anchored magnitude.
    Files without the section parse as plain models and return ``None`` for
    both anchor fields.  Errors cite the offending line number.
    """
    model_lines: list[str] = []
    anchor: str | None = None
    rho: float | None = None
    in_skeleton = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line.startswith("[") and line.endswith("]"):
            in_skeleton = line[1:-1].strip().lower() == "skeleton"
            model_lines.append("" if in_skeleton else raw)
            continue
        if not in_skeleton:
            model_lines.append(raw)
            continue
        model_lines.append("")
        if not line:
            continue
        fields = _parse_fields(line.split(), lineno)
        unknown = set(fields) - {"residue_anchor", "rho"}
        if unknown:
            raise ModelSpecError(lineno, f"unknown skeleton field(s) {sorted(unknown)!r}")
        if "residue_anchor" not in fields:
            raise ModelSpecError(lineno, "skeleton line needs residue_anchor=<face-id>")
        if anchor is not None:
            raise ModelSpecError(lineno, "residue_anchor given twice")
        anchor = fields["residue_anchor"]
        if "rho" in fields:
            try:
                rho = float(fields["rho"])
            except ValueError:
                raise ModelSpecError(lineno, f"rho {fields['rho']!r} is not a number") from None
            if not math.isfinite(rho) or rho < 0:
                raise ModelSpecError(lineno, "rho must be finite and >= 0")
    model = parse_model_spec("\n".join(model_lines), name=name)
    return model, anchor, rho


def barycentric_subdivide(dual: DualComplex) -> TriangulatedSkeleton:
    """Barycentric subdivision of the dual complex of a reduced model.

    Every face of the complex contributes a barycenter vertex labelled by its
    id string; the barycenter of a ``k``-dimensional face has multiplicity
    ``k + 1``.  The top cells of the subdivision are the flags
    ``F_0 < F_1 < ... < F_d`` of faces of each dimension inside a top face,
    with multiplicities ``(1, 2, ..., d + 1)``, so each ``d``-dimensional
    face splits into ``(d + 1)!`` cells with ``b_sigma = 1``.

    The model must be reduced (all component multiplicities equal to one) and
    the complex pure (every maximal face of top dimension); otherwise the
    subdivision would not carry the stated multiplicities or would not be a
    triangulated skeleton.
    """
    for comp in dual.model.components:
        if comp.b != 1:
            raise SkeletonError(
                f"component {comp.name!r} has multiplicity {comp.b}; "
                "barycentric subdivision needs a reduced model"
            )
    d = dual.dim
    tops = dual.faces_of_dim(d)
    covered: set[tuple[tuple[str, ...], int]] = set()
    for f in dual.faces:
        for t in tops:
            if dual.is_face_of(f, t):
                covered.add(f.key)
                break
    stray = [f for f in dual.faces if f.key not in covered]
    if stray:
        raise SkeletonError(
            f"face {stray[0].id_string()!r} lies in no top-dimensional face; "
            "the subdivision of a non-pure complex is not a triangulated skeleton"
        )

    subfaces: dict[tuple[tuple[str, ...], int], tuple[Face, ...]] = {}
    for f in dual.faces:
        if f.dim == 0:
            subfaces[f.key] = ()
        else:
            subfaces[f.key] = tuple(
                g for g in dual.faces_of_dim(f.dim - 1) if dual.is_face_of(g, f)
            )

    cells: list[TopCell] = []

    def extend(flag: list[Face]) -> None:
        if flag[0].dim == 0:
            cells.append(
                TopCell(
                    cell_id="<".join(f.id_string() for f in flag),
                    vertices=tuple(f.id_string() for f in flag),
                    multiplicities=tuple(f.dim + 1 for f in flag),
                )
            )
            return
        for g in subfaces[flag[0].key]:
            extend([g] + flag)

    for t in tops:
        extend([t])
    return TriangulatedSkeleton.from_top_cells(cells)

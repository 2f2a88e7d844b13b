"""Triangulated skeleta: pseudomanifold structure and residue propagation.

A triangulated skeleton is a pure-dimensional simplicial complex given by its
top-dimensional cells.  Each top cell carries positive integer vertex
multiplicities, so ``b_sigma = gcd`` is available; residue magnitudes are
not stored on cells but passed to `residue_chain_propagate`.  The
codimension-one faces (facets), each with the ids of the top cells
containing it, are derived from the cells once, at construction, so they
cannot disagree with them.

Three operations are provided:

* `pseudomanifold_check` reports whether every codimension-one face lies in
  at most two top cells (non-branching), whether the top cells are connected
  through codimension-one faces (strong connectivity), and whether every
  codimension-one face lies in exactly two top cells (closedness).

* `residue_chain_propagate` spreads a given residue magnitude from an
  anchor cell across the whole skeleton.  On a closed, strongly connected
  skeleton whose top cells all have ``b_sigma = 1``, adjacent cells carry
  residues that are negatives of each other (the residue of a form along a
  chain of divisors has poles only at the two neighbouring cells, and the
  residue theorem forces the two values to sum to zero), so the magnitude
  is the same constant on every cell.  Once those preconditions are checked, the
  returned map is that constant map; skeleta with boundary are rejected
  because a boundary face breaks the chain.

* `barycentric_subdivide` refines the dual complex of a reduced model into a
  triangulated skeleton whose cells are flags of faces.  The barycenter of a
  ``k``-dimensional face receives multiplicity ``k + 1`` (the blow-up of the
  corresponding stratum produces an exceptional divisor with multiplicity
  equal to the sum of the ``k + 1`` unit multiplicities), so a ``d``-simplex
  splits into ``(d + 1)!`` cells with multiplicities ``(1, 2, ..., d + 1)``
  and ``b_sigma = 1``.  Lattice volumes are preserved: each flag cell has
  normalized volume ``1 / (d! (d+1)!)`` and the ``(d + 1)!`` of them sum to
  the volume ``1 / d!`` of the original reduced simplex.

A skeleton file (`parse_skeleton_spec`) is a model-spec file plus a
``[skeleton]`` row in its section table.  ``#`` starts a comment only at the
start of a line or after whitespace, so ``residue_anchor=E0&E1#1`` keeps its label.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Sequence

from .lattice import _multiplicity
from .model import MODEL_SECTIONS, REQUIRED, DualComplex, Face, ModelSpecError, SpecSection, WeightedSncModel, read_spec


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
    """

    cell_id: str
    vertices: tuple[str, ...]
    multiplicities: tuple[int, ...]

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
        try:
            object.__setattr__(self, "multiplicities", tuple(map(_multiplicity, self.multiplicities)))
        except ValueError:
            raise SkeletonError(
                f"cell {self.cell_id!r}: multiplicities must be positive integers, got {self.multiplicities!r}"
            ) from None

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


@dataclass(frozen=True)
class TriangulatedSkeleton:
    """Pure-dimensional simplicial complex given by its top cells.

    Construction checks that there is at least one cell, that cell ids are
    unique and that all cells share one dimension, then derives ``facets``:
    every codimension-one vertex set of the cells, with its vertices sorted
    and the ids of the cells containing it in cell order, sorted by vertex
    tuple.
    """

    cells: tuple[TopCell, ...]
    facets: tuple[Facet, ...] = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "cells", tuple(self.cells))
        if not self.cells:
            raise SkeletonError("skeleton needs at least one top cell")
        ids = [c.cell_id for c in self.cells]
        if len(set(ids)) != len(ids):
            raise SkeletonError("top-cell ids must be unique")
        dims = {c.dim for c in self.cells}
        if len(dims) > 1:
            raise SkeletonError(f"top cells must share one dimension, got dimensions {sorted(dims)}")
        facets = sorted(
            (
                Facet(tuple(sorted(key)), tuple(members))
                for key, members in _codim_one_incidence(self.cells).items()
            ),
            key=lambda f: f.vertices,
        )
        object.__setattr__(self, "facets", tuple(facets))

    @property
    def dim(self) -> int:
        return self.cells[0].dim

    def cell(self, cell_id: str) -> TopCell:
        for c in self.cells:
            if c.cell_id == cell_id:
                return c
        raise SkeletonError(f"no top cell {cell_id!r} in the skeleton")

    @classmethod
    def from_dual_complex(cls, dual: DualComplex) -> "TriangulatedSkeleton":
        """View the top-dimensional faces of a dual complex as a skeleton.

        Each top face becomes a cell with the face's id string as its id, its
        component names as vertices and the component multiplicities.
        Complexes whose codimension-one strata have several connected pieces
        cannot be expressed with component-name vertices and are rejected.
        """
        d = dual.dim
        cells = [
            TopCell(cell_id=f.id_string(), vertices=f.components, multiplicities=f.simplex.b)
            for f in dual.faces_of_dim(d)
        ]
        if d >= 1:
            for g in dual.faces_of_dim(d - 1):
                if g.label != 0 or dual.model.stratum_count(g.components) > 1:
                    raise SkeletonError(
                        f"stratum {'&'.join(g.components)} has several connected pieces; "
                        "its vertex set would be ambiguous in the skeleton"
                    )
        return cls(cells)


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
    rho: float,
) -> dict[str, float]:
    """Propagate the residue magnitude ``rho`` of ``anchor`` to every top cell.

    The residue of a holomorphic form along the divisor chain has poles
    exactly at the two cells adjacent across each facet, and those two
    residues sum to zero; the magnitude is therefore preserved across every
    facet, and on a strongly connected skeleton it reaches every cell.  So
    the result is the constant map ``cell_id -> rho``, whatever the anchor.

    Preconditions, each raising `SkeletonError`: the anchor is a cell of the
    skeleton, ``rho`` is finite and ``>= 0``, the skeleton is closed (every
    facet lies in exactly two cells; a boundary facet would end the chain and
    leave the residue there unconstrained) and strongly connected, and every
    top cell has ``b_sigma = 1``.
    """
    sk.cell(anchor)
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

    return {c.cell_id: rho for c in sk.cells}


def _anchor(residue_anchor: str, rho: float | None) -> tuple[str, float | None]:
    if rho is not None and not (math.isfinite(rho) and rho >= 0):
        raise ValueError("rho must be finite and >= 0")
    return residue_anchor, rho


SKELETON_SECTIONS: dict[str, SpecSection] = {
    **MODEL_SECTIONS,
    "skeleton": (None, {"residue_anchor": (str, REQUIRED), "rho": (float, None)}, _anchor),
}


def parse_skeleton_spec(text: str, name: str = "skeleton") -> tuple[WeightedSncModel, str | None, float | None]:
    """Parse a skeleton file: the model-spec format plus a ``[skeleton]`` section.

    The optional section holds one line ``residue_anchor=<face-id> [rho=<float>]``,
    the top cell residue magnitudes propagate from and its magnitude; without
    it both are ``None``.  Errors cite their line.
    """
    model, spec = read_spec(text, name, SKELETON_SECTIONS)
    anchors = spec["skeleton"]
    if len(anchors) > 1:
        raise ModelSpecError(anchors[1][0], "[skeleton] residue_anchor given twice")
    return (model, *anchors[0][1]) if anchors else (model, None, None)


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
    return TriangulatedSkeleton(cells)

"""Combinatorial models of normal-crossing degenerations.

A weighted model records the combinatorics of a degeneration over a disc:
named boundary components with positive integer multiplicities ``b_i`` and
rational twist weights ``a_i``, the list of nonempty intersection strata
(with connected-component counts), and optional horizontal pair divisors
with rational coefficients ``c < 1``.

From this data the module builds the dual intersection complex (one weighted
simplex per connected stratum), the per-vertex slopes ``kappa_i = a_i / b_i``
with their minimum, the active subcomplex where the minimum is attained, the
residual boundary coefficients on active strata, and the subklt predicate
that governs local integrability of residual volume forms.

Models can also be read from a small structured text format::

    [components]
    E0  b=1  a=0      # name, integer multiplicity b, rational weight a (default 0)
    E1  b=2  a=1
    [strata]
    E0
    E1
    E0 & E1  count=1  # an &-list of components, connected pieces (default 1)
    [pairs]
    H  c=1/2          # name, coefficient c < 1

``#`` starts a comment at the start of a line or after whitespace, so a face
id such as ``E0&E1#1`` is read whole.  Every component must also appear as a
singleton stratum, and listed strata must be downward closed under taking
nonempty subsets.  `read_spec` reads the format from a table with one row per
section; every error cites its own line, the section and the field or entry
at fault, and an error of the whole model cites the line of its entry.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable, Iterable, Mapping, Sequence

from .lattice import ZSimplex, _multiplicity


class ModelError(ValueError):
    """Invalid model data; ``entry`` is the component, stratum or pair divisor at fault, if any."""

    def __init__(self, message: str, entry: object = None) -> None:
        super().__init__(message)
        self.entry = entry


class ModelSpecError(ValueError):
    """Malformed model-spec text; message cites the line number."""

    def __init__(self, line_number: int, message: str) -> None:
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


@dataclass(frozen=True)
class Component:
    """Boundary component with multiplicity ``b`` and twist weight ``a``."""

    name: str
    b: int
    a: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        try:
            object.__setattr__(self, "b", _multiplicity(self.b))
        except ValueError:
            raise ModelError(f"component {self.name!r}: multiplicity must be a positive integer") from None
        object.__setattr__(self, "a", Fraction(self.a))

    @property
    def kappa(self) -> Fraction:
        return self.a / self.b


@dataclass(frozen=True)
class Stratum:
    """Nonempty intersection of the named components, with its number of connected pieces."""

    components: tuple[str, ...]
    count: int = 1

    def __post_init__(self) -> None:
        names = tuple(self.components)
        if len(set(names)) != len(names) or not names:
            raise ModelError(f"stratum {names!r}: component names must be distinct and nonempty")
        object.__setattr__(self, "components", names)
        if self.count < 1:
            raise ModelError(f"stratum {names!r}: count must be >= 1")


@dataclass(frozen=True)
class PairDivisor:
    """Horizontal boundary divisor with coefficient ``c < 1``."""

    name: str
    c: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "c", Fraction(self.c))
        if self.c >= 1:
            raise ModelError(f"pair divisor {self.name!r}: coefficient must be < 1")


@dataclass(frozen=True)
class WeightedSncModel:
    """Weighted normal-crossing model: components, strata, optional pair divisors."""

    components: tuple[Component, ...]
    strata: tuple[Stratum, ...]
    pair_divisors: tuple[PairDivisor, ...] = ()
    name: str = "model"

    def __post_init__(self) -> None:
        object.__setattr__(self, "components", tuple(self.components))
        object.__setattr__(self, "strata", tuple(self.strata))
        object.__setattr__(self, "pair_divisors", tuple(self.pair_divisors))
        known: set[str] = set()
        for c in self.components:
            if c.name in known:
                raise ModelError(f"component {c.name!r} listed twice", c)
            known.add(c.name)
        listed: dict[frozenset[str], Stratum] = {}
        for s in self.strata:
            unknown = [n for n in s.components if n not in known]
            if unknown:
                raise ModelError(f"stratum {s.components!r} references unknown component {unknown[0]!r}", s)
            if frozenset(s.components) in listed:
                raise ModelError(f"stratum {sorted(s.components)!r} listed twice", s)
            listed[frozenset(s.components)] = s
        for c in self.components:
            if frozenset((c.name,)) not in listed:
                raise ModelError(f"component {c.name!r} has no singleton stratum entry", c)
        for key, s in listed.items():
            missing = [key - {n} for n in s.components if len(key) > 1 and key - {n} not in listed]
            if missing:
                raise ModelError(
                    f"strata not downward closed: {sorted(key)!r} listed but {sorted(missing[0])!r} missing", s
                )
        for p in self.pair_divisors:
            if p.name in known:
                raise ModelError(f"pair divisor {p.name!r}: names must be unique and distinct from components", p)
            known.add(p.name)

    def component(self, name: str) -> Component:
        return self.components[self.component_index(name)]

    def component_index(self, name: str) -> int:
        for i, c in enumerate(self.components):
            if c.name == name:
                return i
        raise ModelError(f"unknown component {name!r}")

    def stratum_count(self, names: Iterable[str]) -> int:
        key = frozenset(names)
        for s in self.strata:
            if frozenset(s.components) == key:
                return s.count
        return 0

    def has_stratum(self, names: Iterable[str]) -> bool:
        return self.stratum_count(names) > 0


@dataclass(frozen=True)
class Face:
    """A face of the dual complex: a connected stratum with its weighted simplex.

    ``components`` are ordered consistently with the model; ``label``
    distinguishes the connected pieces of a stratum with ``count > 1``.
    """

    components: tuple[str, ...]
    label: int
    simplex: ZSimplex

    @property
    def key(self) -> tuple[tuple[str, ...], int]:
        return (self.components, self.label)

    @property
    def dim(self) -> int:
        return self.simplex.dim

    @property
    def multiplicity(self) -> int:
        return self.simplex.multiplicity

    def id_string(self) -> str:
        base = "&".join(self.components)
        return f"{base}#{self.label}" if self.label else base


@dataclass(frozen=True)
class DualComplex:
    """Dual intersection complex of a weighted model (a generalized simplicial complex)."""

    model: WeightedSncModel
    faces: tuple[Face, ...]

    def faces_of_dim(self, k: int) -> tuple[Face, ...]:
        return tuple(f for f in self.faces if f.dim == k)

    @property
    def dim(self) -> int:
        return max(f.dim for f in self.faces)

    def euler_characteristic(self) -> int:
        return sum((-1) ** f.dim for f in self.faces)

    def face(self, components: Iterable[str], label: int = 0) -> Face:
        key = (tuple(sorted(components, key=self.model.component_index)), label)
        for f in self.faces:
            if f.key == key:
                return f
        raise ModelError(f"no face {key!r} in the complex")

    def is_face_of(self, sub: Face, sup: Face) -> bool:
        """Whether ``sub`` is a face of ``sup``.

        For strata with a single connected piece the subset relation on
        component sets decides incidence.  If ``sub`` belongs to a stratum
        with several pieces the subset relation no longer determines which
        piece contains ``sup``; such queries raise `ModelError` rather than
        guessing.
        """
        if not set(sub.components) <= set(sup.components):
            return False
        if set(sub.components) == set(sup.components):
            return sub.key == sup.key
        if self.model.stratum_count(sub.components) > 1:
            raise ModelError(
                f"incidence of {sub.id_string()} in {sup.id_string()} is ambiguous: "
                f"stratum {'&'.join(sub.components)} has several connected pieces"
            )
        return True


def build_dual_complex(m: WeightedSncModel) -> DualComplex:
    """Dual complex of the model: one face per connected stratum.

    The face of a stratum with components ``J`` carries the weighted simplex
    with multiplicities ``(b_i)_{i in J}``; a stratum with ``count`` connected
    pieces contributes that many faces, distinguished by labels.
    """
    faces: list[Face] = []
    order = {c.name: i for i, c in enumerate(m.components)}
    for s in sorted(m.strata, key=lambda s: (len(s.components), [order[n] for n in sorted(s.components, key=order.get)])):
        names = tuple(sorted(s.components, key=order.get))
        simplex = ZSimplex(tuple(m.component(n).b for n in names))
        for label in range(s.count):
            faces.append(Face(names, label, simplex))
    return DualComplex(m, tuple(faces))


@dataclass(frozen=True)
class WeightData:
    """Slopes of the twist weights and the active subcomplex they cut out."""

    kappa: Mapping[str, Fraction]
    kappa_min: Fraction
    active_faces: tuple[Face, ...]
    d: int

    def active_top_faces(self) -> tuple[Face, ...]:
        return tuple(f for f in self.active_faces if f.dim == self.d)


def weight_data(m: WeightedSncModel, dual: DualComplex | None = None) -> WeightData:
    """Per-vertex slopes ``kappa_i = a_i / b_i`` and the subcomplex where the minimum is attained.

    A face is active when every one of its vertices attains ``min_i kappa_i``;
    ``d`` is the largest dimension among active faces.
    """
    if dual is None:
        dual = build_dual_complex(m)
    kappa = {c.name: c.kappa for c in m.components}
    kappa_min = min(kappa.values())
    active = tuple(
        f for f in dual.faces if all(kappa[n] == kappa_min for n in f.components)
    )
    d = max(f.dim for f in active)
    return WeightData(kappa=kappa, kappa_min=kappa_min, active_faces=active, d=d)


def boundary_coefficients(
    m: WeightedSncModel, face: Face, weights: WeightData | None = None
) -> dict[str, Fraction]:
    """Residual boundary coefficients on an active stratum.

    Each component ``i`` outside the face that still meets the stratum
    contributes ``1 - (a_i - kappa_min * b_i)``; pair divisors contribute
    their coefficients unchanged.
    """
    if weights is None:
        weights = weight_data(m)
    if face not in weights.active_faces:
        raise ModelError(f"face {face.id_string()} is not in the active subcomplex")
    out: dict[str, Fraction] = {}
    for c in m.components:
        if c.name in face.components:
            continue
        if m.has_stratum((*face.components, c.name)):
            out[c.name] = 1 - (c.a - weights.kappa_min * c.b)
    for p in m.pair_divisors:
        out[p.name] = p.c
    return out


def is_subklt(coefficients: Mapping[str, Fraction]) -> bool:
    """Whether all boundary coefficients are < 1 (local integrability of the residue)."""
    return all(Fraction(c) < 1 for c in coefficients.values())


# ---------------------------------------------------------------------------
# Presets


def annulus() -> WeightedSncModel:
    """Two reduced components joined along one stratum (the bidisc degeneration)."""
    return simplex_model((1, 1), name="annulus")


def fermat_smooth() -> WeightedSncModel:
    """Smooth family: a single reduced central fiber, dual complex a point."""
    return WeightedSncModel(
        components=(Component("X0", 1),),
        strata=(Stratum(("X0",)),),
        name="fermat_smooth",
    )


def coordinate_pencil(n: int = 2) -> WeightedSncModel:
    """Pencil degenerating a degree-``n+1`` hypersurface to the coordinate simplex.

    The central fiber is the union of the ``n + 1`` coordinate hyperplane
    sections; any ``n`` of them intersect, all ``n + 1`` do not.  The dual
    complex is the boundary of an ``n``-simplex.
    """
    if n < 1:
        raise ModelError("coordinate_pencil requires n >= 1")
    return simplex_model((1,) * (n + 1), name=f"coordinate_pencil({n})", boundary=True)


def simplex_model(
    b: Sequence[int],
    a: Sequence[Fraction] | None = None,
    name: str = "simplex",
    boundary: bool = False,
) -> WeightedSncModel:
    """Components ``E0..Ep`` with multiplicities ``b`` and weights ``a`` (default 0).

    Every nonempty set of components meets in one connected stratum, listed
    by size and then in lexicographic order, so the dual complex is the full
    ``p``-simplex; ``boundary=True`` leaves out the deepest stratum, giving
    the boundary of the simplex.
    """
    names = [f"E{i}" for i in range(len(b))]
    a = tuple(a) if a is not None else (Fraction(0),) * len(b)
    comps = tuple(Component(nm, bi, ai) for nm, bi, ai in zip(names, b, a, strict=True))
    depth = len(names) - 1 if boundary else len(names)
    strata = tuple(Stratum(J) for size in range(1, depth + 1) for J in combinations(names, size))
    return WeightedSncModel(comps, strata, name=name)


PRESETS = {
    "annulus": annulus,
    "fermat_smooth": fermat_smooth,
    "coordinate_pencil": coordinate_pencil,
}


def load_preset(name: str, n: int = 2) -> WeightedSncModel:
    """Look up a preset by name; ``n`` is the projective dimension of ``coordinate_pencil``."""
    if name not in PRESETS:
        raise ModelError(f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}")
    preset = PRESETS[name]
    return preset(n) if preset is coordinate_pencil else preset()


# ---------------------------------------------------------------------------
# Model-spec text format

_COMMENT = re.compile(r"(?:^|\s)#.*")  # a comment starts a line or follows whitespace
REQUIRED = object()
_EXPECTS = {int: "an integer", Fraction: "a rational", float: "a number"}

# A row of the spec table: the reader of a line's head (the tokens before its
# first key=value; None: no head), each field's (converter, default), and the
# builder of the line's entry from the head and the fields.
SpecSection = tuple[Callable[[list[str]], object] | None, Mapping[str, tuple[Callable, object]], Callable]


def _one_name(tokens: list[str]) -> str:
    if len(tokens) != 1:
        raise ValueError(f"expected one name before the fields, got {' '.join(tokens)!r}")
    return tokens[0]


MODEL_SECTIONS: dict[str, SpecSection] = {
    "components": (_one_name, {"b": (int, REQUIRED), "a": (Fraction, Fraction(0))}, Component),
    "strata": (lambda tokens: tuple(n.strip() for n in " ".join(tokens).split("&")), {"count": (int, 1)}, Stratum),
    "pairs": (_one_name, {"c": (Fraction, REQUIRED)}, PairDivisor),
}
Spec = dict[str, list[tuple[int, object]]]


def read_spec(text: str, name: str, sections: Mapping[str, SpecSection]) -> tuple[WeightedSncModel, Spec]:
    """Read spec text with a section table: the model and each section's ``(line, entry)`` list.

    Every error raises `ModelSpecError` citing its line (for an error of the
    whole model, the line of the entry at fault) and naming the section and
    the field or entry at fault.
    """
    spec: Spec = {s: [] for s in sections}
    section: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _COMMENT.sub("", raw, count=1).strip()
        if not line:
            continue
        if line.startswith("["):
            section = line[1:-1].strip().lower() if line.endswith("]") else None
            if section not in sections:
                raise ModelSpecError(lineno, f"unknown section header {line!r}")
            continue
        if section is None:
            raise ModelSpecError(lineno, "content before any section header")
        head, fields, build = sections[section]
        tokens = line.split()
        n = 0 if head is None else next((i for i, tok in enumerate(tokens) if "=" in tok), len(tokens))
        values: dict[str, object] = {}
        try:
            args = () if head is None else (head(tokens[:n]),)
            for tok in tokens[n:]:
                key, eq, value = tok.partition("=")
                if not eq:
                    raise ValueError(f"expected key=value, got {tok!r}")
                if key not in fields or key in values:
                    raise ValueError(f"{'duplicate' if key in values else 'unknown'} field {key!r}")
                convert = fields[key][0]
                try:
                    values[key] = convert(value)
                except (ValueError, ZeroDivisionError):
                    raise ValueError(f"field {key}={value!r} is not {_EXPECTS[convert]}") from None
            for key, (_, default) in fields.items():
                if key not in values and default is REQUIRED:
                    raise ValueError(f"missing field {key!r}")
                values.setdefault(key, default)
            spec[section].append((lineno, build(*args, **values)))
        except ValueError as e:
            raise ModelSpecError(lineno, " ".join([f"[{section}]", *tokens[:n]]) + f": {e}") from None
    components, strata, pairs = (tuple(e for _, e in spec[s]) for s in MODEL_SECTIONS)
    if not components:
        raise ModelSpecError(1, "[components] no components defined")
    try:
        return WeightedSncModel(components, strata, pairs, name=name), spec
    except ModelError as e:
        lineno, section = next((i, s) for s in MODEL_SECTIONS for i, x in spec[s] if x is e.entry)
        raise ModelSpecError(lineno, f"[{section}] {e}") from None


def parse_model_spec(text: str, name: str = "model") -> WeightedSncModel:
    """Parse the model-spec text format (see the module docstring); errors cite their line."""
    return read_spec(text, name, MODEL_SECTIONS)[0]


def format_model_spec(m: WeightedSncModel) -> str:
    """Serialize a model to the structured text format (inverse of `parse_model_spec`)."""
    lines = ["[components]"]
    for c in m.components:
        lines.append(f"{c.name}  b={c.b}  a={c.a}")
    lines.append("[strata]")
    for s in m.strata:
        suffix = f"  count={s.count}" if s.count != 1 else ""
        lines.append(" & ".join(s.components) + suffix)
    if m.pair_divisors:
        lines.append("[pairs]")
        for p in m.pair_divisors:
            lines.append(f"{p.name}  c={p.c}")
    return "\n".join(lines) + "\n"

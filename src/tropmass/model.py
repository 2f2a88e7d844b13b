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

    # comment
    [components]
    E0  b=1  a=0
    E1  b=2  a=1
    [strata]
    E0 & E1  count=1
    [pairs]
    H  c=1/2

Every component must also appear as a singleton stratum (its own connected-
component count), and listed strata must be downward closed under taking
nonempty subsets.  Parse errors cite the offending line number.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .lattice import AffineFunctionOnSimplex, ZSimplex


class ModelError(ValueError):
    """Invalid model data (validation or lookup failure)."""


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
        if self.b < 1 or self.b != int(self.b):
            raise ModelError(f"component {self.name!r}: multiplicity must be a positive integer")
        object.__setattr__(self, "b", int(self.b))
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
        names = [c.name for c in self.components]
        if len(set(names)) != len(names):
            raise ModelError("component names must be unique")
        known = set(names)
        listed: dict[frozenset[str], int] = {}
        for s in self.strata:
            for n in s.components:
                if n not in known:
                    raise ModelError(f"stratum references unknown component {n!r}")
            key = frozenset(s.components)
            if key in listed:
                raise ModelError(f"stratum {sorted(key)!r} listed twice")
            listed[key] = s.count
        for n in names:
            if frozenset((n,)) not in listed:
                raise ModelError(f"component {n!r} has no singleton stratum entry")
        for key in listed:
            if len(key) > 1:
                for n in key:
                    sub = key - {n}
                    if sub not in listed:
                        raise ModelError(
                            f"strata not downward closed: {sorted(key)!r} listed "
                            f"but {sorted(sub)!r} missing"
                        )
        pair_names = [p.name for p in self.pair_divisors]
        if len(set(pair_names)) != len(pair_names) or set(pair_names) & known:
            raise ModelError("pair divisor names must be unique and distinct from components")

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


def evaluate_divisor_on_face(
    m: WeightedSncModel, coefficients: Mapping[str, Fraction | int], face: Face
) -> AffineFunctionOnSimplex:
    """Restrict a divisor ``sum_i c_i E_i`` to a face, as the affine function ``w -> sum c_i w_i``.

    Every component of the face must have a coefficient; the minimum over the
    whole complex of these functions is ``min_i c_i / b_i`` over vertices.
    """
    try:
        coeffs = tuple(Fraction(coefficients[n]) for n in face.components)
    except KeyError as e:
        raise ModelError(f"divisor is missing a coefficient for component {e.args[0]!r}") from None
    return AffineFunctionOnSimplex(face.simplex, coeffs)


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
    return WeightedSncModel(
        components=(Component("E0", 1), Component("E1", 1)),
        strata=(Stratum(("E0",)), Stratum(("E1",)), Stratum(("E0", "E1"))),
        name="annulus",
    )


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
    strata = []
    for size in range(1, depth + 1):
        for J in _subsets(names, size):
            strata.append(Stratum(J))
    return WeightedSncModel(comps, tuple(strata), name=name)


def _subsets(items: Sequence[str], size: int) -> list[tuple[str, ...]]:
    from itertools import combinations

    return [tuple(c) for c in combinations(items, size)]


PRESETS = {
    "annulus": annulus,
    "fermat_smooth": fermat_smooth,
    "coordinate_pencil": coordinate_pencil,
}


def load_preset(name: str) -> WeightedSncModel:
    """Look up a preset by name; ``coordinate_pencil(n)`` takes an integer argument."""
    name = name.strip()
    if name.endswith(")") and "(" in name:
        base, arg = name[:-1].split("(", 1)
        base = base.strip()
        if base not in PRESETS:
            raise ModelError(f"unknown preset {base!r}")
        try:
            n = int(arg)
        except ValueError:
            raise ModelError(f"preset argument must be an integer, got {arg!r}") from None
        return PRESETS[base](n)
    if name not in PRESETS:
        raise ModelError(f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}")
    return PRESETS[name]()


# ---------------------------------------------------------------------------
# Model-spec text format


def _parse_fraction(text: str, lineno: int, what: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ModelSpecError(lineno, f"cannot parse {what} {text!r} as a rational") from None


def _parse_fields(tokens: list[str], lineno: int) -> dict[str, str]:
    fields: dict[str, str] = {}
    for tok in tokens:
        if "=" not in tok:
            raise ModelSpecError(lineno, f"expected key=value, got {tok!r}")
        k, v = tok.split("=", 1)
        if k in fields:
            raise ModelSpecError(lineno, f"duplicate field {k!r}")
        fields[k] = v
    return fields


def parse_model_spec(text: str, name: str = "model") -> WeightedSncModel:
    """Parse the structured text format for weighted models.

    Sections ``[components]``, ``[strata]`` and optional ``[pairs]``; ``#``
    starts a comment.  Component lines are ``name b=<int> a=<rational>``
    (``a`` defaults to 0); stratum lines are ``nameA & nameB count=<int>``
    (``count`` defaults to 1; singleton strata for each component are
    required); pair lines are ``name c=<rational>``.  All errors cite the
    line number.
    """
    components: list[Component] = []
    strata: list[Stratum] = []
    pairs: list[PairDivisor] = []
    section: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ModelSpecError(lineno, f"malformed section header {line!r}")
            section = line[1:-1].strip().lower()
            if section not in ("components", "strata", "pairs"):
                raise ModelSpecError(lineno, f"unknown section {section!r}")
            continue
        if section is None:
            raise ModelSpecError(lineno, "content before any section header")
        if section == "components":
            tokens = line.split()
            if len(tokens) < 2:
                raise ModelSpecError(lineno, "component line needs a name and b=<int>")
            cname, fields = tokens[0], _parse_fields(tokens[1:], lineno)
            unknown = set(fields) - {"b", "a"}
            if unknown:
                raise ModelSpecError(lineno, f"unknown component field(s) {sorted(unknown)!r}")
            if "b" not in fields:
                raise ModelSpecError(lineno, "component line missing b=<int>")
            try:
                b = int(fields["b"])
            except ValueError:
                raise ModelSpecError(lineno, f"multiplicity {fields['b']!r} is not an integer") from None
            a = _parse_fraction(fields.get("a", "0"), lineno, "weight a")
            try:
                components.append(Component(cname, b, a))
            except ModelError as e:
                raise ModelSpecError(lineno, str(e)) from None
        elif section == "strata":
            tokens = line.split()
            name_tokens = [t for t in tokens if "=" not in t]
            head = " ".join(name_tokens)
            fields = _parse_fields([t for t in tokens if "=" in t], lineno)
            unknown = set(fields) - {"count"}
            if unknown:
                raise ModelSpecError(lineno, f"unknown stratum field(s) {sorted(unknown)!r}")
            try:
                count = int(fields.get("count", "1"))
            except ValueError:
                raise ModelSpecError(lineno, f"count {fields['count']!r} is not an integer") from None
            names = tuple(n.strip() for n in head.split("&"))
            if any(not n for n in names):
                raise ModelSpecError(lineno, f"malformed stratum name list {head!r}")
            try:
                strata.append(Stratum(names, count))
            except ModelError as e:
                raise ModelSpecError(lineno, str(e)) from None
        else:  # pairs
            tokens = line.split()
            if len(tokens) != 2:
                raise ModelSpecError(lineno, "pair line needs a name and c=<rational>")
            pname, fields = tokens[0], _parse_fields(tokens[1:], lineno)
            if set(fields) != {"c"}:
                raise ModelSpecError(lineno, "pair line needs exactly the field c=<rational>")
            c = _parse_fraction(fields["c"], lineno, "pair coefficient")
            try:
                pairs.append(PairDivisor(pname, c))
            except ModelError as e:
                raise ModelSpecError(lineno, str(e)) from None
    if not components:
        raise ModelSpecError(1, "no components defined")
    try:
        return WeightedSncModel(tuple(components), tuple(strata), tuple(pairs), name=name)
    except ModelError as e:
        raise ModelSpecError(len(text.splitlines()) or 1, str(e)) from None


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

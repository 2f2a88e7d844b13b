"""Limit measures on skeleta and closed-form residual masses.

The limit of the rescaled fiber measures of a degenerating family lives on
the top-dimensional active faces of the dual complex: each face ``sigma``
contributes its residual mass ``R_sigma`` (an integral over the corresponding
stratum) times ``1/b_sigma`` times the lattice-normalized volume of the face.
This module assembles that measure from per-face masses, computes the
residual masses in closed form for local monomial-metric charts, and predicts
the leading asymptotics (decay exponent, logarithmic order, constant) of the
total fiber mass.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .lattice import simplex_volume
from .model import DualComplex, Face, ModelError, WeightedSncModel, build_dual_complex, weight_data

TWO_PI = 2.0 * math.pi


class DivergenceError(ValueError):
    """A residual-mass integral diverges for the given exponents."""


@dataclass(frozen=True)
class MonomialChartMetric:
    """Local chart data for a monomial volume form near a depth-``p+1`` stratum.

    The chart has ``p + 1`` vanishing coordinates with multiplicities ``b_i``
    and twist exponents ``a_i`` (restricted to polydisc radii ``radii``), and
    ``transverse_dim`` further coordinates restricted to discs of radii
    ``transverse_radii``, optionally carrying pair-divisor exponents
    ``pair_exponents`` (each < 1).  ``kappa_ref`` is the reference slope the
    masses are rescaled by; it defaults to the chart-local minimum of
    ``a_i / b_i``.  ``weight_fn`` is an optional bounded log-weight of the
    metric; ``None`` means the pure monomial metric.
    """

    b: tuple[int, ...]
    a: tuple[Fraction, ...]
    radii: tuple[float, ...] | None = None
    transverse_dim: int = 0
    transverse_radii: tuple[float, ...] | None = None
    pair_exponents: tuple[Fraction, ...] | None = None
    kappa_ref: Fraction | None = None
    weight_fn: Callable[..., float] | None = None

    def __post_init__(self) -> None:
        b = tuple(int(x) for x in self.b)
        if not b or any(x < 1 for x in b):
            raise ValueError("multiplicities must be positive integers")
        a = tuple(Fraction(x) for x in self.a)
        if len(a) != len(b):
            raise ValueError("need one exponent a_i per multiplicity b_i")
        radii = self.radii if self.radii is not None else (1.0,) * len(b)
        if len(radii) != len(b) or any(not 0 < r <= 1 for r in radii):
            raise ValueError("monomial radii must lie in (0, 1], one per coordinate")
        tr = (
            self.transverse_radii
            if self.transverse_radii is not None
            else (1.0,) * self.transverse_dim
        )
        if len(tr) != self.transverse_dim or any(r <= 0 for r in tr):
            raise ValueError("transverse radii must be positive, one per transverse coordinate")
        ce = (
            tuple(Fraction(c) for c in self.pair_exponents)
            if self.pair_exponents is not None
            else (Fraction(0),) * self.transverse_dim
        )
        if len(ce) != self.transverse_dim:
            raise ValueError("need one pair exponent per transverse coordinate")
        kr = self.kappa_ref
        kmin = min(ai / bi for ai, bi in zip(a, b))
        if kr is None:
            kr = kmin
        else:
            kr = Fraction(kr)
            if kr > kmin:
                raise ValueError("kappa_ref exceeds the chart-local minimum slope")
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "radii", tuple(float(r) for r in radii))
        object.__setattr__(self, "transverse_radii", tuple(float(r) for r in tr))
        object.__setattr__(self, "pair_exponents", ce)
        object.__setattr__(self, "kappa_ref", kr)

    @property
    def p(self) -> int:
        return len(self.b) - 1

    @property
    def kappa(self) -> tuple[Fraction, ...]:
        return tuple(ai / bi for ai, bi in zip(self.a, self.b))

    @property
    def kappa_min(self) -> Fraction:
        return min(self.kappa)

    def exponents(self) -> tuple[Fraction, ...]:
        """Rescaled exponents ``a_i - kappa_ref * b_i`` (zero exactly on active indices)."""
        return tuple(ai - self.kappa_ref * bi for ai, bi in zip(self.a, self.b))

    def active_indices(self) -> tuple[int, ...]:
        return tuple(i for i, e in enumerate(self.exponents()) if e == 0)

    @property
    def active_dim(self) -> int:
        """Dimension of the active face of this chart (may be -1 if kappa_ref < min slope)."""
        return len(self.active_indices()) - 1


def residual_mass_closed_form(chart: MonomialChartMetric, active_dim: int | None = None) -> float:
    """Residual mass of a monomial chart, as an explicit product.

    Integrating the rescaled volume form over the stratum in log-polar
    coordinates gives
    ``(2 pi)^(p - d) * prod_{i nonactive} r_i^(2 e_i) / (2 e_i)
    * prod_j pi R_j^(2 (1 - c_j)) / (1 - c_j)``
    where ``e_i = a_i - kappa_ref * b_i`` and ``d`` is the active dimension.

    Raises `DivergenceError` when a nonactive exponent is <= 0 or a pair
    exponent is >= 1, and `ValueError` when the chart is not in monomial form
    (a metric weight is attached) or ``active_dim`` disagrees with the chart.
    """
    if chart.weight_fn is not None:
        raise ValueError("closed form requires the pure monomial metric (no weight function)")
    active = chart.active_indices()
    d = len(active) - 1
    if active_dim is not None and active_dim != d:
        raise ValueError(
            f"chart has active dimension {d}, not {active_dim}: "
            f"exponents vanish exactly on indices {active}"
        )
    exps = chart.exponents()
    mass = TWO_PI ** (chart.p - d)
    for i, e in enumerate(exps):
        if i in active:
            continue
        if e <= 0:
            raise DivergenceError(
                f"nonactive coordinate {i} has exponent {e} <= 0: mass integral diverges"
            )
        mass *= chart.radii[i] ** (2 * float(e)) / (2 * float(e))
    for j, (r, c) in enumerate(zip(chart.transverse_radii, chart.pair_exponents)):
        if c >= 1:
            raise DivergenceError(
                f"transverse coordinate {j} has pair exponent {c} >= 1: mass integral diverges"
            )
        mass *= math.pi * r ** (2 * float(1 - c)) / float(1 - c)
    return mass


def chart_limit_mass(chart: MonomialChartMetric) -> float:
    """Limit of the rescaled chart mass: residual mass times ``Vol / gcd`` of the active ``b``."""
    b_active = tuple(chart.b[i] for i in chart.active_indices())
    return residual_mass_closed_form(chart) * float(simplex_volume(b_active) / math.gcd(*b_active))


@dataclass(frozen=True)
class MeasureEntry:
    """One top-dimensional face's contribution to the limit measure."""

    face: Face
    residual_mass: float
    volume: Fraction

    @property
    def b_sigma(self) -> int:
        return self.face.multiplicity

    @property
    def weight(self) -> float:
        return self.residual_mass * float(self.volume / self.b_sigma)


@dataclass(frozen=True)
class SkeletalMeasure:
    """The limit measure: residual masses spread over top-dimensional active faces."""

    model: WeightedSncModel
    entries: tuple[MeasureEntry, ...]
    d: int

    @property
    def total_mass(self) -> float:
        return math.fsum(e.weight for e in self.entries)

    def entry(self, face: Face) -> MeasureEntry:
        for e in self.entries:
            if e.face.key == face.key:
                return e
        raise ModelError(f"no entry for face {face.id_string()}")

    def scaled(self, factor: float) -> "SkeletalMeasure":
        return SkeletalMeasure(
            self.model,
            tuple(
                MeasureEntry(e.face, e.residual_mass * factor, e.volume)
                for e in self.entries
            ),
            self.d,
        )

    def to_rows(self) -> list[dict[str, str]]:
        rows = []
        for e in self.entries:
            rows.append(
                {
                    "face": e.face.id_string(),
                    "components": "&".join(e.face.components),
                    "b_sigma": str(e.b_sigma),
                    "volume": str(e.volume),
                    "residual_mass": repr(e.residual_mass),
                    "weight": repr(e.weight),
                }
            )
        return rows

    def to_json(self) -> str:
        payload = {
            "model": self.model.name,
            "dimension": self.d,
            "total_mass": self.total_mass,
            "entries": [
                {
                    "face": e.face.id_string(),
                    "b_sigma": e.b_sigma,
                    "volume": str(e.volume),
                    "residual_mass": e.residual_mass,
                    "weight": e.weight,
                }
                for e in self.entries
            ],
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def _face_key(face_like, dual: DualComplex) -> tuple[tuple[str, ...], int]:
    """Normalize a face reference (Face, id string, or (components, label))."""
    if isinstance(face_like, Face):
        return face_like.key
    if isinstance(face_like, str):
        base, _, label = face_like.partition("#")
        names = tuple(n.strip() for n in base.split("&"))
        return dual.face(names, int(label) if label else 0).key
    names, label = face_like
    return dual.face(tuple(names), label).key


def assemble_limit_measure(
    m: WeightedSncModel, masses: Mapping | Sequence[tuple] | None = None
) -> SkeletalMeasure:
    """Assemble the limit measure from residual masses on top active faces.

    ``masses`` maps faces (as `Face`, id strings like ``"E0&E1"`` /
    ``"E0&E1#1"``, or ``(components, label)`` pairs) to nonnegative residual
    masses.  Every top-dimensional active face must receive a mass; masses on
    lower-dimensional active faces are accepted and contribute nothing.
    ``masses=None`` assigns unit mass to every top face.
    """
    dual = build_dual_complex(m)
    wd = weight_data(m, dual)
    top = wd.active_top_faces()
    if masses is None:
        given = {f.key: 1.0 for f in top}
    else:
        items = masses.items() if isinstance(masses, Mapping) else masses
        given = {}
        for face_like, value in items:
            key = _face_key(face_like, dual)
            if key in given:
                raise ModelError(f"mass for face {key!r} given twice")
            given[key] = float(value)
    active_keys = {f.key for f in wd.active_faces}
    for key in given:
        if key not in active_keys:
            raise ModelError(f"face {key!r} is not in the active subcomplex")
    entries = []
    for f in top:
        if f.key not in given:
            raise ModelError(f"missing residual mass for top face {f.id_string()}")
        r = given[f.key]
        if r < 0:
            raise ModelError(f"residual mass for {f.id_string()} must be >= 0")
        entries.append(MeasureEntry(f, r, simplex_volume(f.simplex)))
    return SkeletalMeasure(m, tuple(entries), wd.d)


def predicted_mass_asymptotics(
    m: WeightedSncModel, masses: Mapping | None = None
) -> dict[str, object]:
    """Leading asymptotics of the total fiber mass for small ``|t|``.

    Returns ``kappa_min`` (decay exponent: mass scales like ``|t|^(2 kappa_min)``),
    ``d`` (order of the logarithmic factor), and the constant
    ``c = (2 pi)^d * total_mass`` of the assembled limit measure.
    """
    measure = assemble_limit_measure(m, masses)
    wd = weight_data(m)
    return {
        "kappa_min": wd.kappa_min,
        "d": wd.d,
        "c": TWO_PI**wd.d * measure.total_mass,
    }

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

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .lattice import _multiplicities, simplex_volume
from .model import Face, ModelError, WeightedSncModel, build_dual_complex, weight_data

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class MonomialChartMetric:
    """Local chart data for a monomial volume form near a depth-``p+1`` stratum.

    The chart is the unit polydisc in ``p + 1`` vanishing coordinates, with
    multiplicities ``b_i`` and twist exponents ``a_i``.  The masses are
    rescaled at the chart's least slope ``kappa_min = min a_i / b_i``, and
    the coordinates of that slope are the active face.  The metric is the
    pure monomial one; a bounded metric weight ``e^{2 phi}`` enters the
    sampler as its ``h``.
    """

    b: tuple[int, ...]
    a: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        b = _multiplicities(self.b)
        a = tuple(Fraction(x) for x in self.a)
        if len(a) != len(b):
            raise ValueError("need one exponent a_i per multiplicity b_i")
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "a", a)

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
        """Rescaled exponents ``a_i - kappa_min * b_i``: zero on the active face, positive off it."""
        kmin = self.kappa_min
        return tuple(ai - kmin * bi for ai, bi in zip(self.a, self.b))

    def active_indices(self) -> tuple[int, ...]:
        """The chart's active face: the coordinates of least slope ``a_i / b_i``, never empty."""
        return tuple(i for i, e in enumerate(self.exponents()) if e == 0)

    @property
    def active_dim(self) -> int:
        """Dimension of the active face of this chart, at least 0."""
        return len(self.active_indices()) - 1


def residual_mass_closed_form(chart: MonomialChartMetric) -> float:
    """Residual mass of a monomial chart, as an explicit product.

    Integrating the rescaled volume form over the stratum in log-polar
    coordinates gives
    ``(2 pi)^(p - d) * prod_{i nonactive} 1 / (2 e_i)``
    where ``e_i = a_i - kappa_min * b_i``, positive off the active face, and
    ``d`` is the active dimension.
    """
    active = chart.active_indices()
    d = len(active) - 1
    mass = TWO_PI ** (chart.p - d)
    # One factor per coordinate, in this order: dividing by 2 e would round
    # differently.
    for i, e in enumerate(chart.exponents()):
        if i not in active:
            mass *= 1.0 / (2 * float(e))
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
    """The limit measure: residual masses spread over top-dimensional active faces.

    `to_rows` gives its CSV rows and `to_json` its JSON payload; neither
    writes a file (the ``limit-measure`` subcommand's `cli.run` does).
    """

    model: WeightedSncModel
    entries: tuple[MeasureEntry, ...]
    d: int

    @property
    def total_mass(self) -> float:
        """The sum of the weights, correctly rounded: ``inf`` once it passes the float range."""
        try:
            return math.fsum(e.weight for e in self.entries)
        except OverflowError:  # the weights are >= 0, so the sum overflows upward
            return math.inf

    def to_rows(self) -> list[dict[str, object]]:
        return [
            {
                "face": e.face.id_string(),
                "components": "&".join(e.face.components),
                "b_sigma": e.b_sigma,
                "volume": e.volume,
                "residual_mass": e.residual_mass,
                "weight": e.weight,
            }
            for e in self.entries
        ]

    def to_json(self) -> dict[str, object]:
        return {
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


def assemble_limit_measure(
    m: WeightedSncModel, masses: Mapping[str, float] | None = None
) -> SkeletalMeasure:
    """Assemble the limit measure from residual masses on top active faces.

    ``masses`` maps face id strings (``"E0&E1"``, or ``"E0&E1#1"`` for the
    stratum of label 1) to nonnegative residual masses.  Every
    top-dimensional active face must receive a mass; masses on
    lower-dimensional active faces are accepted and contribute nothing.  Two
    ids naming the same face, a face outside the active subcomplex and a
    missing top face raise `ModelError`.  ``masses=None`` assigns unit mass
    to every top face.
    """
    dual = build_dual_complex(m)
    wd = weight_data(m, dual)
    top = wd.active_top_faces()
    if masses is None:
        given = {f.key: 1.0 for f in top}
    else:
        given = {}
        for face_id, value in masses.items():
            base, _, label = face_id.partition("#")
            names = tuple(n.strip() for n in base.split("&"))
            try:
                number = int(label) if label else 0
            except ValueError:
                raise ModelError(f"face id {face_id!r}: the label after '#' must be an integer") from None
            key = dual.face(names, number).key
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
        entries.append(MeasureEntry(f, r, simplex_volume(f.simplex.b)))
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

"""Exact arithmetic of finite base change on skeleta and their measures.

Pulling a degeneration back along ``t = s^m`` multiplies multiplicities and
twist weights in a controlled way: a face with multiplicity ``b_sigma``
splits into ``g = gcd(m, b_sigma)`` faces upstairs, each mapping with degree
``f = 1`` onto the source (the simply-connected local case, so
``f * g = gcd(m, b_sigma)``), the upstairs multiplicity drops to
``b_sigma / gcd(m, b_sigma)``, lattice volumes scale by ``m^dim``, and
residual masses by ``gcd(m, b_sigma)^{-2}``.  Everything here is exact
integer/rational arithmetic; the splitting degree ``e = m / gcd(m, b_sigma)``
is additionally computed as an independent lattice index, and a report
whose two values differ is not `FaceBaseChange.consistent`.  Both identities
read one `face_base_change` report per face: the splitting identity its
`FaceBaseChange.consistent`, the pushforward identity its ``g``, ``f``,
``residual_scale``, ``b_prime`` and ``volume_scale``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .lattice import _multiplicities, _multiplicity, sublattice_index
from .measure import SkeletalMeasure
from .model import Face, WeightedSncModel, build_dual_complex


@dataclass(frozen=True)
class FaceBaseChange:
    """Base-change data of one face under ``t = s^m``."""

    b: tuple[int, ...]
    m: int
    e: int
    fg: int
    g: int
    f: int
    b_prime: int
    volume_scale: int
    residual_scale: Fraction
    e_lattice_check: int

    @property
    def splits(self) -> bool:
        return self.e * self.f * self.g == self.m

    @property
    def index_agrees(self) -> bool:
        return self.e == self.e_lattice_check

    @property
    def consistent(self) -> bool:
        return self.splits and self.index_agrees


def _splitting_index(b: Sequence[int], m: int) -> int:
    """Index of ``Z^n + Z*(b/m)`` over ``Z^n``, by integer normal form.

    Scaling by ``m`` identifies the quotient with ``Z^n / (m Z^n + Z b)``, so
    the index equals ``m^n`` divided by the index of ``m Z^n + Z b``.
    """
    n = len(b)
    gens = [[m if i == j else 0 for j in range(n)] for i in range(n)]
    gens.append(list(b))
    return m**n // sublattice_index(gens, n)


def face_base_change(b: Sequence[int], m: int) -> FaceBaseChange:
    """Base-change report for a face with multiplicities ``b`` under ``t = s^m``.

    The face splits into ``g = gcd(m, b_sigma)`` faces upstairs, each mapping
    with degree ``f = 1`` (the simply-connected local case).  The splitting
    degree ``e = m / gcd(m, b_sigma)`` is reported next to the lattice index of
    ``Z^{p+1} + Z*(b/m)`` over ``Z^{p+1}``; the caller reads a disagreement
    from `FaceBaseChange.consistent`.
    """
    b = _multiplicities(b)
    m = _multiplicity(m, "base-change order m")
    b_sigma = math.gcd(*b)
    fg = math.gcd(m, b_sigma)
    return FaceBaseChange(
        b=b,
        m=m,
        e=m // fg,
        fg=fg,
        g=fg,
        f=1,
        b_prime=b_sigma // fg,
        volume_scale=m ** (len(b) - 1),
        residual_scale=Fraction(1, fg**2),
        e_lattice_check=_splitting_index(b, m),
    )


@dataclass(frozen=True)
class BaseChangeReport:
    """Per-face base-change table for a whole model."""

    entries: tuple[tuple[Face, FaceBaseChange], ...]

    def rows(self) -> list[dict[str, object]]:
        return [
            {
                "face": face.id_string(),
                "e": r.e,
                "fg": r.fg,
                "g": r.g,
                "f": r.f,
                "b_prime": r.b_prime,
                "vol_scale": r.volume_scale,
                "residual_scale": r.residual_scale,
            }
            for face, r in self.entries
        ]


def model_base_change(m_model: WeightedSncModel, m: int) -> BaseChangeReport:
    """Base-change table over all faces of the dual complex."""
    dual = build_dual_complex(m_model)
    entries = tuple((face, face_base_change(face.simplex.b, m)) for face in dual.faces)
    return BaseChangeReport(entries)


@dataclass(frozen=True)
class PushforwardCheck:
    """Result of the exact pushforward identity test, with the face reports it read."""

    m: int
    d: int
    passed: bool
    faces: tuple[FaceBaseChange, ...]


def pushforward_identity_check(measure: SkeletalMeasure, m: int) -> PushforwardCheck:
    """Verify that pushing the base-changed measure forward rescales by ``m^d``.

    The upstairs side of each top face reads only its `face_base_change`
    report: ``g`` faces of residual mass ``residual_scale * R``, volume
    ``volume_scale * Vol`` and multiplicity ``b_prime``, each mapping with
    degree ``f``.  The downstairs side is ``m^d * R * Vol / b``, the only
    ``m^d`` here.  ``R`` cancels, so each side is one exact `Fraction`.
    ``faces`` holds the reports in the order of ``measure.entries``.
    """
    ok = True
    d = measure.d
    scale = _multiplicity(m, "base-change order m") ** d
    faces = tuple(face_base_change(entry.face.simplex.b, m) for entry in measure.entries)
    for entry, r in zip(measure.entries, faces):
        rs, vol = r.residual_scale, entry.volume
        upstairs = r.g * r.f * rs.numerator * r.volume_scale * vol.numerator
        lhs = Fraction(upstairs, rs.denominator * r.b_prime * vol.denominator)
        ok = ok and lhs == Fraction(scale * vol.numerator, entry.b_sigma * vol.denominator)
    return PushforwardCheck(m=m, d=d, passed=ok, faces=faces)

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
whose two values differ is not `FaceBaseChange.consistent`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .lattice import _multiplicities, sublattice_index
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
    if m < 1 or m != int(m):
        raise ValueError("base-change order m must be a positive integer")
    m = int(m)
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

    model: WeightedSncModel
    m: int
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
    return BaseChangeReport(m_model, m, entries)


@dataclass(frozen=True)
class PushforwardCheck:
    """Result of the exact pushforward identity test."""

    m: int
    d: int
    passed: bool


def pushforward_identity_check(measure: SkeletalMeasure, m: int) -> PushforwardCheck:
    """Verify that pushing the base-changed measure forward rescales by ``m^d``.

    For each top face the ``g = gcd(m,b)`` upstairs faces each carry residual
    mass ``gcd(m,b)^{-2} R`` and volume ``m^d Vol``, map with degree
    ``f = 1``, and have multiplicity ``b' = b / gcd(m,b)``; summing
    ``g * f * gcd^{-2} * (b')^{-1} * m^d Vol`` must equal
    ``m^d * b^{-1} * Vol`` exactly (the real factor ``R`` cancels, so the
    comparison is in exact rationals).
    """
    ok = True
    d = measure.d
    for entry in measure.entries:
        face = entry.face
        r = face_base_change(face.simplex.b, m)
        vol = entry.volume
        lhs = (
            Fraction(r.g)
            * r.f
            * r.residual_scale
            * Fraction(1, r.b_prime)
            * Fraction(m) ** d
            * vol
        )
        rhs = Fraction(m) ** d * Fraction(1, face.multiplicity) * vol
        ok = ok and lhs == rhs
    return PushforwardCheck(m=m, d=d, passed=ok)

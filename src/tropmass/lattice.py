"""Exact integral-affine geometry of weighted simplices.

A weighted simplex with positive integer multiplicities ``b = (b_0, ..., b_p)``
is the rational polytope ``sigma = {w in R_{>=0}^{p+1} : sum_i b_i w_i = 1}``.
This module computes, in exact integer/rational arithmetic:

* the lattice-normalized volume of ``sigma``,
* the index of the rescaling map between the tangent lattices of ``sigma``
  and of the reduced (all-multiplicities-one) simplex, via explicit integer
  coordinates and the index of the lattice they span: a Hermite normal form
  by extended-gcd row operations on the columns, last to first (Cohen, 1993,
  section 2.4.2), independent of the closed-form product formula,
* the constant density of the lattice-normalized Lebesgue measure in the
  standard affine chart that drops one coordinate.

`ZSimplex` holds a checked multiplicity vector with the simplex's dimension
and multiplicity; the routines take the vector ``b`` itself.  No floating
point is used anywhere in this module: the values double as oracles for the
Monte-Carlo estimators elsewhere in the package.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Sequence


def _integer(x: object, what: str) -> int:
    """``x`` as an ``int`` by ``operator.index``; a bool, float or string raises `ValueError`."""
    try:
        if not isinstance(x, bool):
            return operator.index(x)
    except TypeError:
        pass
    raise ValueError(f"{what} {x!r} is not an integer")


def _multiplicity(x: object, what: str = "multiplicity") -> int:
    """The one rule for a multiplicity: an integer (``operator.index``), not a bool, at least 1.

    So ``2`` and ``numpy.int64(2)`` pass, while ``1.5``, ``2.0`` and ``True``
    raise `ValueError`.
    """
    if type(x) is int and x >= 1:
        return x
    value = _integer(x, what)
    if value < 1:
        raise ValueError(f"{what} {value} must be >= 1")
    return value


def _multiplicities(b: Sequence[int]) -> tuple[int, ...]:
    """A nonempty multiplicity vector, each entry checked by `_multiplicity`."""
    if len(b) == 0:
        raise ValueError("multiplicity vector must be nonempty")
    return tuple(
        x if type(x) is int and x >= 1 else _multiplicity(x, f"multiplicity b_{i} =")
        for i, x in enumerate(b)
    )


@dataclass(frozen=True)
class ZSimplex:
    """Simplex ``{w >= 0 : sum b_i w_i = 1}`` with integer multiplicities.

    Parameters
    ----------
    b : tuple of int
        Positive multiplicities ``(b_0, ..., b_p)``.

    Attributes
    ----------
    dim : int
        Affine dimension ``p = len(b) - 1``.
    multiplicity : int
        ``gcd(b_0, ..., b_p)``, the multiplicity of the simplex itself.
    """

    b: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "b", _multiplicities(self.b))

    @property
    def dim(self) -> int:
        return len(self.b) - 1

    @property
    def multiplicity(self) -> int:
        return math.gcd(*self.b)


def simplex_volume(b: Sequence[int]) -> Fraction:
    """Lattice-normalized volume of the weighted simplex.

    The volume is measured against the integer tangent lattice
    ``{w in Z^{p+1} : sum b_i w_i = 0}`` and equals
    ``gcd(b) / (p! * prod(b))``.

    Examples
    --------
    >>> simplex_volume((1, 1))
    Fraction(1, 1)
    >>> simplex_volume((2, 3))
    Fraction(1, 6)
    >>> simplex_volume((6, 10, 15))
    Fraction(1, 1800)
    """
    b = _multiplicities(b)
    p = len(b) - 1
    g = math.gcd(*b)
    return Fraction(g, math.factorial(p) * math.prod(b))


def _kernel_basis(b: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Integer basis of the lattice ``{w in Z^n : sum b_i w_i = 0}``.

    ``b`` is a multiplicity vector that `_multiplicities` has already checked.
    Uses the successive-gcd triangular construction: the k-th basis vector is
    supported on coordinates ``0..k`` with last entry ``-g_{k-1}/g_k`` where
    ``g_k = gcd(b_0, ..., b_k)``.

    Returns a list of ``n - 1`` integer vectors (empty for ``n = 1``).
    """
    n = len(b)
    # u holds integer coefficients with sum(b[i]*u[i] for i <= k) == g_k.
    u = [1]
    g = b[0]
    basis: list[tuple[int, ...]] = []
    for k in range(1, n):
        # extended gcd step: g_next = s*g + t*b[k]
        s, t = _bezout(g, b[k])
        g_next = s * g + t * b[k]
        e = b[k] // g_next
        basis.append(tuple([e * x for x in u] + [-(g // g_next)] + [0] * (n - 1 - k)))
        u = [s * x for x in u]
        u.append(t)
        g = g_next
    return basis


def _bezout(a: int, c: int) -> tuple[int, int]:
    """Integers (s, t) with s*a + t*c == gcd(a, c), the non-negative gcd, for signed a and c."""
    old_r, r = a, c
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return (old_s, old_t) if old_r >= 0 else (-old_s, -old_t)


def lattice_index(b: Sequence[int]) -> int:
    """Index of the rescaled tangent lattice inside the reduced one.

    The coordinatewise rescaling ``phi(w)_i = b_i * w_i`` maps the tangent
    lattice ``T = {w in Z^{p+1} : sum b_i w_i = 0}`` of the weighted simplex
    into the tangent lattice ``T' = {w in Z^{p+1} : sum w_i = 0}`` of the
    reduced simplex.  This function computes ``[T' : phi(T)]`` by an explicit
    integer computation (basis of ``T``, coordinates of its image in the
    basis ``{e_{k-1} - e_k}`` of ``T'``, the index of the lattice they
    span by `sublattice_index`) rather
    than by the closed-form product formula — so it serves as an independent
    oracle for `simplex_volume` through the identity
    ``simplex_volume(b) * lattice_index(b) == 1/p!``.

    ``w = sum_k x_k (e_{k-1} - e_k)`` gives ``x_{j+1} = w_0 + ... + w_j``, and
    ``w`` lies in ``T'`` exactly when its entries sum to zero.  The k-th basis
    vector of ``T`` is supported on ``0..k``, so the coordinate matrix is
    lower triangular and needs no row operation.

    Examples
    --------
    >>> lattice_index((1, 1))
    1
    >>> lattice_index((2, 3))
    6
    """
    b = _multiplicities(b)
    coords = []
    for v in _kernel_basis(b):
        partial = list(accumulate(map(operator.mul, b, v)))
        if partial[-1] != 0:
            raise ValueError("vector not in the lattice spanned by the basis")
        coords.append(partial[:-1])
    return sublattice_index(coords, len(b) - 1)


def chart_volume(b: Sequence[int], drop: int = 0) -> Fraction:
    """Euclidean volume of the chart image of the simplex.

    Dropping coordinate ``w_drop`` identifies the simplex with
    ``{w >= 0 : sum_{i != drop} b_i w_i <= 1}`` in ``R^p``, whose euclidean
    volume is ``1 / (p! * prod_{i != drop} b_i)``.
    """
    b = _multiplicities(b)
    p = len(b) - 1
    if not 0 <= drop < len(b):
        raise ValueError(f"drop index {drop} out of range")
    denom = math.factorial(p) * math.prod(x for i, x in enumerate(b) if i != drop)
    return Fraction(1, denom)


def normalized_density_chart(b: Sequence[int], drop: int = 0) -> Fraction:
    """Density of the lattice-normalized Lebesgue measure in an affine chart.

    In the chart that drops coordinate ``w_drop`` (expressing it as
    ``w_drop = b_drop^{-1} (1 - sum_{i != drop} b_i w_i)``), the measure on
    the simplex normalized by the integer tangent lattice is a constant
    multiple of ``|dw_1 ... dw_p|``; this function returns that constant,
    ``gcd(b) / b_drop``.

    The value is pinned by the consistency requirement
    ``normalized_density_chart(b, drop) * chart_volume(b, drop)
    == simplex_volume(b)``.

    Examples
    --------
    >>> normalized_density_chart((1, 1))
    Fraction(1, 1)
    >>> normalized_density_chart((1, 2))
    Fraction(1, 1)
    >>> normalized_density_chart((1, 2), drop=1)
    Fraction(1, 2)
    """
    b = _multiplicities(b)
    if not 0 <= drop < len(b):
        raise ValueError(f"drop index {drop} out of range")
    g = math.gcd(*b)
    return Fraction(g, b[drop])


def sublattice_index(generators: Sequence[Sequence[int]], n: int) -> int:
    """Index in ``Z^n`` of the sublattice spanned by integer generators.

    Returns the absolute product of the pivots of the integer row echelon
    (Hermite) form, the gcd of the maximal minors.  Columns go last to first:
    the first row nonzero in column ``c`` is the pivot, and each other one
    meets it in the unimodular 2x2 step of the extended gcd, which leaves 0
    in that row.  A lower triangular matrix with nonzero diagonal, such as
    `lattice_index`'s, thus takes no row operation.  Entries pass `operator.index`; a bool, float or string raises
    `ValueError`, as do generators of infinite index.
    """
    rows = [[x if type(x) is int else _integer(x, "generator entry") for x in g] for g in generators]
    for r in rows:
        if len(r) != n:
            raise ValueError("generator length mismatch")
    det = 1
    for c in range(n - 1, -1, -1):
        pivot = None
        rest = []
        for r in rows:
            if r[c] == 0:
                rest.append(r)
            elif pivot is None:
                pivot = r
            else:
                p, q = pivot[c], r[c]
                s, t = _bezout(p, q)
                g = s * p + t * q
                p, q = p // g, q // g
                rest.append([p * y - q * x for x, y in zip(pivot, r)])
                pivot = [s * x + t * y for x, y in zip(pivot, r)]
        if pivot is None:
            raise ValueError("generators do not span a finite-index sublattice")
        det *= abs(pivot[c])
        rows = rest
    return det

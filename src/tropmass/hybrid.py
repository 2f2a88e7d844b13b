"""The glued log map of the triangle pencil, hybrid convergence, and the disc seminorm.

An adapted chart near a degenerate fiber sends a point to the barycentric
point ``w_i = log|z_i| / log|f|`` of its dual-complex face, ``f = prod z_i``
being the local equation of the fiber.  For the pencil ``t eps (z0^3 + z1^3 +
z2^3) + z0 z1 z2 = 0``, `glued_log` blends the vertex and edge charts into one
map onto the whole dual complex, the coordinate triangle, on arrays of
points; it deviates from an edge chart by ``O(1 / log|t|^{-1})``
(`log_deviation_constant`).  In the limit topology a sequence converges to a
face point ``w`` exactly when ``t -> 0`` and the chart map tends to ``w``.
On a finite bidisc sequence, an ``(n, 2)`` array of pairs ``(z0, z1)``,
`hybrid_converges` reads this off the tail (thresholds `T_FLOOR` and `TOL`),
and `basis_neighborhood_converges` tests the same through the shrinking
closed neighborhoods of `EPS_LADDER`.  Both take a stack ``(..., n, 2)`` of
sequences as well, with the target broadcast over the leading axes, and
answer for every sequence in a few array passes.  `hybrid_seminorm` is the
one-variable shadow: a multiplicative seminorm on Laurent polynomials over
the closed disc of radius ``r``, between the modulus inside and the order of
vanishing at 0.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ChartDomainError",
    "LaurentSeriesPoly",
    "basis_neighborhood_converges",
    "glued_log",
    "hybrid_converges",
    "hybrid_seminorm",
    "log_deviation_constant",
]


class ChartDomainError(ValueError):
    """Raised when a point lies outside the domain of an adapted chart."""


# ---------------------------------------------------------------------------
# The glued log map of the pencil eps t (z0^3 + z1^3 + z2^3) + z0 z1 z2 = 0.
# ---------------------------------------------------------------------------


def _points(z: object, epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    """Validated ``(n, 3)`` complex points and their coordinate moduli."""
    if not 0.0 < epsilon <= 0.5:
        raise ValueError(f"epsilon must lie in (0, 0.5], got {epsilon}")
    z = np.asarray(z, dtype=complex)
    if z.ndim != 2 or z.shape[1] != 3:
        raise ValueError(f"expected an (n, 3) array of projective points, got shape {z.shape}")
    a = np.abs(z)
    if not (a.min(initial=math.inf) > 0.0 and a.max(initial=0.0) < math.inf):
        raise ChartDomainError("zero or non-finite coordinate: the point has no log image")
    return z, a


def _edge_chart(
    z: np.ndarray, scale: np.ndarray, deep: np.ndarray, shallow: np.ndarray, epsilon: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The edge chart of two coordinates of the given depths below a third one.

    Its moduli are ``|u|, |v|`` (the two over the third, of modulus ``scale``)
    times ``(eps |1 + u^3 + v^3|)^(-1/2)``, with ``|1 + u^3 + v^3|`` evaluated
    as ``|sum (z_i / scale)^3|`` so that no cube overflows.  Returns ``-log``
    of the larger modulus, ``log(1 / |f|)`` for their product ``f``, and
    their ratio: the chart coordinate of the shallower component, at most 1/2.
    """
    inv = 1.0 / scale
    cubes = np.zeros(z.shape[0], dtype=complex)
    for col in z.T:
        q = col * inv
        cubes += q * q * q
    h = 0.5 * np.log(epsilon * np.abs(cubes))
    near = shallow + h
    log_inv_f = near + (deep + h)
    return near, log_inv_f, near / log_inv_f


def _band(x: np.ndarray) -> np.ndarray:
    x = np.clip(x, 0.0, 1.0)
    return x * x * (3.0 - 2.0 * x)


def glued_log(z: object, epsilon: float = 0.1) -> np.ndarray:
    """Barycentric coordinates on ``(E0, E1, E2)`` of projective points near ``t = 0``.

    ``z`` is an ``(n, 3)`` complex array.  With depths ``-log(|z_i| / max|z|)``
    and ``r`` the second depth over the deepest, two charts carry a point:
    the vertex chart of the deepest component, with bump
    ``smoothstep((0.35 - r) / 0.1)``, maps to its vertex, and the edge chart
    of the two deepest (their coordinates over the largest, scaled as in
    `_edge_chart`), with bump ``smoothstep((r - 0.2) / 0.1)``, maps onto their
    edge.  The shallower of the two gets the bump-weighted edge coordinate,
    at most 1/2, and the deeper one 1 minus it, so every row is nonnegative,
    supported on a face of the triangle, and has ``math.fsum(row) == 1.0``.

    Raises `ChartDomainError` for a zero coordinate, where every bump vanishes
    (only at ``|z0| = |z1| = |z2|``, as the bands overlap), and where a chart
    with a positive bump has a local modulus outside (0, 1): an edge modulus,
    or the vertex modulus ``|z0 z1 z2| / (eps |sum z^3|)``, their product.
    ``epsilon`` outside (0, 0.5] raises `ValueError`.
    """
    z, a = _points(z, epsilon)
    a0, a1, a2 = a.T
    top = np.maximum(np.maximum(a0, a1), a2)
    lo = np.minimum(np.minimum(a0, a1), a2)
    mid = np.maximum(np.minimum(a0, a1), np.minimum(np.maximum(a0, a1), a2))
    with np.errstate(divide="ignore", invalid="ignore"):
        deep = np.log(top / lo)
        second = np.log(top / mid)
        if not (deep > 0.0).all():
            raise ChartDomainError("point outside every chart: equal coordinate moduli")
        r = second / deep
        vertex = _band((0.35 - r) / 0.1)
        edge = _band((r - 0.2) / 0.1)
        near, log_inv_f, w = _edge_chart(z, top, deep, second, epsilon)
        if not ((vertex == 0.0) | (log_inv_f > 0.0)).all():
            raise ChartDomainError("vertex chart: local modulus outside (0, 1)")
        if not ((edge == 0.0) | (near > 0.0)).all():
            raise ChartDomainError("edge chart: local modulus outside (0, 1)")
        shallow = np.where(edge > 0.0, edge / (vertex + edge) * w, 0.0)
    # Columns of the deepest and of the largest coordinate, the first on a tie.
    deepest = (a0 != lo) * (2 - (a1 == lo))
    largest = (a0 != top) * (2 - (a1 == top))
    out = np.zeros_like(a)
    rows = np.arange(len(a))
    out[rows, 3 - deepest - largest] = shallow
    out[rows, deepest] = 1.0 - shallow
    return out


def log_deviation_constant(z: object, edge: tuple[int, int], epsilon: float = 0.1) -> float:
    """Measured constant ``C`` in ``|glued_log - edge chart| <= C / log|f_edge|^{-1}``.

    ``edge = (i, j)`` names the chart of ``E_i E_j``: ``z_i, z_j`` over the
    third coordinate, as in `_edge_chart`.  Returns the largest sup-norm
    deviation over the rows of ``z`` (the chart is 0 off its edge) times
    ``log(1 / |f_edge|)``.  Rows outside the chart raise `ChartDomainError`.
    """
    if sorted(edge) not in ([0, 1], [0, 2], [1, 2]):
        raise ValueError(f"edge must be two distinct coordinates of 0, 1, 2, got {edge!r}")
    glued = glued_log(z, epsilon)
    z, a = _points(z, epsilon)
    i, j = edge
    k = 3 - i - j
    with np.errstate(divide="ignore", invalid="ignore"):
        di = np.log(a[:, k] / a[:, i])
        dj = np.log(a[:, k] / a[:, j])
        near, log_inv_f, w = _edge_chart(z, a[:, k], np.maximum(di, dj), np.minimum(di, dj), epsilon)
        if not (near > 0.0).all():
            raise ChartDomainError(f"E{i}&E{j} chart: local modulus outside (0, 1)")
    chart = np.zeros_like(glued)
    chart[:, i], chart[:, j] = np.where(di >= dj, [1.0 - w, w], [w, 1.0 - w])
    dev = np.abs(glued - chart).max(axis=1)
    return float((dev * log_inv_f).max(initial=0.0))


# ---------------------------------------------------------------------------
# Convergence predicates for sequences in the punctured bidisc model.
# ---------------------------------------------------------------------------


T_FLOOR = 1e-4  # `hybrid_converges`: the largest |t| a converging sequence may end at
TOL = 0.02  # `hybrid_converges`: chart values within TOL of w at the end, 2 TOL on the last third
EPS_LADDER = (0.2, 0.1, 0.05, 0.02)  # `basis_neighborhood_converges`: the F(eps) tested


def _bidisc_moduli(points: object) -> np.ndarray:
    """The ``(..., n, 2)`` moduli of a stack of nonempty bidisc sequences, each in (0, 1).

    A bad modulus is reported at the first offending pair in row-major order.
    """
    try:
        z = np.asarray(points)
        # Doubles are their own moduli, without the hypot of a complex modulus.
        a = np.abs(z if z.dtype == np.float64 else z.astype(complex))
    except ValueError:  # ragged
        raise ValueError("bidisc points are pairs (z0, z1)") from None
    if a.size == 0:
        raise ValueError("empty sequence")
    if a.ndim < 2 or a.shape[-1] != 2:
        raise ValueError("bidisc points are pairs (z0, z1)")
    bad = ~((a > 0.0) & (a < 1.0)).all(axis=-1)
    if bad.any():
        a0, a1 = a.reshape(-1, 2)[bad.argmax()].tolist()
        raise ValueError(f"bidisc point moduli must lie in (0, 1), got ({a0}, {a1})")
    return a


def _targets(w: object, interior: bool) -> np.ndarray:
    """``w`` as a float array, each value in [0, 1], or in (0, 1) when ``interior``."""
    w = np.asarray(w, dtype=float)
    ok = (0.0 < w) & (w < 1.0) if interior else (0.0 <= w) & (w <= 1.0)
    if not ok.all():
        first = w.ravel()[(~ok).ravel().argmax()].item()
        if interior:
            raise ValueError(f"the neighborhood basis covers interior points only, got w = {first}")
        raise ValueError(f"target must lie in [0, 1], got {first}")
    return w


def _verdict(out: np.ndarray) -> np.ndarray | bool:
    """A Python `bool` for one sequence, the bool array for a stack."""
    return bool(out) if out.ndim == 0 else out


def hybrid_converges(points: object, w: object) -> np.ndarray | bool:
    """Whether bidisc sequences converge to the edge point ``w`` in the limit topology.

    ``points`` is an array-like of pairs ``(z0, z1)``, real or complex: one
    ``(n, 2)`` sequence or a stack of shape ``(..., n, 2)``.  ``w`` is
    broadcast over the leading axes.  Returns a Python `bool` for one
    sequence and a bool array of the leading shape for a stack.

    A sequence converges to ``w`` exactly when ``t = z0 z1`` tends to 0 and
    ``log|z1| / log|t|`` tends to ``w``.  On a finite sequence this is
    rendered through the tail: the final point must have ``|t| <= T_FLOOR``
    and attain the sequence minimum of ``|t|`` (the parameter is still
    heading down when the data ends), its chart value must satisfy
    ``|log|z1|/log|t| - w| <= TOL``, and the last third of the sequence must
    stay within ``2 * TOL`` (no late oscillation).  The loose band on the
    last third accommodates the generic slow approach of this topology,
    where the chart value drifts like ``1 / log|t|^{-1}``.
    """
    w = _targets(w, interior=False)
    a = _bidisc_moduli(points)
    ts = a[..., 0] * a[..., 1]
    log_a = np.log(a)
    ws = log_a[..., 1] / log_a.sum(axis=-1)
    end = ts[..., -1]
    heading_down = (end <= T_FLOOR) & (end <= ts.min(axis=-1) * (1.0 + 1e-12))
    tail = np.abs(ws[..., -max(1, ws.shape[-1] // 3):] - w[..., None]) <= 2.0 * TOL
    return _verdict(heading_down & (np.abs(ws[..., -1] - w) <= TOL) & tail.all(axis=-1))


def basis_neighborhood_converges(points: object, w: object) -> np.ndarray | bool:
    """Convergence to an interior edge point via the closed neighborhood basis.

    ``points`` and ``w`` are as in `hybrid_converges`: one ``(n, 2)``
    sequence or a stack of them, with ``w`` broadcast over the leading axes.
    With ``zeta = w / (1 - w)``, the closed sets

        ``F(eps) = {0 < |z0|, |z1| <= eps,  |z0|^(zeta+eps) <= |z1| <= |z0|^(zeta-eps)}``

    form a basis of closed neighborhoods of ``w`` as ``eps`` shrinks, so the
    sequence converges to ``w`` exactly when, for every ``eps``, it eventually
    enters ``F(eps)`` and stays.  On a finite sequence the quantifier runs
    over ``EPS_LADDER`` and "eventually" means on a nonempty suffix, so
    only the last point decides (every point is still validated).
    """
    w = _targets(w, interior=True)
    zeta = (w / (1.0 - w))[..., None]
    last = _bidisc_moduli(points)[..., -1, :]
    a0, a1 = last[..., :1], last[..., 1:]
    log_a0, log_a1 = np.log(a0), np.log(a1)
    eps = np.asarray(EPS_LADDER)
    lo, hi = (zeta + eps) * log_a0, (zeta - eps) * log_a0
    inside = (a0 <= eps) & (a1 <= eps) & (lo <= log_a1) & (log_a1 <= hi)
    return _verdict(inside.all(axis=-1))


# ---------------------------------------------------------------------------
# Laurent polynomials and the seminorm on the closed disc of radius r.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LaurentSeriesPoly:
    """A Laurent polynomial ``sum_a c_a t^a`` with finitely many complex terms.

    ``terms`` is canonical: sorted by exponent, duplicate exponents combined,
    zero coefficients dropped.  The zero polynomial has empty ``terms``.
    """

    terms: tuple[tuple[int, complex], ...]

    def __post_init__(self) -> None:
        merged: dict[int, complex] = {}
        for e, c in self.terms:
            if e != int(e):
                raise ValueError(f"exponents must be integers, got {e!r}")
            merged[int(e)] = merged.get(int(e), 0j) + complex(c)
        canon = tuple(sorted((e, c) for e, c in merged.items() if c != 0))
        object.__setattr__(self, "terms", canon)

    @classmethod
    def from_dict(cls, coeffs: Mapping[int, complex]) -> "LaurentSeriesPoly":
        return cls(tuple(coeffs.items()))

    @classmethod
    def monomial(cls, exponent: int, coeff: complex = 1.0) -> "LaurentSeriesPoly":
        return cls(((exponent, coeff),))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def order(self) -> int:
        """Order of vanishing at 0 (the smallest exponent present)."""
        if not self.terms:
            raise ValueError("the zero polynomial has no order of vanishing")
        return self.terms[0][0]

    def __call__(self, z: complex) -> complex:
        zz = complex(z)
        if zz == 0:
            if self.terms and self.terms[0][0] < 0:
                raise ZeroDivisionError("negative exponents cannot be evaluated at 0")
            return sum((c for e, c in self.terms if e == 0), 0j)
        return sum((c * zz**e for e, c in self.terms), 0j)

    def __mul__(self, other: "LaurentSeriesPoly") -> "LaurentSeriesPoly":
        prod: dict[int, complex] = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                prod[e1 + e2] = prod.get(e1 + e2, 0j) + c1 * c2
        return LaurentSeriesPoly.from_dict(prod)


def hybrid_seminorm(f: LaurentSeriesPoly, z: complex, r: float) -> float:
    """The multiplicative seminorm attached to ``z`` in the closed disc of radius ``r``.

    Returns ``r**order(f)`` at ``z = 0`` and ``r**(log|f(z)| / log|z|)``
    elsewhere; the zero polynomial (and any zero of ``f``) gets seminorm 0.
    The monomial ``t`` has seminorm identically ``r``, and the seminorm is
    multiplicative: ``|fg| = |f| |g|`` at every point.
    """
    if not 0.0 < r < 1.0:
        raise ValueError(f"radius must lie in (0, 1), got {r}")
    zz = complex(z)
    az = abs(zz)
    if az > r * (1.0 + 1e-12):
        raise ValueError(f"|z| = {az} exceeds the disc radius {r}")
    if f.is_zero:
        return 0.0
    if az == 0.0:
        return r ** f.order
    val = abs(f(zz))
    if val == 0.0:
        return 0.0
    return r ** (math.log(val) / math.log(az))

"""Log maps on adapted charts, glued atlases, hybrid convergence, and the disc seminorm.

Near a degenerate fiber, an adapted coordinate chart sends a point ``z`` with
small coordinates to the barycentric point ``w_i = log|z_i| / log|f|`` of its
dual-complex face, where ``f = prod z_i^{b_i}`` is the local equation of the
fiber; by construction ``sum(b_i * w_i) = 1``.  A bump-weighted atlas of such
charts glues the chart maps into a single map to the whole dual complex, with
gluing error ``O(1 / log|t|^{-1})`` relative to any one chart.  The limit
topology attaches the dual complex to the punctured family at ``t = 0``: a
sequence converges to a face point ``w`` exactly when ``t -> 0`` and the chart
map tends to ``w``, which for interior edge points is equivalent to eventual
membership in an explicit basis of shrinking closed neighborhoods.  The
one-variable shadow of the same picture is a multiplicative seminorm on
Laurent polynomials over the closed disc of radius ``r`` that interpolates
between the modulus at interior points and the order-of-vanishing valuation
at the center.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass

__all__ = [
    "AdaptedChart",
    "ChartDomainError",
    "LaurentSeriesPoly",
    "TRIANGLE_FACES",
    "basis_neighborhood_converges",
    "glue_log",
    "hybrid_converges",
    "hybrid_seminorm",
    "log_chart",
    "log_deviation_constant",
    "triangle_pencil_atlas",
]


class ChartDomainError(ValueError):
    """Raised when a point lies outside the domain of an adapted chart."""


@dataclass(frozen=True)
class AdaptedChart:
    """An adapted coordinate chart near the degenerate fiber.

    Parameters
    ----------
    chart_id:
        Identifier used in error messages and reports.
    active:
        Labels of the central-fiber components meeting the chart, in
        chart-coordinate order; the chart maps onto the face they span.
    multiplicities:
        Positive multiplicities ``b_i`` of the active components, so that the
        product of the adapted coordinates ``prod z_i^{b_i}`` equals the
        family parameter ``t`` on the chart.
    local_moduli:
        Optional callable taking an ambient point and returning the moduli
        ``|z_i|`` of the adapted coordinates.  When omitted the point itself
        is the coordinate tuple: entry ``i`` is coordinate ``i`` of the chart.
    bump:
        Optional nonnegative cutoff weight used by `glue_log`.  Charts
        without one count with weight 1 wherever they are evaluated.
    """

    chart_id: str
    active: tuple[str, ...]
    multiplicities: tuple[int, ...]
    local_moduli: Callable[[Sequence[complex]], tuple[float, ...]] | None = None
    bump: Callable[[Sequence[complex]], float] | None = None

    def __post_init__(self) -> None:
        if not self.active:
            raise ValueError("adapted chart needs at least one active component")
        if len(set(self.active)) != len(self.active):
            raise ValueError(f"duplicate active components in chart {self.chart_id!r}")
        if len(self.multiplicities) != len(self.active):
            raise ValueError(
                f"chart {self.chart_id!r}: {len(self.active)} active components "
                f"but {len(self.multiplicities)} multiplicities"
            )
        for b in self.multiplicities:
            if not isinstance(b, int) or b < 1:
                raise ValueError(f"multiplicities must be positive integers, got {b!r}")

    def moduli(self, z: Sequence[complex]) -> tuple[float, ...]:
        """Moduli of the adapted coordinates at the ambient point ``z``.

        Raises `ChartDomainError` unless every modulus lies in (0, 1).
        """
        if self.local_moduli is not None:
            raw: Iterable[float] = self.local_moduli(z)
        else:
            if len(z) != len(self.active):
                raise ChartDomainError(
                    f"chart {self.chart_id!r} expects {len(self.active)} "
                    f"coordinates, got {len(z)}"
                )
            raw = (abs(complex(v)) for v in z)
        out = tuple(float(v) for v in raw)
        if len(out) != len(self.active):
            raise ChartDomainError(
                f"chart {self.chart_id!r}: local_moduli returned {len(out)} values "
                f"for {len(self.active)} active components"
            )
        for v in out:
            if v == 0.0:
                raise ChartDomainError(
                    f"chart {self.chart_id!r}: zero coordinate (point on the "
                    "central fiber has no log image)"
                )
            if not 0.0 < v < 1.0 or math.isnan(v):
                raise ChartDomainError(
                    f"chart {self.chart_id!r}: coordinate modulus {v} outside (0, 1)"
                )
        return out

    def weight(self, z: Sequence[complex]) -> float:
        """Bump weight of this chart at ``z`` (1 when no bump is attached)."""
        if self.bump is None:
            return 1.0
        w = float(self.bump(z))
        if math.isnan(w) or w < 0.0:
            raise ValueError(f"chart {self.chart_id!r}: bump weight {w} is invalid")
        return w


def _polish_affine(w: list[float], b: Sequence[int]) -> tuple[float, ...]:
    """Nudge one coordinate by ulps until ``math.fsum(b_i * w_i) == 1.0``.

    Stepping coordinate ``j`` moves the sum on a grid of spacing
    ``b_j * ulp(w_j)``; a grid much coarser than one ulp of 1.0 can straddle
    the target without ever hitting it, so knobs are tried in order of how
    close their grid is to that ideal step, with remaining knobs as fallback.
    """
    n = len(w)

    def total() -> float:
        return math.fsum(b[i] * w[i] for i in range(n))

    def attempt(j: int) -> bool:
        # Coarse correction by a float add, then a +-12 ulp search for an
        # exact hit; restores the knob and reports failure if its grid
        # straddles 1.0 without touching it.
        start = w[j]
        s = total()
        if s == 1.0:
            return True
        base = max(start + (1.0 - s) / b[j], 0.0)
        for k in range(-12, 13):
            cand = base
            for _ in range(abs(k)):
                cand = math.nextafter(cand, math.inf if k > 0 else -math.inf)
            if cand < 0.0:
                continue
            w[j] = cand
            if total() == 1.0:
                return True
        w[j] = start
        return False

    knobs = sorted(range(n), key=lambda i: b[i] * math.ulp(w[i]))
    if any(attempt(j) for j in knobs):
        return tuple(w)
    # realign the grid by offsetting some other knob a single ulp, then retry
    for j in knobs:
        for direction in (math.inf, -math.inf):
            start_j = w[j]
            w[j] = math.nextafter(start_j, direction)
            if w[j] >= 0.0 and any(attempt(k) for k in knobs if k != j):
                return tuple(w)
            w[j] = start_j
    raise ArithmeticError("affine normalization did not converge")


def log_chart(
    chart: AdaptedChart, z: Sequence[complex], t: complex | None = None
) -> tuple[float, ...]:
    """Barycentric face coordinates of ``z`` under the chart's log map.

    Returns ``w`` with ``w_i = log|z_i| / log|f|`` where ``f`` is the product
    of the adapted coordinates raised to their multiplicities.  The output
    satisfies ``w_i >= 0`` and ``math.fsum(b_i * w_i) == 1.0`` exactly: the
    last coordinate is computed by complement and the dominant coordinate is
    then adjusted by ulps to kill rounding drift.

    Parameters
    ----------
    chart:
        The adapted chart.
    z:
        Ambient point (chart coordinates themselves when the chart has no
        ``local_moduli``).
    t:
        Optional family parameter; when given, ``prod |z_i|^{b_i}`` is checked
        against ``|t|`` and a mismatch raises `ChartDomainError`.
    """
    m = chart.moduli(z)
    b = chart.multiplicities
    logs = [math.log(v) for v in m]
    log_f = math.fsum(bi * li for bi, li in zip(b, logs))
    if t is not None:
        at = abs(complex(t))
        if not 0.0 < at < 1.0:
            raise ValueError(f"family parameter must satisfy 0 < |t| < 1, got |t| = {at}")
        if abs(log_f - math.log(at)) > 1e-8 * -log_f + 1e-12:
            raise ChartDomainError(
                f"chart {chart.chart_id!r}: prod|z_i|^b_i = {math.exp(log_f):.6g} "
                f"does not match |t| = {at:.6g}"
            )
    w = [li / log_f for li in logs]
    last = len(w) - 1
    head = math.fsum(b[i] * w[i] for i in range(last))
    w[last] = max((1.0 - head) / b[last], 0.0)
    return _polish_affine(w, b)


def _face_sets(faces: Iterable[object]) -> list[frozenset[str]]:
    out = []
    for f in faces:
        labels = getattr(f, "components", f)
        out.append(frozenset(str(x) for x in labels))  # type: ignore[union-attr]
    return out


def glue_log(
    atlas: Sequence[AdaptedChart],
    z: Sequence[complex],
    t: complex | None = None,
    faces: Iterable[object] | None = None,
) -> dict[str, float]:
    """Bump-weighted convex combination of the atlas's chart log maps.

    Returns the glued point as a mapping ``component label -> barycentric
    coordinate``, supported on the union of the active sets of the charts
    whose bumps are positive at ``z``.  That union must span a face: one of
    ``faces`` when given (each entry an iterable of labels, or an object with
    a ``components`` attribute), otherwise the active set of one of the
    contributing charts.  A violation raises `ChartDomainError`, as does a
    point at which every bump vanishes.  The output satisfies
    ``math.fsum(b_label * w_label) == 1.0`` exactly.
    """
    charts = list(atlas)
    if not charts:
        raise ValueError("empty atlas")
    weights = [c.weight(z) for c in charts]
    total = math.fsum(weights)
    if total <= 0.0:
        raise ChartDomainError("point lies outside every chart of the atlas")
    support = [i for i, wt in enumerate(weights) if wt > 0.0]
    union = frozenset(label for i in support for label in charts[i].active)
    if faces is not None:
        if not any(union <= fs for fs in _face_sets(faces)):
            raise ChartDomainError(
                f"charts {[charts[i].chart_id for i in support]} overlap at a point "
                f"but their components {sorted(union)} span no face"
            )
    elif not any(union == frozenset(charts[i].active) for i in support):
        raise ChartDomainError(
            f"charts {[charts[i].chart_id for i in support]} overlap at a point but "
            f"none of them is active on the full union {sorted(union)}; pass the "
            "complex's faces to allow gluing into a larger face"
        )
    combined: dict[str, float] = {label: 0.0 for label in sorted(union)}
    mults: dict[str, int] = {}
    for i in support:
        c = charts[i]
        chi = weights[i] / total
        w = log_chart(c, z, t)
        for label, bi, wi in zip(c.active, c.multiplicities, w):
            if mults.setdefault(label, bi) != bi:
                raise ValueError(
                    f"charts disagree on the multiplicity of component {label!r}"
                )
            combined[label] += chi * wi
    labels = sorted(combined)
    coords = _polish_affine([combined[l] for l in labels], [mults[l] for l in labels])
    return dict(zip(labels, coords))


def log_deviation_constant(
    atlas: Sequence[AdaptedChart],
    chart: AdaptedChart,
    points: Iterable[Sequence[complex]],
    faces: Iterable[object] | None = None,
) -> float:
    """Measured constant ``C`` in ``|glue_log - log_chart| <= C / log|t|^-1``.

    Evaluates both maps at every point, extends each by zero off its support,
    and returns the maximum over points of the sup-norm deviation multiplied
    by ``log(1/|f_chart|)``.
    """
    worst = 0.0
    for z in points:
        m = chart.moduli(z)
        log_inv_f = -math.fsum(
            bi * math.log(v) for bi, v in zip(chart.multiplicities, m)
        )
        w_chart = dict(zip(chart.active, log_chart(chart, z)))
        w_glued = glue_log(atlas, z, faces=faces)
        dev = max(
            abs(w_glued.get(label, 0.0) - w_chart.get(label, 0.0))
            for label in set(w_chart) | set(w_glued)
        )
        worst = max(worst, dev * log_inv_f)
    return worst


# ---------------------------------------------------------------------------
# A concrete atlas: the plane-curve pencil degenerating to the coordinate
# triangle, A (z0^3 + z1^3 + z2^3) + B z0 z1 z2 = 0 with A/B -> 0.
# ---------------------------------------------------------------------------

TRIANGLE_FACES: tuple[frozenset[str], ...] = (
    frozenset({"E0"}),
    frozenset({"E1"}),
    frozenset({"E2"}),
    frozenset({"E0", "E1"}),
    frozenset({"E0", "E2"}),
    frozenset({"E1", "E2"}),
)


def _smoothstep(x: float) -> float:
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    return x * x * (3.0 - 2.0 * x)


def _depths(z: Sequence[complex]) -> tuple[float, float, float]:
    """Coordinate depths ``-log(|z_i| / max_j |z_j|)`` of a projective point."""
    m = [abs(complex(v)) for v in z]
    top = max(m)
    if top == 0.0:
        raise ChartDomainError("projective point has all coordinates zero")
    return tuple(math.inf if v == 0.0 else -math.log(v / top) for v in m)


def _edge_moduli(i: int, j: int, k: int, epsilon: float, z: Sequence[complex]) -> tuple[float, float]:
    if z[k] == 0:
        raise ChartDomainError(f"coordinate z{k} vanishes: outside the E{i}&E{j} chart")
    u = complex(z[i]) / complex(z[k])
    v = complex(z[j]) / complex(z[k])
    unit = 1.0 + u**3 + v**3
    if unit == 0:
        raise ChartDomainError(f"unit of the E{i}&E{j} chart vanishes")
    s = 1.0 / math.sqrt(epsilon * abs(unit))
    return (abs(u) * s, abs(v) * s)


def _vertex_modulus(epsilon: float, z: Sequence[complex]) -> tuple[float]:
    cubes = complex(z[0]) ** 3 + complex(z[1]) ** 3 + complex(z[2]) ** 3
    if cubes == 0:
        raise ChartDomainError("unit of a vertex chart vanishes")
    return (abs(complex(z[0]) * complex(z[1]) * complex(z[2])) / (epsilon * abs(cubes)),)


def _edge_bump(i: int, j: int, z: Sequence[complex]) -> float:
    s = _depths(z)
    k = 3 - i - j
    lo, hi = min(s[i], s[j]), max(s[i], s[j])
    if hi <= 0.0 or s[k] >= lo or math.isinf(hi):
        return 0.0
    return _smoothstep((lo / hi - 0.2) / 0.1)


def _vertex_bump(m: int, z: Sequence[complex]) -> float:
    s = _depths(z)
    top = max(s)
    if s[m] < top or top <= 0.0:
        return 0.0
    second = max(v for idx, v in enumerate(s) if idx != m)
    ratio = 0.0 if math.isinf(top) else second / top
    return _smoothstep((0.35 - ratio) / 0.1)


def triangle_pencil_atlas(epsilon: float = 0.1) -> tuple[AdaptedChart, ...]:
    """Adapted atlas for the coordinate-triangle pencil near ``t = 0``.

    Points are projective triples ``(z0, z1, z2)`` on a fiber of
    ``A (z0^3+z1^3+z2^3) + B z0 z1 z2 = 0`` with ``B = 1``, ``A = epsilon t``.
    The atlas has one vertex chart per component (a single adapted coordinate
    whose modulus is ``|t|`` computed from the fiber equation, mapping
    constantly to the vertex) and one edge chart per coordinate point (the
    two small coordinate ratios times the exact unit modulus, mapping onto
    the edge).  Bumps are smoothstep bands in the ratio of the second-deepest
    to the deepest coordinate depth: edge charts live where the two depths of
    their pair are comparable (ratio above 0.2), vertex charts where one
    component dominates (ratio below 0.35), so overlapping supports always
    span edges of `TRIANGLE_FACES` and the bands jointly cover a neighborhood
    of the central fiber.
    """
    if not 0.0 < epsilon <= 0.5:
        raise ValueError(f"epsilon must lie in (0, 0.5], got {epsilon}")
    charts: list[AdaptedChart] = []
    for m in range(3):
        charts.append(
            AdaptedChart(
                chart_id=f"vertex-E{m}",
                active=(f"E{m}",),
                multiplicities=(1,),
                local_moduli=lambda z, e=epsilon: _vertex_modulus(e, z),
                bump=lambda z, m=m: _vertex_bump(m, z),
            )
        )
    for k in range(3):
        i, j = [x for x in range(3) if x != k]
        charts.append(
            AdaptedChart(
                chart_id=f"edge-E{i}&E{j}",
                active=(f"E{i}", f"E{j}"),
                multiplicities=(1, 1),
                local_moduli=lambda z, i=i, j=j, k=k, e=epsilon: _edge_moduli(
                    i, j, k, e, z
                ),
                bump=lambda z, i=i, j=j: _edge_bump(i, j, z),
            )
        )
    return tuple(charts)


# ---------------------------------------------------------------------------
# Convergence predicates for sequences in the punctured bidisc model.
# ---------------------------------------------------------------------------


def _bidisc_moduli(points: Iterable[Sequence[complex]]) -> list[tuple[float, float]]:
    seq = []
    for p in points:
        if len(p) != 2:
            raise ValueError("bidisc points are pairs (z0, z1)")
        a0, a1 = abs(complex(p[0])), abs(complex(p[1]))
        if not (0.0 < a0 < 1.0 and 0.0 < a1 < 1.0):
            raise ValueError(
                f"bidisc point moduli must lie in (0, 1), got ({a0}, {a1})"
            )
        seq.append((a0, a1))
    if not seq:
        raise ValueError("empty sequence")
    return seq


def hybrid_converges(
    points: Iterable[Sequence[complex]],
    w: float,
    *,
    t_floor: float = 1e-4,
    tol: float = 0.02,
) -> bool:
    """Whether a bidisc sequence converges to the edge point ``w`` in the limit topology.

    The sequence of pairs ``(z0, z1)`` converges to ``w`` exactly when
    ``t = z0 z1`` tends to 0 and ``log|z1| / log|t|`` tends to ``w``.  On a
    finite sequence this is rendered through the tail: the final point must
    have ``|t| <= t_floor`` and attain the sequence minimum of ``|t|`` (the
    parameter is still heading down when the data ends), its chart value must
    satisfy ``|log|z1|/log|t| - w| <= tol``, and the last third of the
    sequence must stay within ``2 * tol`` (no late oscillation).  The loose
    band on the last third accommodates the generic slow approach of this
    topology, where the chart value drifts like ``1 / log|t|^{-1}``.
    """
    if not 0.0 <= w <= 1.0:
        raise ValueError(f"target must lie in [0, 1], got {w}")
    seq = _bidisc_moduli(points)
    ts = [a0 * a1 for a0, a1 in seq]
    ws = [math.log(a1) / math.log(t) for (_, a1), t in zip(seq, ts)]
    if ts[-1] > t_floor or ts[-1] > min(ts) * (1.0 + 1e-12):
        return False
    if abs(ws[-1] - w) > tol:
        return False
    tail = ws[-max(1, len(ws) // 3):]
    return all(abs(wk - w) <= 2.0 * tol for wk in tail)


def basis_neighborhood_converges(
    points: Iterable[Sequence[complex]],
    w: float,
    *,
    eps_ladder: Sequence[float] = (0.2, 0.1, 0.05, 0.02),
) -> bool:
    """Convergence to an interior edge point via the closed neighborhood basis.

    With ``zeta = w / (1 - w)``, the closed sets

        ``F(eps) = {0 < |z0|, |z1| <= eps,  |z0|^(zeta+eps) <= |z1| <= |z0|^(zeta-eps)}``

    form a basis of closed neighborhoods of ``w`` as ``eps`` shrinks, so the
    sequence converges to ``w`` exactly when, for every ``eps``, it eventually
    enters ``F(eps)`` and stays.  On a finite sequence the quantifier runs
    over ``eps_ladder`` and "eventually" means on a nonempty suffix, so
    only the last point decides (every point is still validated).
    """
    if not 0.0 < w < 1.0:
        raise ValueError(
            f"the neighborhood basis covers interior points only, got w = {w}"
        )
    for eps in eps_ladder:
        if not 0.0 < eps < 1.0:
            raise ValueError(f"eps must lie in (0, 1), got {eps}")
    zeta = w / (1.0 - w)
    a0, a1 = _bidisc_moduli(points)[-1]
    log_a0, log_a1 = math.log(a0), math.log(a1)
    return all(
        a0 <= eps and a1 <= eps and (zeta + eps) * log_a0 <= log_a1 <= (zeta - eps) * log_a0
        for eps in eps_ladder
    )


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
    def zero(cls) -> "LaurentSeriesPoly":
        return cls(())

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

    def __add__(self, other: "LaurentSeriesPoly") -> "LaurentSeriesPoly":
        return LaurentSeriesPoly(self.terms + other.terms)

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

"""Monte-Carlo integration of residue volume forms on plane-curve pencils.

Two cubic pencils in the projective plane are supported: the family
``t eps (z0^3 + z1^3 + z2^3) + z0 z1 z2 = 0`` degenerating to the coordinate
triangle, and the family ``z0^3 + z1^3 + z2^3 + eps t z0 z1 z2 = 0`` staying
smooth at ``t = 0``.  Both reduce in each max-coordinate affine patch to the
symmetric equation ``A (1 + u^3 + v^3) + B u v = 0``; the holomorphic residue
form is ``du / (dF/dv)`` and glues across patches, so the fiber volume
``nu_t = integral |eta_t|^2`` splits into the three patch contributions.

Each patch is integrated by two-route multiple importance sampling: one route
draws ``u`` (log-uniformly on an annulus whose inner radius is set by the
coverage bound ``|u v| >= |A / B| / 2`` away from the unit circles) and
root-solves the cubic for ``v``; the mirror route swaps the roles, and so
reports the edge coordinate of the variable it solves for.  The
balance-heuristic weight ``1 / (q_u + q_v)`` (Veach and Guibas, 1995) stays
bounded at ramification points of either projection, which is where the
plain single-route estimator has infinite variance.

Each route integrates its two inputs, the radius quantile and the turn of
the drawn coordinate, on a randomized lattice rule: `LATTICE_SHIFTS` (16)
random shifts of a 2-D Fibonacci rule (`fibonacci_rule`, Niederreiter 1992,
ch. 5; Cranley and Patterson 1976), whose table `sampler.lattice_rule`
builds once per call.  The route's estimate is the mean of its 16 shift
means and its standard error their spread, with 15 degrees of freedom.
The integrand is smooth except where a root crosses the patch boundary, so
the rule's gain over independent draws levels off (He and Wang, SIAM J.
Numer. Anal. 53, 2015) but stays large: at the suite's budget the total's
standard error is about a sixth of that of four times as many independent
draws.  The edge law is read off the same points.

A route's rows, one per point and shift, run one block of at most
`TRIG_BLOCK` rows at a time (`_route_blocks`): the points sliced from the
table by `lattice_points`, ``u`` from the table-driven `_unit_phasor`, the
roots in the patch, and the weights only for those roots.  `_patch_roots`
forms and rescales each block's cubic once.  Where a bound (Rouché's
theorem) certifies that a row has exactly one root in the patch, Newton's
iteration solves for that root alone; that holds for most rows of the
degenerating pencil and for none of the smooth one.  Every other row gets
all three roots from Cardano's formula, polished by one Newton step.
Roots whose relative residual exceeds 1e-10 are excluded and counted.  The
patches are sampled and reduced one at a time: a patch's two routes (times
its shards) run, their points are joined once, give the patch's KS
statistic and histogram, and are freed before the next patch starts, so a
`PatchEstimate` holds estimates only and the points of one patch are held
at a time.  The smooth pencil's fibers have no edge, and keep no points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .measure import TWO_PI
from .sampler import (
    LATTICE_SHIFTS,
    TRIG_BLOCK,
    _map_shards,
    _replicate_mean,
    _route_blocks,
    _shard_counts,
    _unit_phasor,
    fibonacci_rule,
    ks_statistic,
    lattice_points,
    lattice_rule,
    uniform_cdf,
)

RESIDUAL_TOLERANCE = 1e-10
_ROUCHE_MARGIN = 1e-12
_NEWTON_STEPS = 4
_CUBE_ROOTS_OF_UNITY = np.exp(2j * np.pi * np.arange(3) / 3)


class PencilError(ValueError):
    """Invalid pencil configuration or parameter."""


@dataclass(frozen=True)
class HypersurfacePencil:
    """A one-parameter anticanonical pencil of plane cubics.

    ``preset`` selects the degeneration type and ``epsilon`` the pencil
    modulus.
    """

    preset: str
    epsilon: float = 0.1

    PRESETS: ClassVar[tuple[str, ...]] = ("coordinate_pencil", "fermat_smooth")

    def __post_init__(self) -> None:
        if self.preset not in self.PRESETS:
            raise PencilError(f"unknown preset {self.preset!r}")
        if not 0 < self.epsilon <= 0.5:
            raise PencilError("epsilon must lie in (0, 0.5]")

    @staticmethod
    def coordinate(epsilon: float = 0.1) -> "HypersurfacePencil":
        return HypersurfacePencil("coordinate_pencil", epsilon)

    @staticmethod
    def fermat(epsilon: float = 0.1) -> "HypersurfacePencil":
        return HypersurfacePencil("fermat_smooth", epsilon)

    def coefficients(self, t: complex) -> tuple[complex, complex]:
        """The pair ``(A, B)`` of ``A (z0^3+z1^3+z2^3) + B z0 z1 z2``."""
        if self.preset == "coordinate_pencil":
            return t * self.epsilon, 1.0 + 0j
        return 1.0 + 0j, self.epsilon * t

    @property
    def singular_radius(self) -> float:
        """Smallest |t| at which a fiber acquires a singular point.

        The cubic ``sum z_i^3 + psi z0 z1 z2`` is singular exactly when
        ``psi^3 = -27`` (or at the triangle ``psi = infinity``), giving
        ``|psi| = 3``.
        """
        if self.preset == "coordinate_pencil":
            # psi = B / A = 1 / (t eps).
            return 1.0 / (3.0 * self.epsilon)
        # psi = eps t.
        return 3.0 / self.epsilon

    @property
    def patch_labels(self) -> tuple[str, ...]:
        """Per-patch labels: for the triangle degeneration, the dual edge it sees."""
        if self.preset == "coordinate_pencil":
            out = []
            for k in range(3):
                i, j = sorted(set(range(3)) - {k})
                out.append(f"E{i}&E{j}")
            return tuple(out)
        return ("patch-0", "patch-1", "patch-2")

    @property
    def has_tropical_edges(self) -> bool:
        return self.preset == "coordinate_pencil"

    @property
    def t_floor(self) -> float:
        """Smallest |t| the sampler accepts (0 when every |t| works).

        The degenerating pencil draws ``|u|`` log-uniformly down to the inner
        radius ``r_lo = |t| eps / 4``, with area density ``1 / (2 pi log(1/r_lo)
        r^2)``.  Below this floor ``r_lo^2`` is no longer a normal double, that
        density overflows, and the patch masses come out NaN.
        """
        if self.preset == "coordinate_pencil":
            return 4.0 * math.sqrt(np.finfo(float).tiny) / self.epsilon
        return 0.0

    def validate_t(self, t: complex) -> complex:
        t = complex(t)
        if not 0 < abs(t) <= 0.5:
            raise PencilError("need 0 < |t| <= 0.5")
        if abs(t) > self.singular_radius / 3.0:
            raise PencilError(
                f"|t| = {abs(t)} too close to the singular radius "
                f"{self.singular_radius}"
            )
        if abs(t) < self.t_floor:
            raise PencilError(
                f"|t| = {abs(t)} is below {self.t_floor:.3g}, where the proposal "
                f"density on the inner circle |u| = |t| eps / 4 overflows"
            )
        return t


@dataclass(frozen=True)
class PatchEstimate:
    """Contribution of one max-coordinate patch to the fiber volume.

    The raw and normalized masses with their standard errors, the weighted KS
    distance of the edge coordinate to the uniform density and its histogram
    (``None`` and empty off the degenerating pencil), and the number of kept
    points.  The points themselves are not kept.
    """

    label: str
    mass_raw: float
    stderr_raw: float
    mass: float
    stderr: float
    ks_uniform: float | None
    n_points: int
    hist_masses: np.ndarray
    hist_edges: np.ndarray


@dataclass(frozen=True)
class PencilSampleResult:
    """Fiber volume of a pencil member, split by patch / dual edge.

    ``n_samples`` counts the evaluations used: 6 routes x ``shifts`` random
    shifts of a ``rule_points``-point Fibonacci lattice rule.
    """

    preset: str
    epsilon: float
    t: complex
    n_samples: int
    rule_points: int
    shifts: int
    n_failures: int
    patches: tuple[PatchEstimate, ...]
    seed: int

    @property
    def total_raw(self) -> float:
        return math.fsum(p.mass_raw for p in self.patches)

    @property
    def total_raw_stderr(self) -> float:
        return math.sqrt(math.fsum(p.stderr_raw**2 for p in self.patches))


def _cardano_cube_root(s: np.ndarray) -> np.ndarray:
    """``s^(1/3) = |s|^(1/3) e^{i arg(s) / 3}``, with ``arg`` in ``[-pi, pi]``."""
    return _unit_phasor(np.angle(s) / (3.0 * TWO_PI), np.cbrt(np.abs(s)))


def _polished_roots(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The three roots of ``x^3 + p x + q = 0``, for ``|p| <= 3`` and ``|q| <= 2``.

    Returns a ``(3, n)`` array, one contiguous row per root.  `_patch_roots`
    rescales the cubic to these bounds, so that no power below overflows or
    underflows for any ``t`` or ``u``.  Cardano's formula gives ``s = -q/2 -+
    sqrt(q^2/4 + p^3/27)`` with the sign that maximises ``|s|`` (so the sum
    does not cancel), ``C = s^(1/3)`` from `_cardano_cube_root`, ``d = p / (3
    C)`` and ``x_k = w^k C - w^-k d`` for the cube roots of unity ``w^k``.
    The root of least modulus, which the difference loses to cancellation
    when ``|p|`` is large, is taken from the product of the roots, ``-q``.
    One Newton step then brings the largest relative residual (``|F|`` over
    the sum of the moduli of its terms) from about ``2.4e-15`` to about
    ``6e-16`` over 2e5 draws on the sampler's annuli; a second step would
    move nothing measurable.  The caller filters the roots it uses by their
    residual (`RESIDUAL_TOLERANCE`).
    """
    n = p.shape[0]
    p_third = p / 3.0
    half_q = 0.5 * q
    root = np.sqrt(half_q * half_q + p_third * p_third * p_third)
    root = np.where((half_q.conj() * root).real >= 0, root, -root)
    c = _cardano_cube_root(-(half_q + root))
    # C = 0 would need p = q = 0, which no u satisfies; the guard keeps the
    # division finite regardless.
    d = p_third / np.where(c == 0, 1.0, c)
    x = np.empty((3, n), dtype=complex)
    for k, w in enumerate(_CUBE_ROOTS_OF_UNITY):
        np.subtract(w * c, w.conjugate() * d, out=x[k])
    # The root of least modulus (the first, on a tie, like argmin) from -q
    # over the product of the other two.
    modulus2 = x.real**2 + x.imag**2
    least = (modulus2[1] < modulus2[0]).astype(np.intp)
    least[modulus2[2] < np.minimum(modulus2[0], modulus2[1])] = 2
    flat = x.reshape(-1)
    cols = np.arange(n)
    pair = flat[(least + 1) % 3 * n + cols] * flat[(least + 2) % 3 * n + cols]
    fix = least * n + cols
    flat[fix] = np.where(pair == 0, flat[fix], -q / np.where(pair == 0, 1.0, pair))
    # One Newton step; where f' = 0 the step is f / inf = 0.
    f = x * x
    df = 3.0 * f
    df += p
    df[df == 0] = np.inf
    f += p
    f *= x
    f += q
    f /= df
    x -= f
    return x


def _rouche_rows(p: np.ndarray, abs_q: np.ndarray) -> np.ndarray:
    """The rows where ``v^3 + p v + q`` has exactly one root in the unit disc, by a bound.

    Where ``|p| > 1 + |q|``, the term ``p v`` outweighs ``v^3 + q`` on
    ``|v| = 1``, so by Rouché's theorem the cubic has as many roots in
    ``|v| < 1`` as ``p v``, one, and the other two lie outside the closed
    disc.  The rows returned meet ``|p| > (1 + _ROUCHE_MARGIN) (1 + |q|)``:
    the margin keeps rounding of ``|p|`` and ``|q|`` from certifying a row,
    and keeps each root of a certified row about ``_ROUCHE_MARGIN / 2`` or
    more away from ``|v| = 1``, so that every solver puts it on the same side.
    No double root is certified: at one of modulus ``r``, ``|p| = 3 r^2`` and
    ``|q| = 2 r^3``, and ``3 r^2 <= 1 + 2 r^3``.
    """
    bound = 1.0 + abs_q
    bound *= 1.0 + _ROUCHE_MARGIN
    return np.flatnonzero(p.real**2 + p.imag**2 > bound * bound)


def _newton_step(x: np.ndarray, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """One Newton step on ``x^3 + p x + q`` in place; whether each row has converged.

    The step ``f / f'`` is taken as ``f conj(f') / |f'|^2``, two real
    divisions in place of numpy's complex one.  A row has converged when the
    step's quadratic term ``3 |x| |step|^2 / |f'|``, the error it leaves, is
    at most ``2^-52 |x|``.
    """
    x2 = x * x
    df = 3.0 * x2
    df += p
    f = x2
    f += p
    f *= x
    f += q
    modulus2 = df.real**2 + df.imag**2
    step = df.conj()
    step *= f
    step.real /= modulus2
    step.imag /= modulus2
    x -= step
    return 3.0 * (step.real**2 + step.imag**2) <= 2.0**-52 * np.sqrt(modulus2)


def _newton_patch_root(p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The root of ``x^3 + p x + q`` near ``-q / p``, for ``|p| = 3`` and ``|q| < 2``.

    Its root is the fixed point of ``x = -q / (p + x^2)``: ``w (1 - z)``, for
    ``w = -q/p`` and ``z = w^2 / p``, starts within a relative ``3 |z|^2`` of
    it.  One `_newton_step` follows on every row, and ``_NEWTON_STEPS - 1``
    more on the rows it leaves unconverged.  Returns the roots and whether
    each converged; a converged iterate may still have reached another root,
    so the caller keeps only those in the patch.
    """
    # r = -1 / p = -conj(p) / 9, to rounding, since |p| = 3.
    r = p.conj()
    r *= -1.0 / 9.0
    w = r * q
    x = w * w
    x *= r
    x += 1.0
    x *= w
    converged = _newton_step(x, p, q)
    rest = np.flatnonzero(~converged)
    x_rest, p, q = x[rest], p[rest], q[rest]
    for _ in range(_NEWTON_STEPS - 1):
        done = _newton_step(x_rest, p, q)
    x[rest] = x_rest
    converged[rest] = done
    return x, converged


def _patch_roots(
    a_coeff: complex, b_coeff: complex, u: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The roots ``v`` in the patch ``|v| <= 1`` of ``A (1 + u^3 + v^3) + B u v = 0``.

    Returns each root with its row in ``u``, in the order of a row-major
    ``(n, 3)`` array of all roots.  Divided by ``A`` the equation is ``v^3 +
    p v + q = 0`` with ``p = (B/A) u`` and ``q = 1 + u^3``, solved in ``x = v
    / sigma`` for ``sigma = max(sqrt(|p| / 3), cbrt(|q| / 2))``.  The rows of
    `_rouche_rows` have one root in the patch, which `_newton_patch_root`
    solves for alone: there ``|p| > 1 + |q|``, so ``(|p| / 3)^3 > (|q| /
    2)^2`` and ``|p| / sigma^2 = 3``.  Every other row, and every row whose
    iteration did not converge in the patch, gets all three roots from
    `_polished_roots`.  The draws ``u`` lie in the patch, so where ``|B/A|
    <= 1`` (the smooth pencil) ``|p| <= 1`` and no row can pass the bound:
    the test is skipped.
    """
    p = (b_coeff / a_coeff) * u
    q = 1.0 + u * u * u
    abs_q = np.abs(q)
    newton = _rouche_rows(p, abs_q) if abs(b_coeff / a_coeff) > 1.0 else np.empty(0, dtype=np.intp)
    sigma = np.maximum(np.sqrt(np.abs(p) / 3.0), np.cbrt(abs_q / 2.0))
    sigma[sigma == 0] = 1.0
    inv = 1.0 / sigma
    p = p * inv * inv
    q = q * inv * inv * inv
    if newton.size:
        root, converged = _newton_patch_root(p[newton], q[newton])
        root *= sigma[newton]
        converged &= root.real**2 + root.imag**2 <= 1.0
        newton, root = newton[converged], root[converged]
        cardano = np.ones(u.shape[0], dtype=bool)
        cardano[newton] = False
        cardano = np.flatnonzero(cardano)
        p, q, sigma = p[cardano], q[cardano], sigma[cardano]
    v = _polished_roots(p, q)
    v *= sigma
    flat = np.flatnonzero((v.real**2 + v.imag**2 <= 1.0).T)
    row = flat // 3
    v = v[flat - 3 * row, row]
    if not newton.size:
        return row, v
    # Both row lists are sorted, so the stable sort merges two runs.
    row = np.concatenate([newton, cardano[row]])
    order = np.argsort(row, kind="stable")
    return row[order], np.concatenate([root, v])[order]


def _annulus_density(r: np.ndarray, r_lo: float, log_scale: bool) -> np.ndarray:
    """Area density of the radial proposal on the annulus ``r_lo <= r <= 1``.

    ``log_scale`` selects the log-uniform proposal (matching the tropical
    mass of a degenerating edge); otherwise the proposal is area-uniform
    (matching the bulk of a smooth fiber).  Either way the support reaches
    down to ``r_lo``, which must sit below the ramification radii of the
    coordinate projections so that the mirror route keeps the
    multiple-importance weights bounded there.
    """
    if log_scale:
        span = math.log(1.0 / r_lo)
        dens = 1.0 / (TWO_PI * span * r**2)
    else:
        dens = np.full_like(r, 1.0 / (math.pi * (1.0 - r_lo**2)))
    return np.where((r >= r_lo) & (r <= 1.0), dens, 0.0)


def _sample_patch_route(
    a_coeff: complex,
    b_coeff: complex,
    rule: np.ndarray,
    shifts: np.ndarray,
    r_lo: float,
    log_scale: bool,
    mirror: bool,
) -> dict:
    """One route of the two-route estimator on one patch, over some shifts of a lattice rule.

    ``rule`` is the ``(2, N)`` table of a Fibonacci rule (`lattice_rule`);
    each of its points under each of the random ``shifts`` is a radius
    quantile and a turn, so a ``u`` on the annulus.  The route solves for
    ``v``, filters to the patch region ``|u| <= 1, |v| <= 1``, and weights
    by the balance heuristic over both routes.  By the ``u <-> v`` symmetry of the equation the ``mirror``
    route is this function with its own shifts and each point reflected, so
    it reports the edge coordinate ``log|v| / log|uv|``.  (The unreflected
    one would weight the edge law by twice the first route's
    balance-heuristic share, which is not 1 near the vertices.)  Only on
    the ``log_scale`` (degenerating) pencil does the route keep its points.

    The rows, one per point and shift, run in the blocks of
    `_route_blocks`.  Each block is one call, which slices its points from
    the table (`lattice_points`), is built, solved and weighted, and frees
    its temporaries before the next block starts; no array of one entry per
    row outlives its block.  `_patch_roots` returns only the roots inside the
    patch (about one of the three per row).  Only they get the residual
    filter and a weight; `np.bincount` on their shift index adds the
    weights of each shift into its sum.  The kept points' edge coordinates
    and weights come back as lists of per-block arrays, which
    `sample_pencil` joins once per patch.
    """
    n_shifts = shifts.shape[0]
    abs_a = abs(a_coeff)

    def weigh(block: slice):
        shift, (quantile, turns) = lattice_points(rule, shifts, block)
        if log_scale:
            rad = np.exp(-quantile * math.log(1.0 / r_lo))
        else:
            rad = np.sqrt(r_lo**2 + quantile * (1.0 - r_lo**2))
        u = _unit_phasor(turns, rad)
        row, v = _patch_roots(a_coeff, b_coeff, u)
        shift, u, r_u, r_v = shift[row], u[row], rad[row], np.abs(v)
        # The residual filter at the final roots.
        bu = b_coeff * u
        fv = 3.0 * a_coeff * v * v
        fv += bu
        buv = bu * v
        f = a_coeff * (1.0 + u * u * u + v * v * v) + buv
        scale = abs_a * (1.0 + r_u * r_u * r_u + r_v * r_v * r_v) + np.abs(buv)
        ok = np.abs(f) <= RESIDUAL_TOLERANCE * scale
        dropped = ok.size - int(np.count_nonzero(ok))
        if dropped:
            shift, v, r_v, u, r_u, fv = shift[ok], v[ok], r_v[ok], u[ok], r_u[ok], fv[ok]
        fu = 3.0 * a_coeff * u * u
        fu += b_coeff * v
        fu2 = fu.real**2 + fu.imag**2
        fv2 = fv.real**2 + fv.imag**2
        with np.errstate(divide="ignore", invalid="ignore"):
            contrib = 1.0 / (
                _annulus_density(r_u, r_lo, log_scale) * fv2
                + _annulus_density(r_v, r_lo, log_scale) * fu2
            )
            value = np.log(r_v if mirror else r_u) / np.log(r_u * r_v) if log_scale else None
        return np.bincount(shift, contrib, minlength=n_shifts), dropped, value, contrib

    sums = np.zeros(n_shifts)
    failures = 0
    n_points = 0
    values: list[np.ndarray] = []
    weights: list[np.ndarray] = []
    for block in _route_blocks(rule.shape[1], n_shifts):
        block_sums, dropped, value, weight = weigh(block)
        sums += block_sums
        failures += dropped
        n_points += weight.size
        if log_scale:
            values.append(value)
            weights.append(weight)
    return {"sums": sums, "failures": failures, "values": values, "weights": weights, "n_points": n_points}


def sample_pencil(
    pencil: HypersurfacePencil,
    t: complex,
    n: int,
    seed: int,
    *,
    bins: int = 20,
    shards: int = 1,
    threads: int = 1,
) -> PencilSampleResult:
    """Estimate the residue-form volume of the fiber at ``t``, split by patch.

    ``n`` is a budget of evaluations.  Each of the 3 patches x 2 routes
    integrates over `LATTICE_SHIFTS` random shifts of the largest Fibonacci
    rule (`fibonacci_rule`) with ``6 * LATTICE_SHIFTS * N <= n``, whose
    table (`lattice_rule`) is built once and shared by all six routes, so
    ``n_samples = 96 N`` of the budget is used; a budget below 96 raises
    `PencilError`.  `_replicate_mean` reduces a route's shift means to its
    estimate and variance, as in the polar checks (``LATTICE_SHIFTS - 1``
    degrees of freedom); a patch adds its two routes'.  For the triangle
    degeneration each patch contribution is the mass of one dual-complex
    edge, and the pushforward coordinate
    ``log|z_i/z_k| / log|z_i z_j / z_k^2|`` of the same points is binned and
    tested for uniformity.  Root-solving failures are excluded and counted.

    Route ``j`` draws its shift vectors up front from child ``j`` of
    ``SeedSequence(seed)``.  The patches run one at a time, each as its two
    routes times ``shards`` jobs over ``threads`` threads; a job takes a
    contiguous run of its route's shifts (so ``shards`` lies in ``1..
    LATTICE_SHIFTS``), and every shift is summed in the same pieces in any
    job, so neither ``shards`` nor ``threads`` nor the patch order changes a
    result.  At most one patch's points are held, 16 bytes each (about
    ``n_samples / 3`` of them on the degenerating pencil), and each running
    route holds one block of rows.
    """
    t = pencil.validate_t(t)
    if not 1 <= shards <= LATTICE_SHIFTS:
        raise PencilError(f"shards must lie in 1..{LATTICE_SHIFTS}, one shift or more each")
    per_point = 6 * LATTICE_SHIFTS  # evaluations per point of the rule
    if n < per_point:
        raise PencilError(
            f"sample count {n} is below {per_point}: 6 routes x {LATTICE_SHIFTS} shifts of a one-point lattice rule"
        )
    n_rule, g = fibonacci_rule(n // per_point)
    rule = lattice_rule(n_rule, (1, g))
    a_coeff, b_coeff = pencil.coefficients(t)
    ratio = abs(a_coeff / b_coeff)
    # The inner proposal radius must clear both the coverage bound
    # (|u v| is pinned near |A/B| on a degenerating fiber) and the
    # ramification radii ~ sqrt(|B/A| or |A/B|) of either projection.
    r_lo = min(ratio, 1.0 / ratio, 1.0) / 4.0
    log_scale = pencil.has_tropical_edges

    shifts = [np.random.default_rng(s).random((LATTICE_SHIFTS, 2)) for s in np.random.SeedSequence(seed).spawn(6)]
    ends = np.cumsum([0, *_shard_counts(LATTICE_SHIFTS, shards)])

    def run(job: int) -> dict:
        # The odd route of each patch is its mirror.
        route, part = divmod(job, shards)
        return _sample_patch_route(
            a_coeff, b_coeff, rule, shifts[route][ends[part] : ends[part + 1]], r_lo, log_scale, route % 2 == 1
        )

    lam_norm = TWO_PI * math.log(1.0 / abs(t))
    per_route = LATTICE_SHIFTS * n_rule
    patches: list[PatchEstimate] = []
    total_failures = 0
    for k, label in enumerate(pencil.patch_labels):
        # Patch k is routes 2k and 2k + 1, jobs 2k * shards onwards.
        first = 2 * k * shards
        results = _map_shards(lambda i: run(first + i), 2 * shards, threads)
        mass = 0.0
        var = 0.0
        vals: list[np.ndarray] = []
        wts: list[np.ndarray] = []
        n_pts = 0
        for parts in (results[:shards], results[shards:]):
            mean, route_var = _replicate_mean(np.concatenate([p["sums"] for p in parts]) / n_rule)
            mass += float(mean)
            var += float(route_var)
            total_failures += sum(p["failures"] for p in parts)
            n_pts += sum(p["n_points"] for p in parts)
            for p in parts:
                vals += p.pop("values")
                for w in p["weights"]:
                    w /= per_route * lam_norm
                wts += p.pop("weights")
        del results
        stderr = math.sqrt(var)
        ks = None
        hist = hist_edges = np.empty(0)
        if log_scale:
            values, weights = np.concatenate(vals), np.concatenate(wts)
            del vals, wts
            if values.size:
                ks = float(ks_statistic(values, weights, uniform_cdf(0.0, 1.0)))
            hist, hist_edges = np.histogram(values, bins=bins, range=(0.0, 1.0), weights=weights)
            del values, weights
        patches.append(
            PatchEstimate(
                label=label,
                mass_raw=mass,
                stderr_raw=stderr,
                mass=mass / lam_norm,
                stderr=stderr / lam_norm,
                ks_uniform=ks,
                n_points=n_pts,
                hist_masses=hist,
                hist_edges=hist_edges,
            )
        )
    return PencilSampleResult(
        preset=pencil.preset,
        epsilon=pencil.epsilon,
        t=t,
        n_samples=6 * per_route,
        rule_points=n_rule,
        shifts=LATTICE_SHIFTS,
        n_failures=total_failures,
        patches=tuple(patches),
        seed=seed,
    )


def elliptic_lattice_covolume() -> float:
    """Covolume of the period lattice of the smooth cubic ``sum z_i^3 = 0``.

    The curve is isomorphic to ``y^2 = x^3 - 432``, whose real half-period is
    ``(1/3) 432^(-1/6) B(1/6, 1/2)``; the lattice is hexagonal, so the
    covolume is ``Omega^2 sqrt(3)/2``.
    """
    omega = (
        (2.0 / 3.0)
        * 432.0 ** (-1.0 / 6.0)
        * math.gamma(1.0 / 6.0)
        * math.gamma(0.5)
        / math.gamma(2.0 / 3.0)
    )
    return omega * omega * math.sqrt(3.0) / 2.0

"""Monte-Carlo sampling of degenerating fiber measures on local monomial models.

A local model is a polydisc chart with coordinates ``z_0, ..., z_p`` carrying
the relation ``prod z_i^{b_i} = t`` plus transverse disc coordinates.  In
logarithmic polar coordinates the fiber measure factors into a lattice
measure on the slice polytope ``{sum b_i x_i = log 1/|t|, x_i >= log 1/r_i}``,
the Haar measure of the subtorus ``{sum b_i theta_i = arg t}``, and weighted
area measures on the transverse discs.  The samplers here draw from that
factorization with exact density bookkeeping — slice points by rejection from
the bounding box of the chart projection, torus points by solving the angular
relation with a uniform branch choice, transverse radii by inverting the
radial power law — so every sample carries an unbiased weight for integrals
against the rescaled measure.

The module also provides histogram pushforwards under the normalized log map,
weighted Kolmogorov-Smirnov statistics against predicted limit densities,
closed-form vs Monte-Carlo checks of the polar factorization identities, and
a least-squares fit recovering the mass-asymptotics exponents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .measure import MonomialChartMetric, TWO_PI


class EmptyFiberError(ValueError):
    """The fiber misses the polydisc (|t| too large for the radii)."""


@dataclass(frozen=True)
class LocalChart:
    """A monomial chart together with the degeneration parameter ``t``."""

    metric: MonomialChartMetric
    t: complex

    def __post_init__(self) -> None:
        t = complex(self.t)
        if not 0 < abs(t) < 1:
            raise ValueError("need 0 < |t| < 1")
        object.__setattr__(self, "t", t)
        if self.log_inv_t <= self.min_log_level:
            raise EmptyFiberError(
                f"|t| = {abs(t)} leaves no slice inside the polydisc: need "
                f"log(1/|t|) > {self.min_log_level}"
            )

    @property
    def log_inv_t(self) -> float:
        return -math.log(abs(self.t))

    @property
    def lam(self) -> float:
        """The scale ``1 / log(1/|t|)``."""
        return 1.0 / self.log_inv_t

    @property
    def min_log_level(self) -> float:
        m = self.metric
        return sum(b * math.log(1.0 / r) for b, r in zip(m.b, m.radii))

    @property
    def local_active_dim(self) -> int:
        """Dimension of the chart's own minimal-slope face (independent of kappa_ref)."""
        kmin = self.metric.kappa_min
        return sum(1 for k in self.metric.kappa if k == kmin) - 1


@dataclass(frozen=True)
class FiberSampleResult:
    """Weighted samples from one fiber, with mass estimates.

    ``mass`` estimates the rescaled measure (the one converging to the
    skeletal limit); ``mass_raw`` the unrescaled fiber mass.  ``w`` holds the
    normalized log coordinates of the kept samples (all ``p + 1`` of them,
    summing to 1 against the multiplicities), ``weights`` their estimator
    weights.
    """

    t: complex
    n_samples: int
    n_accepted: int
    mass: float
    stderr: float
    mass_raw: float
    stderr_raw: float
    d_ref: int
    w: np.ndarray | None = None
    weights: np.ndarray | None = None
    z: np.ndarray | None = None

    @property
    def accept_rate(self) -> float:
        return self.n_accepted / self.n_samples


# Largest chunk of `sample_fiber_measure`: ``n`` samples always run as
# ``ceil(n / CHUNK)`` chunks, chunk ``i`` drawing from child ``i`` of
# ``SeedSequence(seed)``.  2^17 is the smallest power of two at or above the
# 1e5 samples of the ``--quick`` suites, so each of their calls is one chunk.
CHUNK = 1 << 17


def _shard_counts(n: int, shards: int) -> list[int]:
    base, extra = divmod(n, shards)
    return [base + (1 if i < extra else 0) for i in range(shards)]


def _map_shards(run: Callable[[int], object], jobs: int, threads: int) -> list:
    """``[run(i) for i in range(jobs)]``, spread over ``threads`` threads when both exceed 1."""
    if threads > 1 and jobs > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(run, range(jobs)))
    return [run(i) for i in range(jobs)]


def _sample_shard(
    chart: LocalChart,
    n: int,
    rng: np.random.Generator,
    h: Callable | None,
    keep: bool,
) -> dict:
    m = chart.metric
    b = np.array(m.b, dtype=float)
    p = m.p
    big_l = chart.log_inv_t
    ell = np.array([math.log(1.0 / r) for r in m.radii])
    alpha = np.array([float(e) for e in m.exponents()])

    # Bounding box of the slice region in the coordinates x_1..x_p.
    slack = big_l - float(ell @ b)
    lo = ell[1:]
    hi = ell[1:] + slack / b[1:]
    if p == 0:
        x = np.empty((n, 0))
        box_vol = 1.0
    else:
        x = rng.uniform(lo, hi, size=(n, p))
        box_vol = float(np.prod(hi - lo))
    x0 = (big_l - x @ b[1:]) / b[0]
    accept = x0 >= ell[0] - 1e-12
    xs = np.column_stack([x0, x]) if p else x0[:, None]

    logw = -2.0 * xs @ alpha
    # Transverse radial sampling inverts the power law exactly, so each
    # coordinate contributes its closed-form disc mass as a constant factor.
    trans_factor = 1.0
    y = None
    if m.transverse_dim:
        y = np.empty((n, m.transverse_dim), dtype=complex)
        for j, (r, c) in enumerate(zip(m.transverse_radii, m.pair_exponents)):
            cj = float(c)
            u = rng.uniform(size=n)
            rad = r * u ** (1.0 / (2.0 - 2.0 * cj))
            phase = rng.uniform(0.0, TWO_PI, size=n)
            y[:, j] = rad * np.exp(1j * phase)
            trans_factor *= math.pi * r ** (2.0 * (1.0 - cj)) / (1.0 - cj)

    z = None
    if h is not None or keep or m.weight_fn is not None:
        # Angles: theta_1..theta_p uniform, theta_0 solved with a uniform
        # branch choice among the b_0 roots — exact Haar on the subtorus.
        phi_t = math.atan2(chart.t.imag, chart.t.real) / TWO_PI
        theta = rng.uniform(size=(n, p))
        k = rng.integers(0, int(m.b[0]), size=n)
        theta0 = (phi_t - theta @ b[1:] + k) / b[0]
        angles = np.column_stack([theta0, theta]) if p else theta0[:, None]
        z = np.exp(-xs + TWO_PI * 1j * angles)

    vals = np.ones(n)
    if h is not None:
        vals = np.asarray(h(z, y) if m.transverse_dim else h(z), dtype=float)

    d_ref = chart.local_active_dim
    prefactor = TWO_PI ** (p - d_ref) * chart.lam**d_ref / m.b[0] * box_vol * trans_factor
    gw = np.zeros(n)
    if m.weight_fn is not None:
        gw = 2.0 * np.asarray(
            m.weight_fn(z, y) if m.transverse_dim else m.weight_fn(z), dtype=float
        )
    weights = np.where(accept, prefactor * np.exp(logw + gw) * vals, 0.0)

    out = {
        "sum": float(weights.sum()),
        "sumsq": float((weights**2).sum()),
        "n": n,
        "n_accepted": int(accept.sum()),
    }
    if keep:
        out["w"] = (xs / big_l)[accept]
        out["weights"] = weights[accept]
        if z is not None:
            out["z"] = z[accept]
    return out


def sample_fiber_measure(
    chart: LocalChart,
    n: int,
    seed: int,
    *,
    h: Callable | None = None,
    keep_samples: bool = False,
    threads: int = 1,
) -> FiberSampleResult:
    """Unbiased Monte-Carlo estimate of ``integral h d(mu_t)`` on a local chart.

    ``mu_t`` is the fiber measure rescaled by ``lambda^d (2 pi)^{-d}
    |t|^{-2 kappa_ref}`` with ``d`` the chart's minimal-slope face dimension
    and ``kappa_ref`` the chart's reference slope.  ``h`` is an optional
    vectorized function of the complex chart coordinates (and transverse
    coordinates, if any); ``h = None`` estimates the total mass.  Sampling is
    deterministic given ``n`` and ``seed``: the samples are drawn in chunks of
    at most `CHUNK` with independently derived sub-seeds and merged in chunk
    order, so ``threads`` changes only how many chunks run at once.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    chunks = -(-n // CHUNK)
    counts = _shard_counts(n, chunks)
    seqs = np.random.SeedSequence(seed).spawn(chunks)

    def run(i: int) -> dict:
        return _sample_shard(chart, counts[i], np.random.default_rng(seqs[i]), h, keep_samples)

    parts = _map_shards(run, chunks, threads)
    total = sum(s["sum"] for s in parts)
    sumsq = sum(s["sumsq"] for s in parts)
    n_acc = sum(s["n_accepted"] for s in parts)
    mean = total / n
    var = max(sumsq / n - mean**2, 0.0)
    stderr = math.sqrt(var / n)

    # Unrescaled fiber mass: divide the rescaling factor back out.
    m = chart.metric
    d_ref = chart.local_active_dim
    unscale = (chart.lam**d_ref / TWO_PI**d_ref) * abs(chart.t) ** (
        -2.0 * float(m.kappa_ref)
    )
    w = weights = z = None
    if keep_samples:
        w = np.concatenate([s["w"] for s in parts])
        weights = np.concatenate([s["weights"] for s in parts])
        if "z" in parts[0]:
            z = np.concatenate([s["z"] for s in parts])
    return FiberSampleResult(
        t=chart.t,
        n_samples=n,
        n_accepted=n_acc,
        mass=mean,
        stderr=stderr,
        mass_raw=mean / unscale,
        stderr_raw=stderr / unscale,
        d_ref=d_ref,
        w=w,
        weights=weights,
        z=z,
    )


def enumerate_point_fiber(chart: LocalChart) -> tuple[np.ndarray, np.ndarray]:
    """Exact fiber of a zero-dimensional chart: the ``b_0`` roots with their masses.

    Each of the ``b_0`` solutions of ``z^{b_0} = t`` carries mass
    ``b_0^{-2} |t|^{2 (a_0 - kappa_ref b_0) / b_0}`` under the rescaled
    measure; no sampling error is involved.
    """
    m = chart.metric
    if m.p != 0:
        raise ValueError("exact enumeration handles only single-coordinate charts")
    b0 = m.b[0]
    t = chart.t
    roots = abs(t) ** (1.0 / b0) * np.exp(
        1j * (np.angle(t) + TWO_PI * np.arange(b0)) / b0
    )
    alpha = float(m.exponents()[0])
    mass = abs(t) ** (2.0 * alpha / b0) / b0**2
    return roots, np.full(b0, mass)


# ---------------------------------------------------------------------------
# Histograms and statistics


@dataclass(frozen=True)
class SimplexHistogram:
    """Pushforward of the sampled measure to the chart of the active face.

    The active face is charted by its normalized log coordinates with the
    first active coordinate dropped; ``edges``/``masses`` give the regular
    grid and per-bin masses, ``values``/``weights`` keep the raw projected
    samples for distribution tests.
    """

    b_active: tuple[int, ...]
    coord_indices: tuple[int, ...]
    edges: tuple[np.ndarray, ...]
    masses: np.ndarray
    stderrs: np.ndarray
    n_samples: int
    total_mass: float
    total_stderr: float
    values: np.ndarray
    weights: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.coord_indices)

    def predicted_chart_density(self, residual_mass: float) -> float:
        """Chart density of the predicted limit ``R * b_sigma^{-1} * lambda_sigma``."""
        return residual_mass / self.b_active[0]


def pushforward_histogram(
    chart: LocalChart | MonomialChartMetric,
    n: int,
    bins: int,
    seed: int,
    *,
    t: complex | None = None,
    threads: int = 1,
) -> SimplexHistogram:
    """Histogram of the normalized log map of fiber samples, on the active face chart.

    ``chart`` may be a ``LocalChart`` or a bare ``MonomialChartMetric``
    together with the parameter ``t``.
    """
    if isinstance(chart, MonomialChartMetric):
        if t is None:
            raise ValueError("a bare chart metric needs the parameter t")
        chart = LocalChart(chart, t)
    m = chart.metric
    kmin = m.kappa_min
    active = tuple(i for i, k in enumerate(m.kappa) if k == kmin)
    res = sample_fiber_measure(chart, n, seed, keep_samples=True, threads=threads)
    coord_indices = active[1:]
    if coord_indices:
        values = res.w[:, list(coord_indices)]
        edges = tuple(np.linspace(0.0, 1.0 / m.b[i], bins + 1) for i in coord_indices)
        sums, _ = np.histogramdd(values, bins=edges, weights=res.weights)
        sumsq, _ = np.histogramdd(values, bins=edges, weights=res.weights**2)
        # Bin mass = (sum of weights in bin) / n; its standard error is
        # dominated by the second-moment term for narrow bins.
        masses = sums / n
        stderrs = np.sqrt(np.maximum(sumsq / n - masses**2, 0.0) / n)
    else:
        values = res.w[:, :0]
        edges = ()
        masses = np.array(float(res.mass))
        stderrs = np.array(float(res.stderr))
    return SimplexHistogram(
        b_active=tuple(m.b[i] for i in active),
        coord_indices=coord_indices,
        edges=edges,
        masses=masses,
        stderrs=stderrs,
        n_samples=n,
        total_mass=float(res.mass),
        total_stderr=float(res.stderr),
        values=values,
        weights=res.weights,
    )


def ks_statistic(
    values: np.ndarray, weights: np.ndarray, cdf: Callable[[np.ndarray], np.ndarray]
) -> float:
    """Weighted one-sample Kolmogorov-Smirnov statistic against a given CDF.

    Compares the normalized weighted empirical CDF with ``cdf`` at every
    sample point (from both sides of each step).
    """
    values = np.asarray(values, dtype=float).ravel()
    weights = np.asarray(weights, dtype=float).ravel()
    if values.size == 0:
        raise ValueError("no samples")
    order = np.argsort(values, kind="stable")
    v = values[order]
    w = weights[order]
    total = w.sum()
    if total <= 0:
        raise ValueError("total weight must be positive")
    cum = np.cumsum(w) / total
    model = np.asarray(cdf(v), dtype=float)
    upper = np.max(np.abs(cum - model))
    lower = np.max(np.abs(np.concatenate([[0.0], cum[:-1]]) - model))
    return float(max(upper, lower))


def uniform_cdf(lo: float, hi: float) -> Callable[[np.ndarray], np.ndarray]:
    span = hi - lo
    if span <= 0:
        raise ValueError("need lo < hi")

    def cdf(x: np.ndarray) -> np.ndarray:
        return np.clip((np.asarray(x, dtype=float) - lo) / span, 0.0, 1.0)

    return cdf


# ---------------------------------------------------------------------------
# Polar factorization checks


@dataclass(frozen=True)
class TrigPoly:
    """Finite sum ``f(z) = sum c_{ab} prod_i z_i^{a_i} conj(z_i)^{b_i}``."""

    terms: tuple[tuple[tuple[int, ...], tuple[int, ...], complex], ...]

    def __call__(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z)
        out = np.zeros(z.shape[0], dtype=complex)
        for a_exp, b_exp, coeff in self.terms:
            term = np.full(z.shape[0], coeff, dtype=complex)
            for i, (ai, bi) in enumerate(zip(a_exp, b_exp)):
                if ai:
                    term *= z[:, i] ** ai
                if bi:
                    term *= np.conj(z[:, i]) ** bi
            out += term
        return out

    @staticmethod
    def random_hermitian(
        rng: np.random.Generator,
        n_coords: int,
        max_degree: int = 2,
        n_terms: int = 3,
        allow_negative: bool = False,
    ) -> "TrigPoly":
        """Random real-valued test function (terms paired with conjugates)."""
        lo = -max_degree if allow_negative else 0
        terms: list[tuple[tuple[int, ...], tuple[int, ...], complex]] = []
        for _ in range(n_terms):
            a_exp = tuple(int(rng.integers(lo, max_degree + 1)) for _ in range(n_coords))
            b_exp = tuple(int(rng.integers(lo, max_degree + 1)) for _ in range(n_coords))
            coeff = complex(rng.normal(), rng.normal())
            terms.append((a_exp, b_exp, coeff))
            terms.append((b_exp, a_exp, coeff.conjugate()))
        return TrigPoly(tuple(terms))


@dataclass(frozen=True)
class PolarCheckResult:
    """Monte-Carlo vs closed-form comparison of a polar factorization identity."""

    mc_value: complex
    mc_stderr: float
    exact_value: complex
    identity: str

    @property
    def abs_discrepancy(self) -> float:
        return abs(self.mc_value - self.exact_value)

    @property
    def rel_discrepancy(self) -> float:
        scale = max(abs(self.exact_value), 1e-300)
        return self.abs_discrepancy / scale

    @property
    def sigmas(self) -> float:
        return self.abs_discrepancy / max(self.mc_stderr, 1e-300)


def polar_full_check(
    b: Sequence[int],
    f: TrigPoly,
    n: int,
    seed: int,
    radii: Sequence[float] | None = None,
) -> PolarCheckResult:
    """Check the polar factorization of the polydisc area measure.

    The Monte-Carlo side samples each coordinate area-uniformly on its disc;
    the closed-form side keeps only the diagonal terms (equal holomorphic and
    antiholomorphic exponents), each contributing
    ``prod_i pi r_i^{2 a_i + 2} / (a_i + 1)``.
    """
    b = tuple(int(x) for x in b)
    k = len(b)
    radii = tuple(float(r) for r in (radii if radii is not None else (1.0,) * k))
    if any(
        e < 0 for a_exp, b_exp, _ in f.terms for e in (*a_exp, *b_exp)
    ):
        raise ValueError("full-polydisc check needs nonnegative exponents")
    rng = np.random.default_rng(seed)
    u = rng.uniform(size=(n, k))
    phase = rng.uniform(0.0, TWO_PI, size=(n, k))
    z = np.asarray(radii) * np.sqrt(u) * np.exp(1j * phase)
    area = math.prod(math.pi * r**2 for r in radii)
    vals = f(z) * area
    mean = complex(vals.mean())
    stderr = float(vals.std() / math.sqrt(n))

    exact = 0j
    for a_exp, b_exp, coeff in f.terms:
        if a_exp != b_exp:
            continue
        factor = 1.0
        for ai, r in zip(a_exp, radii):
            factor *= math.pi * r ** (2 * ai + 2) / (ai + 1)
        exact += coeff * factor
    return PolarCheckResult(mean, stderr, complex(exact), identity="polydisc-polar")


def _slice_integral(
    b: tuple[int, ...], gamma: Sequence[float], big_l: float, ell: Sequence[float]
) -> float:
    """Closed form of ``integral over the slice of prod exp(-gamma_i x_i)``.

    The slice is ``{sum b_i x_i = big_l, x_i >= ell_i}`` with its lattice
    measure (chart density ``gcd(b)/b_0``); implemented for at most two
    coordinates, which the checks use.
    """
    g = [float(x) for x in gamma]
    if len(b) == 1:
        x0 = big_l / b[0]
        if x0 < ell[0]:
            return 0.0
        return math.exp(-g[0] * x0)
    if len(b) == 2:
        density = math.gcd(*b) / b[0]
        u = ell[1]
        v = (big_l - b[0] * ell[0]) / b[1]
        if v <= u:
            return 0.0
        rate = g[0] * b[1] / b[0] - g[1]
        const = math.exp(-g[0] * big_l / b[0])
        if abs(rate) < 1e-14:
            return density * const * (v - u)
        return density * const * (math.exp(rate * v) - math.exp(rate * u)) / rate
    raise NotImplementedError("slice integral implemented for p <= 1")


def polar_fiber_check(
    b: Sequence[int],
    t: complex,
    f: TrigPoly,
    n: int,
    seed: int,
    radii: Sequence[float] | None = None,
) -> PolarCheckResult:
    """Check the polar factorization of the fiber measure ``{prod z_i^{b_i} = t}``.

    The Monte-Carlo side parametrizes the fiber by the coordinates
    ``z_1..z_p`` (area-uniform on their admissible annuli, weight
    ``prod area_i / |z_i|^2``) and enumerates the ``b_0`` branches of the
    remaining coordinate, each carrying mass ``b_0^{-2}``.  The closed-form
    side keeps the terms whose exponent difference is an integer multiple
    ``s`` of ``b`` — the character integral over the angular subtorus — each
    contributing ``(2 pi)^p / gcd(b) * exp(2 pi i s phi_t)`` times the slice
    integral of the modulus part.
    """
    b = tuple(int(x) for x in b)
    k = len(b)
    radii = tuple(float(r) for r in (radii if radii is not None else (1.0,) * k))
    t = complex(t)
    big_l = -math.log(abs(t))
    ell = [math.log(1.0 / r) for r in radii]
    if big_l <= sum(bi * li for bi, li in zip(b, ell)):
        raise EmptyFiberError("slice is empty for this t and radii")
    phi_t = math.atan2(t.imag, t.real) / TWO_PI
    rng = np.random.default_rng(seed)

    if k == 1:
        roots = abs(t) ** (1.0 / b[0]) * np.exp(
            1j * TWO_PI * (phi_t + np.arange(b[0])) / b[0]
        )
        mc = complex(np.sum(f(roots[:, None])) / b[0] ** 2)
        stderr = 0.0
    elif k == 2:
        # Parametrize the fiber by z_1 with x_1 = log 1/|z_1| log-uniform on
        # the admissible range [ell_1, (big_l - b_0 ell_0)/b_1]: the area
        # element over |z_1|^2 becomes the constant 2 pi (x_hi - x_lo), so
        # the only Monte-Carlo variance left comes from the test function.
        x1_lo, x1_hi = ell[1], (big_l - b[0] * ell[0]) / b[1]
        x1 = rng.uniform(x1_lo, x1_hi, size=n)
        z1 = np.exp(-x1 + 1j * TWO_PI * rng.uniform(size=n))
        w_mod = t / z1 ** b[1]
        root0 = np.abs(w_mod) ** (1.0 / b[0]) * np.exp(1j * np.angle(w_mod) / b[0])
        vals = np.zeros(n, dtype=complex)
        for branch in range(b[0]):
            z0 = root0 * np.exp(1j * TWO_PI * branch / b[0])
            vals += f(np.column_stack([z0, z1]))
        vals *= TWO_PI * (x1_hi - x1_lo) / b[0] ** 2
        mc = complex(vals.mean())
        stderr = float(vals.std() / math.sqrt(n))
    else:
        raise NotImplementedError("fiber check implemented for at most 2 coordinates")

    b_sigma = math.gcd(*b)
    exact = 0j
    for a_exp, b_exp, coeff in f.terms:
        diff = [ai - bi for ai, bi in zip(a_exp, b_exp)]
        if diff[0] % b[0] != 0:
            continue
        s = diff[0] // b[0]
        if any(di != s * bi for di, bi in zip(diff, b)):
            continue
        gamma = [ai + bi for ai, bi in zip(a_exp, b_exp)]
        integral = _slice_integral(b, gamma, big_l, ell)
        exact += (
            coeff
            * TWO_PI ** (k - 1)
            / b_sigma
            * complex(math.cos(TWO_PI * s * phi_t), math.sin(TWO_PI * s * phi_t))
            * integral
        )
    return PolarCheckResult(mc, stderr, complex(exact), identity="fiber-polar")


# ---------------------------------------------------------------------------
# Mass-asymptotics fitting


@dataclass(frozen=True)
class MassFit:
    """Least-squares recovery of the mass-asymptotics parameters."""

    kappa_min_hat: float
    d_hat: int
    d_raw: float
    c_hat: float
    residual_rms: float
    confident: bool
    n_points: int


def check_fit_schedule(ts: Sequence[complex]) -> None:
    """Raise `ValueError` unless ``ts`` has at least 4 distinct moduli spanning 3 decades."""
    distinct = np.unique(np.abs(np.asarray(ts, dtype=complex)))
    if distinct.size < 4:
        raise ValueError("need at least 4 distinct |t| values")
    decades = (np.log10(distinct.max()) - np.log10(distinct.min()))
    if decades < 3:
        raise ValueError("need |t| values spanning at least 3 decades")


def fit_mass_asymptotics(points: Sequence[tuple[complex, float]]) -> MassFit:
    """Fit ``mass = c |t|^{2 kappa} (log 1/|t|)^d`` by linear least squares.

    ``points`` are ``(t, mass)`` pairs; needs at least 4 distinct moduli
    spanning at least 3 decades.  ``d`` is reported both raw and rounded to
    the nearest integer, with a confidence flag when the raw value is within
    0.15 of the integer and the design is well-conditioned.
    """
    ts = np.array([abs(complex(t)) for t, _ in points], dtype=float)
    ms = np.array([float(v) for _, v in points], dtype=float)
    if np.any(ms <= 0) or np.any((ts <= 0) | (ts >= 1)):
        raise ValueError("need masses > 0 and moduli in (0, 1)")
    check_fit_schedule(ts)
    log_t = np.log(ts)
    loglog = np.log(-log_t)
    design = np.column_stack([np.ones_like(log_t), log_t, loglog])
    cond = np.linalg.cond(design)
    if cond > 1e8:
        raise ValueError(f"design matrix is ill-conditioned (cond = {cond:.2e})")
    coeffs, *_ = np.linalg.lstsq(design, np.log(ms), rcond=None)
    resid = np.log(ms) - design @ coeffs
    d_raw = float(coeffs[2])
    d_hat = round(d_raw)
    return MassFit(
        kappa_min_hat=float(coeffs[1] / 2.0),
        d_hat=int(d_hat),
        d_raw=d_raw,
        c_hat=float(math.exp(coeffs[0])),
        residual_rms=float(np.sqrt(np.mean(resid**2))),
        confident=bool(abs(d_raw - d_hat) < 0.15),
        n_points=len(points),
    )

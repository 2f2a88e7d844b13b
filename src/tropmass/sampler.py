"""Monte-Carlo sampling of degenerating fiber measures on local monomial models.

A local model is a polydisc chart with coordinates ``z_0, ..., z_p`` carrying
the relation ``prod z_i^{b_i} = t`` plus transverse disc coordinates.  In
logarithmic polar coordinates the fiber measure factors into a lattice
measure on the slice polytope ``{sum b_i x_i = log 1/|t|, x_i >= log 1/r_i}``,
the Haar measure of the subtorus ``{sum b_i theta_i = arg t}``, and weighted
area measures on the transverse discs.  The samplers here draw from that
factorization with exact density bookkeeping — slice points with the active
coordinates uniform on the simplex of the slack the others leave (uniform
spacings), torus points by solving the angular relation with a uniform branch
choice, transverse radii by inverting the radial power law — so every sample
carries an unbiased weight for integrals against the rescaled measure.  Only
a chart with two or more non-active coordinates rejects slice points.
Variances are accumulated as per-chunk means and centred second moments.
When a test function or a metric weight is given, the complex coordinates
are built, evaluated and pooled one block of `TRIG_BLOCK` rows at a time,
their angles from `_unit_phasor`, a table-driven ``e^{2 pi i u}`` within a
few ulp of ``np.exp``.  A test function may return ``k`` rows, ``k`` functions
on the same draws; the estimates then come as length-``k`` arrays, row ``j``
equal to the call with that function alone.

The module also provides histogram pushforwards under the normalized log map,
weighted Kolmogorov-Smirnov statistics against predicted limit densities
(the points binned by model CDF value, and only the cells whose bound can
hold the maximum sorted), closed-form vs Monte-Carlo checks of the polar
factorization identities (whose Monte-Carlo sides are `sample_fiber_measure`
itself, one sample per identity shared by all its test functions), and a
least-squares fit recovering the mass-asymptotics exponents.  Their test
functions, `TrigPoly`, are real by construction and folded once;
`_trig_block` evaluates ``k`` of them on a block, each power of each
coordinate computed once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
    skeletal limit); ``mass_raw`` the unrescaled fiber mass.  The four
    estimates are floats, or length-``k`` arrays for an ``h`` of ``k`` rows.  ``w`` holds the
    normalized log coordinates of the kept samples (all ``p + 1`` of them,
    summing to 1 against the multiplicities), ``weights`` their estimator
    weights; both are ``None`` unless the samples were kept.  The complex
    chart coordinates are built only for ``h`` or the metric's weight
    function and are not kept.
    """

    t: complex
    n_samples: int
    n_accepted: int
    mass: float
    stderr: float
    mass_raw: float
    stderr_raw: float
    w: np.ndarray | None = None
    weights: np.ndarray | None = None

    @property
    def accept_rate(self) -> float:
        return self.n_accepted / self.n_samples


# Largest chunk of `sample_fiber_measure`: ``n`` samples always run as
# ``ceil(n / CHUNK)`` chunks, chunk ``i`` drawing from child ``i`` of
# ``SeedSequence(seed)``.  2^17 is the smallest power of two at or above the
# 1e5 samples of the ``--quick`` suites, so each of their calls is one chunk.
CHUNK = 1 << 17

# Rows that `sample_fiber_measure` hands at once to ``h`` and the metric weight,
# and that `pencil` solves at once: a few hundred kilobytes of temporaries.
TRIG_BLOCK = 1 << 14


def _row_blocks(n: int):
    """Slices of consecutive `TRIG_BLOCK`-row blocks covering ``range(n)``."""
    return (slice(start, min(start + TRIG_BLOCK, n)) for start in range(0, n, TRIG_BLOCK))


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


def _moments(x: np.ndarray) -> tuple[int, float, float]:
    """``(count, mean, M2)`` along the last axis of ``x``, with ``M2 = sum (x - mean)^2``.

    ``M2`` is taken in two passes.  The values are first shifted by one of
    them, so a constant row has its own value as the mean and ``M2 = 0``
    exactly.  Each row of a ``(k, rows)`` array gives the floats its own
    one-row call gives, as arrays of length ``k``.
    """
    shift = x[..., :1]
    d = x - shift
    dm = d.mean(axis=-1, keepdims=True)
    d -= dm
    d *= d
    mean, m2 = (shift + dm)[..., 0], d.sum(axis=-1)
    if x.ndim == 1:
        return x.size, float(mean), float(m2)
    return x.shape[-1], mean, m2


def _merge_moments(parts: Sequence[tuple[int, float, float]]) -> tuple[int, float, float]:
    """Pool ``(count, mean, M2)`` triples in order (Chan, Golub and LeVeque, 1983)."""
    n, mean, m2 = parts[0]
    for nb, mb, m2b in parts[1:]:
        total = n + nb
        delta = mb - mean
        mean = mean + delta * nb / total
        m2 = m2 + (m2b + delta * delta * n * nb / total)
        n = total
    return n, mean, m2


def _spacings(rng: np.random.Generator, k: int, n: int, total) -> np.ndarray:
    """``(k, n)`` array whose columns are uniform on ``{s >= 0, sum s = total}``.

    ``total`` is a scalar or one value per column.  Uniform spacings (Devroye,
    *Non-Uniform Random Variate Generation*, ch. 5): ``k`` standard
    exponentials scaled by ``total`` over their sum; for ``k = 2`` the
    spacings ``(U, 1 - U)`` of one uniform.
    """
    if k == 1:
        return np.broadcast_to(total, (1, n))
    if k == 2:
        s = np.empty((2, n))
        np.multiply(rng.random(n), total, out=s[0])
        np.subtract(total, s[0], out=s[1])
        return s
    s = rng.standard_exponential((k, n))
    s *= total / s.sum(axis=0)
    return s


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
    slack = big_l - float(ell @ b)

    # Slice points in the coordinates y_i = b_i (x_i - ell_i) >= 0 with
    # sum y_i = slack.  Each non-active coordinate is uniform on [0, slack];
    # the active ones (alpha_i = 0, or the pivot 0 when there is none, which
    # keeps its exponential factor) are uniform on the simplex of the slack R
    # left over, whose free coordinates have volume R^(k-1) / (k-1)!.  The
    # slice measure counts x_1..x_p, hence the Jacobian 1 / prod_{i>=1} b_i.
    # Only two or more non-active coordinates can overrun the slack and be
    # rejected.
    active = [i for i in range(p + 1) if alpha[i] == 0] or [0]
    others = [i for i in range(p + 1) if i not in active]
    k = len(active)
    rate = 2.0 * alpha / b
    accept = None
    rest = slack
    log_decay = 0.0
    y_others = ()
    if others:
        y_others = slack * rng.random((len(others), n))
        rest = slack - y_others.sum(axis=0)
        if len(others) > 1:
            # Rejected rows get weight 0 below; clipping keeps their exp finite.
            accept = rest >= 0.0
            rest = np.maximum(rest, 0.0)
        log_decay = rate[others] @ y_others
    y_active = _spacings(rng, k, n, rest)
    if rate[active[0]] != 0:  # the pivot of a chart with no active coordinate
        log_decay = log_decay + rate[active[0]] * rest

    # Transverse radial sampling inverts the power law exactly, so each
    # coordinate contributes its closed-form disc mass as a constant factor.
    trans_factor = 1.0
    for r, c in zip(m.transverse_radii, m.pair_exponents):
        trans_factor *= math.pi * r ** (2.0 - 2.0 * float(c)) / (1.0 - float(c))
    d_ref = chart.local_active_dim
    prefactor = (
        TWO_PI ** (p - d_ref) * chart.lam**d_ref / m.b[0] * trans_factor
        * slack ** len(others) / math.prod(m.b[1:]) * math.exp(-2.0 * float(alpha @ ell))
    )
    weights = prefactor * np.exp(-log_decay)
    if k > 1:
        weights = weights * rest ** (k - 1) / math.factorial(k - 1)
    if keep:
        # The log coordinates x_i = ell_i + y_i / b_i, one row per coordinate.
        x_rows = np.empty((p + 1, n))
        if others:
            x_rows[others] = y_others
        x_rows[active] = y_active
        x_rows /= b[:, None]
        x_rows += ell[:, None]
    if h is not None or m.weight_fn is not None:
        y = dict(zip(others + active, [*y_others, *y_active]))
        weights, (_, mean, m2) = _weigh_points(chart, rng, y, weights, accept, h, keep)
    else:
        if accept is not None:
            weights = np.where(accept, weights, 0.0)
        weights = np.broadcast_to(weights, (n,))
        _, mean, m2 = _moments(weights)

    n_accepted = n if accept is None else int(np.count_nonzero(accept))
    out = {"n": n, "mean": mean, "m2": m2, "n_accepted": n_accepted}
    if keep:
        x_rows /= big_l
        out["w"] = (x_rows if accept is None else x_rows[:, accept]).T
        out["weights"] = np.array(weights if accept is None else weights[accept])
    return out


def _real_values(values, name: str) -> np.ndarray:
    if np.iscomplexobj(values):
        raise ValueError(f"{name} must return real values, not complex ones")
    return np.asarray(values, dtype=float)


def _weigh_points(
    chart: LocalChart,
    rng: np.random.Generator,
    y: dict[int, np.ndarray],
    weights,
    accept: np.ndarray | None,
    h: Callable | None,
    keep: bool,
) -> tuple[np.ndarray | None, tuple[int, float, float]]:
    """The slice weights times ``h`` and the metric weight (if kept), and their moments.

    ``y[i]`` holds the slice coordinates ``y_i = b_i (x_i - ell_i)``.  The
    turns ``theta_1..theta_p`` are uniform and ``theta_0`` solves the angular
    relation on a uniform one of its ``b_0`` branches: exact Haar measure on
    the subtorus.  Each transverse disc then draws its radius and its turns.
    """
    m = chart.metric
    p, n = m.p, len(y[0])
    b = np.array(m.b, dtype=float)
    ell = [math.log(1.0 / r) for r in m.radii]
    phi_t = math.atan2(chart.t.imag, chart.t.real) / TWO_PI
    theta = rng.random((n, p))
    branch = rng.integers(0, m.b[0], size=n)
    roots = enumerate_point_fiber(chart)[0] if p == 0 else None
    discs = []
    for r, c in zip(m.transverse_radii, m.pair_exponents):
        radius = rng.random(n)
        radius **= 1.0 / (2.0 - 2.0 * float(c))
        radius *= r
        discs.append((radius, rng.random(n)))

    weights = np.broadcast_to(weights, (n,))
    out = np.empty(n) if keep else None
    parts = []
    for block in _row_blocks(n):
        rows = block.stop - block.start
        # Column-major, so each coordinate's column is contiguous for h.
        z = np.empty((p + 1, rows), dtype=complex).T
        if p == 0:  # z_0 is one of the b_0 points of the fiber
            z[:, 0] = roots[branch[block]]
        else:
            turns = [branch[block] + phi_t, *theta[block].T]
            for i in range(1, p + 1):
                turns[0] -= b[i] * turns[i]
            turns[0] /= b[0]
            for i in range(p + 1):
                modulus = y[i][block] * (-1.0 / b[i])  # e^{-x_i}
                modulus -= ell[i]
                np.exp(modulus, out=modulus)
                z[:, i] = _unit_phasor(turns[i], modulus)
        args = (z,)
        if discs:
            yt = np.empty((len(discs), rows), dtype=complex).T
            for j, (radius, spin) in enumerate(discs):
                yt[:, j] = _unit_phasor(spin[block], radius[block])
            args = (z, yt)
        w = weights[block]
        if m.weight_fn is not None:
            w = w * np.exp(2.0 * _real_values(m.weight_fn(*args), "weight_fn"))
        if h is not None:
            w = w * _real_values(h(*args), "h")
            if keep and w.ndim > 1:
                raise ValueError("keep_samples needs an h with one value per point")
        if accept is not None:
            w = np.where(accept[block], w, 0.0)
        if keep:
            out[block] = w
        parts.append(_moments(w))
    return out, _merge_moments(parts)


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
    real-valued function of the ``(rows, p + 1)`` complex chart coordinates
    (and the ``(rows, transverse_dim)`` transverse coordinates, if any),
    called once per block of at most `TRIG_BLOCK` rows, as is the metric's
    weight function; a complex-valued output raises `ValueError`.  ``h``
    returns ``(rows,)`` values, or ``(k, rows)`` for ``k`` test functions
    on the same draws: ``mass``, ``stderr``, ``mass_raw`` and
    ``stderr_raw`` are then length-``k`` float arrays (Python floats
    otherwise), entry ``j`` bit-identical to the call with row ``j`` alone,
    and ``keep_samples`` raises `ValueError`.
    ``h = None`` estimates the total mass.  Sampling is
    deterministic given ``n`` and ``seed``: the samples are drawn in chunks of
    at most `CHUNK` with independently derived sub-seeds and merged in chunk
    order, so ``threads`` changes only how many chunks run at once.
    ``keep_samples`` changes only what is returned, never the estimate.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    chunks = -(-n // CHUNK)
    counts = _shard_counts(n, chunks)
    seqs = np.random.SeedSequence(seed).spawn(chunks)

    def run(i: int) -> dict:
        return _sample_shard(chart, counts[i], np.random.default_rng(seqs[i]), h, keep_samples)

    parts = _map_shards(run, chunks, threads)
    _, mean, m2 = _merge_moments([(s["n"], s["mean"], s["m2"]) for s in parts])
    stderr = np.sqrt(m2 / n) / math.sqrt(n)
    if np.ndim(mean) == 0:
        mean, stderr = float(mean), float(stderr)

    # Unrescaled fiber mass: divide the rescaling factor back out.
    m = chart.metric
    d_ref = chart.local_active_dim
    unscale = (chart.lam**d_ref / TWO_PI**d_ref) * abs(chart.t) ** (
        -2.0 * float(m.kappa_ref)
    )
    w = weights = None
    if keep_samples:
        # Column-major, like each chunk's ``w``, so copying a column is contiguous.
        w = np.concatenate([s["w"].T for s in parts], axis=1).T
        weights = np.concatenate([s["weights"] for s in parts])
    return FiberSampleResult(
        t=chart.t,
        n_samples=n,
        n_accepted=sum(s["n_accepted"] for s in parts),
        mass=mean,
        stderr=stderr,
        mass_raw=mean / unscale,
        stderr_raw=stderr / unscale,
        w=w,
        weights=weights,
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


def _bin_moments(
    values: np.ndarray, weights: np.ndarray, edges: tuple[np.ndarray, ...], n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-bin masses and standard errors of ``n`` samples, of which ``values`` were kept.

    Column ``j`` of ``values`` is binned on the equal cells of ``edges[j]``,
    the last cell closed as in `np.histogramdd`; values outside are dropped.
    The bin indices are computed once.  A bin's mass is the mean over all
    ``n`` samples of the weight times the bin's indicator; its centred second
    moment pools the bin's own samples with the ``n - count`` zeros outside
    it (Chan, Golub and LeVeque), so no ``sum w^2 / n - mean^2`` cancels.
    """
    bins = len(edges[0]) - 1
    flat = np.zeros(values.shape[0], dtype=np.intp)
    inside = np.ones(values.shape[0], dtype=bool)
    for j, e in enumerate(edges):
        lo, hi = float(e[0]), float(e[-1])
        v = values[:, j]
        inside &= (v >= lo) & (v <= hi)
        cell = np.minimum(np.floor((v - lo) * (bins / (hi - lo))), bins - 1)
        flat *= bins
        flat += cell.astype(np.intp)
    if not inside.all():
        flat, weights = flat[inside], weights[inside]
    size = bins ** len(edges)
    counts = np.bincount(flat, minlength=size)
    sums = np.bincount(flat, weights=weights, minlength=size)
    within = sums / np.maximum(counts, 1)
    dev = weights - within[flat]
    m2 = np.bincount(flat, weights=dev * dev, minlength=size)
    m2 += within * within * counts * ((n - counts) / n)
    shape = (bins,) * len(edges)
    return (sums / n).reshape(shape), (np.sqrt(m2 / n) / math.sqrt(n)).reshape(shape)


def pushforward_histogram(
    metric: MonomialChartMetric,
    n: int,
    bins: int,
    seed: int,
    *,
    t: complex,
    threads: int = 1,
) -> SimplexHistogram:
    """Histogram of the normalized log map of the fiber samples of ``metric`` at ``t``.

    The histogram lives on the chart of the active face.
    """
    kmin = metric.kappa_min
    active = tuple(i for i, k in enumerate(metric.kappa) if k == kmin)
    res = sample_fiber_measure(LocalChart(metric, t), n, seed, keep_samples=True, threads=threads)
    coord_indices = active[1:]
    if coord_indices:
        values = res.w[:, list(coord_indices)]
        edges = tuple(np.linspace(0.0, 1.0 / metric.b[i], bins + 1) for i in coord_indices)
        masses, stderrs = _bin_moments(values, res.weights, edges, n)
    else:
        values = res.w[:, :0]
        edges = ()
        masses = np.array(float(res.mass))
        stderrs = np.array(float(res.stderr))
    return SimplexHistogram(
        b_active=tuple(metric.b[i] for i in active),
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

    The largest gap, from either side of each step, between the normalized
    weighted empirical CDF and ``cdf``, a non-decreasing function, at the
    sample points.  Only a few points are sorted.  ``cdf`` is evaluated once
    and each point goes to one of ``B = max(1, n // 16)`` equal cells of its
    value; the cell weights give the empirical CDF ``C`` at the cell edges.
    A point of cell ``j`` sees an empirical CDF in ``[C[j], C[j+1]]`` (the
    weights are non-negative) and a model value in ``[j/B, (j+1)/B]``, so its
    gap is at most ``max(C[j+1] - j/B, (j+1)/B - C[j])``, plus a slack for
    the rounding of the sums.  (The first and last cells also hold the model
    values below 0 and above 1.)  The cell of the largest bound is sorted
    and its exact gaps taken, then every other cell whose bound exceeds the
    largest gap found.  The cells left out cannot hold a larger gap, so the
    result equals the sorted form up to the rounding of the cumulative sums.

    Returns NaN if a weight or a value of ``cdf`` is NaN or infinite, so a
    broken sample fails its check.  Raises ``ValueError`` for no samples,
    sizes that differ, a negative weight or a total weight that is not
    positive.
    """
    values = np.asarray(values, dtype=float).ravel()
    weights = np.asarray(weights, dtype=float).ravel()
    n = values.size
    if n == 0:
        raise ValueError("no samples")
    if weights.size != n:
        raise ValueError(f"{n} values but {weights.size} weights")
    if weights.min() < 0:
        raise ValueError("weights must be non-negative")
    total = weights.sum()
    if total <= 0:
        raise ValueError("total weight must be positive")
    model = np.asarray(cdf(values), dtype=float).ravel()
    lo, hi = model.min(), model.max()
    if not (np.isfinite(total) and np.isfinite(lo) and np.isfinite(hi)):
        return math.nan
    cells = max(1, n // 16)
    cell = np.clip(model * cells, 0, cells - 1).astype(np.intp)  # non-decreasing in model
    counts = np.bincount(cell, minlength=cells)
    cum_edge = np.concatenate(([0.0], np.cumsum(np.bincount(cell, weights, cells)))) / total
    grid = np.arange(cells + 1) / cells
    grid[0], grid[-1] = min(0.0, lo), max(1.0, hi)
    # The slack covers the rounding of the cumulative sums, each within about
    # n ulp of the total, and of ``model * cells``.
    bound = np.maximum(cum_edge[1:] - grid[:-1], grid[1:] - cum_edge[:-1])
    bound += 4 * n * np.finfo(float).eps
    bound[counts == 0] = -np.inf
    best = 0.0
    pick = np.zeros(cells, dtype=bool)
    pick[np.argmax(bound)] = True
    visited = pick.copy()
    # Two rounds: every bound left above the first cell's gap is visited next.
    while pick.any():
        picked = np.flatnonzero(pick)
        idx = np.flatnonzero(pick[cell])
        # Sorted by model value, the points come grouped by cell in the order
        # of `picked`.  Ties may come out in any order: within a run of equal
        # values the largest gap is at the run's ends, whose cumulative
        # weights do not depend on the order inside it.
        idx = idx[np.argsort(model[idx])]
        w = weights[idx] / total
        cum = np.cumsum(w)
        runs = counts[picked]
        before = np.concatenate(([0.0], cum[np.cumsum(runs)[:-1] - 1]))
        cum += np.repeat(cum_edge[picked] - before, runs)
        gap = cum - model[idx]
        best = max(best, float(np.abs(gap).max()))
        gap -= w
        best = max(best, float(np.abs(gap).max()))
        pick = (bound > best) & ~visited
        visited |= pick
    return best


def uniform_cdf(lo: float, hi: float) -> Callable[[np.ndarray], np.ndarray]:
    span = hi - lo
    if span <= 0:
        raise ValueError("need lo < hi")

    def cdf(x: np.ndarray) -> np.ndarray:
        return np.clip((np.asarray(x, dtype=float) - lo) / span, 0.0, 1.0)

    return cdf


# ---------------------------------------------------------------------------
# Polar factorization checks


_Term = tuple[tuple[int, ...], tuple[int, ...], complex]

# `_unit_phasor` looks ``e^{2 pi i j / K}`` up in a table of K = 2^12 roots of
# unity.  The first octant comes from libm and the rest by exact symmetries,
# so every entry is within one ulp.
_PHASOR_BITS = 12


def _phasor_table(bits: int) -> np.ndarray:
    k = 1 << bits
    octant = [TWO_PI * j / k for j in range(k // 8 + 1)]
    cos = np.array([math.cos(a) for a in octant])
    sin = np.array([math.sin(a) for a in octant])
    # Angles past pi/4 in the first quadrant are cofunctions of angles below it.
    quarter = np.concatenate([cos, sin[-2:0:-1]]) + 1j * np.concatenate([sin, cos[-2:0:-1]])
    return np.concatenate([quarter, 1j * quarter, -quarter, -1j * quarter])


_PHASOR_TABLE = _phasor_table(_PHASOR_BITS)
# Taylor coefficients of cos and sin of the leftover angle 2 pi x / K, |x| <= 1/2,
# in powers of x.  The first omitted terms are below 3e-18.
_PHASOR_STEP = TWO_PI / (1 << _PHASOR_BITS)
_COS_2, _COS_4 = -(_PHASOR_STEP**2) / 2.0, _PHASOR_STEP**4 / 24.0
_SIN_1, _SIN_3 = _PHASOR_STEP, -(_PHASOR_STEP**3) / 6.0


def _unit_phasor(u: np.ndarray, scale) -> np.ndarray:
    """``scale * e^{2 pi i u}`` for turns ``u`` (any reals of moderate size).

    ``u K`` is split exactly into its nearest integer ``j`` and a remainder
    ``x`` in ``[-1/2, 1/2]``; the result is the table entry ``j mod K``
    times ``cos + i sin`` of the leftover angle ``2 pi x / K <= pi / K``,
    each from a two-term Taylor polynomial, times ``scale``.  Against a
    long-double reference the error of ``psi = e^{2 pi i u}`` stays below
    ``2^-52``; it is within ``5 * 2^-52`` of ``np.exp(2j * np.pi * u)`` for
    ``u`` in ``[0, 1)`` (that reference rounds its argument ``2 pi u``), and
    ``| |psi| - 1 |`` stays below ``2^-51``.
    """
    x = np.multiply(u, 1 << _PHASOR_BITS)
    j = np.rint(x)
    x -= j
    index = j.astype(np.intp)
    index &= (1 << _PHASOR_BITS) - 1
    x2 = np.multiply(x, x, out=j)
    cos = x2 * _COS_4
    cos += _COS_2
    cos *= x2
    cos += 1.0
    sin = x2  # the buffer is free once cos is done
    sin *= _SIN_3
    sin += _SIN_1
    sin *= x
    out = np.empty(x.shape, dtype=complex)
    np.multiply(cos, scale, out=out.real)
    np.multiply(sin, scale, out=out.imag)
    out *= _PHASOR_TABLE[index]
    return out


def _fold_conjugate_pairs(terms: Sequence[_Term]) -> tuple[list[_Term], list[_Term]]:
    """The conjugate pairs (each as its earlier term) and the single terms, in order."""
    unmatched: dict[_Term, list[int]] = {}
    folded: list[list] = []  # [term, paired]
    for term in terms:
        partners = unmatched.get((term[1], term[0], term[2].conjugate()))
        if partners:
            folded[partners.pop()][1] = True
            continue
        unmatched.setdefault(term, []).append(len(folded))
        folded.append([term, False])
    return [t for t, paired in folded if paired], [t for t, paired in folded if not paired]


def _trig_block(fs: Sequence["TrigPoly"], z: np.ndarray) -> np.ndarray:
    """The ``(len(fs), rows)`` values of the polynomials ``fs`` at the rows of ``z``.

    Each monomial is ``z_i^(a_i - b_i)`` (or ``conj(z_i)^(b_i - a_i)``) times
    ``|z_i|^(2 min(a_i, b_i))``, with ``|z_i|^2 = re^2 + im^2``.  Each power
    ``z_i^k`` and ``|z_i|^(2k)`` is computed once for all of ``fs``, as the
    previous power times the first, so row ``j`` is bit-identical to ``fs[j]``
    alone.  A pair adds ``2 Re(c m)``; the pairs and the diagonal terms are
    summed apart, each in order, and added last.
    """
    # Per coordinate, the powers [1, z_i, z_i^2, ...] and [1, |z_i|^2, |z_i|^4, ...] so far.
    zpow = [[1.0, c] for c in z.T]
    r2pow = [[1.0, c.real * c.real + c.imag * c.imag] for c in z.T]

    def raised(powers: list, k: int) -> np.ndarray:
        while len(powers) <= k:
            powers.append(powers[-1] * powers[1])
        return powers[k]

    def monomial(a_exp: tuple[int, ...], b_exp: tuple[int, ...]) -> tuple:
        phase = modulus = 1.0  # each becomes an array once a factor is not 1
        for i, (ai, bi) in enumerate(zip(a_exp, b_exp)):
            if ai != bi:
                zd = raised(zpow[i], abs(ai - bi))
                phase = phase * (zd if ai > bi else np.conj(zd))
            k = min(ai, bi)
            if k:
                r2k = raised(r2pow[i], abs(k))
                modulus = modulus * (r2k if k > 0 else 1.0 / r2k)
        return phase, modulus

    out = np.empty((len(fs), z.shape[0]))
    for f, row in zip(fs, out):
        diagonal, pairs = np.zeros(z.shape[0]), np.zeros(z.shape[0])
        for a_exp, b_exp, coeff in f.diagonal:
            diagonal += coeff.real * monomial(a_exp, b_exp)[1]
        for a_exp, b_exp, coeff in f.pairs:
            phase, modulus = monomial(a_exp, b_exp)
            pairs += 2.0 * (coeff.real * phase.real - coeff.imag * phase.imag) * modulus
        np.add(diagonal, pairs, out=row)
    return out


@dataclass(frozen=True)
class TrigPoly:
    """Real trigonometric polynomial ``f(z) = sum c_{ab} prod_i z_i^{a_i} conj(z_i)^{b_i}``.

    Each term ``(a, b, c)`` needs its conjugate partner ``(b, a, conj(c))``;
    a diagonal ``(a, a, c)`` with real ``c`` is its own.  Construction folds
    the terms once, into ``pairs`` (one term per pair) and the single
    ``diagonal`` terms, and raises `ValueError` for any other term.  ``f(z)``
    maps ``(rows, k)`` complex points to ``rows`` floats in one pass.
    """

    terms: tuple[_Term, ...]
    pairs: tuple[_Term, ...] = field(init=False, repr=False, compare=False)
    diagonal: tuple[_Term, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        terms = tuple((tuple(a_exp), tuple(b_exp), complex(coeff)) for a_exp, b_exp, coeff in self.terms)
        pairs, single = _fold_conjugate_pairs(terms)
        for a_exp, b_exp, coeff in single:
            if a_exp != b_exp or coeff.imag != 0:
                raise ValueError(f"a real-valued TrigPoly needs the conjugate partner of {(a_exp, b_exp, coeff)}")
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "pairs", tuple(pairs))
        object.__setattr__(self, "diagonal", tuple(single))

    def __call__(self, z: np.ndarray) -> np.ndarray:
        return _trig_block((self,), np.asarray(z))[0]

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
        terms = []
        for _ in range(n_terms):
            a_exp = tuple(int(rng.integers(lo, max_degree + 1)) for _ in range(n_coords))
            b_exp = tuple(int(rng.integers(lo, max_degree + 1)) for _ in range(n_coords))
            coeff = complex(rng.normal(), rng.normal())
            terms.append((a_exp, b_exp, coeff))
            terms.append((b_exp, a_exp, coeff.conjugate()))
        return TrigPoly(tuple(terms))


def sigmas(delta: float, stderr: float) -> float:
    """Discrepancy in standard errors; a zero-variance estimate must match exactly."""
    if stderr > 0:
        return abs(delta) / stderr
    return 0.0 if abs(delta) <= 1e-9 else math.inf


@dataclass(frozen=True)
class PolarCheckResult:
    """Monte-Carlo vs closed-form comparison of a polar factorization identity."""

    mc_value: float
    mc_stderr: float
    exact_value: float
    identity: str

    @property
    def abs_discrepancy(self) -> float:
        return abs(self.mc_value - self.exact_value)

    @property
    def sigmas(self) -> float:
        return sigmas(self.mc_value - self.exact_value, self.mc_stderr)


def _stacked(fs: Sequence[TrigPoly]) -> Callable[[np.ndarray], np.ndarray]:
    """The test functions as one ``h``: row ``j`` of its ``(k, rows)`` value is ``fs[j]``."""
    if not fs:
        raise ValueError("the polar checks need at least one test function")
    return lambda z: _trig_block(fs, z)


def _results(res: FiberSampleResult, exact: Sequence[float], identity: str) -> list[PolarCheckResult]:
    """One `PolarCheckResult` per test function of a stacked ``h``."""
    return [
        PolarCheckResult(float(mc), float(se), x, identity)
        for mc, se, x in zip(res.mass_raw, res.stderr_raw, exact)
    ]


def polar_full_check(
    fs: Sequence[TrigPoly],
    n: int,
    seed: int,
    radii: Sequence[float] | None = None,
) -> list[PolarCheckResult]:
    """Check the polar factorization of the polydisc area measure for each ``f``.

    The polydisc ``D^k`` (``k`` the number of coordinates of ``fs[0]``, unit
    discs unless ``radii`` are given) is sampled by `sample_fiber_measure`
    as the transverse discs of the one-point chart ``b = (1,)``, ``a = (0,)``
    at ``t = 1/2``, whose fiber is ``{z_0 = t} x D^k`` with total mass
    ``prod pi r_i^2``; each ``f`` is evaluated on the transverse coordinates.
    One sample serves every ``f``: a single call with ``seed`` whose ``h``
    returns one row per ``f``, so result ``j`` equals the call on
    ``[fs[j]]`` with the same seed, and the results are not independent of
    each other.  The closed-form side keeps only the diagonal terms (equal
    holomorphic and antiholomorphic exponents), each contributing
    ``prod_i pi r_i^{2 a_i + 2} / (a_i + 1)``.
    """
    stacked = _stacked(fs)
    if any(e < 0 for f in fs for a_exp, b_exp, _ in f.terms for e in (*a_exp, *b_exp)):
        raise ValueError("full-polydisc check needs nonnegative exponents")
    k = len(fs[0].terms[0][0])
    metric = MonomialChartMetric((1,), (0,), transverse_dim=k, transverse_radii=radii)
    res = sample_fiber_measure(LocalChart(metric, 0.5), n, seed, h=lambda z, yt: stacked(yt))

    exact = []
    for f in fs:
        value = 0j
        for a_exp, b_exp, coeff in f.terms:
            if a_exp != b_exp:
                continue
            factor = 1.0
            for ai, r in zip(a_exp, metric.transverse_radii):
                factor *= math.pi * r ** (2 * ai + 2) / (ai + 1)
            value += coeff * factor
        exact.append(value.real)
    return _results(res, exact, "polydisc-polar")


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
    fs: Sequence[TrigPoly],
    n: int,
    seed: int,
    radii: Sequence[float] | None = None,
) -> list[PolarCheckResult]:
    """Check the polar factorization of the fiber measure ``{prod z_i^{b_i} = t}`` for each ``f``.

    The Monte-Carlo side is `sample_fiber_measure` on the chart with
    multiplicities ``b``, exponents ``a = 0`` and polydisc ``radii``, with
    each ``f`` as ``h``: a lattice point of the slice, a Haar point of the
    angular subtorus (``theta_0`` on a uniformly chosen one of the ``b_0``
    branches), the unrescaled mass.  One sample serves every ``f``, as in
    `polar_full_check`: result ``j`` equals the call on ``[fs[j]]`` with
    the same seed.  A one-coordinate chart is enumerated exactly instead.
    The closed-form side keeps the terms whose exponent difference is an
    integer multiple ``s`` of ``b`` — the character integral over the
    angular subtorus — each contributing ``(2 pi)^p / gcd(b) * exp(2 pi i
    s phi_t)`` times the slice integral of the modulus part; it handles at
    most two coordinates.
    """
    stacked = _stacked(fs)
    chart = LocalChart(MonomialChartMetric(b, (0,) * len(b), radii), t)
    b, big_l = chart.metric.b, chart.log_inv_t
    k = len(b)
    ell = [math.log(1.0 / r) for r in chart.metric.radii]
    phi_t = math.atan2(chart.t.imag, chart.t.real) / TWO_PI

    b_sigma = math.gcd(*b)
    exact = []
    for f in fs:
        value = 0j
        for a_exp, b_exp, coeff in f.terms:
            diff = [ai - bi for ai, bi in zip(a_exp, b_exp)]
            if diff[0] % b[0] != 0:
                continue
            s = diff[0] // b[0]
            if any(di != s * bi for di, bi in zip(diff, b)):
                continue
            gamma = [ai + bi for ai, bi in zip(a_exp, b_exp)]
            phase = complex(math.cos(TWO_PI * s * phi_t), math.sin(TWO_PI * s * phi_t))
            value += coeff * TWO_PI ** (k - 1) / b_sigma * phase * _slice_integral(b, gamma, big_l, ell)
        exact.append(value.real)

    if k == 1:
        roots, masses = enumerate_point_fiber(chart)
        return [
            PolarCheckResult(float(f(roots[:, None]) @ masses), 0.0, x, "fiber-polar")
            for f, x in zip(fs, exact)
        ]
    res = sample_fiber_measure(chart, n, seed, h=stacked)
    return _results(res, exact, "fiber-polar")


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

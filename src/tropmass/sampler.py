"""Monte-Carlo sampling of degenerating fiber measures on local monomial models.

A local model is the unit polydisc with coordinates ``z_0, ..., z_p``
carrying the relation ``prod z_i^{b_i} = t``.  In logarithmic polar
coordinates the fiber measure factors into a lattice measure on the slice
polytope ``{sum b_i x_i = log 1/|t|, x_i >= 0}`` and the Haar measure of the
subtorus ``{sum b_i theta_i = arg t}``.  The chart sampler estimates the
rescaled mass from that factorization with exact density bookkeeping: it
draws slice points, the active coordinates uniform on the simplex of the
slack the others leave (uniform spacings), and counts the subtorus by its
Haar volume, so every sample carries an unbiased weight.  Only a chart with
two or more non-active coordinates rejects slice points.  Variances are
accumulated as per-chunk means and centred second moments.  Kept samples
are the normalized log coordinates the caller names, with their slice
weights; each chunk writes its accepted rows once, straight into the
returned arrays.

The module also provides histogram pushforwards under the normalized log map
(binned when the active face is an edge, the total mass otherwise) and
weighted Kolmogorov-Smirnov statistics against predicted limit densities
(the points binned by model CDF value, and only the cells whose bound can
hold the maximum sorted, gathered by one scan).  Both read the kept points
one block of `TRIG_BLOCK` at a time, so a point kept on an edge costs 16
bytes, and the KS statistic 6 more while it runs (its cell, and four
floats per cell of 16), besides the few points it sorts: 5.7 MiB above
its inputs at 10^6 points.  It also provides closed-form vs
Monte-Carlo checks of the polar factorization identities, and a
least-squares fit recovering the mass-asymptotics exponents.

The polar identities (a tent-folded Korobov rule) and the pencil's routes
(a Fibonacci rule) integrate on 16 random shifts of a rank-1 lattice rule,
the spread of the shift means giving the standard error: `lattice_rule`
builds the table once per estimate, and `lattice_points` slices each block
of `_route_blocks` from it.  The fiber identity's points reach the chart
through `_chart_points`, its angles from `_unit_phasor`, a table-driven
``e^{2 pi i u}`` within a few ulp of ``np.exp``.  Each identity
evaluates all its test functions on the same points.  The test functions,
`TrigPoly`, are real by construction and folded once; `_trig_block`
evaluates ``k`` of them on a block, each power of each coordinate computed
once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .measure import MonomialChartMetric, TWO_PI


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

    @property
    def log_inv_t(self) -> float:
        return -math.log(abs(self.t))

    @property
    def lam(self) -> float:
        """The scale ``1 / log(1/|t|)``."""
        return 1.0 / self.log_inv_t


@dataclass(frozen=True)
class FiberSampleResult:
    """Weighted samples from one fiber, with mass estimates.

    ``mass`` estimates the rescaled measure (the one converging to the
    skeletal limit); ``mass_raw`` the unrescaled fiber mass.  The four
    estimates are Python floats.  ``w`` is the ``(n_accepted,
    len(keep_samples))`` array of the kept normalized log coordinates,
    column ``j`` the coordinate ``keep_samples[j]`` (all ``p + 1`` of them
    sum to 1 against the multiplicities), and ``weights`` their slice
    weights; both are ``None`` unless samples were kept.
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

# Rows that `pencil` solves at once, and that `_bin_moments` and
# `ks_statistic` read at once: a few hundred kilobytes of temporaries.
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
    """``(count, mean, M2)`` of the 1-D array ``x``, with ``M2 = sum (x - mean)^2``.

    ``M2`` is taken in two passes.  The values are first shifted by one of
    them, so a constant array has its own value as the mean and ``M2 = 0``
    exactly.  A broadcast constant (stride 0) is read at one value only:
    each of its values shifts to the same 0 (NaN if it is not finite), so
    one value gives the mean and ``M2`` with the bits of all ``n``.
    """
    n = x.size
    if x.strides == (0,):
        x = x[:1]
    shift = x[0]
    d = x - shift
    dm = d.mean()
    d -= dm
    d *= d
    return n, float(shift + dm), float(d.sum())


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


def _replicate_mean(means: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The mean over the last axis of ``R`` replicate means, and its variance ``var(ddof=1) / R``.

    The variance has ``R - 1`` degrees of freedom: the replicates are
    independent shifts of one lattice rule (Owen, "Monte Carlo theory,
    methods and examples", 2013).
    """
    return means.mean(axis=-1), means.var(axis=-1, ddof=1) / means.shape[-1]


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


def _chart_points(
    y: Sequence[np.ndarray], turns: Sequence[np.ndarray], branch: np.ndarray, b: Sequence[float], phi_t: float
) -> np.ndarray:
    """The ``(rows, p + 1)`` chart points of slice points ``y`` and Haar turns on the angular subtorus.

    ``y`` holds the ``p + 1`` slice coordinates ``y_i = b_i x_i``, so
    ``|z_i| = e^{-x_i}``; ``turns`` the ``p`` free turns ``theta_1..theta_p``.
    ``theta_0`` solves the angular relation ``sum b_i theta_i = arg t`` on
    branch ``branch`` of its ``b_0`` (``phi_t`` is ``arg t`` in turns, and
    branch ``b_0`` is branch 0 again).  Column-major, so each coordinate's
    column is contiguous for the test functions of `polar_fiber_check`.
    """
    z = np.empty((len(b), len(branch)), dtype=complex).T
    turn0 = branch + phi_t
    for i, turn in enumerate(turns, start=1):
        turn0 -= b[i] * turn
    turn0 /= b[0]
    for i, turn in enumerate((turn0, *turns)):
        modulus = y[i] * (-1.0 / b[i])  # e^{-x_i}
        np.exp(modulus, out=modulus)
        z[:, i] = _unit_phasor(turn, modulus)
    return z


def _sample_shard(
    chart: LocalChart,
    n: int,
    rng: np.random.Generator,
    keep: Sequence[int],
    out: tuple[np.ndarray, np.ndarray] | None,
) -> dict:
    """One chunk of `sample_fiber_measure`: its moments and accept count.

    With ``keep``, the normalized log coordinates ``keep`` of the accepted
    rows and their slice weights go to the first rows of ``out``, an
    ``(n, len(keep))`` and an ``(n,)`` array.
    """
    m = chart.metric
    b = np.array(m.b, dtype=float)
    p = m.p
    big_l = chart.log_inv_t
    alpha = np.array([float(e) for e in m.exponents()])

    # Slice points in the coordinates y_i = b_i x_i >= 0 with sum y_i = L,
    # L = log 1/|t|.  Each non-active coordinate is uniform on [0, L];
    # the active ones (alpha_i = 0, at least one) are uniform on the simplex
    # of the slack R left over, whose free coordinates have volume
    # R^(k-1) / (k-1)!.  The slice measure counts x_1..x_p, hence the
    # Jacobian 1 / prod_{i>=1} b_i.  Only two or more non-active coordinates
    # can overrun L and be rejected.
    active = list(m.active_indices())
    others = [i for i in range(p + 1) if i not in active]
    k = len(active)
    rate = 2.0 * alpha / b
    d = m.active_dim
    prefactor = TWO_PI ** (p - d) * chart.lam**d / m.b[0] * big_l ** len(others) / math.prod(m.b[1:])
    kept_active = any(i in active for i in keep)
    accept = None
    rest = big_l
    y = {}
    if others:
        y_others = rng.random((len(others), n))
        y_others *= big_l
        y.update(zip(others, y_others))
        # The slack R = L - sum of the others is read only by the spacings
        # and weights of k > 1 active coordinates, by the rejection test and
        # by a kept active coordinate.
        if k > 1 or len(others) > 1 or kept_active:
            rest = big_l - y_others.sum(axis=0)
        if len(others) > 1:
            # Rejected rows get weight 0 below; clipping keeps their exp finite.
            accept = rest >= 0.0
            np.maximum(rest, 0.0, out=rest)
            weights = -rate[others] @ y_others
        else:
            weights = y_others[0] * -rate[others[0]]
        # prefactor * exp(-sum rate_i y_i), built in place.
        np.exp(weights, out=weights)
        weights *= prefactor
        if k > 1:
            weights *= rest ** (k - 1)
            weights /= math.factorial(k - 1)
        if accept is not None:
            weights[~accept] = 0.0
    else:
        # Every coordinate active: one weight for every row.
        weights = prefactor * big_l ** (k - 1) / math.factorial(k - 1)
    # k = 1 draws no spacings: its one coordinate is R itself.
    if k > 1 or kept_active:
        y.update(zip(active, _spacings(rng, k, n, rest)))
    _, mean, m2 = _moments(np.broadcast_to(weights, (n,)))

    n_accepted = n if accept is None else int(np.count_nonzero(accept))
    if keep:
        # The normalized log coordinates x_i / L, x_i = y_i / b_i.
        w_out, weights_out = out
        for j, i in enumerate(keep):
            column = w_out[:n_accepted, j]
            np.divide(y[i] if accept is None else y[i][accept], b[i], out=column)
            column /= big_l
        weights_out[:n_accepted] = weights if accept is None else weights[accept]
    return {"n": n, "mean": mean, "m2": m2, "n_accepted": n_accepted}


def sample_fiber_measure(
    chart: LocalChart,
    n: int,
    seed: int,
    *,
    keep_samples: Sequence[int] = (),
    threads: int = 1,
) -> FiberSampleResult:
    """Unbiased Monte-Carlo estimate of the mass of ``mu_t`` on a local chart.

    ``mu_t`` is the fiber measure rescaled by ``lambda^d (2 pi)^{-d}
    |t|^{-2 kappa_min}``, with ``d`` the dimension of the chart's active face
    and ``kappa_min`` its least slope.  Sampling is deterministic given
    ``n`` and ``seed``: the samples are drawn in chunks of at most `CHUNK`
    with independently derived sub-seeds and merged in chunk order, so
    ``threads`` changes only how many chunks run at once.

    ``keep_samples`` names the normalized log coordinates to keep, indices
    in ``0..p``; the accepted points then come back as ``w``, one column
    per index, with their slice weights.  Each chunk writes its accepted
    rows straight into these two arrays, so a kept point costs 8 bytes per
    index plus 8 for its weight, whatever ``threads`` is.  Keeping changes
    only what is returned, never the estimate.
    """
    keep = tuple(keep_samples)
    p = chart.metric.p
    if any(not 0 <= i <= p for i in keep):
        raise ValueError(f"keep_samples indexes the {p + 1} log coordinates 0..{p}, not {keep}")
    if n < 1:
        raise ValueError("need at least one sample")
    chunks = -(-n // CHUNK)
    counts = _shard_counts(n, chunks)
    starts = [sum(counts[:i]) for i in range(chunks)]
    seqs = np.random.SeedSequence(seed).spawn(chunks)
    w = weights = None
    if keep:
        w, weights = np.empty((n, len(keep))), np.empty(n)

    def run(i: int) -> dict:
        rows = slice(starts[i], starts[i] + counts[i])
        out = (w[rows], weights[rows]) if keep else None
        return _sample_shard(chart, counts[i], np.random.default_rng(seqs[i]), keep, out)

    parts = _map_shards(run, chunks, threads)
    _, mean, m2 = _merge_moments([(s["n"], s["mean"], s["m2"]) for s in parts])
    stderr = math.sqrt(m2 / n) / math.sqrt(n)
    n_accepted = sum(s["n_accepted"] for s in parts)
    if keep and n_accepted < n:
        # Each chunk's accepted rows head its own rows: move them up behind
        # the previous chunk's, in chunk order, and give back the rest.
        end = 0
        for start, s in zip(starts, parts):
            k = s["n_accepted"]
            if start != end:
                w[end : end + k] = w[start : start + k]
                weights[end : end + k] = weights[start : start + k]
            end += k
        # In place: no view of either array outlives `run`.
        w.resize((n_accepted, len(keep)), refcheck=False)
        weights.resize(n_accepted, refcheck=False)

    # Unrescaled fiber mass: divide the rescaling factor back out.  Past the
    # float range, multiply by its inverse, taking |t|^kappa_min twice so that
    # only the last product can round below the normal range (to 0.0 at worst).
    m = chart.metric
    d = m.active_dim
    try:
        unscale = (chart.lam**d / TWO_PI**d) * abs(chart.t) ** (-2.0 * float(m.kappa_min))
        mass_raw, stderr_raw = mean / unscale, stderr / unscale
    except OverflowError:
        half = abs(chart.t) ** float(m.kappa_min)
        mass_raw, stderr_raw = (x / chart.lam**d * TWO_PI**d * half * half for x in (mean, stderr))
    return FiberSampleResult(
        t=chart.t,
        n_samples=n,
        n_accepted=n_accepted,
        mass=mean,
        stderr=stderr,
        mass_raw=mass_raw,
        stderr_raw=stderr_raw,
        w=w,
        weights=weights,
    )


def enumerate_point_fiber(chart: LocalChart) -> tuple[np.ndarray, np.ndarray]:
    """Exact fiber of a zero-dimensional chart: the ``b_0`` roots with their masses.

    Each of the ``b_0`` solutions of ``z^{b_0} = t`` carries mass
    ``b_0^{-2}`` under the measure rescaled at the chart's own slope
    ``a_0 / b_0``; no sampling error is involved.
    """
    m = chart.metric
    if m.p != 0:
        raise ValueError("exact enumeration handles only single-coordinate charts")
    b0 = m.b[0]
    t = chart.t
    roots = abs(t) ** (1.0 / b0) * np.exp(
        1j * (np.angle(t) + TWO_PI * np.arange(b0)) / b0
    )
    return roots, np.full(b0, 1.0 / b0**2)


# ---------------------------------------------------------------------------
# Histograms and statistics


@dataclass(frozen=True)
class SimplexHistogram:
    """Pushforward of the sampled measure to the chart of the active face.

    The active face is charted by its normalized log coordinates with the
    first active coordinate dropped, ``coord_indices`` the ``d`` kept ones.
    On an edge (``d = 1``) ``edges`` holds the one regular grid,
    ``masses``/``stderrs`` the per-bin masses, and ``values``/``weights`` the
    ``(n, 1)`` projected samples and their slice weights for distribution
    tests: the arrays the sampler wrote, 16 bytes per kept sample, not
    copied.  On any other face ``edges`` is empty, ``masses``/``stderrs`` are
    the total, as 0-d arrays, and no samples are kept: ``values`` and
    ``weights`` are ``None``.
    """

    coord_indices: tuple[int, ...]
    edges: tuple[np.ndarray, ...]
    masses: np.ndarray
    stderrs: np.ndarray
    n_samples: int
    total_mass: float
    total_stderr: float
    values: np.ndarray | None
    weights: np.ndarray | None


def _bin_moments(
    values: np.ndarray, weights: np.ndarray, edges: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-bin masses and standard errors of ``n`` samples, of which ``values`` were kept.

    ``values`` are binned on the equal cells of ``edges``, the last cell
    closed as in `np.histogram`; values outside are dropped.  A bin's mass
    is the mean over all ``n`` samples of the weight times the bin's
    indicator; its centred second moment pools the bin's own samples with
    the ``n - count`` zeros outside it (Chan, Golub and LeVeque), so no
    ``sum w^2 / n - mean^2`` cancels.  The points are read in blocks of
    `TRIG_BLOCK`, twice: once for the counts and sums, once for the second
    moments about the bin means.  `np.add.at` adds in index order, so each
    sum is the one `np.bincount` of all the points gives, bit for bit.
    """
    bins = len(edges) - 1
    lo, hi = float(edges[0]), float(edges[-1])
    scale = bins / (hi - lo)

    def binned(block: slice) -> tuple[np.ndarray, np.ndarray]:
        """The cells and weights of the points of ``block`` inside the grid."""
        v = values[block]
        inside = (v >= lo) & (v <= hi)
        cell = np.minimum(np.floor((v - lo) * scale), bins - 1).astype(np.intp)
        if inside.all():
            return cell, weights[block]
        return cell[inside], weights[block][inside]

    counts = np.zeros(bins, dtype=np.intp)
    sums = np.zeros(bins)
    for block in _row_blocks(values.size):
        cell, w = binned(block)
        np.add.at(counts, cell, 1)
        np.add.at(sums, cell, w)
    within = sums / np.maximum(counts, 1)
    m2 = np.zeros(bins)
    for block in _row_blocks(values.size):
        cell, w = binned(block)
        dev = w - within[cell]
        dev *= dev
        np.add.at(m2, cell, dev)
    m2 += within * within * counts * ((n - counts) / n)
    return sums / n, np.sqrt(m2 / n) / math.sqrt(n)


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

    The histogram lives on the chart of the active face.  Only on an edge
    are the samples kept and binned; any other face reports its total mass
    (see `SimplexHistogram`).
    """
    coord_indices = metric.active_indices()[1:]
    on_edge = len(coord_indices) == 1
    keep = coord_indices if on_edge else ()
    res = sample_fiber_measure(LocalChart(metric, t), n, seed, keep_samples=keep, threads=threads)
    if on_edge:
        edges = (np.linspace(0.0, 1.0 / metric.b[coord_indices[0]], bins + 1),)
        masses, stderrs = _bin_moments(res.w[:, 0], res.weights, edges[0], n)
    else:
        edges = ()
        masses, stderrs = np.array(float(res.mass)), np.array(float(res.stderr))
    return SimplexHistogram(
        coord_indices=coord_indices,
        edges=edges,
        masses=masses,
        stderrs=stderrs,
        n_samples=n,
        total_mass=float(res.mass),
        total_stderr=float(res.stderr),
        values=res.w,
        weights=res.weights,
    )


def _cell_points(
    mask: np.ndarray, cell: np.ndarray, counts: np.ndarray, values: np.ndarray, cdf: Callable
) -> tuple[np.ndarray, np.ndarray]:
    """Indices and model values of the points whose `cell` is in ``mask``, in index order.

    One scan of ``cell``, a block of `TRIG_BLOCK` at a time; ``cdf`` is called
    on the block's points in ``mask``, if any.  ``counts`` sizes the result.
    """
    idx = np.empty(int(counts[mask].sum()), dtype=np.intp)
    model = np.empty(idx.size)
    if not idx.size:
        return idx, model
    end = 0
    for block in _row_blocks(cell.size):
        found = np.flatnonzero(mask.take(cell[block]))
        if found.size:
            found += block.start
            idx[end : end + found.size] = found
            model[end : end + found.size] = np.asarray(cdf(values[found]), dtype=float).ravel()
            end += found.size
    return idx, model


def ks_statistic(
    values: np.ndarray, weights: np.ndarray, cdf: Callable[[np.ndarray], np.ndarray]
) -> float:
    """Weighted one-sample Kolmogorov-Smirnov statistic against a given CDF.

    The largest gap, from either side of each step, between the normalized
    weighted empirical CDF and ``cdf``, a non-decreasing function applied
    elementwise, at the sample points.  Only a few points are sorted.  Each
    point goes to one of ``B = max(1, n // 16)`` equal cells of its model
    value; the cell weights give the empirical CDF ``C`` at the cell edges.
    A point of cell ``j`` sees an empirical CDF in ``[C[j], C[j+1]]`` (the
    weights are non-negative) and a model value in ``[j/B, (j+1)/B]``, so its
    gap is at most ``max(C[j+1] - j/B, (j+1)/B - C[j])``, plus a slack for
    the rounding of the sums.  (The first and last cells also hold the model
    values below 0 and above 1.)  The cell of the largest bound is sorted
    and its exact gaps taken, then every other cell whose bound exceeds the
    largest gap found.  The cells left out cannot hold a larger gap, so the
    result equals the sorted form up to the rounding of the cumulative sums.

    The points are read one block of `TRIG_BLOCK` at a time: ``cdf`` is
    called once per block, which gives the block's cells, counts and cell
    weights (summed in index order, as `np.bincount` would).  The largest
    ``|C[j+1] - (j+1)/B|``, less a cell width and the slack, is a lower
    bound on the statistic.  One more scan of the cells gathers the points
    of every cell whose bound exceeds it, calling ``cdf`` again on each
    block's share, and the rounds take the cells they pick from these.  A
    round that picks a cell outside them scans again for its own points, and
    so does every round when those cells hold more than an eighth of all
    points.  Besides its inputs the statistic holds 4 bytes per point (the
    cells, as ``int32``), four floats per cell (16 points), the gathered
    points (16 bytes each) and, while a round sorts, at most four arrays the
    size of the round's points.

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
    if not np.isfinite(total):
        return math.nan
    cells = max(1, n // 16)
    cell = np.empty(n, dtype=np.int32)  # n // 16 cells fit for any n that fits in memory
    counts = np.zeros(cells, dtype=np.intp)
    # The cell weights, after a leading 0, then summed up in place: the
    # empirical CDF at the cell edges.
    cum_edge = np.zeros(cells + 1)
    lo, hi = math.inf, -math.inf
    for block in _row_blocks(n):
        model = np.asarray(cdf(values[block]), dtype=float).ravel()
        block_lo, block_hi = model.min(), model.max()
        if not (np.isfinite(block_lo) and np.isfinite(block_hi)):
            return math.nan
        lo, hi = min(lo, block_lo), max(hi, block_hi)
        block_cell = np.clip(model * cells, 0, cells - 1).astype(np.intp)  # non-decreasing in model
        cell[block] = block_cell
        np.add.at(counts, block_cell, 1)
        np.add.at(cum_edge[1:], block_cell, weights[block])
    del model, block_cell
    np.cumsum(cum_edge, out=cum_edge)
    cum_edge /= total
    # The bound buffer first holds C less the upper cell edges of the grid
    # below.  At each edge, the last point below it or the first point above
    # it has a gap at least that large, up to the rounding of the model
    # values into cells; less a cell width and the slack, the largest is
    # `floor`, a lower bound on the statistic with room to spare.
    bound = np.arange(1, cells + 1, dtype=float)
    bound /= cells
    bound[-1] = max(1.0, hi)
    np.subtract(cum_edge[1:], bound, out=bound)
    floor = max(bound.max(), -bound.min()) - 1.0 / cells
    grid = np.arange(cells + 1, dtype=float)
    grid /= cells
    grid[0], grid[-1] = min(0.0, lo), max(1.0, hi)
    np.subtract(cum_edge[1:], grid[:-1], out=bound)
    above = np.subtract(grid[1:], cum_edge[:-1], out=grid[1:])
    np.maximum(bound, above, out=bound)
    del grid, above
    # The slack covers the rounding of the cumulative sums, each within about
    # n ulp of the total, and of ``model * cells``.
    slack = 4 * n * np.finfo(float).eps
    bound += slack
    bound[counts == 0] = -np.inf
    floor -= slack

    # A round picks the cells whose bound exceeds the largest gap found so
    # far, which is near the statistic, so mostly cells above `floor`.  Their
    # points are gathered by one scan, unless they hold more than an eighth
    # of all points (16 bytes each).  A round that picks a cell outside them
    # scans again.
    held = bound > floor
    if counts[held].sum() > n // 8:
        held[:] = False
    held_idx, held_model = _cell_points(held, cell, counts, values, cdf)
    best = 0.0
    pick = np.zeros(cells, dtype=bool)
    pick[np.argmax(bound)] = True
    visited = pick.copy()
    # Two rounds: every bound left above the first cell's gap is visited next.
    while pick.any():
        picked = np.flatnonzero(pick)
        if held[picked].all():
            inside = pick.take(cell[held_idx])
            idx, model = held_idx[inside], held_model[inside]
        else:
            idx, model = _cell_points(pick, cell, counts, values, cdf)
        # Sorted by model value, the points come grouped by cell in the order
        # of `picked`.  Ties may come out in any order: within a run of equal
        # values the largest gap is at the run's ends, whose cumulative
        # weights do not depend on the order inside it.  Each array is let go
        # once it is read, so at most four of these are held at once.
        order = np.argsort(model)
        model = model[order]
        idx = idx[order]
        del order
        w = weights[idx]
        del idx
        w /= total
        cum = np.cumsum(w)
        runs = counts[picked]
        before = np.concatenate(([0.0], cum[np.cumsum(runs)[:-1] - 1]))
        cum += np.repeat(cum_edge[picked] - before, runs)
        gap = np.subtract(cum, model, out=cum)
        del model
        lower = np.subtract(gap, w, out=w)
        best = max(best, float(np.abs(gap, out=gap).max()), float(np.abs(lower, out=lower).max()))
        pick = (bound > best) & ~visited
        visited |= pick
    return best


def uniform_cdf(lo: float, hi: float) -> Callable[[np.ndarray], np.ndarray]:
    """The CDF of the uniform law on ``[lo, hi]``, written into one new array."""
    span = hi - lo
    if span <= 0:
        raise ValueError("need lo < hi")

    def cdf(x: np.ndarray) -> np.ndarray:
        out = np.array(x, dtype=float)
        out -= lo
        out /= span
        return np.clip(out, 0.0, 1.0, out=out)

    return cdf


# ---------------------------------------------------------------------------
# Randomized lattice rules

# A Korobov rank-1 lattice rule (Sloan and Joe, *Lattice Methods for Multiple
# Integration*, 1994): the points ``k g / N mod 1``, ``k < N``, with ``g_j =
# a^j mod N``.  ``N`` is prime.  Of 300 multipliers drawn by
# ``default_rng(0).integers(2, N - 1, 300)``, ``a`` has the lowest ``P_2``
# at ``dim = 4``, the dimension of the unit bidisc.
LATTICE_N = 8191
LATTICE_A = 481
# Random shifts per lattice estimate: their spread is its standard error,
# with ``LATTICE_SHIFTS - 1`` degrees of freedom.
LATTICE_SHIFTS = 16


def lattice_rule(n: int, g: Sequence[int]) -> np.ndarray:
    """The unshifted rank-1 rule of ``n`` points with generator ``g``: row ``d`` is ``(k g_d mod n) / n``, ``k < n``."""
    x = np.multiply.outer(np.asarray(g, dtype=np.int64), np.arange(n, dtype=np.int64))
    x %= n
    return x / n


def _route_blocks(n_rule: int, n_shifts: int):
    """Row blocks of ``n_shifts`` stacked shifts of an ``n_rule``-point rule.

    A block holds as many whole shifts as fit in `TRIG_BLOCK` rows; a longer
    shift is cut into pieces of `TRIG_BLOCK` rows from its start.  So each
    shift is summed in the same pieces however the shifts are sharded.
    """
    per = max(1, TRIG_BLOCK // n_rule)
    for first in range(0, n_shifts, per):
        stop = min(first + per, n_shifts) * n_rule
        for start in range(first * n_rule, stop, TRIG_BLOCK):
            yield slice(start, min(start + TRIG_BLOCK, stop))


def lattice_points(rule: np.ndarray, shifts: np.ndarray, block: slice) -> tuple[np.ndarray, np.ndarray]:
    """Rows ``block`` of ``rule`` stacked over its random ``shifts``: each row's shift and point.

    Row ``i`` is point ``i mod N`` of shift ``s = i // N``, moved by
    ``shifts[s]`` modulo 1 (Cranley and Patterson, SIAM J. Numer. Anal. 13,
    1976), so it is uniform on ``[0, 1)``.  ``block`` is whole shifts or a
    piece of one, as `_route_blocks` yields them, and is sliced from the
    table; any other block raises `ValueError`.  Returns ``s`` and the
    ``(dim, rows)`` points.
    """
    dim, n = rule.shape
    first, start = divmod(block.start, n)
    rows = block.stop - block.start
    width = min(rows, n)
    count = rows // width
    x = (rule[:, None, start : start + width] + shifts[first : first + count].T[:, :, None]).reshape(dim, rows)
    x -= np.floor(x)  # x % 1.0, exactly, at a tenth of the cost
    return np.repeat(np.arange(first, first + count), width), x


def fibonacci_rule(n_max: int) -> tuple[int, int]:
    """The largest 2-D Fibonacci rule of at most ``n_max`` points: ``(N, g) = (F_k, F_{k-1})``.

    Its points ``(j / N, j g / N mod 1)``, ``j < N``, form the classical good
    two-dimensional rank-1 lattice (Niederreiter, *Random Number Generation
    and Quasi-Monte Carlo Methods*, 1992, ch. 5), which needs no search.
    Its table is ``lattice_rule(N, (1, g))``; the smallest has one point.

    >>> fibonacci_rule(2600)
    (2584, 1597)
    """
    if n_max < 1:
        raise ValueError("a Fibonacci rule has at least one point")
    g, n = 1, 1
    while g + n <= n_max:
        g, n = n, g + n
    return n, g


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


def _disc_points(radius_u: np.ndarray, spin: np.ndarray) -> np.ndarray:
    """`polar_full_check`'s area-uniform disc points from two uniforms: radius ``sqrt(radius_u)``, ``spin`` turns."""
    return _unit_phasor(spin, np.sqrt(radius_u))


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


def _coordinate_counts(fs: Sequence[TrigPoly]) -> set[int]:
    """The lengths of the exponent tuples of ``fs``; an empty ``fs`` raises `ValueError`."""
    if not fs:
        raise ValueError("the polar checks need at least one test function")
    return {len(e) for f in fs for a_exp, b_exp, _ in f.terms for e in (a_exp, b_exp)}


def _lattice_estimate(
    fs: Sequence[TrigPoly],
    dim: int,
    seed: int,
    points: Callable[[np.ndarray], np.ndarray],
    volume: float,
) -> tuple[np.ndarray, np.ndarray]:
    """``volume`` times the mean of each ``f`` over a randomized lattice rule, and its standard error.

    The Korobov rule (`lattice_rule`, ``g_d = LATTICE_A^d mod LATTICE_N``)
    in ``dim`` dimensions is built once and moved by `LATTICE_SHIFTS` random
    shifts from ``default_rng(seed)``, one shift a block of `lattice_points`.
    Each coordinate is folded by the tent map ``x -> 1 - |2 x - 1|``
    (Hickernell, MCQMC 2000): the points stay uniform, and for a smooth
    integrand the error falls almost as ``N^-2``.  ``points`` maps each
    shift's ``(LATTICE_N, dim)`` points, columns contiguous, to the chart
    points, and one `_trig_block` call evaluates every test function on
    them.  `_replicate_mean` reduces the shift means: the estimate is
    ``volume`` times their mean, and its standard error ``volume`` times the
    root of its variance, one entry per ``f``, each reduced as its
    one-function call reduces it.
    """
    rule = lattice_rule(LATTICE_N, [pow(LATTICE_A, d, LATTICE_N) for d in range(dim)])
    shifts = np.random.default_rng(seed).random((LATTICE_SHIFTS, dim))
    means = np.empty((len(fs), LATTICE_SHIFTS))
    for s in range(LATTICE_SHIFTS):
        _, x = lattice_points(rule, shifts, slice(s * LATTICE_N, (s + 1) * LATTICE_N))
        x *= 2.0
        x -= 1.0
        np.abs(x, out=x)
        np.subtract(1.0, x, out=x)
        means[:, s] = _trig_block(fs, points(x.T)).mean(axis=1)
    mean, var = _replicate_mean(means)
    return mean * volume, np.sqrt(var) * volume


def polar_full_check(fs: Sequence[TrigPoly], seed: int) -> list[PolarCheckResult]:
    """Check the polar factorization of the polydisc area measure for each ``f``.

    The unit polydisc ``D^k``, ``k`` the one length of every exponent tuple
    of every ``f``, is integrated by `_lattice_estimate` in ``2 k``
    dimensions with volume ``pi^k``: coordinates ``(2 j, 2 j + 1)`` give
    disc ``j`` its radius and turns through `_disc_points`.  The points
    serve every ``f``, so result ``j`` equals the call on ``[fs[j]]`` with
    the same seed, and the results are not independent of each other.  The
    closed-form side keeps only the diagonal terms (equal holomorphic and
    antiholomorphic exponents), each contributing ``prod_i pi / (a_i + 1)``.
    An empty ``fs``, exponents of several lengths or of none, and a
    negative exponent raise `ValueError` before any evaluation.
    """
    counts = _coordinate_counts(fs)
    if len(counts) != 1:
        raise ValueError(f"the exponents of fs must share one length, the polydisc's dimension, not {sorted(counts)}")
    if any(e < 0 for f in fs for a_exp, b_exp, _ in f.terms for e in (*a_exp, *b_exp)):
        raise ValueError("full-polydisc check needs nonnegative exponents")
    (k,) = counts

    def discs(u: np.ndarray) -> np.ndarray:
        z = np.empty((k, LATTICE_N), dtype=complex).T
        for j in range(k):
            z[:, j] = _disc_points(u[:, 2 * j], u[:, 2 * j + 1])
        return z

    mc, stderr = _lattice_estimate(fs, 2 * k, seed, discs, math.pi**k)

    exact = []
    for f in fs:
        value = 0j
        for a_exp, b_exp, coeff in f.terms:
            if a_exp != b_exp:
                continue
            factor = 1.0
            for ai in a_exp:
                factor *= math.pi / (ai + 1)
            value += coeff * factor
        exact.append(value.real)
    return [
        PolarCheckResult(float(m), float(se), x, "polydisc-polar")
        for m, se, x in zip(mc, stderr, exact)
    ]


def _slice_integral(b: tuple[int, ...], gamma: Sequence[float], big_l: float) -> float:
    """Closed form of ``integral over the slice of prod exp(-gamma_i x_i)``.

    The slice is ``{sum b_i x_i = big_l, x_i >= 0}`` with its lattice
    measure (chart density ``gcd(b)/b_0``); implemented for at most two
    coordinates, which the checks use.
    """
    g = [float(x) for x in gamma]
    if len(b) == 1:
        return math.exp(-g[0] * (big_l / b[0]))
    if len(b) == 2:
        density = math.gcd(*b) / b[0]
        v = big_l / b[1]
        rate = g[0] * b[1] / b[0] - g[1]
        const = math.exp(-g[0] * big_l / b[0])
        if abs(rate) < 1e-14:
            return density * const * v
        return density * const * (math.exp(rate * v) - 1.0) / rate
    raise NotImplementedError("slice integral implemented for p <= 1")


def polar_fiber_check(
    b: Sequence[int],
    t: complex,
    fs: Sequence[TrigPoly],
    seed: int,
) -> list[PolarCheckResult]:
    """Check the polar factorization of the fiber measure ``{prod z_i^{b_i} = t}`` for each ``f``.

    The fiber lies on the unit-polydisc chart with multiplicities ``b`` and
    exponents ``a = 0``.  Its measure is the slice ``{b_0 x_0 + b_1 x_1 =
    L}``, ``L = log 1/|t|``, times Haar measure on the angular subtorus, of
    total mass ``2 pi L / (b_0 b_1)``.  The Monte-Carlo side integrates it
    by `_lattice_estimate` in 3 dimensions with that volume: coordinate 0
    is the slice share ``U``, giving ``y = (L U, L (1 - U))``; coordinate 1
    is the turn ``theta_1``; coordinate 2 picks the branch ``floor(b_0 u)``
    of ``theta_0``.  `_chart_points` maps them to the chart.  The points
    serve every ``f``, so result ``j`` equals the call on ``[fs[j]]`` with
    the same seed.  A one-coordinate chart is enumerated exactly instead,
    and one of more than two coordinates raises `NotImplementedError`.  An
    empty ``fs``, or an exponent tuple whose length is not ``len(b)``,
    raises `ValueError` before any evaluation.
    The closed-form side keeps the terms whose exponent difference is an
    integer multiple ``s`` of ``b`` — the character integral over the
    angular subtorus — each contributing ``(2 pi)^p / gcd(b) * exp(2 pi i
    s phi_t)`` times the slice integral of the modulus part.
    """
    counts = _coordinate_counts(fs)
    if counts - {len(b)}:
        raise ValueError(f"the exponents of fs must have the chart's {len(b)} coordinates, not {sorted(counts)}")
    chart = LocalChart(MonomialChartMetric(b, (0,) * len(b)), t)
    b, big_l = chart.metric.b, chart.log_inv_t
    k = len(b)
    if k > 2:
        raise NotImplementedError("the fiber check handles charts of at most two coordinates")
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
            value += coeff * TWO_PI ** (k - 1) / b_sigma * phase * _slice_integral(b, gamma, big_l)
        exact.append(value.real)

    if k == 1:
        roots, masses = enumerate_point_fiber(chart)
        return [
            PolarCheckResult(float(f(roots[:, None]) @ masses), 0.0, x, "fiber-polar")
            for f, x in zip(fs, exact)
        ]

    def fiber_points(u: np.ndarray) -> np.ndarray:
        y0 = big_l * u[:, 0]
        return _chart_points((y0, big_l - y0), (u[:, 1],), np.floor(b[0] * u[:, 2]), b, phi_t)

    mc, stderr = _lattice_estimate(fs, 3, seed, fiber_points, TWO_PI * big_l / (b[0] * b[1]))
    return [
        PolarCheckResult(float(m), float(se), x, "fiber-polar")
        for m, se, x in zip(mc, stderr, exact)
    ]


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

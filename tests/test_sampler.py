"""Tests for Monte-Carlo fiber sampling, histograms, polar checks, mass fits."""

from __future__ import annotations

import csv
import hashlib
import math
import platform
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tropmass import cli, sampler
from tropmass.cli import ExperimentConfig
from tropmass.lattice import simplex_volume
from tropmass.measure import MonomialChartMetric, TWO_PI, chart_limit_mass
from tropmass.pencil import HypersurfacePencil, _sample_patch_route
from tropmass.sampler import (
    CHUNK,
    LATTICE_A,
    LATTICE_N,
    LATTICE_SHIFTS,
    TRIG_BLOCK,
    FiberSampleResult,
    LocalChart,
    MassFit,
    TrigPoly,
    enumerate_point_fiber,
    fibonacci_points,
    fibonacci_rule,
    fit_mass_asymptotics,
    ks_statistic,
    lattice_points,
    lattice_rule,
    polar_fiber_check,
    polar_full_check,
    pushforward_histogram,
    sample_fiber_measure,
    _merge_moments,
    _moments,
    _PHASOR_BITS,
    _sample_shard,
    _shard_counts,
    _trig_block,
    _unit_phasor,
    uniform_cdf,
)


def metric(b, a):
    return MonomialChartMetric(b=tuple(b), a=tuple(a))


def chart(b, a, t):
    return LocalChart(metric(b, a), t)


class TestLocalChart:
    def test_rejects_t_outside_unit_disc(self):
        with pytest.raises(ValueError):
            chart((1, 1), (0, 0), 1.5)
        with pytest.raises(ValueError):
            chart((1, 1), (0, 0), 0.0)

    def test_active_dim(self):
        # The chart's active face is its metric's: the coordinates of least slope.
        assert chart((1, 1), (0, 0), 1e-3).metric.active_dim == 1
        assert chart((1, 1), (0, 1), 1e-3).metric.active_dim == 0
        assert chart((3,), (0,), 1e-3).metric.active_dim == 0
        assert chart((1, 1), (Fraction(1, 2), Fraction(1, 2)), 1e-3).metric.active_dim == 1


class TestFiberMass:
    def test_annulus_mass_is_one_exactly(self):
        res = sample_fiber_measure(chart((1, 1), (0, 0), 1e-4), 2000, seed=7)
        assert res.mass == pytest.approx(1.0, abs=1e-12)
        assert res.stderr == pytest.approx(0.0, abs=1e-15)
        assert res.accept_rate == 1.0

    def test_annulus_raw_mass_matches_closed_form(self):
        t = 1e-2
        res = sample_fiber_measure(chart((1, 1), (0, 0), t), 1000, seed=1)
        assert res.mass_raw == pytest.approx(TWO_PI * math.log(1.0 / t), rel=1e-12)

    def test_doubled_edge_mass_is_half_exactly(self):
        res = sample_fiber_measure(chart((1, 2), (0, 0), 1e-4), 2000, seed=3)
        assert res.mass == pytest.approx(0.5, abs=1e-12)
        assert res.stderr == pytest.approx(0.0, abs=1e-15)

    def test_vertex_chart_mass_near_pi(self):
        # Slopes (0, 1) concentrate the mass at the vertex w = (1, 0);
        # the exact chart mass is pi (1 - |t|^2).
        t = 1e-6
        res = sample_fiber_measure(chart((1, 1), (0, 1), t), 500_000, seed=11)
        exact = math.pi * (1.0 - t * t)
        assert abs(res.mass - exact) < 3 * res.stderr
        assert abs(res.mass - exact) / exact < 0.02

    def test_point_fiber_mass_exact(self):
        res = sample_fiber_measure(chart((3,), (0,), 1e-3), 100, seed=5)
        assert res.mass == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert res.mass_raw == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_point_fiber_enumeration(self):
        t = 1e-3
        roots, masses = enumerate_point_fiber(chart((3,), (0,), t))
        assert roots.shape == (3,)
        np.testing.assert_allclose(roots**3, t, rtol=1e-12, atol=1e-18)
        np.testing.assert_allclose(masses, 1.0 / 9.0, rtol=1e-12)
        assert masses.sum() == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_decay_chart_scales_like_t(self):
        # Both slopes are 1/2, so the chart is an edge rescaled at its own
        # least slope: the rescaled mass is 1 and the raw mass is exactly
        # 2 pi |t| log(1/|t|) (the integrand is constant).
        half = Fraction(1, 2)
        for k in range(2, 8):
            t = 10.0**-k
            res = sample_fiber_measure(chart((1, 1), (half, half), t), 500, seed=k)
            assert (res.mass, res.stderr) == (1.0, 0.0)
            assert res.mass_raw / (TWO_PI * t * math.log(1.0 / t)) == pytest.approx(1.0, rel=1e-12)

    def test_keep_samples_indexes_the_log_coordinates(self):
        c = chart((1, 1, 1), (0, 1, 1), 1e-3)
        for keep in ((3,), (0, -1)):
            with pytest.raises(ValueError, match="keep_samples indexes the 3 log coordinates"):
                sample_fiber_measure(c, 100, 0, keep_samples=keep)

    def test_phase_invariance_of_mass(self):
        r_pos = sample_fiber_measure(chart((2, 3), (0, 0), 1e-3), 5000, seed=4)
        r_rot = sample_fiber_measure(
            chart((2, 3), (0, 0), 1e-3 * np.exp(1j * 0.7)), 5000, seed=4
        )
        assert r_rot.mass == pytest.approx(r_pos.mass, rel=1e-12)

    def test_threads_do_not_change_chunked_result(self):
        c = chart((1, 1), (0, 1), 1e-3)
        runs = [
            sample_fiber_measure(c, 3 * CHUNK + 5, seed=42, keep_samples=(0, 1), threads=k)
            for k in (1, 2, 3)
        ]
        for res in runs[1:]:
            assert (res.mass, res.stderr) == (runs[0].mass, runs[0].stderr)
            np.testing.assert_array_equal(res.weights, runs[0].weights)
            np.testing.assert_array_equal(res.w, runs[0].w)
        # Merged chunks estimate the same mass as a single chunk.
        one = sample_fiber_measure(c, 10_000, seed=42)
        assert abs(runs[0].mass - one.mass) < 4 * (runs[0].stderr + one.stderr)

    @pytest.mark.parametrize("b, a", [((1, 1, 1), (0, 0, 1)), ((1, 1, 1), (0, 1, 1))], ids=["accepting", "rejecting"])
    def test_estimates_are_python_floats(self, b, a):
        res = sample_fiber_measure(chart(b, a, 1e-3), 100, 0)
        assert {type(v) for v in (res.mass, res.stderr, res.mass_raw, res.stderr_raw)} == {float}

    def test_single_chunk_is_the_first_child_stream(self):
        c = chart((1, 2), (0, 1), 1e-3)
        res = sample_fiber_measure(c, CHUNK, seed=9, keep_samples=(0, 1))
        rng = np.random.default_rng(np.random.SeedSequence(9).spawn(1)[0])
        w, weights = np.empty((CHUNK, 2)), np.empty(CHUNK)
        part = _sample_shard(c, CHUNK, rng, (0, 1), (w, weights))
        assert res.mass == part["mean"] and part["n_accepted"] == CHUNK
        np.testing.assert_array_equal(res.weights, weights)
        np.testing.assert_array_equal(res.w, w)

    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=3),
        st.integers(min_value=2, max_value=4),
    )
    def test_unit_weight_mass_matches_lattice_volume(self, b, k):
        b = tuple(b)
        res = sample_fiber_measure(chart(b, (0,) * len(b), 10.0**-k), 20_000, seed=17)
        exact = float(simplex_volume(b) / math.gcd(*b))
        assert abs(res.mass - exact) < max(5 * res.stderr, 1e-9)


# The numpy version and architecture under which the whole-CSV digests below
# were recorded.
DIGEST_NUMPY = "2.4.6"


def skip_unless_recorded_build():
    if np.__version__ != DIGEST_NUMPY:
        pytest.skip(f"digests recorded under numpy {DIGEST_NUMPY}, not {np.__version__}")
    if platform.machine().lower() not in ("x86_64", "amd64"):
        pytest.skip(f"digests recorded on x86-64, not {platform.machine()}")


class TestRunnerCsvDigests:
    """The sha256 of each CSV of each command line, on every x86-64 dispatch target.

    Recorded under numpy 2.4.6 with each of its five kernel sets selected
    by NPY_DISABLE_CPU_FEATURES on one AVX512_SPR machine, as for the
    polar-check pin.  The mixed chart moves with the kernels: the three
    AVX-512 sets write one digest, X86_V3 and the X86_V2 baseline another.
    Both pencils' files move too: three digests each (AVX-512, X86_V3,
    X86_V2).  The smooth pencil writes no histogram (``None``).
    `base-change` is exact.
    """

    DIGESTS = {
        "sample --preset annulus --t 1e-2..1e-6 --seed 1": {
            "sample-annulus.csv": {"39b273809bc71d0584a5833b63c72f971de3e1246e6c8f7003f572c24615c416"},
        },
        "sample --b 1,1,1 --a 0,1,1 --t 1e-3,1e-5 --n-samples 300000 --seed 3": {
            "sample-chart-1-1-1.csv": {
                "f090dad8d31a75dbe1a5020aab505b2b6963c2096743cb57f4344c5cf6b653a6",
                "86c2b10b96f13fb2115ee34458af7b88ca0d926b3a1d26b8dc4239974952f4bf",
            },
        },
        "pushforward --b 1,2 --t 1e-6 --n-samples 100000 --bins 50 --seed 2": {
            "pushforward-chart-1-2.csv": {"66db3af2a6cdfc0eb471c677d027c56a3b92e3513db9c668c7f8cadd574d7198"},
        },
        "pushforward --b 1,1,1 --t 1e-4 --n-samples 100000 --bins 7 --seed 2": {
            "pushforward-chart-1-1-1.csv": {"14dca9d0fadc1b4cbef6dcc6679f71296d1d7b500c27b3c75bff7a0a3bd1aa9a"},
        },
        "fit-mass --preset annulus --t 1e-2..1e-7 --seed 3": {
            "fit-mass-annulus.csv": {"eb0bcd950565cc15ebb965ad93fd00e42d888d72d690ff86aecfafd98a7157fb"},
        },
        "sample-pencil --preset coordinate_pencil --t 1e-5 --n-samples 60000 --seed 3": {
            "sample-coordinate_pencil-t1e-05.csv": {
                "c76c4d077e4d66940a2d20070fc600397f2c25df5c70e603fbc48333df1f2fe8",
                "a4b282934187a2d206914741a076a04b4ca894113e6c379765d861a75396b07c",
                "c131616897aa0440b62ad34441c2a32d9260ea905a4f29f01f7d15e8ca71239e",
            },
            "sample-coordinate_pencil-t1e-05-hist.csv": {
                "a1a091fd376fc8f19d0271dbbbc74f93bf72b8b850f06faac2c923fa3dee234d",
                "86b202ea669666f4d4202324e6c3e51d8039416509f0fbbf7da73169bd6f3219",
                "6c99f3c7507276f5082491168ce0ff1a04bc8558e9db07f0f0c5342886203cbe",
            },
        },
        "sample-pencil --preset fermat_smooth --t 1e-2 --n-samples 60000 --seed 3": {
            "sample-fermat_smooth-t0.01.csv": {
                "bf68a8d5a4d2c49d77a007ec6c93778d30287b3644da9d6b29fdb8ef8c001e22",
                "b64d401fad9c609ac00991b8b039357d5f0dde3c6cad2e4e939dbf45704dde9a",
                "97250ce37db83d2b02b48ae7afb47b9c00bff191192f8a720cf5263664c07f59",
            },
            # A smooth fiber has no edge coordinate to bin.
            "sample-fermat_smooth-t0.01-hist.csv": None,
        },
        "base-change --preset coordinate_pencil --m 6": {
            "base-change-coordinate_pencil-m6.csv": {"994e2f583db90cae3f7c23b0041216c5e783dfd8a6c0bba8d778855294a2874a"},
        },
    }

    @pytest.mark.parametrize("line", sorted(DIGESTS))
    def test_csv_bytes_are_pinned(self, tmp_path, capsys, line):
        skip_unless_recorded_build()
        assert cli.main([*line.split(), "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        for name, digests in self.DIGESTS[line].items():
            if digests is None:
                assert not (tmp_path / name).exists(), name
                continue
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() in digests, name


def simplex_integral(f, top, m=200_001):
    """Midpoint rule for ``integral_0^top f(s) ds``."""
    s = (np.arange(m) + 0.5) * (top / m)
    return float(f(s).sum() * (top / m))


class TestSliceProposal:
    """The exact proposal: active coordinates uniform on the simplex of the remaining slack."""

    @pytest.mark.parametrize("p", [2, 3, 4, 5])
    def test_all_ones_charts_accept_everything_at_mass_one_over_p_factorial(self, p):
        c = chart((1,) * (p + 1), (0,) * (p + 1), 1e-4)
        res = sample_fiber_measure(c, 20_000, seed=p, keep_samples=range(p + 1))
        assert res.accept_rate == 1.0
        assert res.mass == pytest.approx(1.0 / math.factorial(p), abs=1e-9)
        assert res.stderr == 0.0
        # Each coordinate of a uniform point on the standard p-simplex is
        # Beta(1, p); 1.95 / sqrt(n) is the 0.1% critical KS distance.
        beta = lambda x: 1.0 - (1.0 - np.clip(x, 0.0, 1.0)) ** p
        for i in range(p + 1):
            assert ks_statistic(res.w[:, i], res.weights, beta) < 1.95 / math.sqrt(20_000)

    def test_mixed_chart_matches_finite_t_quadrature(self):
        # b = (1, 1, 1), a = (0, 0, 1): d = 1, and the slice integral of
        # exp(-2 x_2) over {x_1, x_2 >= 0, x_1 + x_2 <= L} is that of
        # (L - s) exp(-2 s) over [0, L].
        t = 1e-3
        c = chart((1, 1, 1), (0, 0, 1), t)
        big_l = -math.log(t)
        exact = TWO_PI / big_l * simplex_integral(lambda s: (big_l - s) * np.exp(-2.0 * s), big_l)
        res = sample_fiber_measure(c, 400_000, seed=5)
        assert res.accept_rate == 1.0
        assert abs(res.mass - exact) < 5 * res.stderr
        assert res.mass == pytest.approx(exact, rel=0.01)

    def test_first_coordinate_non_active(self):
        # Slopes (1, 0): the mirror image of the vertex chart, exact mass pi (1 - |t|^2).
        t = 1e-6
        res = sample_fiber_measure(chart((1, 1), (1, 0), t), 400_000, seed=12)
        exact = math.pi * (1.0 - t * t)
        assert res.accept_rate == 1.0
        assert abs(res.mass - exact) < 5 * res.stderr
        assert res.mass == pytest.approx(exact, rel=0.02)

    def test_two_non_active_coordinates_keep_the_rejection(self):
        # a = (0, 1, 1): y_1 + y_2 <= slack holds for half the uniform pairs.
        # Exact: (2 pi)^2 integral_0^L s exp(-2 s) ds.
        t = 1e-3
        big_l = -math.log(t)
        exact = TWO_PI**2 * simplex_integral(lambda s: s * np.exp(-2.0 * s), big_l)
        res = sample_fiber_measure(chart((1, 1, 1), (0, 1, 1), t), 400_000, seed=13)
        assert 0.49 < res.accept_rate < 0.51
        assert abs(res.mass - exact) < 5 * res.stderr
        assert res.mass == pytest.approx(exact, rel=0.02)

    @pytest.mark.parametrize(
        "b, a", [((1, 1, 1), (0, 0, 1)), ((1, 1, 1), (0, 1, 1)), ((2, 1), (1, 1)), ((1, 2, 1), (0, 0, 0))]
    )
    def test_keeping_samples_does_not_change_the_estimate(self, b, a):
        c = chart(b, a, 1e-4)
        kept = sample_fiber_measure(c, 2 * CHUNK + 7, seed=4, keep_samples=range(len(b)))
        plain = sample_fiber_measure(c, 2 * CHUNK + 7, seed=4)
        assert (kept.mass, kept.stderr, kept.n_accepted) == (plain.mass, plain.stderr, plain.n_accepted)
        assert plain.w is None and plain.weights is None
        assert kept.w.shape == (kept.n_accepted, len(b)) and kept.weights.shape == (kept.n_accepted,)
        # The kept points lie on the slice: sum b_i w_i = 1.
        np.testing.assert_allclose(kept.w @ np.array(b, dtype=float), 1.0, rtol=1e-12)


class TestStableVariance:
    def test_constant_weights_have_zero_stderr_over_many_chunks(self):
        for b in ((1, 1, 1, 1), (1, 2, 3)):
            res = sample_fiber_measure(chart(b, (0,) * len(b), 1e-5), 3 * CHUNK + 5, seed=1)
            assert res.stderr == 0.0
            assert res.mass == pytest.approx(float(simplex_volume(b) / math.gcd(*b)), rel=1e-12)

    def test_merged_moments_match_the_pooled_sample(self):
        rng = np.random.default_rng(8)
        chunks = [1e9 + rng.normal(size=k) for k in (5, 1000, 1, 77)]
        n, mean, m2 = _merge_moments([_moments(x) for x in chunks])
        pooled = np.concatenate(chunks)
        assert n == pooled.size
        assert mean == pytest.approx(pooled.mean(), rel=1e-15)
        assert m2 / n == pytest.approx(np.var(pooled), rel=1e-7)
        assert _moments(np.full(10, 0.1)) == (10, 0.1, 0.0)

    def test_histogram_stderrs_match_two_pass_reference(self):
        # Non-constant weights exp(-2 x_2) on the face coordinate w_1.
        n, bins = 50_000, 10
        hist = pushforward_histogram(metric((1, 1, 1), (0, 0, 1)), n, bins, seed=2, t=1e-3)
        edges = hist.edges[0]
        cell = np.clip(np.searchsorted(edges, hist.values[:, 0], side="right") - 1, 0, bins - 1)
        for j in range(bins):
            x = np.zeros(n)
            x[: hist.weights.size] = np.where(cell == j, hist.weights, 0.0)
            assert hist.masses[j] == pytest.approx(x.mean(), rel=1e-9)
            assert hist.stderrs[j] == pytest.approx(x.std() / math.sqrt(n), rel=1e-6)


class TestPushforwardHistogram:
    def test_doubled_edge_density_uniform(self):
        hist = pushforward_histogram(metric((1, 2), (0, 0)), 200_000, 20, seed=8, t=1e-4)
        assert hist.coord_indices == (1,)
        assert hist.total_mass == pytest.approx(0.5, abs=1e-12)
        assert hist.edges[0][0] == 0.0
        assert hist.edges[0][-1] == pytest.approx(0.5)
        predicted_bin = 0.5 / 20  # the total 1/b_0 * 1/b_1 over 20 equal bins
        for mass, err in zip(hist.masses, hist.stderrs):
            assert abs(mass - predicted_bin) < max(4 * err, 1e-12)
        assert chart_limit_mass(MonomialChartMetric(b=(1, 2), a=(0, 0))) == pytest.approx(0.5)

    def test_ks_distance_to_uniform_small(self):
        hist = pushforward_histogram(metric((1, 2), (0, 0)), 200_000, 20, seed=8, t=1e-4)
        stat = ks_statistic(hist.values[:, 0], hist.weights, uniform_cdf(0.0, 0.5))
        assert stat < 0.01

    @pytest.mark.parametrize(
        "b, a",
        [
            ((1, 2), (Fraction(1, 2), 1)),
            ((2, 2, 1), (1, 1, Fraction(1, 2))),
            ((3,), (2,)),
            ((1, 1), (Fraction(1, 2), 1)),
        ],
    )
    def test_charts_of_non_zero_least_slope_agree_with_the_limit(self, b, a):
        # The limit mass, the sampler's mass and the histogram's total read
        # one active face, that of `MonomialChartMetric.active_indices`.
        m = metric(b, a)
        assert m.kappa_min != 0
        limit = chart_limit_mass(m)
        res = sample_fiber_measure(LocalChart(m, 1e-6), 20_000, seed=1)
        if m.active_dim == m.p:  # a constant integrand: the mass is exact
            assert res.stderr == 0.0
            assert res.mass == pytest.approx(limit, rel=1e-12)
        else:
            assert abs(res.mass - limit) < 4 * res.stderr
        hist = pushforward_histogram(m, 20_000, 10, seed=1, t=1e-6)
        assert hist.coord_indices == m.active_indices()[1:]
        assert hist.total_mass == res.mass

    def test_vertex_chart_histogram_is_scalar(self):
        hist = pushforward_histogram(metric((1, 1), (0, 1)), 50_000, 10, seed=8, t=1e-4)
        assert hist.coord_indices == () and hist.values is None
        assert hist.masses.shape == ()
        assert hist.total_mass == pytest.approx(math.pi, rel=0.05)

    def test_triangle_chart_reports_the_total(self):
        # d = 2: no bins, the total as masses/stderrs, and no samples kept.
        b = (1, 2, 1)
        hist = pushforward_histogram(metric(b, (0, 0, 0)), 50_000, 10, seed=8, t=1e-4)
        plain = sample_fiber_measure(chart(b, (0, 0, 0), 1e-4), 50_000, seed=8)
        assert hist.coord_indices == (1, 2) and hist.edges == ()
        assert hist.masses.shape == hist.stderrs.shape == ()
        assert (float(hist.masses), float(hist.stderrs)) == (hist.total_mass, hist.total_stderr)
        assert (hist.total_mass, hist.total_stderr) == (plain.mass, plain.stderr)
        assert hist.values is None and hist.weights is None


def sorted_ks(values, weights, cdf):
    """Reference: the weighted KS statistic from one full sort of the points."""
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    order = np.argsort(values)
    v = values[order]
    w = weights[order]
    cum = np.cumsum(w) / w.sum()
    model = np.asarray(cdf(v), dtype=float)
    upper = np.max(np.abs(cum - model))
    lower = np.max(np.abs(np.concatenate([[0.0], cum[:-1]]) - model))
    return float(max(upper, lower))


UNIFORM = uniform_cdf(0.0, 1.0)


def beta_cdf(p):
    """The Beta(1, p) CDF of a coordinate of a uniform point on the p-simplex."""
    return lambda x: 1.0 - (1.0 - np.clip(x, 0.0, 1.0)) ** p


class TestKsStatistic:
    def test_uniform_samples_close(self):
        rng = np.random.default_rng(0)
        v = rng.uniform(size=50_000)
        stat = ks_statistic(v, np.ones_like(v), uniform_cdf(0.0, 1.0))
        assert stat < 0.01

    def test_wrong_model_detected(self):
        rng = np.random.default_rng(0)
        v = rng.uniform(size=50_000) ** 2
        stat = ks_statistic(v, np.ones_like(v), uniform_cdf(0.0, 1.0))
        assert stat > 0.2

    def test_weights_matter(self):
        v = np.array([0.25, 0.75])
        w = np.array([3.0, 1.0])
        # Weighted CDF jumps to 0.75 at 0.25.
        stat = ks_statistic(v, w, uniform_cdf(0.0, 1.0))
        assert stat == pytest.approx(0.5)

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="no samples"):
            ks_statistic(np.array([]), np.array([]), uniform_cdf(0.0, 1.0))

    def test_zero_total_weight_raises(self):
        with pytest.raises(ValueError, match="total weight must be positive"):
            ks_statistic(np.array([0.1, 0.2]), np.zeros(2), UNIFORM)

    @pytest.mark.parametrize("n_weights", [50, 200])
    def test_sizes_that_differ_raise(self, n_weights):
        v = np.linspace(0.0, 1.0, 100)
        with pytest.raises(ValueError, match=f"100 values but {n_weights} weights"):
            ks_statistic(v, np.ones(n_weights), UNIFORM)

    def test_negative_weight_raises(self):
        w = np.ones(40)
        w[7] = -1e-3
        with pytest.raises(ValueError, match="non-negative"):
            ks_statistic(np.linspace(0.0, 1.0, 40), w, UNIFORM)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_broken_weight_gives_nan(self, bad):
        rng = np.random.default_rng(3)
        v, w = rng.uniform(size=1000), rng.exponential(size=1000)
        w[123] = bad
        assert math.isnan(ks_statistic(v, w, UNIFORM))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_broken_cdf_value_gives_nan(self, bad):
        rng = np.random.default_rng(3)
        v, w = rng.uniform(size=1000), rng.exponential(size=1000)

        def cdf(x):
            out = UNIFORM(x)
            out[x > 0.9] = bad
            return out

        assert math.isnan(ks_statistic(v, w, cdf))
        v[5] = math.nan  # the uniform CDF of NaN is NaN
        assert math.isnan(ks_statistic(v, w, UNIFORM))

    def test_ties_in_any_order_give_the_stable_sort_value(self):
        rng = np.random.default_rng(5)
        v = np.round(rng.uniform(size=20_000), 2)  # 101 values, many ties
        w = rng.exponential(size=v.size)
        order = np.argsort(v, kind="stable")
        cum = np.cumsum(w[order]) / w.sum()
        model = uniform_cdf(0.0, 1.0)(v[order])
        ref = max(np.abs(cum - model).max(), np.abs(np.concatenate([[0.0], cum[:-1]]) - model).max())
        assert ks_statistic(v, w, uniform_cdf(0.0, 1.0)) == pytest.approx(ref, abs=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_sorted_reference_on_random_sizes(self, seed):
        rng = np.random.default_rng(seed)
        # Below 16 points there is a single cell.
        sizes = [1, 2, 15, 16, 17, 33] + list(rng.integers(1, 5001, size=12))
        for n in sizes:
            v = rng.uniform(size=n)
            w = rng.exponential(size=n)
            assert ks_statistic(v, w, UNIFORM) == pytest.approx(sorted_ks(v, w, UNIFORM), abs=1e-12)

    @pytest.mark.parametrize("decimals", [1, 2, 3])
    def test_matches_sorted_reference_with_many_ties(self, decimals):
        rng = np.random.default_rng(decimals)
        for n in (10, 500, 5000):
            v = np.round(rng.uniform(size=n), decimals)
            w = rng.exponential(size=n)
            assert ks_statistic(v, w, UNIFORM) == pytest.approx(sorted_ks(v, w, UNIFORM), abs=1e-12)

    @pytest.mark.parametrize("n", [1, 7, 100, 5000])
    def test_all_values_equal(self, n):
        rng = np.random.default_rng(n)
        v = np.full(n, 0.3)
        w = rng.exponential(size=n)
        assert ks_statistic(v, w, UNIFORM) == pytest.approx(sorted_ks(v, w, UNIFORM), abs=1e-12)
        assert ks_statistic(v, w, UNIFORM) == pytest.approx(0.7, abs=1e-12)

    def test_zero_weights(self):
        rng = np.random.default_rng(6)
        for n in (20, 999, 5000):
            v = rng.uniform(size=n)
            w = np.where(rng.uniform(size=n) < 0.6, 0.0, rng.exponential(size=n))
            w[0] = 1.0
            # A whole stretch of zero-weight points: the empirical CDF stays flat there.
            w[(v > 0.4) & (v < 0.7)] = 0.0
            assert ks_statistic(v, w, UNIFORM) == pytest.approx(sorted_ks(v, w, UNIFORM), abs=1e-12)

    def test_heavy_tailed_weights(self):
        rng = np.random.default_rng(7)
        for n in (50, 1000, 5000):
            v = rng.uniform(size=n)
            for w in (rng.pareto(1.1, size=n), rng.lognormal(0.0, 3.0, size=n)):
                assert ks_statistic(v, w, UNIFORM) == pytest.approx(
                    sorted_ks(v, w, UNIFORM), abs=1e-12
                )

    @pytest.mark.parametrize("p", [2, 5])
    def test_non_uniform_cdf(self, p):
        rng = np.random.default_rng(p)
        cdf = beta_cdf(p)
        for n in (30, 2000, 5000):
            # Beta(1, p) draws, then uniform draws that the Beta CDF does not fit.
            for v in (1.0 - rng.uniform(size=n) ** (1.0 / p), rng.uniform(size=n)):
                w = rng.exponential(size=n)
                assert ks_statistic(v, w, cdf) == pytest.approx(sorted_ks(v, w, cdf), abs=1e-12)

    @pytest.mark.parametrize("warp", [np.sqrt, np.square], ids=["below-model", "above-model"])
    def test_one_sided_deviation(self, warp):
        # sqrt(u) puts the empirical CDF below the model everywhere, u^2 above:
        # each side of a cell's bound must be kept.
        rng = np.random.default_rng(9)
        v = warp(rng.uniform(size=4000))
        w = rng.exponential(size=v.size)
        stat = ks_statistic(v, w, UNIFORM)
        assert stat == pytest.approx(sorted_ks(v, w, UNIFORM), abs=1e-12)
        assert stat == pytest.approx(0.25, abs=0.03)

    def test_maximum_inside_a_cell_with_small_edge_gaps(self):
        # 64 points on a grid, so 4 cells of width 1/4, each of weight 16: the
        # empirical CDF meets the model at every cell edge.  The second cell
        # puts all its weight on one point in its middle, so the gap peaks there.
        v = (np.arange(64) + 0.5) / 64
        w = np.ones(64)
        w[16:32] = 0.0
        w[24] = 16.0
        stat = ks_statistic(v, w, UNIFORM)
        assert stat == pytest.approx(sorted_ks(v, w, UNIFORM), abs=1e-12)
        assert stat == pytest.approx(24.5 / 64 - 0.25)

    def test_pushforward_matches_sorted_reference(self):
        hist = pushforward_histogram(metric((1, 2), (0, 0)), 50_000, 20, seed=8, t=1e-4)
        cdf = uniform_cdf(0.0, 0.5)
        values = hist.values[:, 0]
        assert ks_statistic(values, hist.weights, cdf) == pytest.approx(
            sorted_ks(values, hist.weights, cdf), abs=1e-12
        )

    def test_coordinate_pencil_edges_match_sorted_reference(self):
        # One route's edge coordinates and weights, as sample_pencil tests them.
        a, b = HypersurfacePencil.coordinate().coefficients(1e-5)
        r_lo = abs(a / b) / 4.0
        for seed in (11, 12, 13):
            shifts = np.random.default_rng(seed).random((16, 2))
            route = _sample_patch_route(a, b, (610, 377), shifts, r_lo, True, False)
            values, weights = np.concatenate(route["values"]), np.concatenate(route["weights"])
            assert values.size > 1000
            assert ks_statistic(values, weights, UNIFORM) == pytest.approx(
                sorted_ks(values, weights, UNIFORM), abs=1e-12
            )


def reference_kept(c, n, seed, keep):
    """Reference: each chunk's accepted rows in arrays of their own, joined by `np.concatenate`."""
    chunks = -(-n // CHUNK)
    w, weights = [], []
    for count, seq in zip(_shard_counts(n, chunks), np.random.SeedSequence(seed).spawn(chunks)):
        out = (np.empty((count, len(keep))), np.empty(count))
        k = _sample_shard(c, count, np.random.default_rng(seq), keep, out)["n_accepted"]
        w.append(out[0][:k])
        weights.append(out[1][:k])
    return np.concatenate(w), np.concatenate(weights)


def reference_bin_moments(values, weights, edges, n):
    """Reference: the per-bin masses and stderrs from full-size cell and deviation arrays."""
    bins = len(edges) - 1
    lo, hi = float(edges[0]), float(edges[-1])
    inside = (values >= lo) & (values <= hi)
    cell = np.minimum(np.floor((values - lo) * (bins / (hi - lo))), bins - 1).astype(np.intp)
    if not inside.all():
        cell, weights = cell[inside], weights[inside]
    counts = np.bincount(cell, minlength=bins)
    sums = np.bincount(cell, weights=weights, minlength=bins)
    within = sums / np.maximum(counts, 1)
    dev = weights - within[cell]
    m2 = np.bincount(cell, weights=dev * dev, minlength=bins)
    m2 = m2 + within * within * counts * ((n - counts) / n)
    return sums / n, np.sqrt(m2 / n) / math.sqrt(n)


def reference_ks(values, weights, cdf):
    """Reference: the cell-bound KS statistic with ``cdf`` applied to all the points at once."""
    values = np.asarray(values, dtype=float).ravel()
    weights = np.asarray(weights, dtype=float).ravel()
    n = values.size
    total = weights.sum()
    model = np.asarray(cdf(values), dtype=float).ravel()
    lo, hi = model.min(), model.max()
    if not (np.isfinite(total) and np.isfinite(lo) and np.isfinite(hi)):
        return math.nan
    cells = max(1, n // 16)
    cell = np.clip(model * cells, 0, cells - 1).astype(np.intp)
    counts = np.bincount(cell, minlength=cells)
    cum_edge = np.concatenate(([0.0], np.cumsum(np.bincount(cell, weights, cells)))) / total
    grid = np.arange(cells + 1) / cells
    grid[0], grid[-1] = min(0.0, lo), max(1.0, hi)
    bound = np.maximum(cum_edge[1:] - grid[:-1], grid[1:] - cum_edge[:-1])
    bound += 4 * n * np.finfo(float).eps
    bound[counts == 0] = -np.inf
    best = 0.0
    pick = np.zeros(cells, dtype=bool)
    pick[np.argmax(bound)] = True
    visited = pick.copy()
    while pick.any():
        picked = np.flatnonzero(pick)
        idx = np.flatnonzero(pick[cell])
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


def recording(cdf):
    """``cdf``, and the list of the sizes it is called with."""
    sizes = []

    def call(x):
        sizes.append(np.size(x))
        return cdf(x)

    return call, sizes


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestBlockedEdgeStatistics:
    """The blocked binning, KS statistic and kept samples against their full-array references."""

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_rejecting_chart_over_several_chunks(self, threads):
        # a = (0, 0, 1, 1): the edge {0, 1}, and two non-active coordinates
        # that reject about half the draws of each of four chunks.
        b, n, bins = (1, 1, 1, 1), 3 * CHUNK + 11, 13
        hist = pushforward_histogram(metric(b, (0, 0, 1, 1)), n, bins, seed=3, t=1e-3, threads=threads)
        values, weights = reference_kept(chart(b, (0, 0, 1, 1), 1e-3), n, 3, hist.coord_indices)
        assert hist.coord_indices == (1,) and 0.4 * n < weights.size < 0.6 * n
        assert same_bits(hist.values, values) and same_bits(hist.weights, weights)
        masses, stderrs = reference_bin_moments(values[:, 0], weights, hist.edges[0], n)
        assert same_bits(hist.masses, masses) and same_bits(hist.stderrs, stderrs)
        cdf = uniform_cdf(0.0, 1.0)
        assert ks_statistic(hist.values[:, 0], hist.weights, cdf) == reference_ks(values, weights, cdf)

    def test_values_outside_the_grid(self):
        rng = np.random.default_rng(31)
        n = 3 * TRIG_BLOCK + 7
        values = rng.uniform(-0.3, 1.3, size=n)
        values[[5, TRIG_BLOCK + 1]] = 1.0  # the closed last cell
        weights = rng.exponential(size=n)
        edges = np.linspace(0.0, 1.0, 12)
        got = sampler._bin_moments(values, weights, edges, n + 1000)
        ref = reference_bin_moments(values, weights, edges, n + 1000)
        assert all(same_bits(g, r) for g, r in zip(got, ref))

    @pytest.mark.parametrize("value", [0.3, 1.0])
    def test_all_values_equal(self, value):
        rng = np.random.default_rng(32)
        n = 2 * TRIG_BLOCK + 3
        values, weights = np.full(n, value), rng.exponential(size=n)
        edges = np.linspace(0.0, 1.0, 8)
        got = sampler._bin_moments(values, weights, edges, n)
        assert all(same_bits(g, r) for g, r in zip(got, reference_bin_moments(values, weights, edges, n)))
        cdf, sizes = recording(UNIFORM)
        assert ks_statistic(values, weights, cdf) == reference_ks(values, weights, UNIFORM)
        assert max(sizes) <= TRIG_BLOCK

    @pytest.mark.parametrize("where", [0, 2 * TRIG_BLOCK + 9, 4 * TRIG_BLOCK - 1])
    def test_cdf_with_nan_in_one_block_only(self, where):
        rng = np.random.default_rng(33)
        values, weights = rng.uniform(size=4 * TRIG_BLOCK), rng.exponential(size=4 * TRIG_BLOCK)
        values[where] = 2.0

        def cdf(x):
            out = UNIFORM(x)
            out[x > 1.5] = math.nan
            return out

        assert math.isnan(reference_ks(values, weights, cdf))
        assert math.isnan(ks_statistic(values, weights, cdf))

    @pytest.mark.parametrize("decimals", [None, 3, 1])
    def test_cdf_sees_one_block_at_a_time(self, decimals):
        rng = np.random.default_rng(34)
        values = rng.uniform(size=6 * TRIG_BLOCK + 5)
        if decimals is not None:
            values = np.round(values, decimals)
        weights = rng.exponential(size=values.size)
        for model in (UNIFORM, beta_cdf(3)):
            cdf, sizes = recording(model)
            assert ks_statistic(values, weights, cdf) == reference_ks(values, weights, model)
            assert len(sizes) > 6 and max(sizes) <= TRIG_BLOCK


def traced_peak(fn):
    """``fn()`` and the most bytes it held at once above what was held before, by `tracemalloc`."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestPeakMemory:
    """Bounds on the memory the edge statistics hold, by `tracemalloc`, which sees numpy's buffers."""

    def test_edge_histogram_holds_a_value_and_a_weight_per_point(self):
        # 16 bytes per kept point, and one chunk's draws: 10.4 MiB (numpy
        # 2.4.6, x86-64), against 28.5 MiB when every chunk's rows were kept
        # and joined.
        n = 4 * CHUNK + 5
        hist, peak = traced_peak(lambda: pushforward_histogram(metric((1, 2), (0, 0)), n, 50, seed=1, t=1e-6))
        assert hist.weights.size == n
        assert peak <= 24 * n + 4 * 2**20

    def test_ks_statistic_holds_four_bytes_per_point(self):
        # The int32 cells and the per-cell arrays: 5.7 MiB above the inputs
        # (numpy 2.4.6, x86-64), against 22.9 MiB with the model values and
        # cells kept whole.
        rng = np.random.default_rng(35)
        n = 1_000_000
        values, weights = rng.uniform(size=n), rng.exponential(size=n)
        stat, peak = traced_peak(lambda: ks_statistic(values, weights, UNIFORM))
        assert stat < 0.01
        assert peak <= 12 * n


def naive_trig_poly(f, z):
    """Reference: each term's complex powers multiplied out one by one."""
    out = np.zeros(z.shape[0], dtype=complex)
    for a_exp, b_exp, coeff in f.terms:
        term = np.full(z.shape[0], coeff, dtype=complex)
        for i, (ai, bi) in enumerate(zip(a_exp, b_exp)):
            term *= z[:, i] ** ai * np.conj(z[:, i]) ** bi
        out += term
    return out


class TestTrigPoly:
    POLYS = {
        "paired": TrigPoly(
            (((2, 1), (0, 1), 0.3 - 1.2j), ((0, 1), (2, 1), 0.3 + 1.2j), ((1, 1), (1, 1), 0.7 + 0j))
        ),
        # Every term its own partner: diagonal, with a real coefficient.
        "unpaired": TrigPoly(
            (((1, 0), (1, 0), 1.0 + 0j), ((1, 1), (1, 1), 0.5 + 0j), ((2, 2), (2, 2), -0.25 + 0j))
        ),
        # A conjugate pair and a diagonal term.
        "mixed": TrigPoly(
            (((1, 2), (2, 0), 1.5 + 0.5j), ((2, 0), (1, 2), 1.5 - 0.5j), ((0, 3), (0, 3), 2.0 + 0j))
        ),
        "negative": TrigPoly(
            (
                ((-1, 2), (1, -2), 0.4 + 0.1j),
                ((1, -2), (-1, 2), 0.4 - 0.1j),
                ((-2, 0), (-1, 1), 1j),
                ((-1, 1), (-2, 0), -1j),
            )
        ),
        "constant": TrigPoly((((0, 0), (0, 0), 2.5 + 0j),)),
        "empty": TrigPoly(()),
    }
    # Complex-valued term sets: each has a term without its conjugate partner.
    NON_REAL = {
        "unpaired": (((1, 0), (0, 0), 1.0 + 0j), ((0, 1), (1, 1), 0.5j), ((2, 2), (1, 0), -0.25 + 0j)),
        "mixed": (((1, 2), (2, 0), 1.5 + 0.5j), ((2, 0), (1, 2), 1.5 - 0.5j), ((0, 3), (1, 0), 2.0 - 1j)),
        "negative": (((-1, 2), (1, -2), 0.4 + 0.1j), ((1, -2), (-1, 2), 0.4 - 0.1j), ((-2, 0), (-1, 1), 1j)),
        "complex-constant": (((0, 0), (0, 0), 2.5 - 1j),),
        "complex-diagonal": (((1, 0), (1, 0), 1.0 + 1e-300j),),
    }

    @staticmethod
    def points(n, k=2, seed=0):
        rng = np.random.default_rng(seed)
        radius = rng.uniform(0.2, 1.5, size=(n, k))
        return radius * np.exp(1j * rng.uniform(0.0, TWO_PI, size=(n, k)))

    @pytest.mark.parametrize("name", list(POLYS))
    @pytest.mark.parametrize("n", [1, TRIG_BLOCK - 1, TRIG_BLOCK, TRIG_BLOCK + 1])
    def test_matches_term_by_term_reference(self, name, n):
        f, z = self.POLYS[name], self.points(n)
        got, ref = f(z), naive_trig_poly(f, z)
        assert got.shape == (n,) and got.dtype == float
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12 * max(np.abs(ref).max(), 1.0))

    @pytest.mark.parametrize("name", list(NON_REAL))
    def test_construction_rejects_a_term_without_its_partner(self, name):
        with pytest.raises(ValueError, match="conjugate partner"):
            TrigPoly(self.NON_REAL[name])

    @pytest.mark.parametrize("n", [1, TRIG_BLOCK + 1])
    def test_one_column_input(self, n):
        f = TrigPoly(
            (
                ((3,), (0,), 1.0 + 0j),
                ((0,), (3,), 1.0 + 0j),
                ((1,), (2,), 0.5j),
                ((2,), (1,), -0.5j),
                ((-1,), (0,), 2.0 + 0j),
                ((0,), (-1,), 2.0 + 0j),
            )
        )
        z = self.points(n)[:, 0][:, None]
        ref = naive_trig_poly(f, z)
        np.testing.assert_allclose(f(z), ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())

    def test_hermitian_polynomial_is_exactly_real(self):
        rng = np.random.default_rng(3)
        z = self.points(TRIG_BLOCK + 1)
        for negative in (False, True):
            f = TrigPoly.random_hermitian(rng, 2, max_degree=2, n_terms=4, allow_negative=negative)
            got = f(z)
            assert got.dtype == float
            np.testing.assert_allclose(got, naive_trig_poly(f, z), rtol=1e-11, atol=1e-11)

    def test_repeated_terms_each_pair_once(self):
        # Two copies of a term and two of its partner make two pairs; with one
        # partner, a copy is left single, and construction refuses it.
        term, partner = ((1, 0), (0, 2), 1 + 2j), ((0, 2), (1, 0), 1 - 2j)
        f = TrigPoly((term, term, partner, partner))
        assert (f.pairs, f.diagonal) == ((term, term), ())
        z = self.points(50)
        np.testing.assert_allclose(f(z), naive_trig_poly(f, z), rtol=1e-12)
        with pytest.raises(ValueError, match="conjugate partner"):
            TrigPoly((term, term, partner))
        # Two copies of a real diagonal term are partners of each other.
        diagonal = ((1, 1), (1, 1), 0.5 + 0j)
        assert (TrigPoly((diagonal, diagonal)).pairs, TrigPoly((diagonal,)).diagonal) == ((diagonal,), (diagonal,))

    def test_terms_are_folded_once(self, monkeypatch):
        calls = []
        fold = sampler._fold_conjugate_pairs
        monkeypatch.setattr(sampler, "_fold_conjugate_pairs", lambda terms: calls.append(1) or fold(terms))
        f = TrigPoly(self.POLYS["mixed"].terms)
        polar_full_check([f], 0)
        polar_fiber_check((1, 1), 1e-3, [f, f], 0)
        assert len(calls) == 1

    def test_stacked_rows_equal_each_polynomial_alone(self):
        # One block laid out as the sampler lays it out, one column per
        # coordinate: sharing the powers among the k polynomials changes no
        # bit of any row.
        fs = list(self.POLYS.values())
        z = np.asfortranarray(self.points(TRIG_BLOCK))
        rows = _trig_block(fs, z)
        assert rows.shape == (len(fs), TRIG_BLOCK) and rows.dtype == float
        for f, row in zip(fs, rows):
            assert row.tobytes() == _trig_block([f], z)[0].tobytes() == f(z).tobytes()


class TestUnitPhasor:
    # The kernel is within one ulp of the exact e^{2 pi i u}; np.exp's own
    # argument 2 pi u is rounded, which adds up to 4 ulp of 1 near u = 1.
    ERR = 5 * 2.0**-52
    MODULUS_ERR = 2 * 2.0**-52

    def assert_close_to_exp(self, u, scale=1.0):
        got = _unit_phasor(u, scale)
        ref = scale * np.exp(2j * np.pi * u)
        assert got.shape == u.shape and got.dtype == complex
        assert np.abs(got - ref).max() <= self.ERR * np.max(scale)
        assert np.abs(np.abs(got) / scale - 1.0).max() <= self.MODULUS_ERR

    def test_seeded_turns(self):
        self.assert_close_to_exp(np.random.default_rng(0).random(1_000_000))

    def test_quarter_turns_are_exact(self):
        u = np.array([0.0, 0.25, 0.5, 0.75, 1.0 - 2.0**-53])
        self.assert_close_to_exp(u)
        np.testing.assert_array_equal(_unit_phasor(u[:4], 1.0), [1, 1j, -1, -1j])

    def test_both_sides_of_every_table_boundary(self):
        k = 1 << _PHASOR_BITS
        # Cell j covers u K in [j - 1/2, j + 1/2].
        edges = (np.arange(k + 1) - 0.5) / k
        u = np.concatenate([np.nextafter(edges, -np.inf), edges, np.nextafter(edges, np.inf)])
        self.assert_close_to_exp(u)

    def test_scale(self):
        rng = np.random.default_rng(1)
        u = rng.random(10_000)
        self.assert_close_to_exp(u, rng.uniform(0.1, 2.0, size=u.size))
        self.assert_close_to_exp(u, 0.5)

    def test_whole_turns_change_nothing(self):
        # Dyadic turns, so u + m is exact and the result must be too.
        u = np.random.default_rng(2).integers(0, 1 << 20, size=10_000) / float(1 << 20)
        for m in (-3, -1, 1, 2):
            np.testing.assert_array_equal(_unit_phasor(u + m, 1.5), _unit_phasor(u, 1.5))


def shifted_rule(dim, seed):
    """All `LATTICE_SHIFTS` shifts of the folded rule at once: ``(shifts, N, dim)``."""
    rng = np.random.default_rng(seed)
    g = np.array([pow(LATTICE_A, j, LATTICE_N) for j in range(dim)])
    rule = (np.arange(LATTICE_N)[:, None] * g % LATTICE_N) / LATTICE_N
    shifts = np.stack([rng.random(dim) for _ in range(LATTICE_SHIFTS)])
    x = (rule[None] + shifts[:, None]) % 1.0
    return 1.0 - np.abs(2.0 * x - 1.0)


def shift_estimates(fs, z, volume):
    """``(values, stderrs)`` over ``fs`` from the ``(shifts, N, k)`` points ``z``, each term its own product of powers."""

    def monomial(a, b):
        return np.prod([z[..., i] ** ai * np.conj(z[..., i]) ** bi for i, (ai, bi) in enumerate(zip(a, b))], axis=0)

    values, stderrs = [], []
    for f in fs:
        vals = sum(coeff * monomial(a, b) for a, b, coeff in f.terms).real
        means = vals.mean(axis=1) * volume
        values.append(means.mean())
        stderrs.append(means.std(ddof=1) / math.sqrt(LATTICE_SHIFTS))
    return values, stderrs


def lattice_reference(fs, k, seed):
    """`polar_full_check`'s estimates rebuilt from the rule in one pass, each disc by ``np.exp``."""
    x = shifted_rule(2 * k, seed)
    z = np.sqrt(x[..., 0::2]) * np.exp(2j * np.pi * x[..., 1::2])
    return shift_estimates(fs, z, math.pi**k)


def fiber_lattice_reference(fs, b, t, seed):
    """`polar_fiber_check`'s estimates rebuilt from the rule in one pass.

    The slice share, the turn of ``z_1`` and the branch of ``z_0`` are the
    rule's three coordinates; both chart coordinates come from ``np.exp``.
    """
    x = shifted_rule(3, seed)
    big_l = -math.log(abs(t))
    share, turn1, branch = x[..., 0], x[..., 1], np.floor(b[0] * x[..., 2])
    turn0 = (np.angle(t) / TWO_PI + branch - b[1] * turn1) / b[0]
    z = np.stack(
        [np.exp(2j * np.pi * turn0 - big_l * share / b[0]), np.exp(2j * np.pi * turn1 - big_l * (1 - share) / b[1])],
        axis=-1,
    )
    return shift_estimates(fs, z, TWO_PI * big_l / (b[0] * b[1]))


class TestLatticeRule:
    @staticmethod
    def p2(a, dim):
        """The ``P_2`` figure of merit of the Korobov rule with multiplier ``a`` (Sloan and Joe)."""
        k = np.arange(LATTICE_N)
        prod = np.ones(LATTICE_N)
        for j in range(dim):
            x = k * pow(a, j, LATTICE_N) % LATTICE_N / LATTICE_N
            prod *= 1.0 + 2.0 * np.pi**2 * (x * x - x + 1.0 / 6.0)
        return prod.mean() - 1.0

    def test_multiplier_has_the_lowest_p2_of_the_seeded_candidates(self):
        candidates = np.random.default_rng(0).integers(2, LATTICE_N - 1, 300)
        merits = [self.p2(int(a), 4) for a in candidates]
        assert int(candidates[np.argmin(merits)]) == LATTICE_A

    @pytest.mark.parametrize("dim", [1, 4, 6])
    def test_points_are_one_shift_of_the_rule_folded(self, dim):
        u = lattice_points(lattice_rule(dim), np.random.default_rng(3))
        assert u.shape == (LATTICE_N, dim) and u.dtype == float
        assert u.min() >= 0.0 and u.max() <= 1.0
        assert all(u[:, j].flags.c_contiguous for j in range(dim))
        # Row k, coordinate j is the tent map of k a^j / N + s_j mod 1, s one uniform vector.
        shift = np.random.default_rng(3).random(dim)
        k = np.arange(LATTICE_N)
        for j in range(dim):
            x = (k * pow(LATTICE_A, j, LATTICE_N) % LATTICE_N / LATTICE_N + shift[j]) % 1.0
            np.testing.assert_allclose(u[:, j], 1.0 - np.abs(2.0 * x - 1.0), rtol=0, atol=1e-15)

    @pytest.mark.parametrize(
        "n_max, rule",
        [(1, (1, 1)), (2, (2, 1)), (4, (3, 2)), (986, (610, 377)), (987, (987, 610)), (2604, (2584, 1597))],
    )
    def test_fibonacci_rule_is_the_largest_that_fits(self, n_max, rule):
        assert fibonacci_rule(n_max) == rule
        n, g = rule
        # F_{k-1}^2 = +-1 mod F_k, so the rule is its own transpose up to a reflection.
        assert g * g % n in (1 % n, n - 1)

    def test_fibonacci_rule_needs_a_point(self):
        with pytest.raises(ValueError, match="one point"):
            fibonacci_rule(0)

    def test_fibonacci_points_stack_the_shifts(self):
        rule = (89, 55)
        shifts = np.random.default_rng(5).random((3, 2))
        rows = np.arange(20, 3 * 89)
        shift, x, y = fibonacci_points(rule, shifts, rows)
        np.testing.assert_array_equal(shift, rows // 89)
        j = rows % 89
        np.testing.assert_allclose(x, (j / 89 + shifts[shift, 0]) % 1.0, rtol=0, atol=1e-15)
        np.testing.assert_allclose(y, (j * 55 % 89 / 89 + shifts[shift, 1]) % 1.0, rtol=0, atol=1e-15)
        assert x.min() >= 0.0 and y.min() >= 0.0 and x.max() < 1.0 and y.max() < 1.0
        # Each shift holds every multiple of 1/89 once in each coordinate, moved by its shift.
        whole = fibonacci_points(rule, shifts, np.arange(89, 178))
        for coord, s in ((whole[1], shifts[1, 0]), (whole[2], shifts[1, 1])):
            np.testing.assert_allclose(np.sort((coord - s) % 1.0 * 89), np.arange(89), atol=1e-9)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_constant_integrand_is_exact_on_every_shift(self, k):
        f = TrigPoly((((0,) * k, (0,) * k, 2.5 + 0j),))
        res = polar_full_check([f], seed=4)[0]
        assert res.mc_stderr == 0.0
        assert res.mc_value == 2.5 * math.pi**k == res.exact_value

    def test_shifts_come_from_the_seed(self):
        f = TestBlockedPolarChecks.F
        assert polar_full_check([f], 7) == polar_full_check([f], 7)
        assert polar_full_check([f], 7) != polar_full_check([f], 8)


class TestBlockedPolarChecks:
    # Against unblocked np.exp references built from the same lattice rule.
    F = TrigPoly(
        (
            ((0, 0), (0, 0), 1.0 + 0j),
            ((1, 0), (0, 0), 0.5 - 0.25j),
            ((0, 0), (1, 0), 0.5 + 0.25j),
            ((1, 1), (0, 1), 0.3j),
            ((0, 1), (1, 1), -0.3j),
            ((2, 1), (1, 2), 0.7 + 0.1j),
            ((1, 2), (2, 1), 0.7 - 0.1j),
        )
    )

    def test_turns_are_the_uniform_stream(self):
        # rng.random(n) turns are the same draws as rng.uniform(0, 2 pi, n) radians.
        np.testing.assert_array_equal(
            TWO_PI * np.random.default_rng(3).random((1000, 2)),
            np.random.default_rng(3).uniform(0.0, TWO_PI, size=(1000, 2)),
        )

    def test_full_check_matches_unblocked_reference(self):
        seed = 21
        (value,), (stderr,) = lattice_reference([self.F], 2, seed)
        res = polar_full_check([self.F], seed)[0]
        # The shift means agree to about 1e-5 of their size, so the rounding of
        # each one moves their spread by up to about 2e-10 of itself.
        assert res.mc_value == pytest.approx(value, rel=1e-12)
        assert res.mc_stderr == pytest.approx(stderr, rel=1e-8)

    @pytest.mark.parametrize("b", [(1, 2), (2, 1), (3, 1)])
    def test_fiber_check_matches_unblocked_reference(self, b):
        seed, t = 22, 1e-3 * np.exp(2.5j)
        f = TrigPoly(self.F.terms + ((b, (0, 0), 2.0 + 0j), ((0, 0), b, 2.0 + 0j)))
        (value,), (stderr,) = fiber_lattice_reference([f], b, t, seed)
        res = polar_fiber_check(b, t, [f], seed)[0]
        assert res.mc_value == pytest.approx(value, rel=1e-12)
        assert res.mc_stderr == pytest.approx(stderr, rel=1e-8)

    # Two more real test functions, to share the draws of F.
    G = TrigPoly(
        (
            ((1, 0), (1, 0), 2.0 + 0j),
            ((0, 2), (0, 1), 0.4 - 0.2j),
            ((0, 1), (0, 2), 0.4 + 0.2j),
        )
    )
    H = TrigPoly((((0, 0), (0, 0), -1.0 + 0j), ((2, 0), (0, 0), 0.5j), ((0, 0), (2, 0), -0.5j)))

    def test_full_check_of_several_functions_matches_unblocked_references(self):
        seed, fs = 21, (self.F, self.G, self.H)
        results = polar_full_check(fs, seed)
        assert len(results) == len(fs)
        for res, value, stderr in zip(results, *lattice_reference(fs, 2, seed)):
            assert res.mc_value == pytest.approx(value, rel=1e-12)
            assert res.mc_stderr == pytest.approx(stderr, rel=1e-8)

    @pytest.mark.parametrize("b", [(1, 2), (2, 1), (3, 1)])
    def test_fiber_check_of_several_functions_matches_unblocked_references(self, b):
        seed, t, fs = 22, 1e-3 * np.exp(2.5j), (self.F, self.G, self.H)
        results = polar_fiber_check(b, t, fs, seed)
        assert len(results) == len(fs)
        for res, value, stderr in zip(results, *fiber_lattice_reference(fs, b, t, seed)):
            assert res.mc_value == pytest.approx(value, rel=1e-12)
            assert res.mc_stderr == pytest.approx(stderr, rel=1e-8)

    # Two seeds, so two sets of shifts: the identity holds shift by shift.
    @pytest.mark.parametrize("seed", [49157, 131077])
    def test_each_result_is_its_one_function_call(self, seed):
        fs, t = (self.F, self.G, self.H), 1e-3 * np.exp(2.5j)
        full = polar_full_check(fs, seed)
        fiber = polar_fiber_check((2, 1), t, fs, seed + 1)
        for j, f in enumerate(fs):
            assert full[j] == polar_full_check([f], seed)[0]
            assert fiber[j] == polar_fiber_check((2, 1), t, [f], seed + 1)[0]


class TestPolarChecks:
    def test_full_constant_is_exact(self):
        f = TrigPoly((((0, 0), (0, 0), 1.0 + 0j),))
        res = polar_full_check([f], seed=1)[0]
        assert res.mc_value == pytest.approx(math.pi**2, rel=1e-12)
        assert res.exact_value == pytest.approx(math.pi**2, rel=1e-12)

    def test_full_modulus_squared(self):
        f = TrigPoly((((1, 0), (1, 0), 1.0 + 0j),))
        res = polar_full_check([f], seed=2)[0]
        assert res.exact_value == pytest.approx(math.pi**2 / 2.0, rel=1e-12)
        assert res.sigmas < 4
        assert res.abs_discrepancy < 0.01 * abs(res.exact_value)

    def test_full_off_diagonal_vanishes(self):
        f = TrigPoly((((2, 0), (0, 1), 1.0 + 0j), ((0, 1), (2, 0), 1.0 - 0j)))
        res = polar_full_check([f], seed=3)[0]
        assert res.exact_value == 0
        assert abs(res.mc_value) < 4 * res.mc_stderr

    def test_full_rejects_laurent_terms(self):
        f = TrigPoly((((-1, 0), (-1, 0), 1.0 + 0j),))
        with pytest.raises(ValueError):
            polar_full_check([f], seed=0)

    def test_fiber_point_case_exact(self):
        # One-coordinate chart b = 3: three fiber points of mass 1/9.
        f = TrigPoly((((0,), (0,), 1.0 + 0j),))
        res = polar_fiber_check((3,), 1e-3, [f], seed=0)[0]
        assert res.mc_stderr == 0.0
        assert res.mc_value == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert res.exact_value == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_fiber_point_case_branch_character(self):
        # c z^3 + conj(c z^3) on the fiber z^3 = t sums to 3 * 2 Re(c t) / 9 on
        # the three branches; the closed form sees it through the s = +-1
        # characters with phases exp(+-2 pi i phi_t).
        t = 1e-3 * np.exp(1j * 1.1)
        c = 1.0 - 0.5j
        f = TrigPoly((((3,), (0,), c), ((0,), (3,), c.conjugate())))
        res = polar_fiber_check((3,), t, [f], seed=0)[0]
        expected = 2.0 * (c * t).real / 3.0
        assert res.mc_value == pytest.approx(expected, rel=1e-12)
        assert res.exact_value == pytest.approx(expected, rel=1e-12)

    def test_fiber_point_case_rounding_gap_reads_zero_sigmas(self):
        # An exact evaluation (stderr 0) that differs from the closed form by
        # a rounding of about 1e-16 is a match, not 1e284 standard errors.
        t = 1e-3 * np.exp(0.7j)
        c = 0.5 + 0.25j
        f = TrigPoly((((0,), (0,), 1.1 + 0j), ((2,), (0,), c), ((0,), (2,), c.conjugate())))
        res = polar_fiber_check((2,), t, [f], seed=0)[0]
        assert res.mc_stderr == 0.0
        expected = (1.1 + 2.0 * (c * t).real) / 2.0
        assert res.mc_value == pytest.approx(expected, rel=1e-12)
        assert res.exact_value == pytest.approx(expected, rel=1e-12)
        assert res.sigmas == 0.0

    def test_fiber_point_case_offbranch_vanishes(self):
        f = TrigPoly((((1,), (0,), 1.0 + 0j), ((0,), (1,), 1.0 + 0j)))
        res = polar_fiber_check((3,), 1e-3, [f], seed=0)[0]
        assert res.exact_value == 0
        assert abs(res.mc_value) < 1e-15

    def test_fiber_annulus_modulus_squared(self):
        t = 1e-3
        f = TrigPoly((((1, 0), (1, 0), 1.0 + 0j),))
        res = polar_fiber_check((1, 1), t, [f], seed=5)[0]
        exact = math.pi * (1.0 - t * t)
        assert res.exact_value == pytest.approx(exact, rel=1e-12)
        assert res.sigmas < 4
        assert res.abs_discrepancy < 0.01 * abs(res.exact_value)

    def test_fiber_constant_total_mass(self):
        t = 1e-2
        f = TrigPoly((((0, 0), (0, 0), 1.0 + 0j),))
        res = polar_fiber_check((1, 1), t, [f], seed=5)[0]
        assert res.mc_value == pytest.approx(TWO_PI * math.log(1.0 / t), rel=1e-12)
        assert res.mc_stderr == pytest.approx(0.0, abs=1e-9)
        assert res.abs_discrepancy < 1e-12 * abs(res.exact_value)

    def test_fiber_branch_sum_with_multiplicity(self):
        # b = (2, 2): the term c z_0^2 z_1^2 and its partner match the s = +-1
        # characters.
        t = 1e-2 * np.exp(0.4j)
        c = 0.3 + 0.8j
        f = TrigPoly((((2, 2), (0, 0), c), ((0, 0), (2, 2), c.conjugate())))
        res = polar_fiber_check((2, 2), t, [f], seed=6)[0]
        # On the fiber z_0^2 z_1^2 = t identically, so both sides must give
        # 2 Re(c t) times the total mass.
        total = polar_fiber_check((2, 2), t, [TrigPoly((((0, 0), (0, 0), 1.0),))], seed=0)[0]
        expected = 2.0 * (c * t).real * total.exact_value
        assert res.exact_value == pytest.approx(expected, rel=1e-12)
        assert res.mc_value == pytest.approx(expected, rel=1e-9)

    def test_fiber_branch_choice_is_uniform(self):
        # Re z_0 has no character on b = (2, 1): its two branches cancel, which
        # a sampler stuck on one branch misses by many standard errors.
        t = 1e-3 * np.exp(1.0j)
        f = TrigPoly(
            (((1, 0), (0, 0), 1.0 + 0j), ((0, 0), (1, 0), 1.0 + 0j), ((0, 0), (0, 0), 1.0 + 0j))
        )
        res = polar_fiber_check((2, 1), t, [f], seed=7)[0]
        assert res.exact_value == pytest.approx(TWO_PI * -math.log(abs(t)) / 2.0, rel=1e-12)
        assert res.sigmas < 5

    def test_non_real_f_is_rejected(self):
        # A test function is real by construction, so neither check can be
        # handed a complex-valued one.
        for terms in (
            (((1, 0), (0, 0), 1.0 + 0j),),
            (((1, 0), (1, 0), 1.0j),),
            (((1, 0), (0, 1), 1.0j), ((0, 1), (1, 0), 1.0j)),
        ):
            with pytest.raises(ValueError, match="real-valued"):
                TrigPoly(terms)

    def test_no_test_function_is_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            polar_full_check([], seed=0)
        with pytest.raises(ValueError, match="at least one"):
            polar_fiber_check((1, 1), 1e-3, [], seed=0)

    # One term on one coordinate, and the same term on two.
    F1 = TrigPoly((((1,), (1,), 1 + 0j),))
    F2 = TrigPoly((((1, 1), (1, 1), 1 + 0j),))

    @pytest.mark.parametrize(
        "check, args",
        [
            (polar_full_check, ([F2, F1],)),
            (polar_full_check, ([F1, F2],)),
            (polar_fiber_check, ((1, 2), 1e-3, [F1])),
            (polar_full_check, ([TrigPoly(())],)),
        ],
        ids=["full-longer-first", "full-shorter-first", "fiber-too-short", "full-no-term"],
    )
    def test_exponents_must_match_the_coordinate_count(self, monkeypatch, check, args):
        # Refused before any evaluation, not compared or indexed out of range.
        monkeypatch.setattr(sampler, "_trig_block", lambda fs, z: pytest.fail("evaluated"))
        with pytest.raises(ValueError, match="exponents of fs"):
            check(*args, 0)

    def test_runner_sees_the_disc_radial_law(self, monkeypatch):
        # Radius U in place of sqrt(U) puts too little mass near the rim; the
        # |z_0|^2 + |z_1|^2 terms of the polydisc functions must see it.
        monkeypatch.setattr(sampler, "_disc_points", lambda radius_u, spin: _unit_phasor(spin, radius_u))
        verdicts = cli.SUITES["polar"](seed=0, quick=True)
        polydisc = [v for v in verdicts if "-polydisc-" in v.name]
        assert len(polydisc) == 10 and not any(v.passed for v in polydisc)
        assert all(v.passed for v in verdicts if "-polydisc-" not in v.name)

    def test_runner_sees_the_fiber_branch(self, monkeypatch):
        # With theta_0 fixed to its first branch, Re z_0 no longer cancels over
        # the two branches of z_0^2 z_1 = t; some fiber verdict must see it.
        chart_points = sampler._chart_points
        monkeypatch.setattr(
            sampler, "_chart_points", lambda y, turns, branch, b, phi_t: chart_points(y, turns, 0 * branch, b, phi_t)
        )
        verdicts = cli.SUITES["polar"](seed=0)
        assert not all(v.passed for v in verdicts if "-fiber-" in v.name)
        assert all(v.passed for v in verdicts if "-polydisc-" in v.name)

    def test_fiber_of_three_coordinates_is_refused(self):
        f = TrigPoly((((1, 0, 0), (1, 0, 0), 1.0 + 0j),))
        with pytest.raises(NotImplementedError, match="at most two"):
            polar_fiber_check((1, 1, 1), 1e-3, [f], seed=0)

    def test_runner_draws_the_test_functions_in_a_fixed_order(self, tmp_path):
        # The exact side of every polar-check row depends only on the test
        # functions, so a reordered draw of the runner's rng changes this digest.
        cli.run(ExperimentConfig(command="polar-check", seed=5, outdir=str(tmp_path)))
        with open(tmp_path / "polar-check-seed5.csv", newline="") as fh:
            column = "\n".join(row["exact_value"] for row in csv.DictReader(fh))
        assert hashlib.sha256(column.encode()).hexdigest() == (
            "c1d880c1f3495a547af1615e727e3c9fa9fa02dd2b6d404e2b727cbc433cdffc"
        )

    # sha256 of the whole `polar-check --seed 5` CSV.  Its Monte-Carlo
    # columns pass through numpy's exp and power, whose last bits depend on
    # the SIMD kernels numpy picks at run time.  numpy 2.4.6 on
    # x86-64 dispatches to one of five kernel sets (the X86_V2 baseline,
    # X86_V3, X86_V4, AVX512_ICL, AVX512_SPR); each was selected in turn with
    # NPY_DISABLE_CPU_FEATURES on one AVX512_SPR machine.  The three AVX-512
    # sets write one digest, X86_V3 and X86_V2 one each.  Other architectures
    # and other numpy versions or builds were not measured, so the test skips
    # there.
    POLAR_CSV_DIGESTS = {
        "dc239ea46919c81dc3c4b44b1a89a1f9dda32a51cb0e28304dbd25bec7205aaa",
        "82019e7f11614a5ac72fdf97e5761d950e341ffebcd8d811a7fd3b937234a4b7",
        "07dd163c6ba6fcf7c2b85cd1e777c01df55df76e5812c445e689bbd716b859cb",
    }

    def test_runner_csv_bytes_are_pinned(self, tmp_path):
        # Every estimate keeps its bits: a change to the sampler or to the
        # test-function evaluator that moves one changes this digest.
        skip_unless_recorded_build()
        cli.run(ExperimentConfig(command="polar-check", seed=5, outdir=str(tmp_path)))
        digest = hashlib.sha256((tmp_path / "polar-check-seed5.csv").read_bytes()).hexdigest()
        assert digest in self.POLAR_CSV_DIGESTS

    def test_full_radii_follow_the_terms(self):
        # Three coordinates in the terms: the unit tridisc, of volume pi^3.
        f = TrigPoly((((0, 0, 0), (0, 0, 0), 1.0 + 0j),))
        res = polar_full_check([f], seed=0)[0]
        assert res.mc_value == pytest.approx(math.pi**3, rel=1e-12)

    def test_fiber_random_laurent_polys_within_sigma(self):
        rng = np.random.default_rng(2024)
        t = 1e-3
        for trial in range(5):
            f = TrigPoly.random_hermitian(
                rng, 2, max_degree=2, n_terms=3, allow_negative=True
            )
            res = polar_fiber_check((1, 2), t, [f], seed=trial)[0]
            assert abs(res.mc_value - res.exact_value) < max(5 * res.mc_stderr, 1e-9), (
                trial,
                res,
            )

    def test_fiber_random_polys_tight(self):
        # Nonnegative exponents keep every term bounded on the fiber, so a
        # hard relative bound holds on top of the statistical one.
        rng = np.random.default_rng(2024)
        t = 1e-3
        anchor = ((0, 0), (0, 0), 1.0 + 0j)
        for trial in range(5):
            f = TrigPoly.random_hermitian(rng, 2, max_degree=2, n_terms=3)
            f = TrigPoly(f.terms + (anchor,))
            res = polar_fiber_check((1, 2), t, [f], seed=trial)[0]
            scale = max(abs(res.exact_value), 1.0)
            assert abs(res.mc_value - res.exact_value) < max(5 * res.mc_stderr, 1e-9)
            assert res.abs_discrepancy / scale < 0.01

    def test_full_random_hermitian_polys(self):
        rng = np.random.default_rng(77)
        anchor = ((0, 0), (0, 0), 1.0 + 0j)
        for trial in range(5):
            f = TrigPoly.random_hermitian(rng, 2, max_degree=2, n_terms=3)
            f = TrigPoly(f.terms + (anchor,))
            res = polar_full_check([f], seed=100 + trial)[0]
            assert abs(res.mc_value - res.exact_value) < max(5 * res.mc_stderr, 1e-9)
            assert res.abs_discrepancy < 0.01 * abs(res.exact_value)


class TestMassFit:
    @staticmethod
    def synthetic(c, kappa, d, ts):
        return [(t, c * t ** (2 * kappa) * math.log(1.0 / t) ** d) for t in ts]

    def test_exact_recovery(self):
        ts = [10.0**-k for k in range(2, 8)]
        fit = fit_mass_asymptotics(self.synthetic(5.0, 1.0 / 3.0, 2, ts))
        assert isinstance(fit, MassFit)
        assert fit.kappa_min_hat == pytest.approx(1.0 / 3.0, abs=1e-9)
        assert fit.d_hat == 2
        assert fit.confident
        assert fit.c_hat == pytest.approx(5.0, rel=1e-9)
        assert fit.residual_rms < 1e-10

    def test_noisy_recovery(self):
        rng = np.random.default_rng(1)
        pts = [
            (t, m * (1.0 + 0.002 * rng.normal()))
            for t, m in self.synthetic(2.0, 0.0, 1, [10.0**-k for k in range(2, 8)])
        ]
        fit = fit_mass_asymptotics(pts)
        assert fit.d_hat == 1
        assert abs(fit.kappa_min_hat) < 0.01
        assert fit.c_hat == pytest.approx(2.0, rel=0.2)

    def test_needs_four_points(self):
        with pytest.raises(ValueError, match="4 distinct"):
            fit_mass_asymptotics(self.synthetic(1.0, 0.0, 1, [1e-2, 1e-4, 1e-6]))

    def test_needs_three_decades(self):
        ts = [1e-2, 2e-3, 5e-3, 1e-3]
        with pytest.raises(ValueError, match="decades"):
            fit_mass_asymptotics(self.synthetic(1.0, 0.0, 1, ts))

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            fit_mass_asymptotics([(1e-2, -1.0), (1e-3, 1.0), (1e-5, 1.0), (1e-6, 1.0)])

    def test_annulus_pipeline_recovers_theorem_constants(self):
        points = []
        for k in range(2, 8):
            t = 10.0**-k
            res = sample_fiber_measure(chart((1, 1), (0, 0), t), 4000, seed=k)
            points.append((t, res.mass_raw))
        fit = fit_mass_asymptotics(points)
        assert fit.d_hat == 1
        assert fit.confident
        assert abs(fit.kappa_min_hat) < 1e-9
        assert fit.c_hat == pytest.approx(TWO_PI, rel=1e-9)

"""Tests for Monte-Carlo fiber sampling, histograms, polar checks, mass fits."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tropmass.lattice import simplex_volume
from tropmass.measure import MonomialChartMetric, TWO_PI, chart_limit_mass
from tropmass.sampler import (
    CHUNK,
    EmptyFiberError,
    FiberSampleResult,
    LocalChart,
    MassFit,
    TrigPoly,
    enumerate_point_fiber,
    fit_mass_asymptotics,
    ks_statistic,
    polar_fiber_check,
    polar_full_check,
    pushforward_histogram,
    sample_fiber_measure,
    _sample_shard,
    uniform_cdf,
)


def chart(b, a, t, radii=None, **kw):
    return LocalChart(MonomialChartMetric(b=tuple(b), a=tuple(a), radii=radii, **kw), t)


class TestLocalChart:
    def test_rejects_t_outside_unit_disc(self):
        with pytest.raises(ValueError):
            chart((1, 1), (0, 0), 1.5)
        with pytest.raises(ValueError):
            chart((1, 1), (0, 0), 0.0)

    def test_empty_fiber_raises(self):
        # |t| must be below prod r_i^{b_i} = 0.25 for the fiber to meet
        # the bipolydisc of radii 0.5.
        with pytest.raises(EmptyFiberError):
            chart((1, 1), (0, 0), 0.3, radii=(0.5, 0.5))
        chart((1, 1), (0, 0), 0.2, radii=(0.5, 0.5))  # fine

    def test_local_active_dim(self):
        assert chart((1, 1), (0, 0), 1e-3).local_active_dim == 1
        assert chart((1, 1), (0, 1), 1e-3).local_active_dim == 0
        assert chart((3,), (0,), 1e-3).local_active_dim == 0
        # Independent of the reference slope.
        c = chart((1, 1), (Fraction(1, 2), Fraction(1, 2)), 1e-3, kappa_ref=0)
        assert c.local_active_dim == 1


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
        # Slopes strictly above the reference: mass ~ |t|^{2 kappa_0} with
        # kappa_0 = 1/2, exactly in this chart (the integrand is constant).
        half = Fraction(1, 2)
        for k in range(2, 8):
            t = 10.0**-k
            res = sample_fiber_measure(
                chart((1, 1), (half, half), t, kappa_ref=0), 500, seed=k
            )
            assert res.mass / t == pytest.approx(1.0, rel=1e-9)

    def test_transverse_disc_factor(self):
        res = sample_fiber_measure(
            chart((1, 1), (0, 0), 1e-3, transverse_dim=1), 1000, seed=2
        )
        assert res.mass == pytest.approx(math.pi, rel=1e-12)

    def test_transverse_pair_exponent_factor(self):
        res = sample_fiber_measure(
            chart(
                (1, 1),
                (0, 0),
                1e-3,
                transverse_dim=1,
                pair_exponents=(Fraction(1, 2),),
            ),
            1000,
            seed=2,
        )
        assert res.mass == pytest.approx(2.0 * math.pi, rel=1e-12)

    def test_metric_weight_function_enters_squared(self):
        base = chart((1, 1), (0, 0), 1e-3)
        weighted = LocalChart(
            MonomialChartMetric(
                b=(1, 1), a=(0, 0), weight_fn=lambda z: np.full(z.shape[0], 0.3)
            ),
            1e-3,
        )
        r0 = sample_fiber_measure(base, 500, seed=9)
        r1 = sample_fiber_measure(weighted, 500, seed=9)
        assert r1.mass == pytest.approx(math.exp(0.6) * r0.mass, rel=1e-12)

    def test_custom_h_monomial(self):
        # h = |z_0|^2 on the annulus fiber gives the closed form
        # lambda * (1 - |t|^2) / 2 after rescaling.
        t = 1e-3
        c = chart((1, 1), (0, 0), t)
        res = sample_fiber_measure(
            c, 400_000, seed=21, h=lambda z: np.abs(z[:, 0]) ** 2
        )
        exact = c.lam * (1.0 - t * t) / 2.0
        assert abs(res.mass - exact) < 4 * res.stderr
        assert res.mass == pytest.approx(exact, rel=0.02)

    def test_phase_invariance_of_mass(self):
        r_pos = sample_fiber_measure(chart((2, 3), (0, 0), 1e-3), 5000, seed=4)
        r_rot = sample_fiber_measure(
            chart((2, 3), (0, 0), 1e-3 * np.exp(1j * 0.7)), 5000, seed=4
        )
        assert r_rot.mass == pytest.approx(r_pos.mass, rel=1e-12)

    def test_threads_do_not_change_chunked_result(self):
        c = chart((1, 1), (0, 1), 1e-3)
        runs = [
            sample_fiber_measure(c, 3 * CHUNK + 5, seed=42, keep_samples=True, threads=k)
            for k in (1, 2, 3)
        ]
        for res in runs[1:]:
            assert (res.mass, res.stderr) == (runs[0].mass, runs[0].stderr)
            np.testing.assert_array_equal(res.weights, runs[0].weights)
            np.testing.assert_array_equal(res.w, runs[0].w)
        # Merged chunks estimate the same mass as a single chunk.
        one = sample_fiber_measure(c, 10_000, seed=42)
        assert abs(runs[0].mass - one.mass) < 4 * (runs[0].stderr + one.stderr)

    def test_single_chunk_is_the_first_child_stream(self):
        c = chart((1, 2), (0, 1), 1e-3)
        res = sample_fiber_measure(c, CHUNK, seed=9, keep_samples=True)
        rng = np.random.default_rng(np.random.SeedSequence(9).spawn(1)[0])
        part = _sample_shard(c, CHUNK, rng, None, True)
        assert res.mass == part["sum"] / CHUNK
        np.testing.assert_array_equal(res.weights, part["weights"])
        np.testing.assert_array_equal(res.w, part["w"])

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


class TestPushforwardHistogram:
    def test_doubled_edge_density_uniform(self):
        hist = pushforward_histogram(chart((1, 2), (0, 0), 1e-4), 200_000, 20, seed=8)
        assert hist.b_active == (1, 2)
        assert hist.coord_indices == (1,)
        assert hist.total_mass == pytest.approx(0.5, abs=1e-12)
        assert hist.edges[0][0] == 0.0
        assert hist.edges[0][-1] == pytest.approx(0.5)
        predicted_bin = hist.predicted_chart_density(1.0) * 0.5 / 20
        for mass, err in zip(hist.masses, hist.stderrs):
            assert abs(mass - predicted_bin) < max(4 * err, 1e-12)
        assert chart_limit_mass(MonomialChartMetric(b=(1, 2), a=(0, 0))) == pytest.approx(0.5)

    def test_ks_distance_to_uniform_small(self):
        hist = pushforward_histogram(chart((1, 2), (0, 0), 1e-4), 200_000, 20, seed=8)
        stat = ks_statistic(hist.values[:, 0], hist.weights, uniform_cdf(0.0, 0.5))
        assert stat < 0.01

    def test_vertex_chart_histogram_is_scalar(self):
        hist = pushforward_histogram(chart((1, 1), (0, 1), 1e-4), 50_000, 10, seed=8)
        assert hist.dim == 0
        assert hist.masses.shape == ()
        assert hist.total_mass == pytest.approx(math.pi, rel=0.05)


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
        with pytest.raises(ValueError):
            ks_statistic(np.array([]), np.array([]), uniform_cdf(0.0, 1.0))


class TestPolarChecks:
    def test_full_constant_is_exact(self):
        f = TrigPoly((((0, 0), (0, 0), 1.0 + 0j),))
        res = polar_full_check((1, 1), f, 1000, seed=1)
        assert res.mc_value == pytest.approx(math.pi**2, rel=1e-12)
        assert res.exact_value == pytest.approx(math.pi**2, rel=1e-12)

    def test_full_modulus_squared(self):
        f = TrigPoly((((1, 0), (1, 0), 1.0 + 0j),))
        res = polar_full_check((1, 1), f, 400_000, seed=2)
        assert res.exact_value == pytest.approx(math.pi**2 / 2.0, rel=1e-12)
        assert res.sigmas < 4
        assert res.rel_discrepancy < 0.01

    def test_full_off_diagonal_vanishes(self):
        f = TrigPoly((((2, 0), (0, 1), 1.0 + 0j), ((0, 1), (2, 0), 1.0 - 0j)))
        res = polar_full_check((1, 1), f, 200_000, seed=3)
        assert res.exact_value == 0
        assert abs(res.mc_value) < 4 * res.mc_stderr

    def test_full_rejects_laurent_terms(self):
        f = TrigPoly((((-1, 0), (-1, 0), 1.0 + 0j),))
        with pytest.raises(ValueError):
            polar_full_check((1, 1), f, 100, seed=0)

    def test_stderr_is_that_of_a_complex_mean(self):
        # sqrt(mean |x - mean|^2 / n), recomputed on the checks' own seeded draws.
        f = TrigPoly((((1, 0), (0, 0), 1.0 + 0j), ((0, 1), (1, 1), 0.5j)))
        n, seed, t = 5000, 11, 1e-3 * np.exp(0.4j)

        rng = np.random.default_rng(seed)
        u = rng.uniform(size=(n, 2))
        phase = rng.uniform(0.0, TWO_PI, size=(n, 2))
        full = f(np.sqrt(u) * np.exp(1j * phase)) * math.pi**2

        rng = np.random.default_rng(seed)
        x1_hi = -math.log(abs(t)) / 2
        z1 = np.exp(-rng.uniform(0.0, x1_hi, size=n) + 1j * TWO_PI * rng.uniform(size=n))
        w_mod = t / z1**2
        z0 = np.abs(w_mod) * np.exp(1j * np.angle(w_mod))
        fiber = f(np.column_stack([z0, z1])) * TWO_PI * x1_hi

        for res, vals in (
            (polar_full_check((1, 1), f, n, seed), full),
            (polar_fiber_check((1, 2), t, f, n, seed), fiber),
        ):
            assert res.mc_value == pytest.approx(vals.mean(), rel=1e-12)
            expected = math.sqrt(np.mean(np.abs(vals - vals.mean()) ** 2) / n)
            assert res.mc_stderr == pytest.approx(expected, rel=1e-9)

    def test_fiber_point_case_exact(self):
        # One-coordinate chart b = 3: three fiber points of mass 1/9.
        f = TrigPoly((((0,), (0,), 1.0 + 0j),))
        res = polar_fiber_check((3,), 1e-3, f, 100, seed=0)
        assert res.mc_stderr == 0.0
        assert res.mc_value == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert res.exact_value == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_fiber_point_case_branch_character(self):
        # z^3 on the fiber z^3 = t sums to 3 t / 9 on the three branches;
        # the closed form sees it through the s = 1 character with phase.
        t = 1e-3 * np.exp(1j * 1.1)
        f = TrigPoly((((3,), (0,), 1.0 + 0j),))
        res = polar_fiber_check((3,), t, f, 100, seed=0)
        assert res.mc_value == pytest.approx(t / 3.0, rel=1e-12)
        assert res.exact_value == pytest.approx(t / 3.0, rel=1e-12)

    def test_fiber_point_case_offbranch_vanishes(self):
        f = TrigPoly((((1,), (0,), 1.0 + 0j),))
        res = polar_fiber_check((3,), 1e-3, f, 100, seed=0)
        assert res.exact_value == 0
        assert abs(res.mc_value) < 1e-15

    def test_fiber_annulus_modulus_squared(self):
        t = 1e-3
        f = TrigPoly((((1, 0), (1, 0), 1.0 + 0j),))
        res = polar_fiber_check((1, 1), t, f, 300_000, seed=5)
        exact = math.pi * (1.0 - t * t)
        assert res.exact_value == pytest.approx(exact, rel=1e-12)
        assert res.sigmas < 4
        assert res.rel_discrepancy < 0.01

    def test_fiber_constant_total_mass(self):
        t = 1e-2
        f = TrigPoly((((0, 0), (0, 0), 1.0 + 0j),))
        res = polar_fiber_check((1, 1), t, f, 1000, seed=5)
        assert res.mc_value == pytest.approx(TWO_PI * math.log(1.0 / t), rel=1e-12)
        assert res.mc_stderr == pytest.approx(0.0, abs=1e-9)
        assert res.rel_discrepancy < 1e-12

    def test_fiber_branch_sum_with_multiplicity(self):
        # b = (2, 2): the term z_0^2 z_1^2 matches the s = 1 character.
        t = 1e-2 * np.exp(0.4j)
        f = TrigPoly((((2, 2), (0, 0), 1.0 + 0j),))
        res = polar_fiber_check((2, 2), t, f, 200_000, seed=6)
        # On the fiber z_0^2 z_1^2 = t identically, so both sides must give
        # t times the total mass.
        total = polar_fiber_check((2, 2), t, TrigPoly((((0, 0), (0, 0), 1.0),)), 10, seed=0)
        assert res.exact_value == pytest.approx(t * total.exact_value, rel=1e-12)
        assert res.mc_value == pytest.approx(t * total.exact_value, rel=1e-9)

    def test_fiber_random_laurent_polys_within_sigma(self):
        rng = np.random.default_rng(2024)
        t = 1e-3
        for trial in range(5):
            f = TrigPoly.random_hermitian(
                rng, 2, max_degree=2, n_terms=3, allow_negative=True
            )
            res = polar_fiber_check((1, 2), t, f, 150_000, seed=trial)
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
            res = polar_fiber_check((1, 2), t, f, 150_000, seed=trial)
            scale = max(abs(res.exact_value), 1.0)
            assert abs(res.mc_value - res.exact_value) < max(5 * res.mc_stderr, 1e-9)
            assert res.abs_discrepancy / scale < 0.01

    def test_full_random_hermitian_polys(self):
        rng = np.random.default_rng(77)
        anchor = ((0, 0), (0, 0), 1.0 + 0j)
        for trial in range(5):
            f = TrigPoly.random_hermitian(rng, 2, max_degree=2, n_terms=3)
            f = TrigPoly(f.terms + (anchor,))
            res = polar_full_check((1, 1), f, 150_000, seed=100 + trial)
            assert abs(res.mc_value - res.exact_value) < max(5 * res.mc_stderr, 1e-9)
            assert res.rel_discrepancy < 0.01


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

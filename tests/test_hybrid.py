"""Tests for log maps, glued atlases, convergence predicates, and the disc seminorm."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropmass.hybrid import (
    AdaptedChart,
    ChartDomainError,
    LaurentSeriesPoly,
    TRIANGLE_FACES,
    basis_neighborhood_converges,
    glue_log,
    hybrid_converges,
    hybrid_seminorm,
    log_chart,
    log_deviation_constant,
    triangle_pencil_atlas,
)
from tropmass.model import build_dual_complex, coordinate_pencil
from tropmass.pencil import _solve_symmetric_cubic


def bidisc_chart() -> AdaptedChart:
    return AdaptedChart("bidisc", ("E0", "E1"), (1, 1))


class TestLogChart:
    def test_symmetric_point(self):
        w = log_chart(bidisc_chart(), (math.exp(-1), math.exp(-1)))
        assert w == (0.5, 0.5)

    @pytest.mark.parametrize("zeta", [0.5, 1.0, 2.0, 3.7])
    def test_power_law_point(self, zeta):
        w = log_chart(bidisc_chart(), (math.exp(-1), math.exp(-zeta)))
        assert w[1] == pytest.approx(zeta / (1 + zeta), abs=1e-12)

    @pytest.mark.parametrize("b0", [1, 2, 3, 5, 7])
    def test_single_component_chart_is_constant(self, b0):
        chart = AdaptedChart("disc", ("E0",), (b0,))
        for z in (0.3, 1e-9, 0.999, 0.5 + 0.1j):
            w = log_chart(chart, (z,))
            assert math.fsum([b0 * w[0]]) == 1.0
            assert w[0] == pytest.approx(1.0 / b0, abs=1e-15)

    def test_matches_family_parameter(self):
        z = (0.01, 0.02)
        t = z[0] * z[1]
        assert log_chart(bidisc_chart(), z, t) == log_chart(bidisc_chart(), z)
        with pytest.raises(ChartDomainError, match="does not match"):
            log_chart(bidisc_chart(), z, 0.1)

    def test_zero_coordinate_rejected(self):
        with pytest.raises(ChartDomainError, match="zero coordinate"):
            log_chart(bidisc_chart(), (0.0, 0.5))

    def test_modulus_outside_unit_disc_rejected(self):
        with pytest.raises(ChartDomainError, match="outside"):
            log_chart(bidisc_chart(), (1.5, 0.5))

    @given(
        b=st.lists(st.integers(1, 6), min_size=1, max_size=4),
        xs=st.lists(st.floats(0.01, 40.0), min_size=4, max_size=4),
    )
    @settings(max_examples=200)
    def test_exact_affine_identity(self, b, xs):
        z = tuple(math.exp(-x) for x in xs[: len(b)])
        chart = AdaptedChart("c", tuple(f"E{i}" for i in range(len(b))), tuple(b))
        w = log_chart(chart, z)
        assert all(wi >= 0.0 for wi in w)
        assert math.fsum(bi * wi for bi, wi in zip(b, w)) == 1.0

    def test_chart_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            AdaptedChart("c", (), ())
        with pytest.raises(ValueError, match="multiplicities"):
            AdaptedChart("c", ("E0",), (1, 2))
        with pytest.raises(ValueError, match="positive integers"):
            AdaptedChart("c", ("E0",), (0,))
        with pytest.raises(ValueError, match="duplicate"):
            AdaptedChart("c", ("E0", "E0"), (1, 1))


class TestGlueLog:
    def test_single_chart_atlas_equals_chart_map(self):
        chart = bidisc_chart()
        for z in ((0.1, 0.2), (1e-4, 1e-3), (0.5j, 0.25)):
            glued = glue_log([chart], z)
            w = log_chart(chart, z)
            assert glued == {"E0": w[0], "E1": w[1]}
            assert math.fsum(glued[k] for k in glued) == 1.0

    def test_two_charts_same_stratum_deviation_bounded(self):
        # Second chart differs by bounded unit factors u_i: the log images
        # then differ by O(1/log|t|^-1) and the measured constant stays
        # bounded across three decades of t.
        chart = bidisc_chart()
        units = (2.0, 0.5)
        other = AdaptedChart(
            "bidisc-units",
            ("E0", "E1"),
            (1, 1),
            local_moduli=lambda z: (abs(z[0]) * units[0], abs(z[1]) * units[1]),
        )
        rng = np.random.default_rng(7)
        consts = []
        for big_l in (8.0, 16.0, 32.0):
            pts = []
            for _ in range(40):
                x0 = rng.uniform(1.0, big_l - 1.0)
                pts.append((math.exp(-x0), math.exp(-(big_l - x0))))
            consts.append(log_deviation_constant([chart, other], chart, pts))
        bound = 4.0 * max(abs(math.log(u)) for u in units)
        assert all(0.0 < c <= bound for c in consts)

    def test_point_outside_every_chart(self):
        chart = AdaptedChart(
            "c", ("E0",), (1,), bump=lambda z: 0.0
        )
        with pytest.raises(ChartDomainError, match="outside every chart"):
            glue_log([chart], (0.5,))

    def test_incompatible_overlap_rejected(self):
        c0 = AdaptedChart("v0", ("E0",), (1,), local_moduli=lambda z: (abs(z[0]),))
        c2 = AdaptedChart("v2", ("E2",), (1,), local_moduli=lambda z: (abs(z[1]),))
        with pytest.raises(ChartDomainError, match="span no face"):
            glue_log([c0, c2], (0.1, 0.1), faces=[("E0", "E1"), ("E0",), ("E2",)])
        with pytest.raises(ChartDomainError, match="full union"):
            glue_log([c0, c2], (0.1, 0.1))

    def test_vertex_edge_overlap_allowed_without_face_list(self):
        vertex = AdaptedChart(
            "v0", ("E0",), (1,), local_moduli=lambda z: (abs(z[0] * z[1]),)
        )
        edge = bidisc_chart()
        glued = glue_log([vertex, edge], (0.01, 0.2))
        assert set(glued) == {"E0", "E1"}
        assert math.fsum(glued[k] for k in glued) == 1.0

    def test_multiplicity_conflict_rejected(self):
        c1 = AdaptedChart("a", ("E0",), (1,), local_moduli=lambda z: (abs(z[0]),))
        c2 = AdaptedChart("b", ("E0",), (2,), local_moduli=lambda z: (abs(z[0]),))
        with pytest.raises(ValueError, match="disagree on the multiplicity"):
            glue_log([c1, c2], (0.3,))


def fiber_points(t: float, epsilon: float, n: int, seed: int) -> list[tuple[complex, complex, complex]]:
    """Projective points on the coordinate-pencil fiber, spread over all patches."""
    a_coeff = complex(t * epsilon)
    rng = np.random.default_rng(seed)
    pts: list[tuple[complex, complex, complex]] = []
    big_l = math.log(1.0 / t)
    while len(pts) < n:
        x = rng.uniform(0.05 * big_l, 0.95 * big_l)
        u = math.exp(-x) * np.exp(2j * math.pi * rng.uniform())
        roots = _solve_symmetric_cubic(a_coeff, 1.0 + 0j, np.array([u]))[0]
        v = roots[np.argmin(np.abs(np.abs(roots) + 0.0))]
        v = roots[int(np.argmin(np.abs(roots)))]
        if not 0.0 < abs(v) < 1.0:
            continue
        patch = int(rng.integers(3))
        affine = {0: (1.0 + 0j, u, v), 1: (u, 1.0 + 0j, v), 2: (u, v, 1.0 + 0j)}[patch]
        pts.append(affine)
    return pts


class TestTrianglePencilAtlas:
    def test_atlas_structure(self):
        atlas = triangle_pencil_atlas()
        assert len(atlas) == 6
        actives = sorted(tuple(c.active) for c in atlas)
        assert actives == [
            ("E0",),
            ("E0", "E1"),
            ("E0", "E2"),
            ("E1",),
            ("E1", "E2"),
            ("E2",),
        ]
        assert {frozenset(f.components) for f in build_dual_complex(coordinate_pencil(2)).faces} == set(
            TRIANGLE_FACES
        )

    def test_fiber_points_glue_into_the_complex(self):
        eps = 0.1
        atlas = triangle_pencil_atlas(eps)
        for t in (1e-4, 1e-6):
            for z in fiber_points(t, eps, 120, seed=3):
                glued = glue_log(atlas, z, faces=TRIANGLE_FACES)
                assert frozenset(glued) in TRIANGLE_FACES
                assert all(v >= 0.0 for v in glued.values())
                assert math.fsum(glued.values()) == 1.0

    def test_deep_edge_points_land_on_the_edge(self):
        eps = 0.1
        t = 1e-6
        atlas = triangle_pencil_atlas(eps)
        a_coeff = complex(t * eps)
        u = math.sqrt(t * eps)  # |u| = |v| there: the middle of an edge
        roots = _solve_symmetric_cubic(a_coeff, 1.0 + 0j, np.array([complex(u)]))[0]
        v = roots[int(np.argmin(np.abs(roots)))]
        glued = glue_log(atlas, (u, v, 1.0 + 0j), faces=TRIANGLE_FACES)
        assert set(glued) == {"E0", "E1"}
        assert glued["E0"] == pytest.approx(0.5, abs=0.05)

    def test_deviation_constant_bounded_as_t_shrinks(self):
        # The glued map deviates from the deep-edge chart by O(lambda); the
        # measured constant must not grow as t drops three decades.
        eps = 0.1
        atlas = triangle_pencil_atlas(eps)
        chart = next(c for c in atlas if c.chart_id == "edge-E0&E1")
        consts = []
        for t in (1e-4, 1e-6, 1e-8):
            a_coeff = complex(t * eps)
            big_l = math.log(1.0 / t)
            rng = np.random.default_rng(5)
            pts = []
            while len(pts) < 60:
                x = rng.uniform(0.25 * big_l, 0.75 * big_l)
                u = math.exp(-x) * np.exp(2j * math.pi * rng.uniform())
                roots = _solve_symmetric_cubic(a_coeff, 1.0 + 0j, np.array([u]))[0]
                v = roots[int(np.argmin(np.abs(roots)))]
                if 0.0 < abs(v) < 1.0:
                    pts.append((u, v, 1.0 + 0j))
            consts.append(
                log_deviation_constant(atlas, chart, pts, faces=TRIANGLE_FACES)
            )
        assert max(consts) < 10.0
        assert consts[2] < consts[0] * 2.0

    def test_epsilon_validation(self):
        with pytest.raises(ValueError, match="epsilon"):
            triangle_pencil_atlas(0.0)


def power_sequence(zeta: float, ks: list[int]) -> list[tuple[float, float]]:
    return [(1.0 / k, k ** (-zeta)) for k in ks]


class TestHybridConverges:
    @pytest.mark.parametrize("zeta", [0.5, 1.0, 2.0])
    def test_power_law_sequences(self, zeta):
        seq = power_sequence(zeta, [2**j for j in range(1, 60)])
        w = zeta / (1 + zeta)
        assert hybrid_converges(seq, w)
        assert not hybrid_converges(seq, w + 0.1)
        assert not hybrid_converges(seq, max(w - 0.1, 0.0))

    def test_fixed_second_coordinate_converges_to_vertex(self):
        seq = [(1.0 / 2**j, 0.5) for j in range(1, 200)]
        assert hybrid_converges(seq, 0.0)
        assert not hybrid_converges(seq, 0.3)

    def test_parameter_not_tending_to_zero(self):
        seq = [(0.3 * math.e ** (0.01j * k), 0.4) for k in range(1, 50)]
        for w in (0.0, 0.25, 0.5, 0.75, 1.0):
            assert not hybrid_converges(seq, w)

    def test_parameter_bouncing_back_above_floor(self):
        seq = [(10.0 ** -(3 + k), 0.5) for k in range(8)]
        seq.append((0.05, 0.5))
        assert not hybrid_converges(seq, 0.0)

    def test_target_validation(self):
        with pytest.raises(ValueError, match="target"):
            hybrid_converges([(0.1, 0.1)], 1.5)
        with pytest.raises(ValueError, match="moduli"):
            hybrid_converges([(1.2, 0.1)], 0.5)
        with pytest.raises(ValueError, match="empty"):
            hybrid_converges([], 0.5)

    @pytest.mark.parametrize("zeta", [0.5, 1.0, 2.0])
    def test_agrees_with_neighborhood_basis(self, zeta):
        seq = power_sequence(zeta, [2**j for j in range(1, 60)])
        w = zeta / (1 + zeta)
        assert basis_neighborhood_converges(seq, w)
        assert hybrid_converges(seq, w) == basis_neighborhood_converges(seq, w)

    def test_basis_rejects_wrong_exponent(self):
        seq = power_sequence(2.0, [2**j for j in range(1, 60)])
        assert not basis_neighborhood_converges(seq, 0.5)

    def test_basis_interior_only(self):
        with pytest.raises(ValueError, match="interior"):
            basis_neighborhood_converges([(0.1, 0.1)], 0.0)

    def test_basis_validates_every_eps_first(self):
        # The first rung already fails (|z0| > 0.2), yet the bad last rung raises.
        assert not basis_neighborhood_converges([(0.5, 0.5)], 0.5, eps_ladder=(0.2,))
        with pytest.raises(ValueError, match="eps"):
            basis_neighborhood_converges([(0.5, 0.5)], 0.5, eps_ladder=(0.2, 1.5))

    def test_random_sequences_cross_validated(self):
        rng = np.random.default_rng(2024)
        agree = 0
        n_seq = 300
        for _ in range(n_seq):
            w_star = rng.uniform(0.15, 0.85)
            kind = rng.integers(3)
            pts = []
            for k in range(1, 40):
                big_l = min(1.5 * 1.35**k, 500.0)
                if kind == 0:  # converges to w_star
                    wk = w_star + rng.uniform(-1, 1) * 0.2 * 0.5**k
                elif kind == 1:  # converges to a displaced target
                    wk = w_star + 0.12 + 0.2 * 0.5**k
                else:  # parameter stalls in the open part
                    big_l = 1.5 + 0.01 * k
                    wk = w_star
                wk = min(max(wk, 0.02), 0.98)
                pts.append((math.exp(-(1 - wk) * big_l), math.exp(-wk * big_l)))
            expected = kind == 0
            a = hybrid_converges(pts, w_star)
            b = basis_neighborhood_converges(pts, w_star)
            assert a == expected
            agree += a == b
        assert agree == n_seq


class TestLaurentSeriesPoly:
    def test_canonicalization(self):
        f = LaurentSeriesPoly(((2, 1.0), (0, 0.0), (2, 2.0), (-1, 3.0)))
        assert f.terms == ((-1, 3 + 0j), (2, 3 + 0j))
        assert LaurentSeriesPoly.from_dict({1: 0.0}).is_zero

    def test_order(self):
        assert LaurentSeriesPoly.from_dict({3: 1.0, 5: 2.0}).order == 3
        assert LaurentSeriesPoly.from_dict({-4: 1.0, 2: 1.0}).order == -4
        with pytest.raises(ValueError, match="zero polynomial"):
            _ = LaurentSeriesPoly.zero().order

    def test_evaluation(self):
        f = LaurentSeriesPoly.from_dict({-1: 2.0, 1: 1.0})
        z = 0.3 + 0.1j
        assert f(z) == pytest.approx(2.0 / z + z, rel=1e-15)
        assert LaurentSeriesPoly.from_dict({0: 5.0, 2: 1.0})(0.0) == 5.0
        with pytest.raises(ZeroDivisionError):
            f(0.0)

    def test_product_matches_pointwise(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            f = LaurentSeriesPoly.from_dict(
                {int(e): complex(*rng.normal(size=2)) for e in rng.integers(-4, 5, size=3)}
            )
            g = LaurentSeriesPoly.from_dict(
                {int(e): complex(*rng.normal(size=2)) for e in rng.integers(-4, 5, size=3)}
            )
            z = 0.4 * np.exp(2j * math.pi * rng.uniform())
            assert (f * g)(z) == pytest.approx(f(z) * g(z), rel=1e-12)
            if not f.is_zero and not g.is_zero:
                assert (f * g).order == f.order + g.order


class TestHybridSeminorm:
    def test_order_at_center(self):
        f = LaurentSeriesPoly.monomial(2)
        assert hybrid_seminorm(f, 0.0, 0.5) == 0.25
        assert hybrid_seminorm(LaurentSeriesPoly.monomial(-3), 0.0, 0.5) == 8.0

    def test_parameter_has_constant_seminorm_r(self):
        f = LaurentSeriesPoly.monomial(1)
        r = 0.37
        for z in (0.0, r, -r, r * 1j, 0.1 + 0.2j, 1e-12):
            assert hybrid_seminorm(f, z, r) == r

    def test_constant_on_boundary(self):
        f = LaurentSeriesPoly.from_dict({0: 2.0})
        assert hybrid_seminorm(f, 0.5, 0.5) == pytest.approx(2.0, rel=1e-12)
        # constants are not constant in the interior: the norm interpolates
        assert hybrid_seminorm(f, 0.25, 0.5) == pytest.approx(
            0.5 ** (math.log(2.0) / math.log(0.25)), rel=1e-12
        )

    def test_zero_polynomial_and_zeros_of_f(self):
        assert hybrid_seminorm(LaurentSeriesPoly.zero(), 0.2, 0.5) == 0.0
        f = LaurentSeriesPoly.from_dict({0: -0.25, 1: 1.0})  # vanishes at z = 1/4
        assert hybrid_seminorm(f, 0.25, 0.5) == 0.0

    def test_validation(self):
        f = LaurentSeriesPoly.monomial(1)
        with pytest.raises(ValueError, match="radius"):
            hybrid_seminorm(f, 0.0, 1.0)
        with pytest.raises(ValueError, match="radius"):
            hybrid_seminorm(f, 0.0, 0.0)
        with pytest.raises(ValueError, match="exceeds"):
            hybrid_seminorm(f, 0.6, 0.5)

    @given(
        data=st.data(),
        r=st.floats(0.05, 0.95),
    )
    @settings(max_examples=150)
    def test_multiplicative(self, data, r):
        exps = st.integers(-3, 3)
        coeff = st.complex_numbers(
            min_magnitude=0.1, max_magnitude=3.0, allow_infinity=False, allow_nan=False
        )
        poly = st.dictionaries(exps, coeff, min_size=1, max_size=3).map(
            LaurentSeriesPoly.from_dict
        )
        f = data.draw(poly)
        g = data.draw(poly)
        z = data.draw(
            st.one_of(
                st.just(0j),
                st.complex_numbers(
                    min_magnitude=1e-3, max_magnitude=r, allow_infinity=False, allow_nan=False
                ),
            )
        )
        lhs = hybrid_seminorm(f * g, z, r)
        rhs = hybrid_seminorm(f, z, r) * hybrid_seminorm(g, z, r)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-300)

    def test_continuity_at_center(self):
        f = LaurentSeriesPoly.from_dict({2: 1.0, 3: 1.0})
        r = 0.5
        values = [hybrid_seminorm(f, 10.0**-k, r) for k in range(2, 12)]
        target = hybrid_seminorm(f, 0.0, r)
        assert abs(values[-1] - target) < 1e-3
        assert abs(values[-1] - target) < abs(values[0] - target)

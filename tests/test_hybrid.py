"""Tests for the glued log map, convergence predicates, and the disc seminorm."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropmass import hybrid
from tropmass.cli import _random_bidisc_sequence
from tropmass.hybrid import (
    ChartDomainError,
    LaurentSeriesPoly,
    basis_neighborhood_converges,
    glued_log,
    hybrid_converges,
    hybrid_seminorm,
    log_deviation_constant,
)
from tropmass.model import build_dual_complex, coordinate_pencil
from tropmass.pencil import _polished_roots


def small_root(t: float, epsilon: float, u: complex) -> complex:
    """The root ``v`` of least modulus on the pencil fiber over ``u``.

    The fiber's cubic ``v^3 + p v + q`` is solved in ``x = v / sigma``, with
    ``sigma`` chosen as in `pencil._patch_roots`.
    """
    p, q = complex(u) / (t * epsilon), 1.0 + complex(u) ** 3
    sigma = max(math.sqrt(abs(p) / 3.0), (abs(q) / 2.0) ** (1.0 / 3.0))
    roots = sigma * _polished_roots(np.array([p / sigma**2]), np.array([q / sigma**3]))[:, 0]
    return roots[int(np.argmin(np.abs(roots)))]


def fiber_points(t: float, epsilon: float, n: int, seed: int) -> np.ndarray:
    """Projective points on the coordinate-pencil fiber, spread over all patches."""
    rng = np.random.default_rng(seed)
    pts: list[tuple[complex, complex, complex]] = []
    big_l = math.log(1.0 / t)
    while len(pts) < n:
        x = rng.uniform(0.05 * big_l, 0.95 * big_l)
        u = math.exp(-x) * np.exp(2j * math.pi * rng.uniform())
        v = small_root(t, epsilon, u)
        if not 0.0 < abs(v) < 1.0:
            continue
        patch = int(rng.integers(3))
        pts.append({0: (1.0 + 0j, u, v), 1: (u, 1.0 + 0j, v), 2: (u, v, 1.0 + 0j)}[patch])
    return np.array(pts)


def depth_ratio(z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per row: the deepest coordinate, the second deepest, and ``r``."""
    depth = -np.log(np.abs(z) / np.abs(z).max(axis=1, keepdims=True))
    order = np.argsort(-depth, axis=1, kind="stable")
    rows = np.arange(len(z))
    deep, second = depth[rows, order[:, 0]], depth[rows, order[:, 1]]
    return order[:, 0], order[:, 1], second / deep


def reference_glued_log(z: tuple[complex, complex, complex], epsilon: float) -> list[float]:
    """One point through the vertex and edge charts of `glued_log`, in scalar Python."""
    moduli = [abs(c) for c in z]
    depth = [math.log(max(moduli) / m) for m in moduli]
    a, b, k = sorted(range(3), key=lambda i: -depth[i])
    r = depth[b] / depth[a]
    smoothstep = lambda x: min(max(x, 0.0), 1.0) ** 2 * (3.0 - 2.0 * min(max(x, 0.0), 1.0))
    vertex, edge = smoothstep((0.35 - r) / 0.1), smoothstep((r - 0.2) / 0.1)
    u, v = z[a] / z[k], z[b] / z[k]
    scale = 1.0 / math.sqrt(epsilon * abs(1.0 + u**3 + v**3))
    log_u, log_v = math.log(abs(u) * scale), math.log(abs(v) * scale)
    out = [0.0, 0.0, 0.0]
    out[b] = edge / (vertex + edge) * log_v / (log_u + log_v)
    out[a] = 1.0 - out[b]
    return out


class TestTrianglePencilAtlas:
    def test_all_names_resolve(self):
        assert all(hasattr(hybrid, name) for name in hybrid.__all__)

    def test_matches_the_scalar_reference(self):
        for t in (1e-4, 1e-6, 1e-8):
            z = fiber_points(t, 0.1, 300, seed=12)
            ref = np.array([reference_glued_log(tuple(p), 0.1) for p in z])
            np.testing.assert_allclose(glued_log(z, 0.1), ref, rtol=0, atol=1e-15)

    def test_fiber_points_glue_into_the_complex(self):
        faces = {frozenset(f.components) for f in build_dual_complex(coordinate_pencil(2)).faces}
        for t in (1e-4, 1e-6):
            z = fiber_points(t, 0.1, 600, seed=3)
            _, _, r = depth_ratio(z)
            assert (r < 0.2).any() and ((r > 0.2) & (r < 0.35)).any() and (r > 0.35).any()
            glued = glued_log(z, 0.1)
            assert glued.shape == (600, 3)
            assert (glued >= 0.0).all()
            for row in glued:
                assert frozenset(f"E{i}" for i in np.flatnonzero(row)) in faces
                assert math.fsum(row) == 1.0

    def test_deep_edge_points_land_on_the_edge(self):
        eps, t = 0.1, 1e-6
        u = math.sqrt(t * eps)  # |u| = |v| there: the middle of an edge
        glued = glued_log([(u, small_root(t, eps, u), 1.0)], eps)[0]
        assert glued[2] == 0.0
        assert glued[0] == pytest.approx(0.5, abs=0.05)
        assert glued[1] == pytest.approx(0.5, abs=0.05)

    def test_outside_the_blend_the_map_is_one_chart(self):
        # Past the bands, one chart carries the point exactly: the edge chart of
        # the two deepest coordinates above r = 0.35, the vertex below r = 0.2.
        z = np.concatenate([fiber_points(t, 0.1, 400, seed=9) for t in (1e-4, 1e-6, 1e-8)])
        deepest, second, r = depth_ratio(z)
        glued = glued_log(z, 0.1)
        vertex = r <= 0.2
        assert vertex.sum() > 50
        assert (glued[vertex] == np.eye(3)[deepest[vertex]]).all()
        for edge in ((0, 1), (0, 2), (1, 2)):
            on_edge = (r >= 0.35) & (np.minimum(deepest, second) == edge[0])
            on_edge &= np.maximum(deepest, second) == edge[1]
            assert on_edge.sum() > 50
            assert log_deviation_constant(z[on_edge], edge, 0.1) == 0.0

    def test_deviation_constant_bounded_as_t_shrinks(self):
        # The glued map deviates from the deep-edge chart by O(lambda); the
        # measured constant must not grow as t drops three decades.
        eps = 0.1
        consts = []
        for t in (1e-4, 1e-6, 1e-8):
            big_l = math.log(1.0 / t)
            rng = np.random.default_rng(5)
            pts = []
            while len(pts) < 60:
                x = rng.uniform(0.25 * big_l, 0.75 * big_l)
                u = math.exp(-x) * np.exp(2j * math.pi * rng.uniform())
                v = small_root(t, eps, u)
                if 0.0 < abs(v) < 1.0:
                    pts.append((u, v, 1.0 + 0j))
            consts.append(log_deviation_constant(pts, (0, 1), eps))
        assert max(consts) < 10.0
        assert consts[2] < consts[0] * 2.0

    def test_equal_moduli_ties(self):
        # Two deepest coordinates of equal modulus meet at the edge midpoint;
        # two largest ones leave the deepest coordinate alone at its vertex.
        z = [(1e-3, 1e-3j, 1.0), (1.0, 1e-3j, 1e-3), (1e-4, 1.0, 1j), (1j, -1.0, 1e-4)]
        assert glued_log(z).tolist() == [
            [0.5, 0.5, 0.0],
            [0.0, 0.5, 0.5],
            [1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0],
        ]

    def test_batch_equals_single_rows(self):
        z = fiber_points(1e-6, 0.1, 200, seed=4)
        rows = np.concatenate([glued_log(z[i : i + 1]) for i in range(len(z))])
        assert np.array_equal(glued_log(z), rows)
        assert glued_log(np.empty((0, 3), dtype=complex)).shape == (0, 3)

    @pytest.mark.parametrize(
        "point, match",
        [
            ((0.0, 0.01, 1.0), "zero"),
            ((1e-3, 0.0, 0.0), "zero"),
            ((math.nan, 0.01, 1.0), "zero"),
            ((1.0, 1j, -1.0), "every chart"),
            # r = 0, vertex chart only, and z1^3 + z2^3 = 0: a huge vertex modulus.
            ((1e-3, 1.0, complex(0.5, math.sqrt(0.75))), "vertex chart"),
            # r = 0.58, edge chart only, off every fiber: an edge modulus above 1.
            ((0.3, 0.5, 1.0), "edge chart"),
        ],
        ids=[
            "zero-coordinate",
            "two-zero-coordinates",
            "nan-coordinate",
            "equal-moduli",
            "vertex-modulus",
            "edge-modulus",
        ],
    )
    def test_domain_errors(self, point, match):
        with pytest.raises(ChartDomainError, match=match):
            glued_log([(0.01, 0.001, 1.0), point])

    def test_deviation_constant_domain_and_edge(self):
        z = [(0.5, 0.01, 1.0)]  # on the vertex E1, where E0&E1 has |u'| = 1.49
        assert glued_log(z).tolist() == [[0.0, 1.0, 0.0]]
        with pytest.raises(ChartDomainError, match="E0&E1"):
            log_deviation_constant(z, (0, 1))
        for edge in ((0, 0), (1, 3), (0, 1, 2)):
            with pytest.raises(ValueError, match="edge"):
                log_deviation_constant(z, edge)

    def test_input_validation(self):
        for eps in (0.0, 0.6):
            with pytest.raises(ValueError, match="epsilon"):
                glued_log([(0.01, 0.001, 1.0)], eps)
            with pytest.raises(ValueError, match="epsilon"):
                log_deviation_constant([(0.01, 0.001, 1.0)], (0, 1), eps)
        with pytest.raises(ValueError, match="shape"):
            glued_log([(0.01, 1.0)])


def power_sequence(zeta: float, ks: list[int]) -> list[tuple[float, float]]:
    return [(1.0 / k, k ** (-zeta)) for k in ks]


def scalar_random_sequence(rng: np.random.Generator) -> tuple[float, int, list[tuple[float, float]]]:
    """The reference construction of a randomized hybrid-check sequence, point by point."""
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
    return w_star, kind, pts


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

    def test_parameter_underflowing_to_zero(self):
        # |t| = |z0 z1| underflows to 0, yet log|t| = log|z0| + log|z1| stays finite.
        seq = [(10.0 ** -(20 * k), 10.0 ** -(20 * k)) for k in range(1, 11)]
        assert hybrid_converges(seq, 0.5)
        assert not hybrid_converges(seq, 0.6)

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

    def test_random_sequences_cross_validated(self):
        rng = np.random.default_rng(2024)
        agree = 0
        n_seq = 300
        for _ in range(n_seq):
            w_star, kind, pts = scalar_random_sequence(rng)
            expected = kind == 0
            a = hybrid_converges(pts, w_star)
            b = basis_neighborhood_converges(pts, w_star)
            assert a == expected
            agree += a == b
        assert agree == n_seq

    @pytest.mark.parametrize("seed", [0, 1, 7, 2024])
    def test_battery_sequences_match_the_scalar_construction(self, seed):
        # One draw of 39 uniforms is the 39 scalar draws, so both streams stay in step.
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(200):
            w_star, kind, pts = _random_bidisc_sequence(rng)
            ref_w, ref_kind, ref_pts = scalar_random_sequence(ref_rng)
            assert (w_star, kind) == (ref_w, ref_kind)
            assert pts.shape == (39, 2)
            np.testing.assert_array_max_ulp(pts, np.array(ref_pts), maxulp=4)
            for w in (w_star, 0.5):
                assert hybrid_converges(pts, w) == hybrid_converges(ref_pts, w)
                assert basis_neighborhood_converges(pts, w) == basis_neighborhood_converges(ref_pts, w)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("kind", ["power", "vertex", "bounce", "stall", "random"])
    def test_array_and_pair_lists_agree(self, kind):
        ws = (0.0, 0.2, 1 / 3, 0.5, 2 / 3, 0.9, 1.0)
        if kind == "power":
            seqs = [power_sequence(zeta, [2**j for j in range(1, 60)]) for zeta in (0.5, 1.0, 2.0)]
        elif kind == "vertex":
            seqs = [[(1.0 / 2**j, 0.5) for j in range(1, 200)]]
        elif kind == "bounce":
            seqs = [[(10.0 ** -(3 + k), 0.5) for k in range(8)] + [(0.05, 0.5)]]
        elif kind == "stall":
            seqs = [[(0.3 * math.cos(0.01 * k), 0.4) for k in range(1, 50)]]
        else:
            rng = np.random.default_rng(3)
            seqs = [scalar_random_sequence(rng)[2] for _ in range(30)]
        for seq in seqs:
            arr = np.array(seq)
            # Multiplying by i and by -1 is exact, so the moduli are the same floats.
            complex_pairs = [(1j * z0, -z1) for z0, z1 in seq]
            for w in ws:
                answers = {hybrid_converges(x, w) for x in (arr, seq, complex_pairs)}
                assert len(answers) == 1
                if 0.0 < w < 1.0:
                    answers = {basis_neighborhood_converges(x, w) for x in (arr, seq, complex_pairs)}
                    assert len(answers) == 1

    @pytest.mark.parametrize(
        "points, match",
        [
            ([], "empty sequence"),
            (np.empty((0, 2)), "empty sequence"),
            (np.full((3, 3), 0.5), r"bidisc points are pairs \(z0, z1\)"),
            ([(0.5, 0.5), (0.5,)], r"bidisc points are pairs \(z0, z1\)"),
            (np.full(4, 0.5), r"bidisc points are pairs \(z0, z1\)"),
            (
                [(0.5, 0.25), (1.5, 0.25), (0.0, 0.5)],
                r"bidisc point moduli must lie in \(0, 1\), got \(1.5, 0.25\)$",
            ),
            (
                [(0.5, 0.25), (0.5, -0.5j), (0.25, 0.0)],
                r"bidisc point moduli must lie in \(0, 1\), got \(0.25, 0.0\)$",
            ),
            ([(0.5, 0.25), (0.5, math.nan)], r"moduli must lie in \(0, 1\), got \(0.5, nan\)$"),
        ],
    )
    def test_sequence_validation_messages(self, points, match):
        with pytest.raises(ValueError, match=match):
            hybrid_converges(points, 0.5)
        with pytest.raises(ValueError, match=match):
            basis_neighborhood_converges(points, 0.5)


class TestLaurentSeriesPoly:
    def test_canonicalization(self):
        f = LaurentSeriesPoly(((2, 1.0), (0, 0.0), (2, 2.0), (-1, 3.0)))
        assert f.terms == ((-1, 3 + 0j), (2, 3 + 0j))
        assert LaurentSeriesPoly.from_dict({1: 0.0}).is_zero

    def test_order(self):
        assert LaurentSeriesPoly.from_dict({3: 1.0, 5: 2.0}).order == 3
        assert LaurentSeriesPoly.from_dict({-4: 1.0, 2: 1.0}).order == -4
        with pytest.raises(ValueError, match="zero polynomial"):
            _ = LaurentSeriesPoly(()).order

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
        assert hybrid_seminorm(LaurentSeriesPoly(()), 0.2, 0.5) == 0.0
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

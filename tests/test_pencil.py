"""Tests for the plane-curve pencil sampler."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from tropmass import pencil
from tropmass.measure import TWO_PI, assemble_limit_measure
from tropmass.model import coordinate_pencil as coordinate_pencil_model
from tropmass.pencil import (
    RESIDUAL_TOLERANCE,
    HypersurfacePencil,
    PencilError,
    _annulus_density,
    _cardano_cube_root,
    _newton_patch_root,
    _patch_roots,
    _polished_roots,
    _rouche_rows,
    _route_blocks,
    _sample_patch_route,
    sample_pencil,
)
from tropmass.sampler import LATTICE_SHIFTS, TRIG_BLOCK, fibonacci_rule, fit_mass_asymptotics


class TestPencilConfig:
    def test_unknown_preset_rejected(self):
        with pytest.raises(PencilError, match="preset"):
            HypersurfacePencil("banana")

    def test_epsilon_range(self):
        with pytest.raises(PencilError):
            HypersurfacePencil.coordinate(epsilon=0.0)
        with pytest.raises(PencilError):
            HypersurfacePencil.coordinate(epsilon=0.6)

    def test_coefficients(self):
        assert HypersurfacePencil.coordinate().coefficients(1e-3) == (1e-4, 1.0)
        assert HypersurfacePencil.fermat().coefficients(1e-3) == (1.0, 1e-4)

    def test_singular_radius(self):
        assert HypersurfacePencil.coordinate().singular_radius == pytest.approx(10 / 3)
        assert HypersurfacePencil.fermat().singular_radius == pytest.approx(30.0)

    def test_patch_labels(self):
        assert HypersurfacePencil.coordinate().patch_labels == (
            "E1&E2",
            "E0&E2",
            "E0&E1",
        )
        assert HypersurfacePencil.fermat().patch_labels == (
            "patch-0",
            "patch-1",
            "patch-2",
        )

    def test_t_validation(self):
        pen = HypersurfacePencil.coordinate(epsilon=0.5)
        # Singular radius 2/3; refuse |t| within a factor 3 of it.
        with pytest.raises(PencilError, match="singular"):
            pen.validate_t(0.3)
        with pytest.raises(PencilError):
            pen.validate_t(0.0)
        with pytest.raises(PencilError):
            pen.validate_t(0.6)

    def test_t_floor_of_the_log_uniform_proposal(self):
        pen = HypersurfacePencil.coordinate()
        # The inner radius |t| eps / 4 must square to a normal double.
        assert (pen.t_floor * pen.epsilon / 4 * (1 + 1e-12)) ** 2 >= np.finfo(float).tiny
        assert HypersurfacePencil.fermat().t_floor == 0.0
        for t in (1e-160, 1e-180, 1e-200, 1e-250, 1e-300):
            with pytest.raises(PencilError, match="below"):
                sample_pencil(pen, t, 6000, 0)

    @pytest.mark.parametrize("t", [1e-150, "floor"])
    def test_masses_stay_finite_down_to_the_floor(self, t):
        pen = HypersurfacePencil.coordinate()
        t = pen.t_floor if t == "floor" else t
        res = sample_pencil(pen, t, 6000, 0)
        assert res.n_failures == 0
        finite_t = math.log(1.0 / (t * pen.epsilon)) / math.log(1.0 / t)
        for p in res.patches:
            assert math.isfinite(p.mass) and math.isfinite(p.stderr) and p.stderr > 0
            assert abs(p.mass - finite_t) < 5 * p.stderr

    def test_fermat_pencil_has_no_floor(self):
        res = sample_pencil(HypersurfacePencil.fermat(), 1e-300, 6000, 0)
        assert all(math.isfinite(p.mass_raw) for p in res.patches)

    def test_sample_count_floor(self):
        with pytest.raises(ValueError, match="sample count"):
            sample_pencil(HypersurfacePencil.coordinate(), 1e-3, 10, seed=0)

    def test_sample_count_floor_is_a_pencil_error(self):
        # The smallest layout is 6 routes x 16 shifts of a one-point rule.
        with pytest.raises(PencilError, match="sample count"):
            sample_pencil(HypersurfacePencil.fermat(), 1e-3, 6 * LATTICE_SHIFTS - 1, seed=0)

    @pytest.mark.parametrize("shards", [0, LATTICE_SHIFTS + 1])
    def test_a_shard_holds_at_least_one_shift(self, shards):
        with pytest.raises(PencilError, match="shards"):
            sample_pencil(HypersurfacePencil.coordinate(), 1e-3, 6000, seed=0, shards=shards)

    @pytest.mark.parametrize("n, rule_points", [(96, 1), (191, 1), (192, 2), (6000, 55)])
    def test_n_samples_counts_the_evaluations_used(self, n, rule_points):
        # The budget buys the largest Fibonacci rule that fits 6 x 16 times.
        res = sample_pencil(HypersurfacePencil.fermat(), 1e-3, n, seed=0)
        assert (res.n_samples, res.rule_points, res.shifts) == (96 * rule_points, rule_points, LATTICE_SHIFTS)


class TestResidueFormGluing:
    def test_patch_transition_preserves_residue_form(self):
        # Exact identity: with (s, w) = (v/u, 1/u) one has
        # ds ^ dw = w^3 du ^ dv and F0 = w^3 F2 on the overlap, so the
        # residue forms of the two patches coincide on the curve.
        pen = HypersurfacePencil.coordinate()
        a, b = pen.coefficients(1e-3)
        u = 0.31 + 0.22j
        coeffs = [a, 0.0, b * u, a * (1 + u**3)]
        roots = np.roots(coeffs)
        for v in roots:
            f2_u = 3 * a * u**2 + b * v
            f2_v = 3 * a * v**2 + b * u
            dv_du = -f2_u / f2_v
            s, w = v / u, 1 / u
            ds_du = (dv_du * u - v) / u**2
            f0_w = 3 * a * w**2 + b * s
            ratio = ds_du / f0_w * f2_v
            assert ratio == pytest.approx(1.0, rel=1e-9)


def companion_roots(a, b, u):
    """Reference solver: companion-matrix eigenvalues polished by two Newton steps."""
    comp = np.zeros((u.shape[0], 3, 3), dtype=complex)
    comp[:, 1, 0] = 1.0
    comp[:, 2, 1] = 1.0
    comp[:, 0, 2] = -(1.0 + u**3)
    comp[:, 1, 2] = -(b / a) * u
    v = np.linalg.eigvals(comp)
    uu = u[:, None]
    for _ in range(2):
        f = a * (1.0 + uu**3 + v**3) + b * uu * v
        df = 3.0 * a * v**2 + b * uu
        v = v - np.where(df == 0, 0.0, f / np.where(df == 0, 1.0, df))
    return v


def rescaled_cubic(a, b, u):
    """``(p, q, sigma)``: the cubic ``x^3 + p x + q`` in ``x = v / sigma`` that `_patch_roots` solves."""
    p, q = (b / a) * u, 1.0 + u**3
    sigma = np.maximum(np.sqrt(np.abs(p) / 3.0), np.cbrt(np.abs(q) / 2.0))
    inv = 1.0 / sigma
    return p * inv * inv, q * inv * inv * inv, sigma


def all_roots(a, b, u):
    """The three roots ``v`` of each row from `_polished_roots`, as an ``(n, 3)`` array."""
    p, q, sigma = rescaled_cubic(a, b, u)
    return (_polished_roots(p, q) * sigma).T


def relative_residual(a, b, u, v):
    """``|F|`` at each root over the sum of the moduli of the equation's terms."""
    uu = u[:, None]
    f = a * (1.0 + uu**3 + v**3) + b * uu * v
    scale = abs(a) * (1.0 + np.abs(uu) ** 3 + np.abs(v) ** 3) + np.abs(b * uu * v)
    return np.abs(f) / scale


def residual_failures(a, b, u, v):
    """Roots whose relative residual fails the sampler's filter."""
    return int(np.sum(~(relative_residual(a, b, u, v) <= RESIDUAL_TOLERANCE)))


def multiset_rel_error(v, ref):
    """Largest per-root relative error under the best matching of each row's roots."""
    perms = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
    errs = [np.max(np.abs(v[:, p] - ref) / np.abs(ref), axis=1) for p in perms]
    return float(np.max(np.min(errs, axis=0)))


def ramification_points(a, b):
    """The ``u`` where ``q^2/4 + p^3/27 = 0``, i.e. ``x = u^3`` solves ``x^2 + (2 + d) x + 1 = 0``.

    With ``d = 4 (B/A)^3 / 27`` the roots are ``x = -(1 + d/2) -+ sqrt(d (1 + d/4))``,
    written so that neither sum cancels; their product is 1.
    """
    d = 4.0 * (b / a) ** 3 / 27.0
    h, r = 1.0 + d / 2.0, np.sqrt(d * (1.0 + d / 4.0))
    x = -h - r if abs(h + r) >= abs(h - r) else -h + r
    cube_roots = np.exp(2j * math.pi * np.arange(3) / 3)
    return np.concatenate([y ** (1 / 3) * cube_roots for y in (x, 1 / x)])


class TestCubicSolver:
    CASES = [
        (HypersurfacePencil.coordinate(), 1e-5),
        (HypersurfacePencil.coordinate(), 0.3),
        (HypersurfacePencil.fermat(), 1e-2),
    ]
    IDS = ["coordinate-1e-5", "coordinate-0.3", "fermat-1e-2"]

    @staticmethod
    def annulus_u(a, b, rng, m=4000):
        """Log-uniform ``u`` on the sampler's annulus, plus its two boundary circles."""
        ratio = abs(a / b)
        r_lo = min(ratio, 1.0 / ratio, 1.0) / 4.0
        phase = np.exp(2j * math.pi * rng.uniform(size=m))
        radius = np.exp(-rng.uniform(size=m) * math.log(1.0 / r_lo))
        return np.concatenate([radius * phase, phase, r_lo * phase])

    @staticmethod
    def near_ramification_u(a, b, rng):
        ram = ramification_points(a, b)[:, None]
        return np.concatenate(
            [
                (ram * (1.0 + eps * np.exp(2j * math.pi * rng.uniform(size=(1, 40))))).ravel()
                for eps in (1e-3, 1e-5, 1e-7)
            ]
        )

    def check_against_reference(self, a, b, u):
        v = all_roots(a, b, u)
        ref = companion_roots(a, b, u)
        assert v.shape == (u.shape[0], 3)
        assert multiset_rel_error(v, ref) < 1e-10
        assert residual_failures(a, b, u, v) <= residual_failures(a, b, u, ref)
        # The split solver gives the reference roots in the disc, row by row.
        row, w = _patch_roots(a, b, u)
        np.testing.assert_array_equal(row, np.nonzero(np.abs(ref) <= 1.0)[0])
        assert np.max(np.min(np.abs(ref[row] - w[:, None]), axis=1) / np.abs(w)) < 1e-10

    @pytest.mark.parametrize("pen, t", CASES, ids=IDS)
    def test_matches_companion_eigenvalues_on_the_annulus(self, pen, t):
        a, b = pen.coefficients(t)
        self.check_against_reference(a, b, self.annulus_u(a, b, np.random.default_rng(5)))

    @pytest.mark.parametrize("pen, t", CASES, ids=IDS)
    def test_matches_companion_eigenvalues_near_ramification(self, pen, t):
        # Cardano's discriminant q^2/4 + p^3/27 vanishes here, where the
        # formula cancels worst.
        a, b = pen.coefficients(t)
        self.check_against_reference(a, b, self.near_ramification_u(a, b, np.random.default_rng(6)))

    @pytest.mark.parametrize("pen, t", CASES, ids=IDS)
    def test_ramification_points_give_a_double_root(self, pen, t):
        a, b = pen.coefficients(t)
        u = ramification_points(a, b)
        v = all_roots(a, b, u)
        uu = u[:, None]
        scale = abs(a) * (1.0 + np.abs(uu) ** 3 + np.abs(v) ** 3) + np.abs(b * uu * v)
        f = a * (1.0 + uu**3 + v**3) + b * uu * v
        assert np.all(np.abs(f) <= 1e-8 * scale)
        # Rounding u moves a double root by about the square root of the
        # rounding error, so the pair agrees to a few parts in 1e6 only.
        gaps = np.abs(v[:, [0, 0, 1]] - v[:, [1, 2, 2]]).min(axis=1)
        assert np.all(gaps <= 1e-4 * np.abs(v).max(axis=1))

    def test_tiny_t_neither_overflows_nor_fails(self):
        # p = u / (t eps) reaches 1e151 here, so p^3 would overflow unscaled.
        a, b = HypersurfacePencil.coordinate().coefficients(1e-150)
        u = self.annulus_u(a, b, np.random.default_rng(7))
        self.check_against_reference(a, b, u)
        assert residual_failures(a, b, u, all_roots(a, b, u)) == 0

    @pytest.mark.parametrize(
        "pen, t",
        [*CASES, (HypersurfacePencil.coordinate(), 1e-150)],
        ids=[*IDS, "coordinate-1e-150"],
    )
    def test_one_newton_step_polishes_every_root(self, pen, t):
        # Before the step the largest relative residual reads about 2e-15
        # here, after it about 5e-16.
        a, b = pen.coefficients(t)
        u = self.annulus_u(a, b, np.random.default_rng(8))
        assert relative_residual(a, b, u, all_roots(a, b, u)).max() <= 1e-15

    @pytest.mark.parametrize(
        "pen, t",
        [*CASES, (HypersurfacePencil.coordinate(), 1e-150)],
        ids=[*IDS, "coordinate-1e-150"],
    )
    def test_one_block_holds_rows_of_both_solvers(self, pen, t):
        # On the degenerating pencil `_patch_roots` sends some rows of one
        # block to Newton and the rest to Cardano; the smooth pencil never
        # meets the bound.
        a, b = pen.coefficients(t)
        u = self.annulus_u(a, b, np.random.default_rng(5))
        certified = _rouche_rows((b / a) * u, np.abs(1.0 + u**3)).size
        if pen.has_tropical_edges:
            assert 0 < certified < u.size
        else:
            assert certified == 0

    @pytest.mark.parametrize("imag", [0.0, -0.0], ids=["+0j", "-0j"])
    @pytest.mark.parametrize("modulus", [1e-300, 1e-30, 0.5, 1.0, 2.0, 1e30, 1e300])
    def test_cube_root_on_the_branch_cut(self, modulus, imag):
        s = np.array([complex(-modulus, imag)])
        c = _cardano_cube_root(s)
        assert abs(c[0] ** 3 / s[0] - 1.0) <= 8 * 2.0**-52
        # The branch follows the sign of the zero: arg C = +-pi/3.
        assert math.copysign(1.0, c[0].imag) == math.copysign(1.0, imag)

    @pytest.mark.parametrize("modulus", [1e-300, 1e-30, 1e30, 1e300])
    def test_cube_root_of_huge_and_tiny_moduli(self, modulus):
        turns = np.random.default_rng(9).uniform(-0.5, 0.5, size=1000)
        s = modulus * np.exp(2j * math.pi * turns)
        c = _cardano_cube_root(s)
        assert np.max(np.abs(c * c * c / s - 1.0)) <= 8 * 2.0**-52

    @pytest.mark.parametrize("flip", [False, True], ids=["as-solved", "zero-flipped"])
    @pytest.mark.parametrize(
        "pen, t",
        [
            *CASES,
            (HypersurfacePencil.coordinate(), 1e-150),
            (HypersurfacePencil.fermat(), 1e-300),
        ],
        ids=[*IDS, "coordinate-1e-150", "fermat-1e-300"],
    )
    def test_real_u_puts_cardano_on_the_branch_cut(self, monkeypatch, pen, t, flip):
        # For real A, B and real u the discriminant q^2/4 + p^3/27 is mostly
        # positive, so s = -(q/2 + sqrt(...)) is a negative real, on the cut
        # of arg; at t = 1e-150 and 1e-300 the unscaled p^3 would overflow
        # or underflow.  Either cube root on the cut (the sign of the zero
        # imaginary part picks one) must give the same three roots.
        if flip:
            cube_root = pencil._cardano_cube_root
            monkeypatch.setattr(
                pencil,
                "_cardano_cube_root",
                lambda s: cube_root(np.where(s.imag == 0, s.conj(), s)),
            )
        a, b = pen.coefficients(t)
        ratio = abs(a / b)
        r = np.geomspace(min(ratio, 1.0 / ratio, 1.0) / 4.0, 1.0, 200)
        # u = -1 would make q = 0 and the root v = 0, which has no relative error.
        self.check_against_reference(a, b, np.concatenate([r, -r[:-1]]) + 0j)


def certificate_band_u(a, b, rng, m=2000):
    """``u`` around the bound of `_rouche_rows`: ``|p| = |B/A| |u|`` from 1/2 to 3."""
    c = abs(b / a)
    radius = np.exp(rng.uniform(math.log(0.5 / c), math.log(3.0 / c), size=m))
    return radius * np.exp(2j * math.pi * rng.uniform(size=m))


class TestRoucheSplit:
    @pytest.mark.parametrize("t", [1e-5, 0.3, 1e-150], ids=["1e-5", "0.3", "1e-150"])
    def test_certified_rows_have_one_root_in_the_disc(self, t):
        a, b = HypersurfacePencil.coordinate().coefficients(t)
        rng = np.random.default_rng(31)
        u = np.concatenate([TestCubicSolver.annulus_u(a, b, rng), certificate_band_u(a, b, rng)])
        rows = _rouche_rows((b / a) * u, np.abs(1.0 + u**3))
        assert 0 < rows.size < u.size
        ref = companion_roots(a, b, u[rows])
        inside = np.abs(ref) <= 1.0
        assert np.all(inside.sum(axis=1) == 1)
        # On these rows the shared rescaling gives |p| = 3, as Newton's start needs.
        p, q, sigma = rescaled_cubic(a, b, u[rows])
        np.testing.assert_allclose(np.abs(p), 3.0, rtol=1e-15)
        root, converged = _newton_patch_root(p, q)
        root *= sigma
        converged &= np.abs(root) <= 1.0
        assert converged.mean() > 0.99
        expected = ref[inside]
        assert np.max(np.abs(root - expected)[converged] / np.abs(expected[converged])) <= 1e-14

    def test_rows_off_the_bound_converge_only_at_a_root_in_the_disc(self):
        # Off the bound Newton's iteration may stall or reach a root outside
        # the disc; its convergence test and the disc check `_patch_roots`
        # applies must admit neither.  Each row is rescaled to |p| = 3.
        a, b = HypersurfacePencil.coordinate().coefficients(0.3)
        rng = np.random.default_rng(32)
        u = np.concatenate([TestCubicSolver.annulus_u(a, b, rng), certificate_band_u(a, b, rng)])
        p, q = (b / a) * u, 1.0 + u**3
        off = np.setdiff1d(np.arange(u.size), _rouche_rows(p, np.abs(q)))
        sigma = np.sqrt(np.abs(p[off]) / 3.0)
        root, converged = _newton_patch_root(p[off] / sigma**2, q[off] / sigma**3)
        root *= sigma
        converged &= np.abs(root) <= 1.0
        assert 0 < converged.sum() < off.size
        root = root[converged]
        ref = companion_roots(a, b, u[off][converged])
        assert np.max(np.min(np.abs(ref - root[:, None]), axis=1) / np.abs(root)) <= 1e-14

    @pytest.mark.parametrize("preset, tested", [("fermat_smooth", False), ("coordinate_pencil", True)])
    def test_bound_is_tested_only_where_a_row_can_pass(self, monkeypatch, preset, tested):
        # |B/A| <= 1 on the smooth pencil, so |p| <= 1 for every u in the patch.
        pen = HypersurfacePencil(preset)
        a, b = pen.coefficients(1e-2)
        assert (abs(b / a) > 1.0) == tested
        calls = []
        rows = _rouche_rows
        monkeypatch.setattr(pencil, "_rouche_rows", lambda p, abs_q: calls.append(1) or rows(p, abs_q))
        sample_pencil(pen, 1e-2, 2000, 0)
        assert bool(calls) == tested


def reference_roots(a, b, u):
    """Unblocked Cardano solve as the sampler did it before blocking.

    ``np.exp`` for the cube root's phase, three divisions per row, two Newton
    steps on full ``(n, 3)`` arrays; returns the roots and the residual filter.
    """
    p = (b / a) * u
    q = 1.0 + u * u * u
    sigma = np.maximum(np.sqrt(np.abs(p) / 3.0), np.cbrt(np.abs(q) / 2.0))
    sigma[sigma == 0] = 1.0
    p_third = p / (3.0 * sigma**2)
    half_q = q / (2.0 * sigma) / sigma / sigma
    root = np.sqrt(half_q * half_q + p_third * p_third * p_third)
    root = np.where((half_q.conj() * root).real >= 0, root, -root)
    s = -(half_q + root)
    c = np.cbrt(np.abs(s)) * np.exp(1j * np.angle(s) / 3.0)
    wc = c[:, None] * np.exp(2j * np.pi * np.arange(3) / 3)
    zero = wc == 0
    v = sigma[:, None] * np.where(zero, 0.0, wc - p_third[:, None] / np.where(zero, 1.0, wc))
    rows = np.arange(u.shape[0])
    small = np.argmin(np.abs(v), axis=1)
    pair = v[rows, (small + 1) % 3] * v[rows, (small + 2) % 3]
    v[rows, small] = np.where(pair == 0, v[rows, small], -q / np.where(pair == 0, 1.0, pair))
    uu = u[:, None]
    for _ in range(2):
        f = a * (1.0 + uu**3 + v**3) + b * uu * v
        df = 3.0 * a * v**2 + b * uu
        v = v - np.where(np.abs(df) > 0, f / np.where(df == 0, 1.0, df), 0.0)
    return v, relative_residual(a, b, u, v) <= RESIDUAL_TOLERANCE


def lattice_rows(rule, shifts):
    """Every ``(quantile, turn)`` of the shifted ``rule`` at once, shift by shift, in row order."""
    n, g = rule
    j = np.arange(n)
    quantile = (j / n + shifts[:, :1]) % 1.0
    turn = ((j * g % n) / n + shifts[:, 1:]) % 1.0
    return quantile.ravel(), turn.ravel()


def reference_route(a, b, rule, shifts, r_lo, log_scale):
    """`_sample_patch_route` as one unblocked pass over full ``(rows, 3)`` arrays."""
    quantile, turn = lattice_rows(rule, shifts)
    if log_scale:
        rad = np.exp(-quantile * math.log(1.0 / r_lo))
    else:
        rad = np.sqrt(r_lo**2 + quantile * (1.0 - r_lo**2))
    u = rad * np.exp(1j * TWO_PI * turn)
    v, residual_ok = reference_roots(a, b, u)
    uu = u[:, None]
    in_region = np.abs(v) <= 1.0
    keep = in_region & residual_ok
    fv = 3.0 * a * v**2 + b * uu
    fu = 3.0 * a * uu**2 + b * v
    with np.errstate(divide="ignore", invalid="ignore"):
        q_u = _annulus_density(np.abs(uu), r_lo, log_scale) * np.abs(fv) ** 2
        q_v = _annulus_density(np.abs(v), r_lo, log_scale) * np.abs(fu) ** 2
        contrib = np.where(keep, 1.0 / (q_u + q_v), 0.0)
        w_edge = np.log(1.0 / np.abs(uu * np.ones_like(v))) / np.log(1.0 / np.abs(uu * v))
    return {
        "sums": contrib.sum(axis=1).reshape(shifts.shape[0], rule[0]).sum(axis=1),
        "failures": int(np.sum(in_region & ~residual_ok)),
        "values": w_edge[keep],
        "weights": contrib[keep],
        "n_points": int(keep.sum()),
    }


class TestBlockedPencilRoute:
    @pytest.mark.parametrize(
        "pen, t, rule, n_shifts",
        [
            (HypersurfacePencil.coordinate(), 1e-5, (4181, 2584), LATTICE_SHIFTS),
            (HypersurfacePencil.coordinate(), 0.3, (4181, 2584), LATTICE_SHIFTS),
            (HypersurfacePencil.coordinate(), 1e-150, (4181, 2584), LATTICE_SHIFTS),
            (HypersurfacePencil.fermat(), 0.3, (4181, 2584), LATTICE_SHIFTS),
            (HypersurfacePencil.coordinate(), 1e-5, (17711, 10946), 3),
        ],
        ids=["coordinate-1e-5", "coordinate-0.3", "coordinate-1e-150", "fermat-0.3", "coordinate-1e-5-long-shifts"],
    )
    def test_matches_the_unblocked_route(self, pen, t, rule, n_shifts):
        # 16 shifts of 4181 points are five blocks of three shifts and a
        # short one; 3 shifts of 17711 points are six blocks, two per shift.
        a, b = pen.coefficients(pen.validate_t(t))
        ratio = abs(a / b)
        r_lo = min(ratio, 1.0 / ratio, 1.0) / 4.0
        shifts = np.random.default_rng(21).random((n_shifts, 2))
        args = (a, b, rule, shifts, r_lo, pen.has_tropical_edges)
        got = _sample_patch_route(*args, False)
        ref = reference_route(*args)
        assert len(list(_route_blocks(rule[0], n_shifts))) == 6
        assert got["failures"] == ref["failures"]
        assert got["n_points"] == ref["n_points"]
        if pen.has_tropical_edges:
            values, weights = np.concatenate(got["values"]), np.concatenate(got["weights"])
            assert values.size == ref["n_points"]
            np.testing.assert_allclose(values, ref["values"], rtol=0, atol=1e-12)
            np.testing.assert_allclose(weights, ref["weights"], rtol=1e-12)
        else:
            # A smooth fiber has no edge: the route keeps no points.
            assert got["values"] == got["weights"] == []
        np.testing.assert_allclose(got["sums"], ref["sums"], rtol=1e-12)

    @pytest.mark.parametrize("rule", [(987, 610), (17711, 10946)], ids=["short-shifts", "long-shifts"])
    def test_shift_sums_do_not_depend_on_the_split(self, rule):
        # A shard takes a contiguous run of shifts; each shift is summed in
        # the same pieces in every run, so the sums agree to the last bit.
        pen = HypersurfacePencil.coordinate()
        a, b = pen.coefficients(1e-5)
        shifts = np.random.default_rng(25).random((3, 2))
        args = (a, b, rule)
        rest = (pen.epsilon * 1e-5 / 4.0, True, False)
        whole = _sample_patch_route(*args, shifts, *rest)
        parts = [_sample_patch_route(*args, shifts[k:m], *rest) for k, m in ((0, 1), (1, 3))]
        np.testing.assert_array_equal(np.concatenate([p["sums"] for p in parts]), whole["sums"])
        for key in ("values", "weights"):
            np.testing.assert_array_equal(
                np.concatenate([x for p in parts for x in p[key]]), np.concatenate(whole[key])
            )

    @pytest.mark.parametrize("n_rule", [1, 987, 2584, TRIG_BLOCK, TRIG_BLOCK + 1, 28657])
    def test_blocks_cover_the_rows_in_whole_or_aligned_shifts(self, n_rule):
        blocks = list(_route_blocks(n_rule, 5))
        assert blocks[0].start == 0 and blocks[-1].stop == 5 * n_rule
        assert all(x.stop == y.start for x, y in zip(blocks, blocks[1:]))
        for block in blocks:
            assert 0 < block.stop - block.start <= TRIG_BLOCK
            first, last = block.start // n_rule, (block.stop - 1) // n_rule
            # Whole shifts, or a piece of one shift starting at a multiple of TRIG_BLOCK within it.
            assert block.start % n_rule == 0 and block.stop % n_rule == 0 or (
                first == last and (block.start - first * n_rule) % TRIG_BLOCK == 0
            )

    def test_residual_filter_counts_every_root_it_drops(self, monkeypatch):
        # Every other in-patch root is moved off by a relative 1e-6 and
        # recorded with its relative residual.  The tolerance sits in the
        # widest gap between those residuals, a factor of 100 or more, so
        # rounding cannot move a root across it: the filter must drop and
        # count exactly the roots above it, whatever the solver's last bit.
        pen = HypersurfacePencil.coordinate()
        a, b = pen.coefficients(1e-5)
        args = (a, b, (4181, 2584), np.random.default_rng(22).random((8, 2)), pen.epsilon * 1e-5 / 4.0, True, False)
        kept = _sample_patch_route(*args)
        solve = pencil._patch_roots
        residuals = []

        def moved_off(a_coeff, b_coeff, u):
            row, v = solve(a_coeff, b_coeff, u)
            v[::2] *= 1.0 + 1e-6
            residuals.append(relative_residual(a_coeff, b_coeff, u[row], v[:, None])[:, 0])
            return row, v

        monkeypatch.setattr(pencil, "_patch_roots", moved_off)
        _sample_patch_route(*args)
        recorded = np.concatenate(residuals)
        assert recorded.size == kept["n_points"]
        positive = np.sort(recorded[recorded > 0])
        gap = np.argmax(positive[1:] / positive[:-1])
        assert positive[gap + 1] >= 100 * positive[gap]
        tolerance = math.sqrt(positive[gap] * positive[gap + 1])
        above = int(np.count_nonzero(recorded > tolerance))
        assert 0.4 * recorded.size < above < 0.6 * recorded.size
        monkeypatch.setattr(pencil, "RESIDUAL_TOLERANCE", tolerance)
        dropped = _sample_patch_route(*args)
        assert kept["failures"] == 0
        assert dropped["failures"] == above
        assert dropped["failures"] + dropped["n_points"] == kept["n_points"]
        sizes = [sum(a.size for a in dropped[key]) for key in ("values", "weights")]
        assert sizes == [dropped["n_points"]] * 2

    def test_mirror_route_reports_the_reflected_coordinate(self):
        # The mirror route draws v and solves for u, which by the u <-> v
        # symmetry is the drawn route with each point reflected: on the same
        # shifts it gives the same weights and shift sums, and the edge
        # coordinate log|v| / log|uv| = 1 - log|u| / log|uv|.
        pen = HypersurfacePencil.coordinate()
        a, b = pen.coefficients(1e-5)
        args = (a, b, (4181, 2584), np.random.default_rng(24).random((8, 2)), pen.epsilon * 1e-5 / 4.0, True)
        drawn = _sample_patch_route(*args, False)
        mirror = _sample_patch_route(*args, True)
        for key in ("failures", "n_points"):
            assert mirror[key] == drawn[key]
        np.testing.assert_array_equal(mirror["sums"], drawn["sums"])
        np.testing.assert_array_equal(
            np.concatenate(mirror["weights"]), np.concatenate(drawn["weights"])
        )
        values = np.concatenate(drawn["values"])
        assert 0.1 < values.mean() < 0.9
        np.testing.assert_allclose(
            np.concatenate(mirror["values"]), 1.0 - values, rtol=0, atol=1e-12
        )

    def test_newton_roots_meet_the_residual_filter(self, monkeypatch):
        # Newton roots moved off by a relative 1e-8 fail the filter: they are
        # dropped and counted like Cardano's.
        pen = HypersurfacePencil.coordinate()
        a, b = pen.coefficients(1e-5)
        args = (a, b, (4181, 2584), np.random.default_rng(23).random((8, 2)), pen.epsilon * 1e-5 / 4.0, True, False)
        kept = _sample_patch_route(*args)
        solve = pencil._newton_patch_root

        def moved_off(p, q):
            v, converged = solve(p, q)
            return v * (1.0 + 1e-8), converged

        monkeypatch.setattr(pencil, "_newton_patch_root", moved_off)
        moved = _sample_patch_route(*args)
        assert kept["failures"] == 0
        assert moved["failures"] > 0.8 * kept["n_points"]
        assert moved["failures"] + moved["n_points"] == kept["n_points"]


@pytest.fixture(scope="module")
def run():
    return sample_pencil(HypersurfacePencil.coordinate(), 1e-5, 150_000, seed=11)


class TestCoordinatePencil:

    def test_edge_masses_equal_within_sigma(self, run):
        for i in range(3):
            for j in range(i + 1, 3):
                a, b = run.patches[i], run.patches[j]
                gap = abs(a.mass_raw - b.mass_raw)
                assert gap < 3 * math.hypot(a.stderr_raw, b.stderr_raw)

    def test_edge_uniformity_ks(self, run):
        for p in run.patches:
            assert p.ks_uniform is not None
            assert 0 < p.ks_uniform < 0.02

    @pytest.mark.parametrize("seed", [0, 1])
    def test_edge_law_is_uniform_at_a_million_draws(self, seed):
        # A budget of 1e6 buys 16 shifts of the 6765-point rule per route
        # (649,440 evaluations), and each edge keeps about 2.3e5 points.  At
        # 1e6 iid draws a mirror route reporting the drawn route's coordinate
        # weighted the edge law by twice its balance-heuristic share, and the
        # KS distance read 0.0035-0.0042 on every edge at these seeds.
        res = sample_pencil(HypersurfacePencil.coordinate(), 1e-5, 1_000_000, seed)
        for p in res.patches:
            assert p.ks_uniform < 0.002

    def test_edge_mass_matches_local_annulus(self, run):
        # Finite-t closed form: each edge sees the annulus u v ~ t eps, of
        # log-length log(1/(|t| eps)), so the normalized mass is
        # log(1/(t eps)) / log(1/t) up to o(1).
        expected = math.log(1.0 / (1e-5 * run.epsilon)) / math.log(1.0 / 1e-5)
        for p in run.patches:
            assert p.mass == pytest.approx(expected, abs=0.01)

    def test_no_root_failures_and_positive_points(self, run):
        assert run.n_failures == 0
        # Counts are Python ints, which reports and JSON writers take as they are.
        assert type(run.n_failures) is int
        assert all(type(p.n_points) is int for p in run.patches)
        for p in run.patches:
            assert p.n_points > 0
            assert p.hist_masses.sum() == pytest.approx(p.mass, rel=1e-9)

    def test_total_normalized_converges_to_limit_total(self):
        pen = HypersurfacePencil.coordinate()
        limit = assemble_limit_measure(coordinate_pencil_model(2)).total_mass
        vals = []
        for k in (3, 5, 7):
            t = 10.0**-k
            res = sample_pencil(pen, t, 60_000, seed=13)
            lam = 1.0 / math.log(1.0 / t)
            # nu_t / (2 pi log 1/|t|), the quantity converging to the limit mass.
            total = res.total_raw / (TWO_PI * math.log(1.0 / t))
            vals.append(total)
            assert abs(total - limit * (1.0 + lam * math.log(1.0 / pen.epsilon))) < 0.05
        assert vals[0] > vals[1] > vals[2]
        assert abs(vals[-1] - limit) < 0.5

    def test_limit_total_matches_skeletal_measure(self):
        measure = assemble_limit_measure(coordinate_pencil_model(2))
        assert measure.total_mass == pytest.approx(3.0)

    def test_determinism(self):
        # Each route draws its 16 shifts up front, and a shard takes a
        # contiguous run of them: neither shards nor threads move a bit.
        pen = HypersurfacePencil.coordinate()
        a = sample_pencil(pen, 1e-4, 20_000, seed=5)
        b = sample_pencil(pen, 1e-4, 20_000, seed=5)
        assert a.total_raw == b.total_raw
        c = sample_pencil(pen, 1e-4, 20_000, seed=5, shards=2, threads=2)
        d = sample_pencil(pen, 1e-4, 20_000, seed=5, shards=2)
        for res in (b, c, d):
            assert res.n_failures == a.n_failures
            for p, q in zip(a.patches, res.patches):
                assert (q.mass_raw, q.stderr_raw, q.ks_uniform, q.n_points) == (
                    p.mass_raw,
                    p.stderr_raw,
                    p.ks_uniform,
                    p.n_points,
                )
                assert np.array_equal(q.hist_masses, p.hist_masses)

    def test_threads_change_nothing_at_one_shard(self):
        # The verify path: default shards, each patch's two routes spread over threads.
        pen = HypersurfacePencil.coordinate()
        one = sample_pencil(pen, 1e-4, 20_000, seed=5, bins=25)
        for threads in (2, 3):
            two = sample_pencil(pen, 1e-4, 20_000, seed=5, bins=25, threads=threads)
            assert two.n_failures == one.n_failures
            for a, b in zip(one.patches, two.patches):
                assert (b.mass, b.stderr, b.ks_uniform, b.n_points) == (
                    a.mass,
                    a.stderr,
                    a.ks_uniform,
                    a.n_points,
                )
                assert np.array_equal(b.hist_masses, a.hist_masses)

    def test_holds_one_patch_at_a_time(self):
        # One patch's points (16 bytes each, about n_samples / 3 of them;
        # n_samples = 401,376 here) and one block's temporaries: 4.9 MiB,
        # 5.6 MiB on the first call in a process (numpy 2.4.6, x86-64).  It
        # was 10.0 and 10.8 MiB when a route held its uniforms and per-draw
        # sums (24 bytes per draw, n draws in all), 12.9 and 13.6 MiB when a
        # block's temporaries lived on while the next block allocated its
        # own, 15.5 MiB when a route held 40 bytes per draw and solved all
        # three roots of every draw, and 21.1 MiB when the points of all six
        # routes were held until the end.
        n = 600_000
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            res = sample_pencil(HypersurfacePencil.coordinate(), 1e-5, n, seed=1)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert all(p.n_points > res.n_samples / 4 for p in res.patches)
        assert peak <= 11 * n

    def test_phase_near_invariance(self):
        # Unlike the monomial models, the pencil fiber volume depends on
        # arg t -- but only at order |t|, far below the leading log term.
        pen = HypersurfacePencil.coordinate()
        a = sample_pencil(pen, 1e-4, 20_000, seed=5)
        b = sample_pencil(pen, 1e-4 * np.exp(0.9j), 20_000, seed=5)
        assert b.total_raw == pytest.approx(a.total_raw, rel=1e-3)


class TestFermatPencil:
    def test_mass_constant_no_log_growth(self):
        pen = HypersurfacePencil.fermat()
        r2 = sample_pencil(pen, 1e-2, 60_000, seed=7)
        r7 = sample_pencil(pen, 1e-7, 60_000, seed=8)
        assert r2.n_failures == 0
        gap = abs(r2.total_raw - r7.total_raw)
        assert gap < 3 * math.hypot(r2.total_raw_stderr, r7.total_raw_stderr)
        assert r2.total_raw > 1.0

    def test_fit_shows_no_logarithm(self):
        pen = HypersurfacePencil.fermat()
        pts = [
            (10.0**-k, sample_pencil(pen, 10.0**-k, 30_000, seed=k).total_raw)
            for k in range(2, 8)
        ]
        fit = fit_mass_asymptotics(pts)
        assert fit.d_hat == 0
        assert fit.confident
        assert abs(fit.kappa_min_hat) < 0.01
        assert fit.c_hat > 1.0

    def test_no_ks_for_smooth_fibers(self):
        # A smooth fiber has no edge: no edge coordinate is kept or binned.
        res = sample_pencil(HypersurfacePencil.fermat(), 1e-3, 20_000, seed=1)
        for p in res.patches:
            assert p.ks_uniform is None
            assert p.n_points > 0
            assert p.hist_masses.size == p.hist_edges.size == 0

    def test_mass_matches_elliptic_period_oracle(self):
        # At t = 0 the fiber is the Fermat cubic 1 + u^3 + v^3 = 0, which maps
        # to the j = 0 curve y^2 = x^3 - 432 by x = -12/(u+v), y = 36(u-v)/(u+v)
        # with dx/y = -du/F_v exactly.  The total measure is therefore the
        # covolume of the hexagonal period lattice: Omega^2 * sqrt(3)/2 with
        # real period Omega = (2/3) * 432**(-1/6) * B(1/6, 1/2).
        omega = (
            (2.0 / 3.0)
            * 432.0 ** (-1.0 / 6.0)
            * math.gamma(1.0 / 6.0)
            * math.gamma(0.5)
            / math.gamma(2.0 / 3.0)
        )
        covolume = omega * omega * math.sqrt(3.0) / 2.0
        assert covolume == pytest.approx(2.7028760880, abs=1e-9)
        res = sample_pencil(HypersurfacePencil.fermat(), 1e-3, 100_000, seed=2)
        assert abs(res.total_raw - covolume) < 4 * res.total_raw_stderr
        assert abs(res.total_raw - covolume) / covolume < 0.02

"""Exact checks for weighted-simplex volumes, indices and chart densities."""

from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import combinations, permutations, product

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from tropmass import basechange, lattice
from tropmass.lattice import (
    ZSimplex,
    _bezout,
    _kernel_basis,
    chart_volume,
    lattice_index,
    normalized_density_chart,
    simplex_volume,
    sublattice_index,
)
from tropmass.basechange import face_base_change
from tropmass.measure import MonomialChartMetric
from tropmass.model import Component, ModelError
from tropmass.skeleton import SkeletonError, TopCell

multiplicity_vectors = st.lists(st.integers(1, 9), min_size=1, max_size=5).map(tuple)


@st.composite
def generator_matrices(draw):
    """Integer matrices of 0-7 rows and 1-4 columns, entries in [-20, 20].

    Rows are drawn from a pool that holds the zero row, so zero and repeated
    rows are common.
    """
    n = draw(st.integers(1, 4))
    pool = draw(st.lists(st.lists(st.integers(-20, 20), min_size=n, max_size=n), min_size=1, max_size=7))
    rows = draw(st.lists(st.sampled_from([[0] * n, *pool]), max_size=7))
    return rows, n


def leibniz_det(matrix) -> int:
    """Determinant by the Leibniz sum over permutations."""
    n = len(matrix)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * math.prod(matrix[i][perm[i]] for i in range(n))
    return total


class TestSimplexVolume:
    def test_unit_segment(self):
        assert simplex_volume((1, 1)) == 1

    def test_coprime_segment(self):
        assert simplex_volume((2, 3)) == Fraction(1, 6)

    def test_doubled_segment(self):
        assert simplex_volume((2, 2)) == Fraction(1, 2)

    def test_triangle(self):
        assert simplex_volume((6, 10, 15)) == Fraction(1, 1800)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            simplex_volume(())

    def test_rejects_zero_multiplicity(self):
        with pytest.raises(ValueError):
            simplex_volume((1, 0))

    @given(multiplicity_vectors)
    def test_permutation_invariance(self, b):
        assert simplex_volume(b) == simplex_volume(tuple(reversed(b)))
        assert simplex_volume(b) == simplex_volume(tuple(sorted(b)))

    @given(multiplicity_vectors)
    def test_closed_form(self, b):
        p = len(b) - 1
        g = math.gcd(*b)
        assert simplex_volume(b) == Fraction(g, math.factorial(p) * math.prod(b))


class TestLatticeIndex:
    def test_unit_segment(self):
        assert lattice_index((1, 1)) == 1

    def test_coprime_segment(self):
        assert lattice_index((2, 3)) == 6

    def test_non_coprime_triangle(self):
        # Confirmed by the normal-form computation itself: prod/gcd = 16/2.
        assert lattice_index((2, 2, 4)) == 8

    def test_point(self):
        assert lattice_index((5,)) == 1

    def test_identity_with_volume_exhaustive(self):
        # Vol(b) * index(b) = 1/p! for every b with entries <= 6, length <= 4.
        for n in (1, 2, 3, 4):
            for b in product(range(1, 7), repeat=n):
                p = n - 1
                assert simplex_volume(b) * lattice_index(b) == Fraction(
                    1, math.factorial(p)
                ), b

    @given(multiplicity_vectors)
    def test_matches_product_formula(self, b):
        assert lattice_index(b) == math.prod(b) // math.gcd(*b)

    def test_identity_with_volume_on_the_length_five_grid(self):
        # All 3,125 vectors of length 5 with entries <= 5, a domain the
        # lattice suite does not reach.
        for b in product(range(1, 6), repeat=5):
            assert simplex_volume(b) * lattice_index(b) == Fraction(1, 24), b

    def test_each_call_computes_its_normal_form(self, monkeypatch):
        # Nothing is memoized: a repeated vector runs the elimination again.
        calls = []
        real = lattice.sublattice_index
        monkeypatch.setattr(lattice, "sublattice_index", lambda gens, n: calls.append(n) or real(gens, n))
        assert lattice_index((2, 3, 4)) == lattice_index((2, 3, 4)) == 24
        assert calls == [2, 2]


@pytest.mark.parametrize("module", [lattice, basechange])
def test_exact_modules_hold_no_cache(module):
    for name, value in vars(module).items():
        if not name.startswith("__"):
            assert not isinstance(value, dict), name
            assert not hasattr(value, "cache_info"), name


class TestKernelBasis:
    # `_kernel_basis` takes a checked vector; bad vectors are refused by its
    # caller `lattice_index` (see `MULTIPLICITY_SITES`).
    @given(multiplicity_vectors)
    def test_basis_vectors_lie_in_kernel(self, b):
        for v in _kernel_basis(b):
            assert sum(bi * vi for bi, vi in zip(b, v)) == 0

    @given(multiplicity_vectors)
    def test_rank(self, b):
        assert len(_kernel_basis(b)) == len(b) - 1

    def test_primitive_for_doubled_segment(self):
        # Kernel of (2, 2) is Z(1, -1), not Z(2, -2).
        (v,) = _kernel_basis((2, 2))
        assert math.gcd(*v) == 1


class TestNormalizedDensityChart:
    def test_unit_segment(self):
        assert normalized_density_chart((1, 1)) == 1

    def test_segment_one_two(self):
        # Chart region w_1 in [0, 1/2]; density 1 times length 1/2 gives Vol.
        assert normalized_density_chart((1, 2)) == 1
        assert normalized_density_chart((1, 2)) * chart_volume((1, 2)) == simplex_volume((1, 2))

    def test_doubled_segment_consistency(self):
        # Pinned by the invariant density * chart volume == volume.
        b = (2, 2)
        d = normalized_density_chart(b)
        assert d * chart_volume(b) == simplex_volume(b)
        assert d == 1

    def test_depends_on_dropped_coordinate(self):
        assert normalized_density_chart((4, 2), drop=0) == Fraction(1, 2)
        assert normalized_density_chart((4, 2), drop=1) == 1

    @given(multiplicity_vectors, st.integers(0, 4))
    def test_consistency_invariant(self, b, drop):
        drop = drop % len(b)
        assert normalized_density_chart(b, drop) * chart_volume(b, drop) == simplex_volume(b)


class TestSublatticeIndex:
    def test_diagonal(self):
        assert sublattice_index([[2, 0], [0, 3]], 2) == 6

    def test_row_operations_do_not_change_index(self):
        assert sublattice_index([[2, 1], [0, 3]], 2) == 6
        assert sublattice_index([[2, 1], [2, 4], [4, 5]], 2) == 6

    def test_superlattice_relation(self):
        # index of m Z^n + Z b equals m^n * gcd(m, gcd(b)) / m.
        for b, m in [((2, 3), 5), ((2, 2, 4), 4), ((3, 6), 6), ((1, 1), 7)]:
            n = len(b)
            gens = [[m if i == j else 0 for j in range(n)] for i in range(n)]
            gens.append(list(b))
            idx = sublattice_index(gens, n)
            g = math.gcd(m, math.gcd(*b))
            assert idx == m**n * g // m, (b, m)

    def test_rejects_rank_deficient(self):
        with pytest.raises(ValueError):
            sublattice_index([[1, 2]], 2)

    @pytest.mark.parametrize("bad", [2.7, 2.0, "3", True])
    def test_rejects_a_non_integer_entry(self, bad):
        with pytest.raises(ValueError, match=f"generator entry {re.escape(repr(bad))} is not an integer"):
            sublattice_index([[bad, 0], [0, 1]], 2)

    def test_numpy_integers_pass(self):
        index = sublattice_index([[np.int64(2), np.int32(0)], [np.int16(0), np.int64(3)]], 2)
        assert repr(index) == "6"

    @given(generator_matrices())
    def test_index_is_gcd_of_maximal_minors(self, case):
        rows, n = case
        minors = math.gcd(*(leibniz_det(sub) for sub in combinations(rows, n)))
        if minors == 0:
            with pytest.raises(ValueError, match="finite-index"):
                sublattice_index(rows, n)
        else:
            assert sublattice_index(rows, n) == minors


class TestBezout:
    @given(st.integers(), st.integers())
    @example(4, -6)
    @example(0, 0)
    @example(0, -5)
    def test_coefficients_of_the_non_negative_gcd(self, a, c):
        s, t = _bezout(a, c)
        assert s * a + t * c == math.gcd(a, c)


class TestZSimplex:
    def test_validation(self):
        s = ZSimplex((2, 4, 6))
        assert (s.dim, s.multiplicity) == (2, 2)
        with pytest.raises(ValueError):
            ZSimplex((0, 1))


# Every place that takes a multiplicity applies the one rule of
# `lattice._multiplicity`; each site maps x to what it keeps of (x, 3), or
# of x for the base-change order m.
MULTIPLICITY_SITES = {
    "ZSimplex": (lambda x: ZSimplex((x, 3)).b, ValueError),
    "simplex_volume": (lambda x: simplex_volume((x, 3)), ValueError),
    "lattice_index": (lambda x: lattice_index((x, 3)), ValueError),
    "MonomialChartMetric": (lambda x: MonomialChartMetric(b=(x, 3), a=(0, 0)).b, ValueError),
    "face_base_change": (lambda x: face_base_change((x, 3), 2).b, ValueError),
    "face_base_change m": (lambda x: face_base_change((2, 3), x).m, ValueError),
    "TopCell": (lambda x: TopCell("c", ("u", "v"), (x, 3)).multiplicities, SkeletonError),
    "Component": (lambda x: (Component("E0", x).b, 3), ModelError),
}


class TestMultiplicityRule:
    @pytest.mark.parametrize("site", MULTIPLICITY_SITES)
    @pytest.mark.parametrize("x", [1.5, True, 2.0, 0])
    def test_refused(self, site, x):
        build, error = MULTIPLICITY_SITES[site]
        with pytest.raises(error):
            build(x)

    @pytest.mark.parametrize("site", MULTIPLICITY_SITES)
    def test_numpy_integer_taken_as_int(self, site):
        build, _ = MULTIPLICITY_SITES[site]
        # repr tells an int from np.int64 (numpy 2 prints "np.int64(2)").
        assert repr(build(np.int64(2))) == repr(build(2))

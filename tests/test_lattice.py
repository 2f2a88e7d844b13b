"""Exact checks for weighted-simplex volumes, indices and chart densities."""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tropmass.lattice import (
    ZSimplex,
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


class TestZSimplex:
    def test_validation(self):
        s = ZSimplex((2, 4, 6))
        assert (s.dim, s.multiplicity) == (2, 2)
        with pytest.raises(ValueError):
            ZSimplex((0, 1))


# Every place that takes a multiplicity applies the one rule of
# `lattice.multiplicity`; each site maps x to what it keeps of (x, 3).
MULTIPLICITY_SITES = {
    "ZSimplex": (lambda x: ZSimplex((x, 3)).b, ValueError),
    "simplex_volume": (lambda x: simplex_volume((x, 3)), ValueError),
    "lattice_index": (lambda x: lattice_index((x, 3)), ValueError),
    "MonomialChartMetric": (lambda x: MonomialChartMetric(b=(x, 3), a=(0, 0)).b, ValueError),
    "face_base_change": (lambda x: face_base_change((x, 3), 2).b, ValueError),
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

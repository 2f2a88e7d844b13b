"""Finite base-change arithmetic: splitting degrees, volume/residual scaling, pushforward."""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tropmass import basechange
from tropmass.basechange import (
    face_base_change,
    model_base_change,
    pushforward_identity_check,
)
from tropmass.lattice import simplex_volume
from tropmass.measure import assemble_limit_measure
from tropmass.model import Component, Stratum, WeightedSncModel, annulus, coordinate_pencil


def edge_model(b0, b1, a0=0, a1=0):
    return WeightedSncModel(
        components=(Component("E0", b0, Fraction(a0)), Component("E1", b1, Fraction(a1))),
        strata=(Stratum(("E0",)), Stratum(("E1",)), Stratum(("E0", "E1"))),
    )


class TestFaceBaseChange:
    def test_doubled_edge_order_two(self):
        r = face_base_change((2, 2), 2)
        assert (r.e, r.fg, r.g, r.f, r.b_prime) == (1, 2, 2, 1, 1)
        assert r.volume_scale == 2
        assert r.residual_scale == Fraction(1, 4)
        assert r.consistent

    @pytest.mark.parametrize(
        "broken, halves", [({"g": 2}, (False, True)), ({"e_lattice_check": 0}, (True, False))]
    )
    def test_consistent_is_both_halves(self, broken, halves):
        r = dataclasses.replace(face_base_change((2, 3), 3), **broken)
        assert (r.splits, r.index_agrees) == halves
        assert not r.consistent

    def test_coprime_point(self):
        r = face_base_change((3,), 2)
        assert (r.e, r.fg, r.b_prime) == (2, 1, 3)

    def test_semistable(self):
        for m in (1, 2, 5):
            r = face_base_change((1, 1, 1), m)
            assert (r.e, r.fg, r.b_prime) == (m, 1, 1)
            assert r.volume_scale == m**2

    def test_efg_product_grid(self):
        for b0, b1, m in product(range(1, 7), range(1, 7), range(1, 13)):
            r = face_base_change((b0, b1), m)
            assert r.e * r.f * r.g == m
            assert r.e == r.e_lattice_check

    @given(
        st.lists(st.integers(1, 9), min_size=1, max_size=4),
        st.integers(1, 12),
    )
    def test_lattice_cross_check(self, b, m):
        r = face_base_change(tuple(b), m)
        assert r.e == r.e_lattice_check == m // math.gcd(m, math.gcd(*b))

    def test_volume_scaling_via_chart(self):
        # The pulled-back simplex is the m-fold dilation: its chart image
        # scales by m^p while the chart density is unchanged.
        from tropmass.lattice import chart_volume, normalized_density_chart

        for b, m in [((2, 2), 2), ((2, 3), 6), ((1, 2, 3), 4)]:
            p = len(b) - 1
            dil = Fraction(m) ** p * chart_volume(b) * normalized_density_chart(b)
            r = face_base_change(b, m)
            assert dil == r.volume_scale * simplex_volume(b)


class TestModelBaseChange:
    def test_table_rows(self):
        report = model_base_change(coordinate_pencil(2), 3)
        rows = report.rows()
        assert len(rows) == 6
        assert all(r["e"] == 3 and r["fg"] == 1 for r in rows)


class TestPushforwardIdentity:
    def test_reduced_face_trivial(self):
        measure = assemble_limit_measure(annulus(), {"E0&E1": 1.0})
        check = pushforward_identity_check(measure, 5)
        assert (check.m, check.d, check.passed) == (5, 1, True)

    def test_doubled_edge_worked_example(self):
        # One upstairs face per gcd: g = 2 faces of multiplicity b' = 1, each
        # with residual scale 1/4, so g * (1/4) / b' = 1/2 = 1 / b.
        r = face_base_change((2, 2), 2)
        assert (r.g, r.residual_scale, r.b_prime) == (2, Fraction(1, 4), 1)
        measure = assemble_limit_measure(edge_model(2, 2), {"E0&E1": 1.0})
        assert pushforward_identity_check(measure, 2).passed

    @pytest.mark.parametrize(
        "field, wrong",
        [("residual_scale", Fraction(1, 2)), ("b_prime", 2)],
    )
    def test_wrong_base_change_fails(self, monkeypatch, field, wrong):
        # The identity reads g, f, residual_scale and b_prime of each face's
        # report; one wrong entry must make it fail.
        real = basechange.face_base_change

        def broken(b, m):
            return dataclasses.replace(real(b, m), **{field: wrong})

        monkeypatch.setattr(basechange, "face_base_change", broken)
        measure = assemble_limit_measure(edge_model(2, 2), {"E0&E1": 1.0})
        assert not pushforward_identity_check(measure, 2).passed

    def test_exhaustive_grid(self):
        for b0, b1, m in product(range(1, 5), range(1, 5), range(1, 7)):
            measure = assemble_limit_measure(edge_model(b0, b1), {"E0&E1": 1.0})
            assert pushforward_identity_check(measure, m).passed, (b0, b1, m)

    @given(st.integers(1, 9), st.integers(1, 9), st.integers(1, 12))
    def test_identity_property(self, b0, b1, m):
        measure = assemble_limit_measure(edge_model(b0, b1), {"E0&E1": 1.0})
        assert pushforward_identity_check(measure, m).passed

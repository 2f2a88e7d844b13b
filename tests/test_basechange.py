"""Finite base-change arithmetic: splitting degrees, volume/residual scaling, pushforward."""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction
from itertools import product
from unittest import mock

import numpy as np
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
from tropmass.model import Component, Stratum, WeightedSncModel, annulus, coordinate_pencil, simplex_model

# The report fields the upstairs side of the pushforward identity reads.
PUSHFORWARD_FIELDS = ("g", "f", "residual_scale", "b_prime", "volume_scale")


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

    @pytest.mark.parametrize("m", [True, 2.0, 2.5, math.inf, math.nan, "3", 0, -1])
    def test_rejects_a_bad_order(self, m):
        with pytest.raises(ValueError, match="^base-change order m "):
            face_base_change((2, 3), m)

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

    def test_order_taken_by_the_multiplicity_rule(self):
        measure = assemble_limit_measure(edge_model(2, 2), {"E0&E1": 1.0})
        assert pushforward_identity_check(measure, np.int64(2)).passed
        with pytest.raises(ValueError, match="^base-change order m 2.0 is not an integer$"):
            pushforward_identity_check(measure, 2.0)

    def test_doubled_edge_worked_example(self):
        # One upstairs face per gcd: g = 2 faces of multiplicity b' = 1, each
        # with residual scale 1/4, so g * (1/4) / b' = 1/2 = 1 / b.
        r = face_base_change((2, 2), 2)
        assert (r.g, r.residual_scale, r.b_prime) == (2, Fraction(1, 4), 1)
        measure = assemble_limit_measure(edge_model(2, 2), {"E0&E1": 1.0})
        assert pushforward_identity_check(measure, 2).passed

    @pytest.mark.parametrize(
        "field, wrong",
        [("residual_scale", Fraction(1, 2)), ("b_prime", 2), ("volume_scale", 12345), ("g", 1), ("f", 2)],
    )
    def test_wrong_base_change_fails(self, monkeypatch, field, wrong):
        # The identity reads g, f, residual_scale, b_prime and volume_scale of
        # each face's report; one wrong entry must make it fail, and the check
        # returns the reports it read.
        real = basechange.face_base_change

        def broken(b, m):
            return dataclasses.replace(real(b, m), **{field: wrong})

        monkeypatch.setattr(basechange, "face_base_change", broken)
        measure = assemble_limit_measure(edge_model(2, 2), {"E0&E1": 1.0})
        check = pushforward_identity_check(measure, 2)
        assert not check.passed
        assert check.faces == tuple(broken(e.face.simplex.b, 2) for e in measure.entries)

    def test_faces_are_the_reports_in_entry_order(self):
        # The triangle's boundary: three top edges with three different b.
        measure = assemble_limit_measure(simplex_model((1, 2, 3), boundary=True))
        check = pushforward_identity_check(measure, 6)
        assert check.passed
        assert [r.b for r in check.faces] == [(1, 2), (1, 3), (2, 3)]
        assert check.faces == tuple(face_base_change(e.face.simplex.b, 6) for e in measure.entries)

    def test_exhaustive_grid(self):
        for b0, b1, m in product(range(1, 5), range(1, 5), range(1, 7)):
            measure = assemble_limit_measure(edge_model(b0, b1), {"E0&E1": 1.0})
            assert pushforward_identity_check(measure, m).passed, (b0, b1, m)

    @given(st.integers(1, 9), st.integers(1, 9), st.integers(1, 12))
    def test_identity_property(self, b0, b1, m):
        measure = assemble_limit_measure(edge_model(b0, b1), {"E0&E1": 1.0})
        assert pushforward_identity_check(measure, m).passed

    @given(
        st.lists(
            st.tuples(st.integers(1, 12), st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)])),
            min_size=1,
            max_size=4,
        ),
        st.integers(1, 24),
        st.sampled_from(PUSHFORWARD_FIELDS),
        st.integers(1, 50),
    )
    def test_simplex_models_read_every_field(self, ba, m, field, shift):
        # The weights pick the top active face, so its dimension varies with
        # them; each of the five fields, moved off its value in every report,
        # breaks the identity.
        b, a = zip(*ba)
        measure = assemble_limit_measure(simplex_model(b, a))
        check = pushforward_identity_check(measure, m)
        assert check.passed
        assert len(check.faces) == len(measure.entries)
        real = basechange.face_base_change

        def broken(bb, mm):
            r = real(bb, mm)
            return dataclasses.replace(r, **{field: getattr(r, field) + shift})

        with mock.patch.object(basechange, "face_base_change", broken):
            assert not pushforward_identity_check(measure, m).passed

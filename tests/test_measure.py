"""Closed-form residual masses and skeletal-measure assembly."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tropmass.basechange import pushforward_identity_check
from tropmass.measure import (
    MonomialChartMetric,
    assemble_limit_measure,
    predicted_mass_asymptotics,
    residual_mass_closed_form,
)
from tropmass.model import annulus, coordinate_pencil, fermat_smooth, ModelError, simplex_model


class TestMonomialChartMetric:
    def test_defaults(self):
        ch = MonomialChartMetric(b=(1, 1), a=(Fraction(0), Fraction(1)))
        assert ch.p == 1
        assert ch.kappa == (0, 1)
        assert ch.kappa_min == 0
        assert ch.exponents() == (0, 1)
        assert ch.active_indices() == (0,)
        assert ch.active_dim == 0

    def test_rescaled_at_its_own_least_slope(self):
        # The exponents are a_i - kappa_min b_i: zero on the active face,
        # which is never empty, and positive off it.
        for b, a, active, mass in [
            ((2,), (1,), (0,), 1.0),
            ((1, 1), (Fraction(1, 2), Fraction(1, 2)), (0, 1), 1.0),
            ((1, 2), (Fraction(1, 2), 2), (0,), math.pi),
        ]:
            ch = MonomialChartMetric(b=b, a=a)
            assert ch.active_indices() == active
            assert ch.active_dim == len(active) - 1
            assert all((e == 0) == (i in active) and e >= 0 for i, e in enumerate(ch.exponents()))
            assert residual_mass_closed_form(ch) == pytest.approx(mass, rel=1e-15)


class TestResidualMassClosedForm:
    def test_disc_with_weight_one_coordinate(self):
        # One active and one nonactive coordinate with unit exponent: the
        # nonactive disc integral is pi, absorbed as (2 pi) * 1/2.
        ch = MonomialChartMetric(b=(1, 1), a=(Fraction(0), Fraction(1)))
        assert residual_mass_closed_form(ch) == pytest.approx(math.pi, rel=1e-15)

    def test_fully_active_chart_is_unit(self):
        ch = MonomialChartMetric(b=(1, 2), a=(Fraction(0), Fraction(0)))
        assert residual_mass_closed_form(ch) == 1.0

    def test_oracle_direct_disc_integral(self):
        # Independent oracle: mass of |z|^(2e - 2) over the unit disc is
        # 2 pi / (2e), computed here by numeric quadrature.
        e = 2.0
        steps = 200_000
        h = 1.0 / steps
        acc = sum((i + 0.5) * h * ((i + 0.5) * h) ** (2 * e - 2) for i in range(steps)) * h
        direct = 2 * math.pi * acc
        ch = MonomialChartMetric(b=(1, 1), a=(0, 2))
        assert residual_mass_closed_form(ch) == pytest.approx(direct, rel=1e-6)


class TestAssembleLimitMeasure:
    def test_annulus_unit_mass(self):
        measure = assemble_limit_measure(annulus(), {"E0&E1": 1.0})
        assert measure.total_mass == 1.0
        assert measure.d == 1

    def test_total_mass_past_the_float_range_is_inf(self):
        measure = assemble_limit_measure(coordinate_pencil(2), {f: 1e308 for f in ("E0&E1", "E0&E2", "E1&E2")})
        assert measure.total_mass == math.inf
        assert measure.to_json()["total_mass"] == math.inf
        assert all(pushforward_identity_check(measure, m).passed for m in (1, 2, 6))

    def test_weighted_edge(self):
        from tropmass.model import Component, Stratum, WeightedSncModel

        m = WeightedSncModel(
            components=(Component("E0", 1), Component("E1", 2)),
            strata=(Stratum(("E0",)), Stratum(("E1",)), Stratum(("E0", "E1"))),
        )
        measure = assemble_limit_measure(m, {"E0&E1": 1.0})
        assert measure.total_mass == pytest.approx(0.5)

    def test_triangle_symmetry(self):
        m = coordinate_pencil(2)
        measure = assemble_limit_measure(m, {f: 2.5 for f in ("E0&E1", "E0&E2", "E1&E2")})
        weights = [e.weight for e in measure.entries]
        assert len(weights) == 3
        assert all(w == weights[0] for w in weights)

    def test_missing_top_face(self):
        with pytest.raises(ModelError, match="missing residual mass"):
            assemble_limit_measure(coordinate_pencil(2), {"E0&E1": 1.0})

    def test_lower_dimensional_masses_ignored(self):
        measure = assemble_limit_measure(annulus(), {"E0&E1": 2.0, "E0": 7.0})
        assert measure.total_mass == pytest.approx(2.0)

    def test_unknown_face_rejected(self):
        with pytest.raises(ModelError):
            assemble_limit_measure(annulus(), {"E0&E5": 1.0})

    def test_face_named_twice_rejected(self):
        with pytest.raises(ModelError, match="given twice"):
            assemble_limit_measure(annulus(), {"E0&E1": 1.0, "E1 & E0": 2.0})

    def test_inactive_face_rejected(self):
        # a = (0, 1): only the vertex E0 is active, not the edge.
        m = simplex_model((1, 1), (Fraction(0), Fraction(1)))
        with pytest.raises(ModelError, match="not in the active subcomplex"):
            assemble_limit_measure(m, {"E0": 1.0, "E0&E1": 1.0})

    def test_default_unit_masses(self):
        measure = assemble_limit_measure(coordinate_pencil(2))
        assert measure.total_mass == pytest.approx(3.0)

    @given(st.floats(0, 10), st.floats(0, 10))
    def test_additive_and_homogeneous(self, r1, r2):
        m = annulus()
        total = lambda r: assemble_limit_measure(m, {"E0&E1": r}).total_mass
        assert total(r1 + r2) == pytest.approx(total(r1) + total(r2))
        assert total(3 * r1) == pytest.approx(3 * total(r1))

    def test_serialization_roundtrip(self, tmp_path):
        import csv as _csv
        import json

        from tropmass.cli import write_csv

        measure = assemble_limit_measure(coordinate_pencil(2))
        write_csv(tmp_path / "m.csv", measure.to_rows())
        with (tmp_path / "m.csv").open(newline="") as fh:
            rows = list(_csv.DictReader(fh))
        assert len(rows) == 3
        assert rows[0]["b_sigma"] == "1"
        payload = measure.to_json()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["total_mass"] == pytest.approx(3.0)
        assert len(payload["entries"]) == 3

    def test_csv_deterministic(self, tmp_path):
        from tropmass.cli import write_csv

        measure = assemble_limit_measure(coordinate_pencil(2))
        write_csv(tmp_path / "a.csv", measure.to_rows())
        write_csv(tmp_path / "b.csv", measure.to_rows())
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


class TestPredictedMassAsymptotics:
    def test_annulus(self):
        pred = predicted_mass_asymptotics(annulus(), {"E0&E1": 1.0})
        assert pred["kappa_min"] == 0
        assert pred["d"] == 1
        assert pred["c"] == pytest.approx(2 * math.pi)

    def test_fermat_smooth(self):
        pred = predicted_mass_asymptotics(fermat_smooth(), {"X0": 4.2})
        assert pred["kappa_min"] == 0
        assert pred["d"] == 0
        assert pred["c"] == pytest.approx(4.2)

    def test_disc_chart_model(self):
        # Model analog of the chart b=(1,1), a=(0,1): active part is the
        # vertex E0, residual mass pi from the closed form.
        from tropmass.model import Component, Stratum, WeightedSncModel

        m = WeightedSncModel(
            components=(Component("E0", 1, Fraction(0)), Component("E1", 1, Fraction(1))),
            strata=(Stratum(("E0",)), Stratum(("E1",)), Stratum(("E0", "E1"))),
        )
        ch = MonomialChartMetric(b=(1, 1), a=(Fraction(0), Fraction(1)))
        pred = predicted_mass_asymptotics(m, {"E0": residual_mass_closed_form(ch)})
        assert pred["kappa_min"] == 0
        assert pred["d"] == 0
        assert pred["c"] == pytest.approx(math.pi)

"""Closed-form residual masses and skeletal-measure assembly."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tropmass.measure import (
    DivergenceError,
    MonomialChartMetric,
    assemble_limit_measure,
    predicted_mass_asymptotics,
    residual_mass_closed_form,
)
from tropmass.model import annulus, coordinate_pencil, fermat_smooth, ModelError


class TestMonomialChartMetric:
    def test_defaults(self):
        ch = MonomialChartMetric(b=(1, 1), a=(Fraction(0), Fraction(1)))
        assert ch.p == 1
        assert ch.kappa == (0, 1)
        assert ch.kappa_ref == 0
        assert ch.active_indices() == (0,)
        assert ch.active_dim == 0

    def test_kappa_ref_below_local_min(self):
        ch = MonomialChartMetric(b=(2,), a=(Fraction(1),), kappa_ref=Fraction(0))
        assert ch.active_indices() == ()
        assert ch.active_dim == -1

    def test_kappa_ref_above_local_min_rejected(self):
        with pytest.raises(ValueError, match="kappa_ref"):
            MonomialChartMetric(b=(1,), a=(Fraction(0),), kappa_ref=Fraction(1))

    def test_radii_validation(self):
        with pytest.raises(ValueError):
            MonomialChartMetric(b=(1,), a=(0,), radii=(1.5,))


class TestResidualMassClosedForm:
    def test_disc_with_weight_one_coordinate(self):
        # One active and one nonactive coordinate with unit exponent: the
        # nonactive disc integral is pi, absorbed as (2 pi) * 1/2.
        ch = MonomialChartMetric(b=(1, 1), a=(Fraction(0), Fraction(1)))
        assert residual_mass_closed_form(ch, 0) == pytest.approx(math.pi, rel=1e-15)

    def test_fully_active_chart_is_unit(self):
        ch = MonomialChartMetric(b=(1, 2), a=(Fraction(0), Fraction(0)))
        assert residual_mass_closed_form(ch, 1) == 1.0

    def test_transverse_disc(self):
        ch = MonomialChartMetric(b=(1,), a=(Fraction(0),), transverse_dim=1)
        assert residual_mass_closed_form(ch, 0) == pytest.approx(math.pi, rel=1e-15)

    def test_pair_exponent_shrinks_disc_mass(self):
        ch = MonomialChartMetric(
            b=(1,),
            a=(Fraction(0),),
            transverse_dim=1,
            pair_exponents=(Fraction(1, 2),),
        )
        assert residual_mass_closed_form(ch) == pytest.approx(2 * math.pi, rel=1e-15)

    def test_radius_dependence(self):
        ch = MonomialChartMetric(b=(1, 1), a=(0, 1), radii=(1.0, 0.5))
        assert residual_mass_closed_form(ch) == pytest.approx(
            2 * math.pi * 0.5**2 / 2, rel=1e-15
        )

    def test_divergent_pair_exponent(self):
        ch = MonomialChartMetric(
            b=(1,), a=(0,), transverse_dim=1, pair_exponents=(Fraction(1),)
        )
        with pytest.raises(DivergenceError):
            residual_mass_closed_form(ch)

    def test_divergent_nonactive_exponent(self):
        # kappa_ref below every slope leaves no active index but positive
        # exponents; forcing a zero exponent via active_dim mismatch instead:
        ch = MonomialChartMetric(b=(1, 1), a=(0, 0))
        with pytest.raises(ValueError, match="active dimension"):
            residual_mass_closed_form(ch, 0)

    def test_monomial_metric_required(self):
        ch = MonomialChartMetric(b=(1,), a=(0,), weight_fn=lambda *z: 0.0)
        with pytest.raises(ValueError, match="monomial"):
            residual_mass_closed_form(ch)

    def test_oracle_direct_disc_integral(self):
        # Independent oracle: mass of |z|^(2e - 2) over the disc of radius r
        # is 2 pi r^(2e) / (2e), computed here by numeric quadrature.
        e, r = 2.0, 0.7
        steps = 200_000
        h = r / steps
        acc = sum((i + 0.5) * h * ((i + 0.5) * h) ** (2 * e - 2) for i in range(steps)) * h
        direct = 2 * math.pi * acc
        ch = MonomialChartMetric(b=(1, 1), a=(0, 2), radii=(1.0, r))
        assert residual_mass_closed_form(ch) == pytest.approx(direct, rel=1e-6)


class TestAssembleLimitMeasure:
    def test_annulus_unit_mass(self):
        measure = assemble_limit_measure(annulus(), {"E0&E1": 1.0})
        assert measure.total_mass == 1.0
        assert measure.d == 1

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
        rows = list(_csv.DictReader((tmp_path / "m.csv").open()))
        assert len(rows) == 3
        assert rows[0]["b_sigma"] == "1"
        payload = json.loads(measure.to_json())
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

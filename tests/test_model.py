"""Dual complexes, weight data, boundary coefficients, model-spec parsing."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tropmass.model import (
    Component,
    ModelError,
    ModelSpecError,
    Stratum,
    PairDivisor,
    WeightedSncModel,
    annulus,
    boundary_coefficients,
    build_dual_complex,
    coordinate_pencil,
    fermat_smooth,
    format_model_spec,
    is_subklt,
    load_preset,
    parse_model_spec,
    simplex_model,
    weight_data,
)


def two_component_model(b0=1, a0=0, b1=1, a1=0, edge_count=1):
    return WeightedSncModel(
        components=(Component("E0", b0, Fraction(a0)), Component("E1", b1, Fraction(a1))),
        strata=(Stratum(("E0",)), Stratum(("E1",)), Stratum(("E0", "E1"), edge_count)),
    )


class TestBuildDualComplex:
    def test_single_component(self):
        dual = build_dual_complex(fermat_smooth())
        assert len(dual.faces) == 1
        assert dual.faces[0].dim == 0

    def test_triangle_of_lines(self):
        dual = build_dual_complex(coordinate_pencil(2))
        assert len(dual.faces_of_dim(0)) == 3
        assert len(dual.faces_of_dim(1)) == 3
        assert dual.euler_characteristic() == 0  # a circle

    def test_boundary_of_n_simplex(self):
        dual = build_dual_complex(coordinate_pencil(3))
        # Boundary of a tetrahedron: a 2-sphere.
        assert len(dual.faces_of_dim(0)) == 4
        assert len(dual.faces_of_dim(1)) == 6
        assert len(dual.faces_of_dim(2)) == 4
        assert dual.euler_characteristic() == 2

    def test_two_parallel_edges(self):
        dual = build_dual_complex(two_component_model(edge_count=2))
        assert len(dual.faces_of_dim(0)) == 2
        assert len(dual.faces_of_dim(1)) == 2
        labels = sorted(f.label for f in dual.faces_of_dim(1))
        assert labels == [0, 1]

    def test_rejects_downward_closure_violation(self):
        with pytest.raises(ModelError, match="downward closed"):
            WeightedSncModel(
                components=(Component("E0", 1), Component("E1", 1), Component("E2", 1)),
                strata=(
                    Stratum(("E0",)),
                    Stratum(("E1",)),
                    Stratum(("E2",)),
                    Stratum(("E0", "E1", "E2")),
                ),
            )

    def test_rejects_missing_singleton(self):
        with pytest.raises(ModelError, match="singleton"):
            WeightedSncModel(
                components=(Component("E0", 1), Component("E1", 1)),
                strata=(Stratum(("E0",)), Stratum(("E0", "E1"))),
            )

    def test_face_simplex_multiplicities(self):
        m = two_component_model(b0=2, b1=3)
        dual = build_dual_complex(m)
        edge = dual.face(("E0", "E1"))
        assert edge.simplex.b == (2, 3)
        assert edge.multiplicity == 1

    def test_incidence(self):
        dual = build_dual_complex(coordinate_pencil(2))
        v = dual.face(("E0",))
        e = dual.face(("E0", "E1"))
        assert dual.is_face_of(v, e)
        assert not dual.is_face_of(e, v)
        other = dual.face(("E1", "E2"))
        assert not dual.is_face_of(v, other)

    def test_ambiguous_incidence_raises(self):
        m = WeightedSncModel(
            components=(Component("E0", 1), Component("E1", 1), Component("E2", 1)),
            strata=(
                Stratum(("E0",)),
                Stratum(("E1",)),
                Stratum(("E2",)),
                Stratum(("E0", "E1"), count=2),
                Stratum(("E0", "E2")),
                Stratum(("E1", "E2")),
                Stratum(("E0", "E1", "E2")),
            ),
        )
        dual = build_dual_complex(m)
        # Which piece of the doubled edge contains the triangle is not
        # recoverable from subsets alone.
        sub = dual.face(("E0", "E1"), label=0)
        top = dual.face(("E0", "E1", "E2"))
        with pytest.raises(ModelError, match="ambiguous"):
            dual.is_face_of(sub, top)
        # Distinct pieces of one stratum are never faces of each other.
        other = dual.face(("E0", "E1"), label=1)
        assert not dual.is_face_of(sub, other)

    def test_reflexive_incidence_same_label(self):
        dual = build_dual_complex(two_component_model(edge_count=1))
        e = dual.face(("E0", "E1"))
        assert dual.is_face_of(e, e)


class TestWeightData:
    def test_mixed_weights_single_active_vertex(self):
        m = two_component_model(b0=1, a0=0, b1=2, a1=1)
        wd = weight_data(m)
        assert wd.kappa == {"E0": 0, "E1": Fraction(1, 2)}
        assert wd.kappa_min == 0
        assert [f.components for f in wd.active_faces] == [("E0",)]
        assert wd.d == 0

    def test_all_zero_weights_activate_everything(self):
        m = coordinate_pencil(2)
        dual = build_dual_complex(m)
        wd = weight_data(m, dual)
        assert wd.kappa_min == 0
        assert len(wd.active_faces) == len(dual.faces)
        assert wd.d == 1

    def test_weight_shift_invariance(self):
        base = two_component_model(b0=1, a0=0, b1=2, a1=1)
        c = Fraction(3, 4)
        shifted = WeightedSncModel(
            components=tuple(
                Component(x.name, x.b, x.a + c * x.b) for x in base.components
            ),
            strata=base.strata,
        )
        wd0, wd1 = weight_data(base), weight_data(shifted)
        assert wd1.kappa_min == wd0.kappa_min + c
        assert [f.key for f in wd1.active_faces] == [f.key for f in wd0.active_faces]
        assert wd1.d == wd0.d

    @given(st.integers(1, 4), st.integers(1, 4), st.fractions(), st.fractions())
    def test_shift_invariance_property(self, b0, b1, a0, a1):
        base = two_component_model(b0=b0, a0=a0, b1=b1, a1=a1)
        shifted = WeightedSncModel(
            components=tuple(Component(x.name, x.b, x.a + x.b) for x in base.components),
            strata=base.strata,
        )
        wd0, wd1 = weight_data(base), weight_data(shifted)
        assert wd1.kappa_min == wd0.kappa_min + 1
        assert [f.key for f in wd1.active_faces] == [f.key for f in wd0.active_faces]


class TestBoundaryCoefficients:
    def test_weight_one_component_drops_out(self):
        m = two_component_model(b0=1, a0=0, b1=2, a1=1)
        dual = build_dual_complex(m)
        wd = weight_data(m)
        coeffs = boundary_coefficients(m, dual.face(("E0",)), wd)
        assert coeffs == {"E1": 0}

    def test_half_weight(self):
        m = two_component_model(b0=1, a0=0, b1=1, a1=Fraction(1, 2))
        dual = build_dual_complex(m)
        coeffs = boundary_coefficients(m, dual.face(("E0",)))
        assert coeffs == {"E1": Fraction(1, 2)}

    def test_non_adjacent_component_ignored(self):
        m = WeightedSncModel(
            components=(Component("E0", 1), Component("E1", 1, Fraction(1)), Component("E2", 1, Fraction(2))),
            strata=(
                Stratum(("E0",)),
                Stratum(("E1",)),
                Stratum(("E2",)),
                Stratum(("E0", "E1")),
            ),
        )
        dual = build_dual_complex(m)
        coeffs = boundary_coefficients(m, dual.face(("E0",)))
        assert set(coeffs) == {"E1"}

    def test_pair_divisors_appended(self):
        m = WeightedSncModel(
            components=(Component("E0", 1),),
            strata=(Stratum(("E0",)),),
            pair_divisors=(PairDivisor("H", Fraction(1, 2)),),
        )
        dual = build_dual_complex(m)
        coeffs = boundary_coefficients(m, dual.faces[0])
        assert coeffs == {"H": Fraction(1, 2)}

    def test_maximal_faces_are_subklt(self):
        m = two_component_model(b0=1, a0=0, b1=2, a1=1)
        wd = weight_data(m)
        for f in wd.active_top_faces():
            assert is_subklt(boundary_coefficients(m, f, wd))

    def test_inactive_face_rejected(self):
        m = two_component_model(b0=1, a0=0, b1=2, a1=1)
        dual = build_dual_complex(m)
        with pytest.raises(ModelError, match="not in the active subcomplex"):
            boundary_coefficients(m, dual.face(("E1",)))

    @given(
        st.lists(
            st.tuples(st.integers(1, 4), st.integers(0, 6)), min_size=2, max_size=4
        )
    )
    def test_randomized_models_subklt_on_top_faces(self, data):
        comps = tuple(
            Component(f"E{i}", b, Fraction(a)) for i, (b, a) in enumerate(data)
        )
        names = [c.name for c in comps]
        strata = [Stratum((n,)) for n in names]
        strata += [Stratum((names[i], names[i + 1])) for i in range(len(names) - 1)]
        m = WeightedSncModel(comps, tuple(strata))
        wd = weight_data(m)
        for f in wd.active_top_faces():
            assert is_subklt(boundary_coefficients(m, f, wd))


class TestIsSubklt:
    def test_all_zero(self):
        assert is_subklt({"a": Fraction(0), "b": Fraction(0)})

    def test_boundary_case_excluded(self):
        assert not is_subklt({"a": Fraction(1)})

    def test_negative_coefficients_allowed(self):
        assert is_subklt({"a": Fraction(1, 2), "b": Fraction(-3)})


class TestPresets:
    def test_load_by_name(self):
        assert load_preset("annulus").name == "annulus"
        assert load_preset("fermat_smooth").name == "fermat_smooth"
        assert load_preset("coordinate_pencil", 3).name == "coordinate_pencil(3)"
        assert load_preset("coordinate_pencil").name == "coordinate_pencil(2)"

    def test_unknown_preset(self):
        with pytest.raises(ModelError, match="unknown preset"):
            load_preset("moebius")

    def test_annulus_shape(self):
        dual = build_dual_complex(annulus())
        assert len(dual.faces) == 3 and dual.dim == 1

    def test_simplex_model_strata(self):
        full = simplex_model((1, 2, 4), (0, Fraction(1, 2), 1))
        assert [s.components for s in full.strata] == [
            ("E0",), ("E1",), ("E2",), ("E0", "E1"), ("E0", "E2"), ("E1", "E2"), ("E0", "E1", "E2"),
        ]
        assert [c.a for c in full.components] == [0, Fraction(1, 2), 1]
        assert simplex_model((1, 1, 1), boundary=True).strata == coordinate_pencil(2).strata
        with pytest.raises(ValueError):
            simplex_model((1, 2), (0,))


class TestModelSpecFormat:
    GOOD = """
    # two components with twists
    [components]
    E0  b=1  a=0
    E1  b=2  a=1
    [strata]
    E0
    E1
    E0 & E1  count=1
    [pairs]
    H  c=1/2
    """

    def test_roundtrip(self):
        m = parse_model_spec(self.GOOD)
        assert [c.name for c in m.components] == ["E0", "E1"]
        assert m.component("E1").a == 1
        assert m.pair_divisors[0].c == Fraction(1, 2)
        again = parse_model_spec(format_model_spec(m))
        assert again.components == m.components
        assert again.strata == m.strata
        assert again.pair_divisors == m.pair_divisors

    def test_roundtrip_presets(self):
        for name, n in (("annulus", 2), ("fermat_smooth", 2), ("coordinate_pencil", 3)):
            m = load_preset(name, n)
            again = parse_model_spec(format_model_spec(m))
            assert again.components == m.components
            assert again.strata == m.strata

    def test_error_cites_line_number(self):
        bad = "[components]\nE0  b=1\n[strata]\nE0\nE1 & E0\n"
        with pytest.raises(ModelSpecError, match="line 5"):
            parse_model_spec(bad)

    def test_bad_multiplicity(self):
        with pytest.raises(ModelSpecError, match="line 2"):
            parse_model_spec("[components]\nE0  b=zero\n")

    def test_bad_rational(self):
        with pytest.raises(ModelSpecError, match="line 2.*rational"):
            parse_model_spec("[components]\nE0  b=1  a=1/0\n")

    def test_content_before_section(self):
        with pytest.raises(ModelSpecError, match="line 1"):
            parse_model_spec("E0 b=1\n")

    def test_unknown_section(self):
        with pytest.raises(ModelSpecError, match="line 1"):
            parse_model_spec("[junk]\n")

    def test_pair_coefficient_bound(self):
        bad = "[components]\nE0 b=1\n[strata]\nE0\n[pairs]\nH c=3/2\n"
        with pytest.raises(ModelSpecError, match="line 6"):
            parse_model_spec(bad)

    # An error of the whole model cites the line of the entry at fault, not
    # the file's last line.
    @pytest.mark.parametrize(
        "text, lineno, section, entry",
        [
            ("[components]\nE0 b=1\nE1 b=1\n[strata]\nE0 & E2\nE0\nE1\n", 5, "strata", "'E2'"),
            ("[components]\nE0 b=1\n[strata]\nE0\nE0\n[pairs]\nH c=0\n", 5, "strata", "'E0'"),
            ("[components]\nE0 b=1\nE0 b=2\n[strata]\nE0\n", 3, "components", "'E0'"),
            ("[components]\nE0 b=1\nE1 b=1\n[strata]\nE0\n[pairs]\nH c=0\n", 3, "components", "'E1'"),
            (
                "[components]\nE0 b=1\nE1 b=1\nE2 b=1\n[strata]\nE0\nE1\nE2\nE0 & E1 & E2\nE0 & E1\n",
                9,
                "strata",
                r"downward closed: \['E0', 'E1', 'E2'\] listed but \['E1', 'E2'\] missing",
            ),
            ("[components]\nE0 b=1\n[strata]\nE0\n[pairs]\nE0 c=0\nH c=1/2\n", 6, "pairs", "'E0'"),
            ("[components]\nE0 b=1\n[strata]\nE0\n[pairs]\nH c=0\nH c=1/2\nK c=0\n", 7, "pairs", "'H'"),
        ],
        ids=[
            "unknown-component",
            "stratum-twice",
            "component-twice",
            "no-singleton",
            "not-downward-closed",
            "pair-named-as-component",
            "pair-twice",
        ],
    )
    def test_model_error_cites_the_entry_line(self, text, lineno, section, entry):
        with pytest.raises(ModelSpecError, match=rf"^line {lineno}: \[{section}\] .*{entry}") as err:
            parse_model_spec(text)
        assert err.value.line_number == lineno

    @pytest.mark.parametrize(
        "line, message",
        [
            ("E0  b=zero", r"\[components\] E0: field b='zero' is not an integer"),
            ("E0  b=1#2", r"\[components\] E0: field b='1#2' is not an integer"),
            ("E0  b=1  a=x", r"\[components\] E0: field a='x' is not a rational"),
            ("E0  b=0", r"\[components\] E0: component 'E0': multiplicity must be a positive integer"),
            ("E0  a=1", r"\[components\] E0: missing field 'b'"),
            ("E0  b=1  colour=red", r"\[components\] E0: unknown field 'colour'"),
            ("E0  b=1  b=2", r"\[components\] E0: duplicate field 'b'"),
            ("E0  b=1  extra", r"\[components\] E0: expected key=value, got 'extra'"),
            ("E0 E1  b=1", r"\[components\] E0 E1: expected one name before the fields"),
            ("[strata]\nE0  count=x", r"\[strata\] E0: field count='x' is not an integer"),
            ("[strata]\nE0  count=0", r"\[strata\] E0: stratum \('E0',\): count must be >= 1"),
            ("[pairs]\nH  c=oops", r"\[pairs\] H: field c='oops' is not a rational"),
            ("[pairs]\nH", r"\[pairs\] H: missing field 'c'"),
            ("[components", r"unknown section header '\[components'"),
        ],
        ids=[
            "b-not-integer",
            "hash-inside-value",
            "a-not-rational",
            "b-zero",
            "b-missing",
            "unknown-field",
            "duplicate-field",
            "stray-token",
            "two-names",
            "count-not-integer",
            "count-zero",
            "c-not-rational",
            "c-missing",
            "unclosed-header",
        ],
    )
    def test_line_error_names_section_and_field(self, line, message):
        text = "[components]\n" + line + "\n"
        lineno = text.count("\n")  # the last line is at fault
        with pytest.raises(ModelSpecError, match=rf"^line {lineno}: {message}"):
            parse_model_spec(text)

    # `#` starts a comment at the start of a line or after whitespace; inside
    # a word it is part of the word.
    def test_comment_rule(self):
        text = (
            "# a comment line\n"
            "  # an indented one\n"
            "[components]   # after a header\n"
            "E0  b=1  a=0      # multiplicity b, twist exponent a\n"
            "E#1\tb=2\t# after a tab\n"
            "[strata]\n"
            "E0\n"
            "E#1 #\n"
            "E0 & E#1           # a connected stratum of the intersection\n"
        )
        m = parse_model_spec(text)
        assert [(c.name, c.b, c.a) for c in m.components] == [("E0", 1, 0), ("E#1", 2, 0)]
        assert [s.components for s in m.strata] == [("E0",), ("E#1",), ("E0", "E#1")]

"""Tests for triangulated skeleta, residue propagation, and subdivision."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropmass.lattice import simplex_volume
from tropmass.model import (
    Component,
    Stratum,
    WeightedSncModel,
    annulus,
    build_dual_complex,
    coordinate_pencil,
    fermat_smooth,
)
from tropmass.skeleton import (
    PseudomanifoldReport,
    SkeletonError,
    TopCell,
    TriangulatedSkeleton,
    barycentric_subdivide,
    pseudomanifold_check,
    residue_chain_propagate,
)


def cycle_skeleton(n: int, multiplicities: tuple[int, int] = (1, 1)) -> TriangulatedSkeleton:
    """Closed cycle of ``n`` segments v0-v1-...-v(n-1)-v0."""
    cells = [
        TopCell(
            cell_id=f"c{i}",
            vertices=(f"v{i}", f"v{(i + 1) % n}"),
            multiplicities=multiplicities,
        )
        for i in range(n)
    ]
    return TriangulatedSkeleton(cells)


def solid_triangle_model() -> WeightedSncModel:
    """Three reduced components with a full triple intersection (solid 2-simplex)."""
    return WeightedSncModel(
        components=(Component("E0", 1), Component("E1", 1), Component("E2", 1)),
        strata=(
            Stratum(("E0",)),
            Stratum(("E1",)),
            Stratum(("E2",)),
            Stratum(("E0", "E1")),
            Stratum(("E0", "E2")),
            Stratum(("E1", "E2")),
            Stratum(("E0", "E1", "E2")),
        ),
        name="solid-triangle",
    )


class TestTopCellValidation:
    def test_b_sigma_is_gcd(self):
        c = TopCell("c", ("a", "b", "c"), (2, 4, 6))
        assert c.b_sigma == 2
        assert c.dim == 2

    def test_duplicate_vertices_rejected(self):
        with pytest.raises(SkeletonError, match="distinct"):
            TopCell("c", ("a", "a"), (1, 1))

    def test_multiplicity_length_mismatch_rejected(self):
        with pytest.raises(SkeletonError, match="multiplicities"):
            TopCell("c", ("a", "b"), (1,))

    def test_nonpositive_multiplicity_rejected(self):
        with pytest.raises(SkeletonError, match="positive integers"):
            TopCell("c", ("a", "b"), (1, 0))



class TestSkeletonValidation:
    def test_duplicate_cell_ids_rejected(self):
        cells = [TopCell("c", ("a", "b"), (1, 1)), TopCell("c", ("b", "d"), (1, 1))]
        with pytest.raises(SkeletonError, match="unique"):
            TriangulatedSkeleton(cells)

    def test_mixed_dimensions_rejected(self):
        cells = [TopCell("c0", ("a", "b"), (1, 1)), TopCell("c1", ("a", "b", "c"), (1, 1, 1))]
        with pytest.raises(SkeletonError, match="dimension"):
            TriangulatedSkeleton(cells)

    def test_empty_skeleton_rejected(self):
        with pytest.raises(SkeletonError, match="at least one"):
            TriangulatedSkeleton(cells=())

    @pytest.mark.parametrize(
        "sk",
        [
            cycle_skeleton(4),
            barycentric_subdivide(build_dual_complex(coordinate_pencil(3))),
        ],
        ids=["cycle4", "pencil3-subdivided"],
    )
    def test_facets_are_sorted_with_cells_in_cell_order(self, sk):
        keys = [f.vertices for f in sk.facets]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)
        for f in sk.facets:
            assert f.vertices == tuple(sorted(f.vertices))
            holders = [c.cell_id for c in sk.cells if set(f.vertices) < set(c.vertices)]
            assert list(f.cells) == holders
        expected = {
            frozenset(c.vertices[:i] + c.vertices[i + 1 :])
            for c in sk.cells
            for i in range(len(c.vertices))
        }
        assert {frozenset(k) for k in keys} == expected

    def test_cell_lookup(self):
        sk = cycle_skeleton(3)
        assert sk.cell("c1").vertices == ("v1", "v2")
        with pytest.raises(SkeletonError, match="no top cell"):
            sk.cell("nope")

    def test_from_dual_complex_carries_multiplicities(self):
        dual = build_dual_complex(coordinate_pencil(2))
        sk = TriangulatedSkeleton.from_dual_complex(dual)
        assert sorted(c.cell_id for c in sk.cells) == ["E0&E1", "E0&E2", "E1&E2"]
        assert all(c.multiplicities == (1, 1) for c in sk.cells)

    def test_from_dual_complex_rejects_multi_piece_codim_one_strata(self):
        m = WeightedSncModel(
            components=(Component("E0", 1), Component("E1", 1)),
            strata=(Stratum(("E0",)), Stratum(("E1",)), Stratum(("E0", "E1"), count=2)),
            name="doubled-edge",
        )
        # Top faces are the two edge pieces; their vertex strata are fine, so
        # this skeleton is representable (vertices are shared by both pieces).
        sk = TriangulatedSkeleton.from_dual_complex(build_dual_complex(m))
        assert len(sk.cells) == 2
        report = pseudomanifold_check(sk)
        assert report == PseudomanifoldReport(True, True, True)

    def test_dimension_zero_complex(self):
        sk = TriangulatedSkeleton.from_dual_complex(build_dual_complex(fermat_smooth()))
        assert sk.dim == 0
        assert sk.facets == ()
        assert pseudomanifold_check(sk) == PseudomanifoldReport(True, True, True)


class TestPseudomanifoldCheck:
    def test_three_cycle_passes_all(self):
        dual = build_dual_complex(coordinate_pencil(2))
        sk = TriangulatedSkeleton.from_dual_complex(dual)
        assert pseudomanifold_check(sk) == PseudomanifoldReport(
            nonbranching=True, strongly_connected=True, closed=True
        )

    def test_single_segment_is_open(self):
        sk = TriangulatedSkeleton.from_dual_complex(build_dual_complex(annulus()))
        report = pseudomanifold_check(sk)
        assert report == PseudomanifoldReport(
            nonbranching=True, strongly_connected=True, closed=False
        )
        assert not report.all_pass

    def test_two_disjoint_triangles_are_disconnected(self):
        cells = [
            TopCell("T0", ("a", "b", "c"), (1, 1, 1)),
            TopCell("T1", ("d", "e", "f"), (1, 1, 1)),
        ]
        report = pseudomanifold_check(TriangulatedSkeleton(cells))
        assert report.strongly_connected is False
        assert report.nonbranching is True
        assert report.closed is False

    def test_three_triangles_on_one_edge_branch(self):
        cells = [
            TopCell("T0", ("a", "b", "c"), (1, 1, 1)),
            TopCell("T1", ("a", "b", "d"), (1, 1, 1)),
            TopCell("T2", ("a", "b", "e"), (1, 1, 1)),
        ]
        report = pseudomanifold_check(TriangulatedSkeleton(cells))
        assert report.nonbranching is False
        assert report.closed is False
        assert report.strongly_connected is True

    def test_tetrahedron_boundary_passes_all(self):
        dual = build_dual_complex(coordinate_pencil(3))
        sk = TriangulatedSkeleton.from_dual_complex(dual)
        assert len(sk.cells) == 4
        assert len(sk.facets) == 6
        assert pseudomanifold_check(sk).all_pass

    @given(n=st.integers(min_value=3, max_value=12))
    def test_cycles_pass_all(self, n):
        assert pseudomanifold_check(cycle_skeleton(n)).all_pass


class TestResiduePropagation:
    def test_three_cycle_constant_map(self):
        dual = build_dual_complex(coordinate_pencil(2))
        sk = TriangulatedSkeleton.from_dual_complex(dual)
        out = residue_chain_propagate(sk, "E0&E1", 2.5)
        assert out == {"E0&E1": 2.5, "E0&E2": 2.5, "E1&E2": 2.5}

    def test_anchor_independence(self):
        dual = build_dual_complex(coordinate_pencil(2))
        sk = TriangulatedSkeleton.from_dual_complex(dual)
        maps = [residue_chain_propagate(sk, c.cell_id, 0.7) for c in sk.cells]
        assert all(m == maps[0] for m in maps)

    def test_tetrahedron_boundary_anchor_one(self):
        dual = build_dual_complex(coordinate_pencil(3))
        sk = TriangulatedSkeleton.from_dual_complex(dual)
        out = residue_chain_propagate(sk, sk.cells[0].cell_id, 1.0)
        assert set(out.values()) == {1.0}
        assert len(out) == 4

    def test_open_segment_rejected(self):
        sk = TriangulatedSkeleton.from_dual_complex(build_dual_complex(annulus()))
        with pytest.raises(SkeletonError, match="exactly two"):
            residue_chain_propagate(sk, "E0&E1", 1.0)

    def test_disconnected_rejected(self):
        # Two disjoint 3-cycles: closed and non-branching but not connected.
        cells = [
            TopCell(f"a{i}", (f"u{i}", f"u{(i + 1) % 3}"), (1, 1)) for i in range(3)
        ] + [
            TopCell(f"b{i}", (f"w{i}", f"w{(i + 1) % 3}"), (1, 1)) for i in range(3)
        ]
        sk = TriangulatedSkeleton(cells)
        with pytest.raises(SkeletonError, match="strongly connected"):
            residue_chain_propagate(sk, "a0", 1.0)

    def test_nonreduced_cells_rejected(self):
        sk = cycle_skeleton(4, multiplicities=(2, 2))
        with pytest.raises(SkeletonError, match="b_sigma"):
            residue_chain_propagate(sk, "c0", 1.0)

    def test_negative_rho_rejected(self):
        sk = cycle_skeleton(3)
        with pytest.raises(SkeletonError, match=">= 0"):
            residue_chain_propagate(sk, "c0", -1.0)

    @pytest.mark.parametrize("rho", [math.nan, math.inf])
    def test_nonfinite_rho_rejected(self, rho):
        with pytest.raises(SkeletonError, match="finite"):
            residue_chain_propagate(cycle_skeleton(3), "c0", rho)

    def test_unknown_anchor_rejected(self):
        with pytest.raises(SkeletonError, match="no top cell 'c9'"):
            residue_chain_propagate(cycle_skeleton(3), "c9", 1.0)

    @given(
        n=st.integers(min_value=3, max_value=10),
        rho=st.floats(min_value=0.0, max_value=100.0),
        anchor=st.integers(min_value=0, max_value=9),
    )
    @settings(max_examples=60)
    def test_cycle_propagation_is_constant_from_any_anchor(self, n, rho, anchor):
        sk = cycle_skeleton(n)
        out = residue_chain_propagate(sk, f"c{anchor % n}", rho)
        assert set(out.values()) == {rho}
        assert len(out) == n


class TestBarycentricSubdivision:
    def test_segment_splits_into_two(self):
        sub = barycentric_subdivide(build_dual_complex(annulus()))
        assert sorted(c.cell_id for c in sub.cells) == ["E0<E0&E1", "E1<E0&E1"]
        assert all(c.multiplicities == (1, 2) for c in sub.cells)
        assert all(c.b_sigma == 1 for c in sub.cells)
        report = pseudomanifold_check(sub)
        assert report == PseudomanifoldReport(True, True, False)

    def test_three_cycle_becomes_six_cycle(self):
        sub = barycentric_subdivide(build_dual_complex(coordinate_pencil(2)))
        assert len(sub.cells) == 6
        assert pseudomanifold_check(sub).all_pass
        assert all(len(f.cells) == 2 for f in sub.facets)
        # each original edge barycenter appears in exactly two cells
        for edge in ("E0&E1", "E0&E2", "E1&E2"):
            holders = [c for c in sub.cells if edge in c.vertices]
            assert len(holders) == 2
            for c in holders:
                assert c.multiplicities[c.vertices.index(edge)] == 2

    def test_triangle_face_splits_into_six(self):
        sub = barycentric_subdivide(build_dual_complex(solid_triangle_model()))
        assert len(sub.cells) == 6
        assert all(c.multiplicities == (1, 2, 3) for c in sub.cells)
        assert all(c.b_sigma == 1 for c in sub.cells)
        center = "E0&E1&E2"
        assert all(center == c.vertices[-1] for c in sub.cells)

    def test_tetrahedron_boundary_subdivision(self):
        sub = barycentric_subdivide(build_dual_complex(coordinate_pencil(3)))
        assert len(sub.cells) == 4 * 6
        assert pseudomanifold_check(sub).all_pass
        out = residue_chain_propagate(sub, sub.cells[0].cell_id, 1.0)
        assert set(out.values()) == {1.0}

    @pytest.mark.parametrize(
        "model,d",
        [(annulus(), 1), (solid_triangle_model(), 2)],
        ids=["segment", "triangle"],
    )
    def test_volume_bookkeeping_matches_lattice_core(self, model, d):
        # (d+1)! flag cells of volume 1/(d! (d+1)!) summing to the reduced
        # simplex volume 1/d!.
        sub = barycentric_subdivide(build_dual_complex(model))
        assert len(sub.cells) == math.factorial(d + 1)
        expected_cell = Fraction(1, math.factorial(d) * math.factorial(d + 1))
        vols = [simplex_volume(c.multiplicities) for c in sub.cells]
        assert all(v == expected_cell for v in vols)
        assert sum(vols) == simplex_volume((1,) * (d + 1)) == Fraction(1, math.factorial(d))

    def test_multiplicity_equals_face_dimension_plus_one(self):
        sub = barycentric_subdivide(build_dual_complex(coordinate_pencil(3)))
        for c in sub.cells:
            for vertex, m in zip(c.vertices, c.multiplicities):
                assert m == vertex.count("&") + 1

    def test_nonreduced_model_rejected(self):
        m = WeightedSncModel(
            components=(Component("E0", 1), Component("E1", 2)),
            strata=(Stratum(("E0",)), Stratum(("E1",)), Stratum(("E0", "E1"))),
            name="nonreduced",
        )
        with pytest.raises(SkeletonError, match="reduced"):
            barycentric_subdivide(build_dual_complex(m))

    def test_non_pure_complex_rejected(self):
        m = WeightedSncModel(
            components=(Component("E0", 1), Component("E1", 1), Component("E2", 1)),
            strata=(
                Stratum(("E0",)),
                Stratum(("E1",)),
                Stratum(("E2",)),
                Stratum(("E0", "E1")),
            ),
            name="segment-plus-point",
        )
        with pytest.raises(SkeletonError, match="non-pure"):
            barycentric_subdivide(build_dual_complex(m))

    def test_dimension_zero_subdivision_is_identity_like(self):
        sub = barycentric_subdivide(build_dual_complex(fermat_smooth()))
        assert len(sub.cells) == 1
        assert sub.cells[0].multiplicities == (1,)

    def test_subdivision_then_propagation_is_anchor_independent(self):
        sub = barycentric_subdivide(build_dual_complex(coordinate_pencil(2)))
        maps = [residue_chain_propagate(sub, c.cell_id, 1.5) for c in sub.cells]
        assert all(m == maps[0] for m in maps)

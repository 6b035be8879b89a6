"""Alternating face-count sums equal 1 on everything we can build."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulerlab.euler import check_piece, euler_alternating_sum, f_vector
from eulerlab.polytope import (
    build_polytope,
    face_lattice,
    facet_polytope,
    generate,
    point_polytope,
)
from spans import vec


class TestFVector:
    def test_segment(self):
        p = build_polytope([vec(0), vec(1)])
        assert f_vector(face_lattice(p)) == (2, 1)

    def test_pentagon(self):
        pts = [vec(0, 0), vec(4, 0), vec(5, 3), vec(2, 5), vec(-1, 2)]
        assert f_vector(face_lattice(build_polytope(pts))) == (5, 5, 1)

    def test_cube4(self):
        assert f_vector(face_lattice(generate("cube:4"))) == (16, 32, 24, 8, 1)

    def test_point(self):
        assert f_vector(face_lattice(point_polytope(vec(3, 1)))) == (1,)


class TestAlternatingSum:
    def test_small_examples(self):
        assert euler_alternating_sum((2, 1)) == 1
        assert euler_alternating_sum((8, 12, 6, 1)) == 1
        assert euler_alternating_sum((16, 32, 24, 8, 1)) == 1

    def test_non_unit_sum_detectable(self):
        assert euler_alternating_sum((8, 12, 5, 1)) == 0


def euler_holds(p) -> bool:
    return euler_alternating_sum(f_vector(face_lattice(p))) == 1


class TestCheckEuler:
    def test_families(self):
        assert euler_holds(generate("simplex:6"))
        assert euler_holds(generate("crosspolytope:5"))
        assert euler_holds(build_polytope([vec(0), vec(1)]))

    @pytest.mark.parametrize("d", range(1, 6))
    def test_all_families_per_dimension(self, d):
        for fam in ("simplex", "cube", "crosspolytope"):
            assert euler_holds(generate(f"{fam}:{d}"))

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_random_polytopes(self, seed):
        assert euler_holds(generate("random:3,7,6", seed))

    def test_facets_satisfy_it_too(self):
        # facets, viewed as polytopes of their own, have f-vectors of length
        # d and alternating sum 1 - the inductive step the identities rely on
        for kind in ["cube:3", "crosspolytope:3", "simplex:4", "cube:4"]:
            p = generate(kind)
            for i in range(len(p.facets)):
                q = facet_polytope(p, i)
                fv = f_vector(face_lattice(q))
                assert len(fv) == p.dim
                assert euler_alternating_sum(fv) == 1


class TestFVectorValidation:
    def test_rejects_broken_lattice(self):
        from eulerlab.polytope import FaceLattice

        bad = FaceLattice({0: [{0}, {1}], 1: [{0, 1}, {0, 1}]}, frozenset)
        with pytest.raises(ValueError):
            f_vector(bad)


class TestCheckPiece:
    # The unit square with no shadow: one flag at each vertex and edge, and
    # the sum 4/2 - 4/2 = 0 = (1 - 1) / 2 from the top-face count alone.
    # Faces are keyed by their vertex indices in the square itself.
    def square(self):
        p = generate("cube:2")
        lat = face_lattice(p)
        received = {face.vertex_indices: 1 for c in (0, 1) for face in lat.faces(c)}
        return p, received

    def test_holds(self):
        p, received = self.square()
        failures = []
        check_piece(failures, "piece", p, p.vertices, received, Fraction(0), Fraction(0))
        assert failures == []

    def test_names_each_broken_face_and_stray_flag(self):
        p, received = self.square()
        origin, far = p.vertices.index(vec(0, 0)), p.vertices.index(vec(1, 1))
        del received[frozenset({origin})]
        # The diagonal is no face of the square.
        received[frozenset({origin, far})] = 1
        failures = []
        check_piece(failures, "piece", p, p.vertices, received, Fraction(0), Fraction(1))
        assert failures == [
            "piece: dim-0 face [(0, 0)] took 0 flags, expected 1",
            "piece: 1 flags at [(0, 0), (1, 1)], not a face",
            "piece: sum chain 0 = 0 = 0 = 1 broken",
        ]

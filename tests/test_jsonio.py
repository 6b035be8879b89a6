"""Tests for JSON documents and run reports."""

import json
from fractions import Fraction

import pytest

from eulerlab.folded_flags import verify_proof_folded
from eulerlab.jsonio import (
    document_to_polytope,
    dumps,
    load_document,
    polytope_to_document,
    report_to_dict,
    run_report,
    validate_document,
)
from eulerlab.linalg import format_rational
from eulerlab.polytope import build_polytope, generate
from eulerlab.schlegel_flags import verify_proof_schlegel


class TestDocuments:
    def test_round_trip_integer_coordinates(self):
        p = generate("cube:3")
        doc = polytope_to_document(p, name="cube:3")
        q = document_to_polytope(doc)
        assert q.embedded_vertices == p.embedded_vertices
        assert doc["name"] == "cube:3"

    def test_round_trip_fractional_coordinates(self):
        p = build_polytope(
            [
                (Fraction(1, 3), Fraction(0)),
                (Fraction(-2, 7), Fraction(1, 2)),
                (Fraction(5), Fraction(-3, 4)),
            ]
        )
        doc = polytope_to_document(p)
        assert "name" not in doc
        q = document_to_polytope(doc)
        assert q.embedded_vertices == p.embedded_vertices

    def test_round_trip_through_text(self):
        p = generate("crosspolytope:4")
        text = dumps(polytope_to_document(p))
        q = document_to_polytope(json.loads(text))
        assert q.embedded_vertices == p.embedded_vertices

    def test_vertices_are_rational_strings(self):
        doc = polytope_to_document(generate("simplex:2"))
        for v in doc["vertices"]:
            for c in v:
                assert isinstance(c, str)

    @pytest.mark.parametrize(
        "doc,message",
        [
            ([1, 2], "must be a JSON object"),
            ({"dimension": 2, "vertices": [["0", "0"]], "extra": 1}, "unknown"),
            ({"vertices": [["0"]]}, "dimension"),
            ({"dimension": 0, "vertices": [[]]}, "dimension"),
            ({"dimension": True, "vertices": [["0"]]}, "dimension"),
            ({"dimension": "2", "vertices": [["0", "0"]]}, "dimension"),
            ({"dimension": 2, "vertices": []}, "non-empty"),
            ({"dimension": 2, "vertices": [["0"]]}, "rational strings"),
            ({"dimension": 1, "vertices": [[0]]}, "rational strings"),
            ({"dimension": 1, "vertices": [["0"]], "name": 7}, "name"),
        ],
    )
    def test_malformed_documents_rejected(self, doc, message):
        with pytest.raises(ValueError, match=message):
            validate_document(doc)

    @pytest.mark.parametrize("bad", ["1.5", "1/0", "", "a", "1 / 2"])
    def test_malformed_rationals_rejected(self, bad):
        doc = {"dimension": 1, "vertices": [[bad]]}
        with pytest.raises(ValueError):
            validate_document(doc)

    def test_load_document_rejects_broken_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"dimension": 3, "vertices": [["0",')
        with pytest.raises(ValueError, match="invalid JSON"):
            load_document(str(path))

    def test_dumps_is_deterministic_with_trailing_newline(self):
        doc = polytope_to_document(generate("cube:2"))
        a, b = dumps(doc), dumps(doc)
        assert a == b
        assert a.endswith("\n")


class TestReports:
    def test_schlegel_report_dict(self):
        r = verify_proof_schlegel(generate("simplex:3"), 0, seed=0)
        d = report_to_dict(r)
        assert list(d) == [
            "proof", "dimension", "facet_index", "seed", "cell_count",
            "per_cell_sums", "expected_per_cell", "outside_sum", "expected_outside",
            "total_by_base", "total_by_classification", "lhs_needed", "rhs_needed",
            "flag_count", "failures", "pass",
        ]
        assert d["proof"] == "schlegel"
        assert d["cell_count"] == 3
        assert d["per_cell_sums"] == {"0": "-1", "1": "-1", "2": "-1"}
        assert d["expected_per_cell"] == "-1"
        assert d["outside_sum"] == "1"
        assert d["total_by_base"] == d["total_by_classification"] == "-2"
        assert d["lhs_needed"] == d["rhs_needed"] == "-2"
        assert d["pass"] is True
        assert d["failures"] == []
        json.dumps(d)  # must be serializable as-is

    def test_folded_report_dict(self):
        r = verify_proof_folded(generate("cube:4"), 0, facet_pair=(0, 3))
        d = report_to_dict(r)
        assert list(d) == [
            "proof", "dimension", "facet_pair", "seed", "special_pair_sum",
            "expected_special", "per_facet_sums", "expected_per_facet",
            "total_by_base", "total_by_facet", "lhs_needed", "rhs_needed",
            "flag_count", "failures", "pass",
        ]
        assert d["proof"] == "folded"
        assert d["facet_pair"] == [0, 3]
        assert d["special_pair_sum"] == "2"
        assert set(d["per_facet_sums"]) == {"1", "2", "4", "5", "6", "7"}
        assert all(v == "1" for v in d["per_facet_sums"].values())
        assert d["lhs_needed"] == d["rhs_needed"] == "8"
        assert d["pass"] is True
        json.dumps(d)

    def test_run_report_shape(self):
        report = run_report(
            command="check",
            inputs={"path": "x.json"},
            seed=None,
            f_vec=(8, 12, 6, 1),
            euler_sum=Fraction(1),
            passed=True,
        )
        assert report["timestamp"] is None
        assert report["f_vector"] == [8, 12, 6, 1]
        assert report["euler_sum"] == 1
        assert isinstance(report["euler_sum"], int)
        assert report["schlegel_proof"] is None
        assert report["folded_proof"] is None
        json.dumps(report)

    def test_format_rational(self):
        assert format_rational(Fraction(1, 2)) == "1/2"
        assert format_rational(Fraction(-8)) == "-8"
        assert format_rational(3) == "3"

"""Reading and writing polytope documents and run reports as JSON.

Coordinates and flag sums travel as exact rational strings ("p/q" or "p");
floats never appear.  Serialization is deterministic: key order is fixed by
construction and every document ends with a newline, so identical inputs
produce byte-identical files.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, Optional

from .folded_flags import FoldedReport
from .linalg import format_rational, parse_rational
from .polytope import Polytope, build_polytope
from .schlegel_flags import ProofReport


def rational_str(x) -> str:
    return format_rational(Fraction(x))


def polytope_to_document(p: Polytope, name: Optional[str] = None) -> dict:
    """A polytope as a plain JSON-ready document, in its original
    embedding coordinates."""
    doc: dict[str, Any] = {
        "dimension": p.ambient_dim,
        "vertices": [
            [format_rational(c) for c in v] for v in p.embedded_vertices
        ],
    }
    if name is not None:
        doc["name"] = name
    return doc


def validate_document(doc: Any) -> dict:
    """Check the document shape and rational syntax; raise ValueError with
    a pointed message otherwise."""
    if not isinstance(doc, dict):
        raise ValueError("polytope document must be a JSON object")
    unknown = set(doc) - {"dimension", "vertices", "name"}
    if unknown:
        raise ValueError(f"unknown document fields: {sorted(unknown)}")
    dim = doc.get("dimension")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ValueError("dimension must be a positive integer")
    vertices = doc.get("vertices")
    if not isinstance(vertices, list) or not vertices:
        raise ValueError("vertices must be a non-empty list")
    for v in vertices:
        if not isinstance(v, list) or len(v) != dim:
            raise ValueError(
                f"every vertex must be a list of {dim} rational strings"
            )
        for c in v:
            if not isinstance(c, str):
                raise ValueError("coordinates must be rational strings")
            parse_rational(c)
    if "name" in doc and not isinstance(doc["name"], str):
        raise ValueError("name must be a string")
    return doc


def document_to_polytope(doc: dict) -> Polytope:
    validate_document(doc)
    points = [tuple(parse_rational(c) for c in v) for v in doc["vertices"]]
    return build_polytope(points)


def dumps(obj: Any) -> str:
    return json.dumps(obj, indent=2) + "\n"


def load_document(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as e:
        raise ValueError(f"invalid JSON in {path}: {e}") from e
    return validate_document(doc)


def schlegel_report_to_dict(r: ProofReport) -> dict:
    return {
        "proof": "schlegel",
        "dimension": r.dimension,
        "facet_index": r.facet_index,
        "seed": r.seed,
        "cell_count": r.cell_count,
        "per_cell_sums": {
            str(i): rational_str(v) for i, v in sorted(r.per_cell_sums.items())
        },
        "expected_per_cell": rational_str(r.expected_per_cell),
        "outside_sum": rational_str(r.outside_sum),
        "expected_outside": rational_str(r.expected_outside),
        "total_by_base": rational_str(r.total_by_base),
        "total_by_classification": rational_str(r.total_by_classification),
        "lhs_needed": rational_str(r.lhs_needed),
        "rhs_needed": rational_str(r.rhs_needed),
        "flag_count": r.flag_count,
        "failures": list(r.failures),
        "pass": r.passed,
    }


def folded_report_to_dict(r: FoldedReport) -> dict:
    return {
        "proof": "folded",
        "dimension": r.dimension,
        "facet_pair": list(r.facet_pair),
        "seed": r.seed,
        "special_pair_sum": rational_str(r.special_pair_sum),
        "expected_special": rational_str(r.expected_special),
        "per_facet_sums": {
            str(i): rational_str(v) for i, v in sorted(r.per_facet_sums.items())
        },
        "expected_per_facet": rational_str(r.expected_per_facet),
        "total_by_base": rational_str(r.total_by_base),
        "total_by_facet": rational_str(r.total_by_facet),
        "lhs_needed": rational_str(r.lhs_needed),
        "rhs_needed": rational_str(r.rhs_needed),
        "flag_count": r.flag_count,
        "failures": list(r.failures),
        "pass": r.passed,
    }


def run_report(
    command: str,
    inputs: dict,
    seed: Optional[int],
    f_vec,
    euler_sum,
    passed: bool,
    schlegel_proof: Optional[ProofReport] = None,
    folded_proof: Optional[FoldedReport] = None,
    timestamp: Optional[str] = None,
) -> dict:
    """Assemble the top-level report for one command invocation.

    The timestamp stays null unless explicitly provided, keeping repeated
    runs byte-identical.
    """
    return {
        "command": command,
        "inputs": inputs,
        "seed": seed,
        "timestamp": timestamp,
        "f_vector": list(f_vec),
        "euler_sum": int(euler_sum),
        "pass": passed,
        "schlegel_proof": (
            None if schlegel_proof is None else schlegel_report_to_dict(schlegel_proof)
        ),
        "folded_proof": (
            None if folded_proof is None else folded_report_to_dict(folded_proof)
        ),
    }

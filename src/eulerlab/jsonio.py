"""Reading and writing polytope documents and run reports as JSON.

Coordinates and flag sums travel as exact rational strings ("p/q" or "p");
floats never appear.  Serialization is deterministic: key order is fixed by
construction and every document ends with a newline, so identical inputs
produce byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import fields
from fractions import Fraction
from typing import Any, Optional, Union

from .folded_flags import FoldedReport
from .linalg import Vector, format_rational, parse_rational
from .polytope import Polytope, build_polytope
from .schlegel_flags import ProofReport


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


def validate_document(doc: Any) -> list[Vector]:
    """Check the document shape and rational syntax; raise ValueError with
    a pointed message otherwise.  Returns the vertices as rational points,
    so that no caller parses a coordinate twice."""
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
    points = []
    for v in vertices:
        if not isinstance(v, list) or len(v) != dim:
            raise ValueError(
                f"every vertex must be a list of {dim} rational strings"
            )
        point = []
        for c in v:
            if not isinstance(c, str):
                raise ValueError("coordinates must be rational strings")
            point.append(parse_rational(c))
        points.append(tuple(point))
    if "name" in doc and not isinstance(doc["name"], str):
        raise ValueError("name must be a string")
    return points


def document_to_polytope(doc: dict) -> Polytope:
    return build_polytope(validate_document(doc))


def dumps(obj: Any) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _read(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (json.JSONDecodeError, RecursionError) as e:  # deep nesting recurses
        raise ValueError(f"invalid JSON in {path}: {e}") from e


def load_document(path: str) -> dict:
    """The validated document at path."""
    doc = _read(path)
    validate_document(doc)
    return doc


def load_polytope(path: str) -> tuple[dict, Polytope]:
    """The document at path and its polytope, validated and parsed once."""
    doc = _read(path)
    return doc, build_polytope(validate_document(doc))


def report_to_dict(r: Union[ProofReport, FoldedReport]) -> dict:
    """A proof report as JSON-ready data: one key per dataclass field, in
    field order, then "pass".  Rationals become strings, dict keys strings
    in ascending order, and tuples lists."""
    d = {f.name: _jsonable(getattr(r, f.name)) for f in fields(r)}
    d["pass"] = r.passed
    return d


def _jsonable(value: Any) -> Any:
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


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
            None if schlegel_proof is None else report_to_dict(schlegel_proof)
        ),
        "folded_proof": None if folded_proof is None else report_to_dict(folded_proof),
    }

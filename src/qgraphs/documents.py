"""JSON interchange documents for the CLI.

Every document is a JSON object with a ``kind`` ("quantum-set",
"quantum-graph", "bicharacter", "report", "certificate", "operator"),
``schema_version`` 1 and a free-form string ``metadata`` map.  Complex
numbers are always two-element [re, im] arrays, matrices are row-major
nested lists, keys are emitted sorted, and NaN/Inf are refused.
"""

from __future__ import annotations

import json
from typing import Any, Optional

import numpy as np

from .algebra import Operator, QuantumSet, Report, build_quantum_set
from .errors import InvalidInput
from .graphs import GraphReport, QuantumGraph
from .groups import AbelianGroup, make_bicharacter, twist_quantum_set
from .obstruction import Certificate, Inconclusive

SCHEMA_VERSION = 1

KINDS = ("quantum-set", "quantum-graph", "bicharacter", "report", "certificate", "operator")


class DocumentError(InvalidInput):
    """Malformed or mistyped interchange document."""


# ---------------------------------------------------------------------------
# scalar / matrix encoding
# ---------------------------------------------------------------------------


def complex_to_json(z: complex) -> list[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def complex_from_json(v: Any) -> complex:
    if not (isinstance(v, (list, tuple)) and len(v) == 2):
        raise DocumentError(f"complex numbers must be [re, im] pairs, got {v!r}")
    return complex(float(v[0]), float(v[1]))


def matrix_to_json(a: np.ndarray) -> list[list[list[float]]]:
    a = np.asarray(a, dtype=complex)
    return [[complex_to_json(z) for z in row] for row in a]


def matrix_from_json(v: Any) -> np.ndarray:
    if not isinstance(v, list) or not all(isinstance(row, list) for row in v):
        raise DocumentError("matrices must be row-major nested lists")
    return np.asarray([[complex_from_json(z) for z in row] for row in v], dtype=complex)


# ---------------------------------------------------------------------------
# quantum sets
# ---------------------------------------------------------------------------


def set_to_spec(x: QuantumSet) -> dict:
    if x.blocks is not None:
        return {"blocks": list(x.blocks)}
    if x.group is not None and x.bicharacter is not None:
        return {
            "group": {"orders": list(x.group.orders)},
            "bicharacter": matrix_to_json(x.bicharacter.gen_values),
        }
    raise DocumentError("quantum set is neither block-based nor a group twist")


def set_from_spec(spec: Any, tol: float = 1e-9) -> QuantumSet:
    if not isinstance(spec, dict):
        raise DocumentError(f"set spec must be an object, got {type(spec).__name__}")
    if "blocks" in spec:
        return build_quantum_set(spec["blocks"], tol=tol)
    if "group" in spec:
        orders = spec["group"]["orders"]
        group = AbelianGroup(tuple(int(n) for n in orders))
        sigma = make_bicharacter(group, matrix_from_json(spec["bicharacter"]), tol=tol)
        return twist_quantum_set(group, sigma, tol=tol)
    raise DocumentError("set spec needs either 'blocks' or 'group' + 'bicharacter'")


# ---------------------------------------------------------------------------
# graphs, operators, reports, certificates
# ---------------------------------------------------------------------------


def graph_to_document(g: QuantumGraph, metadata: Optional[dict] = None) -> dict:
    return {
        "kind": "quantum-graph",
        "schema_version": SCHEMA_VERSION,
        "set": set_to_spec(g.set),
        "adjacency": matrix_to_json(g.adjacency),
        "metadata": dict(metadata or {}),
    }


def graph_from_document(doc: Any, tol: float = 1e-9) -> QuantumGraph:
    _expect_kind(doc, "quantum-graph")
    x = set_from_spec(doc.get("set"), tol=tol)
    a = matrix_from_json(doc.get("adjacency"))
    if a.shape != (x.N, x.N):
        raise DocumentError(f"adjacency shape {a.shape} does not match set dimension {x.N}")
    return QuantumGraph(set=x, adjacency=a)


def operator_to_document(op: Operator, map_kind: str = "iso",
                         metadata: Optional[dict] = None) -> dict:
    return {
        "kind": "operator",
        "schema_version": SCHEMA_VERSION,
        "domain": set_to_spec(op.domain),
        "codomain": set_to_spec(op.codomain),
        "matrix": matrix_to_json(op.matrix),
        "map_kind": map_kind,
        "metadata": dict(metadata or {}),
    }


def operator_from_document(doc: Any, tol: float = 1e-9) -> Operator:
    _expect_kind(doc, "operator")
    dom = set_from_spec(doc.get("domain"), tol=tol)
    cod = set_from_spec(doc.get("codomain"), tol=tol)
    return Operator(domain=dom, codomain=cod, matrix=matrix_from_json(doc.get("matrix")))


def report_to_document(report: Report | GraphReport,
                       metadata: Optional[dict] = None) -> dict:
    doc: dict[str, Any] = {
        "kind": "report",
        "schema_version": SCHEMA_VERSION,
        "metadata": dict(metadata or {}),
    }
    if isinstance(report, Report):
        doc["checks"] = [
            {"name": c.name, "passed": bool(c.passed), "residual": float(c.residual)}
            for c in report.checks
        ]
        doc["summary"] = {"all_pass": report.all_pass, "tol": report.tol}
    else:
        doc["summary"] = {
            "is_graph": report.is_graph,
            "is_undirected": report.is_undirected,
            "loop_status": report.loop_status,
            "is_simple": report.is_simple,
            "is_multigraph": report.is_multigraph,
            "vertices": report.vertices,
            "edges": complex_to_json(report.edges),
            "quantum_edges": report.quantum_edges,
            "regular_degree": report.regular_degree,
        }
    return doc


def certificate_to_document(res: Certificate | Inconclusive,
                            metadata: Optional[dict] = None) -> dict:
    meta = dict(metadata or {})
    if isinstance(res, Certificate):
        return {
            "kind": "certificate",
            "schema_version": SCHEMA_VERSION,
            "witnesses": {
                "trace_x": res.trace_x,
                "trace_y": res.trace_y,
                "x": matrix_to_json(res.witness_x),
                "y": matrix_to_json(res.witness_y),
            },
            "residual": float(res.residual),
            "threshold": float(res.threshold),
            "metadata": meta,
        }
    meta.setdefault("note", res.note)
    return {
        "kind": "report",
        "schema_version": SCHEMA_VERSION,
        "summary": {
            "outcome": "inconclusive",
            "closure_dim": res.closure_dim,
            "max_residual": res.max_residual,
        },
        "metadata": meta,
    }


def bicharacter_to_document(group: AbelianGroup, gen_values: np.ndarray,
                            metadata: Optional[dict] = None) -> dict:
    return {
        "kind": "bicharacter",
        "schema_version": SCHEMA_VERSION,
        "group": {"orders": list(group.orders)},
        "gen_values": matrix_to_json(gen_values),
        "metadata": dict(metadata or {}),
    }


# ---------------------------------------------------------------------------
# (de)serialisation
# ---------------------------------------------------------------------------


def dumps(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, allow_nan=False, separators=(",", ": "))


def _reject_constant(name: str):
    raise DocumentError(f"non-finite number {name!r} is not allowed in documents")


def loads(text: str) -> dict:
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise DocumentError(
            f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    if not isinstance(doc, dict):
        raise DocumentError("document root must be a JSON object")
    return doc


def _expect_kind(doc: Any, kind: str) -> None:
    if not isinstance(doc, dict):
        raise DocumentError("document root must be a JSON object")
    got = doc.get("kind")
    if got != kind:
        raise DocumentError(f"expected a {kind!r} document, got kind {got!r}")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise DocumentError(f"unsupported schema_version {version!r}")

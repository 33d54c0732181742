"""JSON interchange documents for the CLI.

Every document is a JSON object with a ``kind`` ("quantum-set",
"quantum-graph", "bicharacter", "report", "certificate", "operator"),
``schema_version`` 1 and a free-form string ``metadata`` map.  Complex
numbers are always two-element [re, im] arrays of finite JSON numbers,
matrices are row-major nested lists of them, and keys are emitted sorted.
This module is the only one that reads or writes the format: every
malformed entry (ragged rows, strings, null, booleans, NaN/Inf, missing
keys) is refused with a ``DocumentError``.

The builders keep matrices and vectors as complex numpy arrays, and
:func:`dumps` writes each array from a table of its distinct values, so no
Python object is made per entry.  :func:`loads` reads the matrices back the
same way: the value of each key that holds one (``adjacency``, ``matrix``,
``bicharacter``, ``gen_values``), if it is a rectangular array of [re, im]
pairs, is converted through a table of its distinct pairs into a float64
array, the pair texts read by one ``json.loads``; only the text of each
distinct pair becomes a Python object.  ``json.loads`` parses the rest of the document and
every array that fails a check, so values and error messages are those of
``json.loads`` plus ``np.asarray``.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from typing import Any, Optional

import numpy as np

from .algebra import DEFAULT_TOL, Operator, QuantumSet, Report, build_quantum_set
from .errors import InvalidInput
from .graphs import EdgeProjection, GraphReport, QuantumGraph
from .groups import AbelianGroup, Bicharacter, make_bicharacter, twist_quantum_set
from .obstruction import Certificate, Inconclusive

SCHEMA_VERSION = 1


class DocumentError(InvalidInput):
    """Malformed or mistyped interchange document."""


# ---------------------------------------------------------------------------
# the codec: complex arrays as nested [re, im] pairs
# ---------------------------------------------------------------------------


def array_to_json(a: Any) -> list:
    """A complex scalar, vector or matrix as [re, im] pairs nested like ``a``."""
    a = np.asarray(a, dtype=complex)
    return np.ascontiguousarray(a).reshape(-1).view(np.float64).reshape(a.shape + (2,)).tolist()


def _numbers(v: Any, what: str) -> np.ndarray:
    """``v`` as a float64 array of finite JSON numbers, or DocumentError."""
    try:
        arr = np.asarray(v)
    except ValueError:
        raise DocumentError(f"{what} has ragged rows or missing entries") from None
    if arr.dtype == object and all(type(x) in (int, float) for x in arr.flat):
        # integers beyond the int64/uint64 range stay Python objects
        try:
            arr = arr.astype(np.float64)
        except OverflowError:
            raise DocumentError(f"{what} has a non-finite entry") from None
    if arr.dtype.kind not in "iuf":
        raise DocumentError(f"{what} entries must be JSON numbers")
    arr = arr.astype(np.float64, copy=False)
    if not np.isfinite(arr).all():
        raise DocumentError(f"{what} has a non-finite entry")
    return arr


def _pairs(arr: np.ndarray, what: str) -> np.ndarray:
    """The complex view of a float64 array whose last axis holds [re, im]."""
    if arr.ndim == 0 or arr.shape[-1] != 2:
        raise DocumentError(f"{what} must hold [re, im] pairs, got shape {arr.shape}")
    return arr.view(np.complex128)[..., 0]


def _holds_boolean(v: Any) -> bool:
    """Whether some list inside the parsed JSON value ``v`` holds true or false."""
    if isinstance(v, dict):
        return any(map(_holds_boolean, v.values()))
    if not isinstance(v, list):
        return False
    types = set(map(type, v))
    if bool in types:
        return True
    return (list in types or dict in types) and any(map(_holds_boolean, v))


def _array(v: Any, what: str) -> np.ndarray:
    return _pairs(_numbers(v, what), what)


def array_from_json(v: Any, what: str = "matrix") -> np.ndarray:
    """The complex array whose [re, im] pairs ``v`` nests; consumers check its shape.

    The document readers skip the boolean scan: :func:`loads` has done it
    for any text that spells true or false.
    """
    if _holds_boolean(v):
        raise DocumentError(f"{what} entries must be JSON numbers")
    return _array(v, what)


def _entries(obj: Any, what: str, *keys: str) -> list:
    """The values of the required ``keys`` of the JSON object ``obj``."""
    if not isinstance(obj, dict):
        raise DocumentError(f"{what} must be a JSON object")
    for key in keys:
        if key not in obj:
            raise DocumentError(f"{what} needs the entry {key!r}")
    return [obj[key] for key in keys]


def _int_list(v: Any, what: str) -> list[int]:
    if not (isinstance(v, list) and all(type(n) is int for n in v)):
        raise DocumentError(f"{what} must be a list of JSON integers, got {v!r:.80}")
    return v


def _group(v: Any) -> AbelianGroup:
    return AbelianGroup(tuple(_int_list(_entries(v, "group", "orders")[0], "group orders")))


# ---------------------------------------------------------------------------
# quantum sets
# ---------------------------------------------------------------------------


def set_to_spec(x: QuantumSet) -> dict:
    if x.blocks is not None:
        return {"blocks": list(x.blocks)}
    if x.group is not None and x.bicharacter is not None:
        return {
            "group": {"orders": list(x.group.orders)},
            "bicharacter": array_to_json(x.bicharacter.gen_values),
        }
    raise DocumentError("quantum set is neither block-based nor a group twist")


def set_from_spec(spec: Any, tol: float = DEFAULT_TOL) -> QuantumSet:
    if not isinstance(spec, dict):
        raise DocumentError(f"set spec must be an object, got {type(spec).__name__}")
    if "blocks" in spec:
        return build_quantum_set(_int_list(spec["blocks"], "set blocks"))
    if "group" in spec:
        group_spec, gen_values = _entries(spec, "a group set spec", "group", "bicharacter")
        group = _group(group_spec)
        sigma = make_bicharacter(group, _array(gen_values, "bicharacter"), tol=tol)
        return twist_quantum_set(group, sigma)
    raise DocumentError("set spec needs either 'blocks' or 'group' + 'bicharacter'")


# ---------------------------------------------------------------------------
# graphs, operators, reports, certificates
# ---------------------------------------------------------------------------


def document(kind: str, metadata: Optional[dict], **body: Any) -> dict:
    """A ``kind`` document of this schema version with the entries ``body``."""
    return {"kind": kind, "schema_version": SCHEMA_VERSION, "metadata": dict(metadata or {}),
            **body}


def graph_to_document(g: QuantumGraph, metadata: Optional[dict] = None) -> dict:
    return document("quantum-graph", metadata, set=set_to_spec(g.set), adjacency=g.adjacency)


def graph_from_document(doc: Any, tol: float = DEFAULT_TOL) -> QuantumGraph:
    spec, adjacency = _open(doc, "quantum-graph", "set", "adjacency")
    x = set_from_spec(spec, tol=tol)
    return QuantumGraph(set=x, adjacency=_array(adjacency, "adjacency"))


def projection_to_document(p: EdgeProjection, metadata: Optional[dict] = None) -> dict:
    """The edge-projection form of a graph: one [i, j, matrix] entry per block pair."""
    return document("quantum-graph", metadata, set=set_to_spec(p.set),
                    projection=[[i, j, mat] for (i, j), mat in sorted(p.blocks.items())])


def projection_from_document(doc: Any, tol: float = DEFAULT_TOL) -> EdgeProjection:
    spec, entries = _open(doc, "quantum-graph", "set", "projection")
    x = set_from_spec(spec, tol=tol)
    if not isinstance(entries, list):
        raise DocumentError("projection must be a list of [i, j, matrix] entries")
    blocks: dict[tuple[int, int], np.ndarray] = {}
    for entry in entries:
        if not (isinstance(entry, list) and len(entry) == 3
                and type(entry[0]) is int and type(entry[1]) is int):
            raise DocumentError(f"projection entries must be [i, j, matrix], got {entry!r:.80}")
        key = (entry[0], entry[1])
        if key in blocks:
            raise DocumentError(f"projection block {key} appears twice")
        blocks[key] = _array(entry[2], f"projection block {key}")
    return EdgeProjection(set=x, blocks=blocks)


def operator_to_document(op: Operator, metadata: Optional[dict] = None) -> dict:
    return document("operator", metadata, domain=set_to_spec(op.domain),
                    codomain=set_to_spec(op.codomain), matrix=op.matrix)


def operator_from_document(doc: Any, tol: float = DEFAULT_TOL) -> Operator:
    dom, cod, matrix = _open(doc, "operator", "domain", "codomain", "matrix")
    return Operator(domain=set_from_spec(dom, tol=tol), codomain=set_from_spec(cod, tol=tol),
                    matrix=_array(matrix, "matrix"))


def report_to_document(report: Report | GraphReport,
                       metadata: Optional[dict] = None) -> dict:
    if isinstance(report, Report):
        checks = [{"name": c.name, "passed": bool(c.passed), "residual": float(c.residual)}
                  for c in report.checks]
        return document("report", metadata, checks=checks,
                        summary={"all_pass": report.all_pass, "tol": report.tol})
    summary = report.invariants()
    summary["edges"] = array_to_json(summary["edges"])
    summary["quantum_edges"] = report.quantum_edges
    return document("report", metadata, summary=summary)


def certificate_to_document(res: Certificate | Inconclusive,
                            metadata: Optional[dict] = None) -> dict:
    if isinstance(res, Certificate):
        witnesses = {"trace_x": res.trace_x, "trace_y": res.trace_y,
                     "x": res.witness_x, "y": res.witness_y}
        return document("certificate", metadata, witnesses=witnesses,
                        residual=float(res.residual), threshold=float(res.threshold))
    summary = {"outcome": "inconclusive", "closure_dim": res.closure_dim,
               "max_residual": res.max_residual}
    return document("report", {"note": res.note, **(metadata or {})}, summary=summary)


def bicharacter_to_document(group: AbelianGroup, gen_values: np.ndarray,
                            metadata: Optional[dict] = None) -> dict:
    return document("bicharacter", metadata, group={"orders": list(group.orders)},
                    gen_values=array_to_json(gen_values))


def bicharacter_from_document(doc: Any, group: AbelianGroup,
                              tol: float = DEFAULT_TOL) -> Bicharacter:
    """The bicharacter a document defines on ``group``, which must be its group."""
    group_spec, gen_values = _open(doc, "bicharacter", "group", "gen_values")
    if _group(group_spec).orders != group.orders:
        raise DocumentError("bicharacter document is for a different group")
    return make_bicharacter(group, _array(gen_values, "gen_values"), tol=tol)


def bicharacter_from_text(text: str, group: AbelianGroup, tol: float = DEFAULT_TOL) -> Bicharacter:
    """A bicharacter from inline JSON generator values: real numbers or [re, im] pairs."""
    arr = _numbers(_parse(text), "generator values")
    if arr.ndim == 3:
        arr = _pairs(arr, "generator values")
    return make_bicharacter(group, arr, tol=tol)


# ---------------------------------------------------------------------------
# (de)serialisation
# ---------------------------------------------------------------------------


# what the skeleton encoder writes for each array; its quoted form can occur
# elsewhere only in a string holding NUL, which argv cannot hold
_STAND_IN = "\x00"
_QUOTED_STAND_IN = json.dumps(_STAND_IN)


def dumps(doc: dict) -> str:
    """``doc`` as JSON with sorted keys; numpy arrays become [re, im] pairs.

    The text is byte for byte ``json.dumps(..., sort_keys=True,
    allow_nan=False, separators=(",", ": "))`` of the document with each
    array replaced by its nested-list form.  Non-finite values raise
    ``ValueError``.
    """
    arrays: list[np.ndarray] = []

    def stand_in(obj: Any) -> str:
        if not isinstance(obj, np.ndarray):
            raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
        arrays.append(obj)
        return _STAND_IN

    skeleton = json.JSONEncoder(sort_keys=True, allow_nan=False, separators=(",", ": "),
                                default=stand_in).encode(doc)
    pieces = skeleton.split(_QUOTED_STAND_IN)
    if len(pieces) != len(arrays) + 1:
        raise ValueError("a document string holds NUL, which marks the arrays")
    texts = _array_texts(arrays)
    return "".join(itertools.chain.from_iterable(zip(pieces, texts))) + pieces[-1]


def _array_texts(arrays: list[np.ndarray]) -> list[str]:
    """The JSON text of each array; the arrays of one shape share one table."""
    by_shape: dict[tuple, list[int]] = {}
    for k, a in enumerate(arrays):
        by_shape.setdefault(a.shape, []).append(k)
    texts = [""] * len(arrays)
    for ks in by_shape.values():
        if len(ks) == 1:
            stack = np.asarray(arrays[ks[0]], dtype=complex)[None]
        else:
            stack = np.array([arrays[k] for k in ks], dtype=complex)
        for k, text in zip(ks, _stack_texts(stack)):
            texts[k] = text
    return texts


def _stack_texts(stack: np.ndarray) -> list[str]:
    """The JSON text of each ``stack[k]``, written from its distinct (re, im) bit patterns."""
    flat = np.ascontiguousarray(stack).reshape(-1)
    if not np.isfinite(flat).all():
        raise ValueError("Out of range float values are not JSON compliant")
    pairs = flat.view(np.uint64).reshape(-1, 2)  # (re, im) bits: -0.0 and 0.0 stay apart
    order = np.lexsort((pairs[:, 1], pairs[:, 0]))  # equal pairs side by side
    ranked = pairs[order]
    starts = np.ones(len(ranked), dtype=bool)
    starts[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    code = np.empty(len(ranked), dtype=np.intp)
    code[order] = np.cumsum(starts) - 1
    values = ranked[starts].view(np.float64)
    entries = [f"[{x!r},{y!r}]" for x, y in zip(values[:, 0].tolist(), values[:, 1].tolist())]
    shape = stack.shape
    while len(shape) > 1 and shape[-1] == 1:  # a unit axis wraps the table, not each entry
        entries = ["[" + e + "]" for e in entries]
        shape = shape[:-1]
    items = np.array(entries, dtype=object)[code].tolist()
    for axis in range(len(shape) - 1, 0, -1):
        m = shape[axis]
        items = ["[" + ",".join(items[k * m:(k + 1) * m]) + "]"
                 for k in range(math.prod(shape[:axis]))]
    return items


def _reject_constant(name: str):
    raise DocumentError(f"non-finite number {name!r} is not allowed in documents")


# The keys whose values the readers decode with ``_array``; only these values
# are read with numpy.  Elsewhere an array would reach a consumer that expects
# a list or a scalar (``kind``, ``blocks``, a projection entry [0, 0]) and
# change its error message, so projection lists are left to json.loads too.
_ARRAY_KEYS = ("adjacency", "bicharacter", "gen_values", "matrix")
# a JSON string, or one of those keys with a value of numbers and brackets
_STRING_OR_ARRAY = re.compile(r'"(?:(?:%s)"[ \t\n\r]*:[ \t\n\r]*(\[[-+.0-9eE \t\n\r,\[\]]*\])'
                              r'|(?:[^"\\]|\\.)*")' % "|".join(_ARRAY_KEYS), re.DOTALL)
_NOT_SKELETON = str.maketrans("", "", "-+.0123456789eE \t\n\r")


def _lift(region: str) -> Optional[np.ndarray]:
    """The float64 array that ``region`` spells if it is a rectangular array of
    [re, im] pairs of JSON numbers, at least 2-D, else None.

    The text after each "[" must be whitespace, or a pair and closing
    brackets; the brackets and commas must be those of a rectangular array.
    The distinct pair texts are read by one ``json.loads`` and :func:`_numbers`,
    so the values are bit for bit those ``_numbers`` makes of
    ``json.loads(region)``.
    """
    pieces = region.split("[")[1:]
    texts = [piece for piece in set(pieces) if piece.strip(" \t\n\r")]
    heads = []
    for piece in texts:
        head, close, tail = piece.partition("]")
        if not close or tail.strip("], \t\n\r"):
            return None
        heads.append(head)
    try:
        values = _numbers(json.loads("[[" + "],[".join(heads) + "]]"), "pairs")
    except ValueError:  # not JSON numbers, or not finite (a DocumentError)
        return None
    if values.shape != (len(heads), 2):
        return None
    skeleton = region.translate(_NOT_SKELETON)
    shape, expected = [2], "[,]"  # from the innermost axis out
    for depth in range(2, len(skeleton) - len(skeleton.lstrip("[")) + 1):
        leaves = skeleton.count(",", 0, skeleton.find("]" * depth)) + 1  # in the first block
        shape.insert(0, leaves // math.prod(shape))
        expected = "[" + ",".join([expected] * shape[0]) + "]"
    if len(shape) < 2 or skeleton != expected:
        return None
    table = dict(zip(texts, values.view(np.complex128)[:, 0]))
    pairs = map(table.__getitem__, filter(table.__contains__, pieces))
    return np.fromiter(pairs, np.complex128, math.prod(shape[:-1])).view(np.float64).reshape(shape)


def _parse(text: str) -> Any:
    """The JSON value of ``text``; arrays under ``_ARRAY_KEYS`` come back as float64 arrays.

    Each array that :func:`_lift` reads is replaced in the text by the string
    NUL + its index, which ``json.loads`` parses with the rest; a text that
    spells NUL itself is read entirely by ``json.loads``.
    """
    arrays: list[np.ndarray] = []

    def lift(match: re.Match) -> str:
        array = None if match[1] is None else _lift(match[1])
        if array is None:
            return match[0]
        arrays.append(array)
        return text[match.start():match.start(1)] + f'"\\u0000{len(arrays) - 1}"'

    def restore(obj: dict) -> dict:
        for key in _ARRAY_KEYS:
            v = obj.get(key)
            if type(v) is str and v[:1] == _STAND_IN:
                obj[key] = arrays[int(v[1:])]
        return obj

    rest = text if "\\u0000" in text else _STRING_OR_ARRAY.sub(lift, text)
    try:
        value = json.loads(rest, parse_constant=_reject_constant,
                           object_hook=restore if arrays else None)
    except json.JSONDecodeError:
        try:  # the lifted arrays are valid JSON: the text fails too, and places the error
            json.loads(text, parse_constant=_reject_constant)
        except json.JSONDecodeError as exc:
            raise DocumentError(
                f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from None
        raise
    # no list of a document holds booleans; scan only texts that spell one
    if ("true" in rest or "false" in rest) and _holds_boolean(value):
        raise DocumentError("true or false stands where a number is expected")
    return value


def loads(text: str) -> dict:
    """The document ``text`` holds; its matrices come back as float64 arrays of [re, im] pairs."""
    doc = _parse(text)
    if not isinstance(doc, dict):
        raise DocumentError("document root must be a JSON object")
    return doc


def _open(doc: Any, kind: str, *keys: str) -> list:
    """The required entries ``keys`` of a ``kind`` document of this schema version."""
    if not isinstance(doc, dict):
        raise DocumentError("document root must be a JSON object")
    got = doc.get("kind")
    if got != kind:
        raise DocumentError(f"expected a {kind!r} document, got kind {got!r}")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise DocumentError(f"unsupported schema_version {version!r}")
    return _entries(doc, f"a {kind!r} document", *keys)

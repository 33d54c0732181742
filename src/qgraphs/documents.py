"""JSON interchange documents for the CLI.

Every document is a JSON object with a ``kind`` ("quantum-graph",
"bicharacter", "report", "certificate", "operator"), ``schema_version`` 1
and a free-form string ``metadata`` map.  A quantum set has no kind of its
own: ``set-check`` reads the ``set`` entry of any document that has one, or
a bare set spec.  Complex numbers are always two-element [re, im] arrays of
finite JSON numbers, matrices are row-major nested lists of them, and keys
are emitted sorted.
This module is the only one that reads or writes the format: every
malformed entry (ragged rows, strings, null, booleans, NaN/Inf, missing
keys, a number of more digits than ``int`` reads, nesting deeper than
``json.loads`` recurses) is refused with a ``DocumentError``.

The builders keep matrices and vectors as complex numpy arrays, and a graph
held by its diagonal (a twisted Cayley graph) as a :class:`DiagonalArray` of its
N-vector.  The one writer, :func:`encode`, writes each row of an array as runs
of equal entries, found by comparing each entry's (re, im) bits with the one
before: each distinct value that starts a run is written once by
``float.__repr__``, and a run of k copies of an entry's text is one string
product.  A :class:`DiagonalArray` is written from its diagonal: each row is two
slices of one string of zeros around its diagonal entry, and only the N + 1
distinct values are written, with no pass over N^2 entries: on twisted Q_9
(N = 512) the ``tracemalloc`` peak of :func:`encode` is about 2.6 MiB, the text
of the pieces it returns.  The run writer works in chunks of ``_WRITE_CHUNK``
entries of whole rows, so it holds the array, the text and one chunk.  The
pieces keep a matrix's rows apart, so the CLI writes a document without ever
holding all of it joined.

:func:`loads` reads one shape with numpy: an N x N array under a matrix key
(``adjacency``, ``matrix``, ``bicharacter``, ``gen_values``) whose off-diagonal
pairs all spell one text, as a twisted adjacency's do.  It is walked row by
row, one ``str.startswith`` and one ``str.find`` a row, and its N diagonal
pairs and that one text are read by one ``json.loads``: O(N) string operations.
When that text reads as (+0.0, +0.0) the array comes back as a
:class:`DiagonalArray` of the N pairs, which :func:`graph_from_document` turns
into a graph held by its diagonal, so the reader holds the text and N pairs (a
``tracemalloc`` peak of about 0.14 MiB on twisted Q_9); otherwise as the
(N, N, 2) float64 array.  One ``json.loads`` reads the rest, any other array
included, as lists that the consumers convert with ``np.asarray``, so values
and errors are those of ``json.loads`` + ``np.asarray``.  Such an array costs
a Python float per entry: classical Q_9 (N = 512, not diagonal) reads in about
0.16 s where a twisted one reads in about 0.7 ms.
"""

from __future__ import annotations

import json
import math
import re
import sys
from typing import Any, Iterator, Optional

import numpy as np

from .algebra import DEFAULT_TOL, Operator, QuantumSet, Report, build_quantum_set
from .errors import InvalidInput
from .graphs import EdgeProjection, GraphReport, QuantumGraph
from .groups import AbelianGroup, Bicharacter, twist_quantum_set
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


class DiagonalArray:
    """An N x N array that is zero off its diagonal, held by its N diagonal entries d.

    :func:`graph_to_document` puts a graph held by its diagonal in this form, whose
    array is the complex ``np.diag(d)``.  :func:`loads` returns in it (``pairs``
    true) an array the diagonal walk reads whose off-diagonal pairs are all
    (+0.0, +0.0); its array is the (N, N, 2) float64 one of [re, im] pairs that
    ``json.loads`` + ``np.asarray`` give, bit for bit.  ``np.asarray`` forms the
    array; :func:`encode` and :func:`graph_from_document` take d as it is.
    """

    def __init__(self, d: np.ndarray, pairs: bool = False) -> None:
        self.d, self.pairs = d, pairs

    def __array__(self, dtype: Any = None, copy: Any = None) -> np.ndarray:
        a = np.diag(self.d)
        if self.pairs:
            a = a.view(np.float64).reshape(a.shape + (2,))
        return a if dtype is None else a.astype(dtype, copy=False)


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
    stack = [v]  # not recursive: a value can nest as deep as json.loads reads
    while stack:
        v = stack.pop()
        if isinstance(v, dict):
            stack += v.values()
        elif isinstance(v, list):
            types = set(map(type, v))
            if bool in types:
                return True
            if list in types or dict in types:
                stack += v
    return False


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
        for key in ("group", "bicharacter"):
            if key in spec:
                raise DocumentError(f"set spec has both 'blocks' and {key!r}: "
                                    "give one presentation of the set")
        return build_quantum_set(_int_list(spec["blocks"], "set blocks"))
    if "group" in spec:
        group_spec, gen_values = _entries(spec, "a group set spec", "group", "bicharacter")
        group = _group(group_spec)
        sigma = Bicharacter(group, _array(gen_values, "bicharacter"), tol)
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
    """The graph as a document; a graph held by its diagonal puts a :class:`DiagonalArray`."""
    a = g.adjacency if g.diagonal is None else DiagonalArray(g.diagonal)
    return document("quantum-graph", metadata, set=set_to_spec(g.set), adjacency=a)


def graph_from_document(doc: Any, tol: float = DEFAULT_TOL) -> QuantumGraph:
    """The graph a document holds: held by its diagonal when :func:`loads` read the
    adjacency as a :class:`DiagonalArray`, else by its matrix."""
    spec, adjacency = _open(doc, "quantum-graph", "set", "adjacency")
    x = set_from_spec(spec, tol=tol)
    if isinstance(adjacency, DiagonalArray) and adjacency.pairs:
        if not np.isfinite(adjacency.d).all():
            raise DocumentError("adjacency has a non-finite entry")
        return QuantumGraph(set=x, diagonal=adjacency.d)
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
    """The report as a document.  A residual or summary number that is inf or nan
    raises ``DocumentError`` here, so its table is refused as its JSON text is."""
    if isinstance(report, Report):
        checks = [{"name": c.name, "passed": bool(c.passed), "residual": float(c.residual)}
                  for c in report.checks]
        numbers = [c["residual"] for c in checks]
        doc = document("report", metadata, checks=checks,
                       summary={"all_pass": report.all_pass, "tol": report.tol})
    else:
        summary = report.invariants()
        numbers = [summary["edges"], summary["regular_degree"] or 0.0]
        summary["edges"] = array_to_json(summary["edges"])
        summary["quantum_edges"] = report.quantum_edges
        doc = document("report", metadata, summary=summary)
    if not np.isfinite(numbers).all():
        raise DocumentError(_OUT_OF_RANGE)
    return doc


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
    return Bicharacter(group, _array(gen_values, "gen_values"), tol)


def bicharacter_from_text(text: str, group: AbelianGroup, tol: float = DEFAULT_TOL) -> Bicharacter:
    """A bicharacter from inline JSON generator values: real numbers or [re, im] pairs."""
    arr = _numbers(_parse(text), "generator values")
    if arr.ndim == 3:
        arr = _pairs(arr, "generator values")
    return Bicharacter(group, arr, tol)


# ---------------------------------------------------------------------------
# (de)serialisation
# ---------------------------------------------------------------------------


# what the skeleton encoder writes for each array; its quoted form can occur
# elsewhere only in a string holding NUL, which argv cannot hold
_STAND_IN = "\x00"
_QUOTED_STAND_IN = json.dumps(_STAND_IN)
_OUT_OF_RANGE = "an output value left the float range: JSON has no inf or nan"

# Chunk size of the array writer, in entries.  Timed on a random 64 x 64 block
# graph and on twisted Q_9 and Q_10, chunks 4x smaller or 4-16x larger write no
# faster; larger ones hold more.
_WRITE_CHUNK = 1 << 14


def encode(doc: dict) -> list[str]:
    """``doc`` as JSON with sorted keys, in pieces a matrix's rows apart.

    Joined, the pieces are byte for byte ``json.dumps(..., sort_keys=True,
    allow_nan=False, separators=(",", ": "))`` of the document with each
    complex numpy array replaced by its nested [re, im] lists, each
    :class:`DiagonalArray` by those of ``np.asarray`` of it (written from its
    diagonal, never formed) and any other array by its ``tolist()``.  So the
    arrays :func:`loads` returns are written as they were read:
    ``"".join(encode(loads(text))) + "\n"`` is a document's text as the CLI
    wrote it.  A non-finite value raises ``DocumentError``: the output has no
    JSON form.  A writer that writes the pieces one by one never holds the
    whole text joined, and writes nothing of a document that fails.
    """
    arrays: list[np.ndarray | DiagonalArray] = []

    def stand_in(obj: Any) -> Any:
        if isinstance(obj, DiagonalArray):
            arrays.append(obj)
            return _STAND_IN
        if not isinstance(obj, np.ndarray):
            raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
        if not np.iscomplexobj(obj):
            return obj.tolist()
        arrays.append(obj)
        return _STAND_IN

    try:
        skeleton = json.JSONEncoder(sort_keys=True, allow_nan=False, separators=(",", ": "),
                                    default=stand_in).encode(doc)
    except ValueError as exc:
        if not str(exc).startswith("Out of range float values"):
            raise
        raise DocumentError(_OUT_OF_RANGE) from None
    pieces = skeleton.split(_QUOTED_STAND_IN)
    if len(pieces) != len(arrays) + 1:
        raise ValueError("a document string holds NUL, which marks the arrays")
    out = []
    for piece, text in zip(pieces, _array_texts(arrays)):
        out.append(piece)
        out += text
    out.append(pieces[-1])
    return out


def _array_texts(arrays: list[np.ndarray | DiagonalArray]) -> Iterator[tuple[str, ...]]:
    """The JSON text of each array in turn, as a tuple of pieces; the arrays of
    one shape are written as one stack, and a :class:`DiagonalArray` from its
    diagonal.  One at a time: a projection document can hold a million arrays,
    and an object per array would cost the collector more than the writing."""
    by_shape: dict[tuple, list[np.ndarray]] = {}
    for a in arrays:
        if not isinstance(a, DiagonalArray):
            by_shape.setdefault(a.shape, []).append(a)
    texts = {}
    for shape, same in by_shape.items():
        pieces, c = _stack_texts(np.asarray(same[0])[None] if len(same) == 1 else np.array(same))
        texts[shape] = zip(*[iter(pieces)] * c)  # c pieces at a time
    for a in arrays:
        yield tuple(_diagonal_texts(a.d)) if isinstance(a, DiagonalArray) else next(texts[a.shape])


def _bracketed(texts: list[str]) -> list[str]:
    """The pieces of the JSON list of the values whose texts are ``texts``."""
    if not texts:
        return ["[]"]
    pieces = [","] * (2 * len(texts) + 1)
    pieces[0], pieces[-1] = "[", "]"
    pieces[1::2] = texts
    return pieces


def _diagonal_texts(d: np.ndarray) -> list[str]:
    """The pieces of the JSON text of ``np.diag(d)``, a graph's adjacency held by its
    diagonal, with no pass over its N^2 entries.

    Row i is i copies of the zero's text, d_i's and N - 1 - i copies, each run a slice
    of one string of N - 1 copies.  Only the N + 1 distinct values are written by
    ``float.__repr__`` and checked to be finite, so the array is never formed.
    """
    n = len(d)
    values = np.append(d, 0j)
    if not np.isfinite(values).all():
        raise DocumentError(_OUT_OF_RANGE)
    *diagonal, pair = [f"[{x!r},{y!r}]" for x, y in
                       values.view(np.float64).reshape(-1, 2).tolist()]
    u = len(pair) + 1
    before, after = (pair + ",") * (n - 1), ("," + pair) * (n - 1)
    return _bracketed(["".join(("[", before[:i * u], t, after[:(n - 1 - i) * u], "]"))
                       for i, t in enumerate(diagonal)])


def _stack_texts(stack: np.ndarray) -> tuple[list[str], int]:
    """The JSON texts of the arrays ``stack[k]``, ``c`` pieces each: the pieces and ``c``.

    The entries are written one chunk of whole rows (about ``_WRITE_CHUNK``
    entries) at a time.  Each row is cut into runs of entries with equal
    (re, im) bits; the run heads' distinct values are written once each, and
    a run of k copies of a text is one string product.  An entry's text
    depends only on its bits, so the chunking leaves the bytes as they are.
    Besides the stack, the writer holds the row texts and one chunk, with a
    Python object per run, not per entry.  The texts along an array's first
    axis stay apart, so a matrix's rows are never joined here.
    """
    shape = stack.shape
    wrap = ""  # a unit axis wraps each entry, not each row
    while len(shape) > 1 and shape[-1] == 1:
        wrap += "["
        shape = shape[:-1]
    close = "]" * len(wrap)
    scalars = len(shape) == 1  # a stack of scalars: each row is one unbracketed entry
    if scalars:
        shape += (1,)
    m = shape[-1]
    rows = stack.reshape(math.prod(shape[:-1]), m)
    step = max(1, _WRITE_CHUNK // max(m, 1))
    items: list[str] = []
    for r in range(0, len(rows), step):
        chunk = np.ascontiguousarray(rows[r:r + step], dtype=complex)
        if not np.isfinite(chunk).all():
            raise DocumentError(_OUT_OF_RANGE)
        # (re, im) bits: -0.0 and 0.0 stay apart
        re_bits, im_bits = chunk.reshape(-1).view(np.uint64).reshape(-1, 2).T
        # a run: an entry that starts a row or differs from the one before, and its copies
        head = np.ones(len(re_bits), dtype=bool)
        head[1:] = (re_bits[1:] != re_bits[:-1]) | (im_bits[1:] != im_bits[:-1])
        head[::max(m, 1)] = True
        at = np.flatnonzero(head)
        lengths = np.diff(at, append=len(head))
        re_bits, im_bits = re_bits[at], im_bits[at]
        order = np.lexsort((im_bits, re_bits))  # equal values side by side
        re_bits, im_bits = re_bits[order], im_bits[order]
        starts = np.ones(len(at), dtype=bool)
        starts[1:] = (re_bits[1:] != re_bits[:-1]) | (im_bits[1:] != im_bits[:-1])
        code = np.empty(len(at), dtype=np.intp)
        code[order] = np.cumsum(starts) - 1
        entries = [f"{wrap}[{x!r},{y!r}]{close}" for x, y in
                   zip(re_bits[starts].view(np.float64).tolist(),
                       im_bits[starts].view(np.float64).tolist())]
        texts = np.array(entries, dtype=object)[code].tolist()
        copied = np.flatnonzero(lengths > 1)
        for i, k in zip(copied.tolist(), lengths[copied].tolist()):
            texts[i] = (texts[i] + ",") * (k - 1) + texts[i]
        if scalars:
            items += texts
            continue
        bounds = np.cumsum(head.reshape(len(chunk), m).sum(axis=1)).tolist()
        items += ["[" + ",".join(texts[a:b]) + "]" for a, b in zip([0] + bounds, bounds)]
    for axis in range(len(shape) - 2, 1, -1):
        m = shape[axis]
        items = ["[" + ",".join(items[k * m:(k + 1) * m]) + "]"
                 for k in range(math.prod(shape[:axis]))]
    if len(shape) == 2:  # each row is a whole array
        return items, 1
    m = shape[1]  # each array: the texts along its first axis, apart
    pieces = [p for k in range(shape[0]) for p in _bracketed(items[k * m:(k + 1) * m])]
    return pieces, len(pieces) // shape[0]


def _reject_constant(name: str):
    raise DocumentError(f"non-finite number {name!r} is not allowed in documents")


# The keys whose values the readers decode with ``_array``; only these values
# are walked.  Elsewhere an array would reach a consumer that expects
# a list or a scalar (``kind``, ``blocks``, a projection entry [0, 0]) and
# change its error message, so projection lists are left to json.loads too.
_ARRAY_KEYS = ("adjacency", "bicharacter", "gen_values", "matrix")
# a JSON string, or one of those keys, its colon and the "[" of its value
_STRING_OR_ARRAY = re.compile(r'"(?:(?:%s)"[ \t\n\r]*:[ \t\n\r]*(\[)|(?:[^"\\]|\\.)*")'
                              % "|".join(_ARRAY_KEYS), re.DOTALL)
_NOT_SKELETON = str.maketrans("", "", "-+.0123456789eE \t\n\r")


def _diagonal_walk(text: str, start: int) -> Optional[tuple[np.ndarray | DiagonalArray, int]]:
    """The N x N array spelled from ``text[start]`` on, and where it ends, if all its
    off-diagonal [re, im] pairs spell one text, as a twisted Cayley adjacency's do; else
    None, before anything of its size is allocated.  When that text reads as
    (+0.0, +0.0) the array is a :class:`DiagonalArray` of its N diagonal pairs;
    otherwise it is the (N, N, 2) float64 array, filled through its complex view.

    The unit is row 0's second pair and the separator before it; N follows from row 0's
    length.  Between diagonal pairs i and i + 1 the text must be N - 1 - i units, turned
    to start with the separator, the "]" + separator + "[" between rows and i + 1 units:
    one ``str.startswith`` against a slice of one string of 2N units, and one
    ``str.find`` for the next diagonal pair's end.  One ``json.loads`` reads the N
    diagonal pairs and the unit, each of whose brackets and commas must be exactly
    "[,]": no boolean or string, and json.loads refuses an empty number slot.
    """
    if not text.startswith("[[[", start):
        return None
    d = text.find("]", start) + 1  # the end of the first diagonal pair
    u = text.find("[", d)  # if none follows, row 0 cannot end with "]]" below
    if text[d:u].strip(" \t\n\r") != ",":
        return None
    sep, pair = text[d:u], text[u:text.find("]", u) + 1]
    unit = len(sep) + len(pair)
    n = (text.find("]]", d) + 1 - d) // unit + 1  # row 0 ends with "]]"
    units = (sep + pair) * (n - 1) + "]" + sep + "[" + (pair + sep) * (n - 1)
    gap = n * unit + len(sep) + 2  # from one diagonal pair's end to the next one's start
    pieces, at = [text[start + 2:d]], d
    for i in range(n - 1):
        if not text.startswith(units[i * unit:i * unit + gap], at):
            return None
        begin = at + gap
        at = text.find("]", begin) + 1
        pieces.append(text[begin:at])
    if not text.startswith("]]", at):
        return None
    joined = ",".join(pieces + [pair])
    if joined.translate(_NOT_SKELETON) != ",".join(["[,]"] * (n + 1)):
        return None
    try:  # a JSON integer becomes the float that float() makes of it, as in _numbers
        values = np.array(json.loads("[" + joined + "]"), np.float64)
    except (ValueError, OverflowError):  # not JSON numbers, or beyond the float range
        return None
    # 1e400 is inf, as json.loads reads it: consumers refuse it
    pairs = values.view(np.complex128)[:, 0]
    if not values[-1].view(np.uint64).any():  # (+0.0, +0.0): the zero np.diag fills in
        return DiagonalArray(pairs[:-1], pairs=True), at + 2
    out = np.empty((n, n), np.complex128)
    out[...] = pairs[-1]
    np.fill_diagonal(out, pairs[:-1])
    return out.view(np.float64).reshape(n, n, 2), at + 2


def _json(text: str, hook: Any = None) -> Any:
    """``json.loads(text)`` with NaN and Infinity refused, and with nesting deeper than
    it recurses or a number of more digits than ``int`` reads a DocumentError."""
    try:
        return json.loads(text, parse_constant=_reject_constant, object_hook=hook)
    except RecursionError:
        raise DocumentError("arrays or objects nest too deeply to be read") from None
    except ValueError as exc:  # int() refuses a digit string beyond its limit
        if isinstance(exc, json.JSONDecodeError) or not str(exc).startswith("Exceeds the limit"):
            raise
        raise DocumentError(
            f"a number has more than {sys.get_int_max_str_digits()} digits") from None


def _parse(text: str) -> Any:
    """The JSON value of ``text``.  An array under one of ``_ARRAY_KEYS`` that
    :func:`_diagonal_walk` reads comes back as it returns it; any other stays lists.

    A scan skips strings and stops at each of those keys' "[": the walk reads the array
    and says where it ends, or refuses it.  In the text given to ``json.loads``, each
    array walked is a string of NULs and its index, with more NULs than the longest run
    of "\\u0000" escapes the text spells, so no string of the text can pass for one.
    Only a text that holds a backslash can spell NUL, so most are never searched for
    "\\u0000".
    """
    nuls = _STAND_IN  # more NULs than any string of the text holds in a row
    if "\\" in text:  # only a backslash spells NUL
        while json.dumps(nuls)[1:-1] in text:  # doubled: k NULs in a row cost log k searches
            nuls *= 2
    quoted = json.dumps(nuls)[:-1]
    arrays, parts, done, at = [], [], 0, 0
    while match := _STRING_OR_ARRAY.search(text, at):  # text[:done] is in parts
        at = match.end()
        walked = None if match.start(1) < 0 else _diagonal_walk(text, match.start(1))
        if walked is not None:
            parts += [text[done:match.start(1)], f'{quoted}{len(arrays)}"']
            arrays.append(walked[0])
            done = at = walked[1]

    def restore(obj: dict) -> dict:
        for key in _ARRAY_KEYS:
            v = obj.get(key)
            if type(v) is str and v.startswith(nuls):
                obj[key] = arrays[int(v[len(nuls):])]
        return obj

    rest = "".join(parts + [text[done:]]) if arrays else text
    try:
        value = _json(rest, restore if arrays else None)
    except json.JSONDecodeError:
        try:  # the walked arrays are valid JSON: the text fails too, and places the error
            _json(text)
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
    """The document ``text`` holds.  A matrix the diagonal walk reads comes back as a
    :class:`DiagonalArray` when it is zero off its diagonal, else as a float64 array of
    [re, im] pairs; any other as the lists of ``json.loads``.  ``np.asarray`` gives the
    array ``json.loads`` + ``np.asarray`` give, bit for bit, and the readers of each kind
    take all three."""
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

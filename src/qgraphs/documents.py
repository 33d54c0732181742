"""JSON interchange documents for the CLI.

Every document is a JSON object with a ``kind`` ("quantum-set",
"quantum-graph", "bicharacter", "report", "certificate", "operator"),
``schema_version`` 1 and a free-form string ``metadata`` map.  Complex
numbers are always two-element [re, im] arrays of finite JSON numbers,
matrices are row-major nested lists of them, and keys are emitted sorted.
This module is the only one that reads or writes the format: every
malformed entry (ragged rows, strings, null, booleans, NaN/Inf, missing
keys, a number of more digits than ``int`` reads, nesting deeper than
``json.loads`` recurses) is refused with a ``DocumentError``.

The builders keep matrices and vectors as complex numpy arrays.
:func:`dumps` writes each row of an array as runs of equal entries, found by
comparing each entry's (re, im) bits with the one before: each distinct
value that starts a run is written once by ``float.__repr__``, and a run of k
copies of an entry's text is one string product.  :func:`loads` reads the
matrices back the other way: the value of each key that holds one
(``adjacency``, ``matrix``, ``bicharacter``, ``gen_values``), if it is a
rectangular array of [re, im] pairs, is read into a float64 array.  Each run
of the commonest pair text near the start is found by ``str.find`` and filled
by one slice assignment; the text between the runs goes through a table of
its distinct pairs, whose new texts one ``json.loads`` per chunk reads.  So a
twisted adjacency, whose N x N entries are all zero but about N, costs O(N)
Python objects each way.  ``json.loads`` parses the rest of the document and
every array that fails a check, so values and error messages are those of
``json.loads`` plus ``np.asarray``.

Both work in bounded chunks (``_READ_CHUNK`` characters of text,
``_WRITE_CHUNK`` entries of whole rows), so an N x N document costs the
text, the array and one chunk: on twisted Q_9 (N = 512, a 4 MiB adjacency)
the ``tracemalloc`` peak of :func:`loads` is about 4.3 MiB and that of
:func:`dumps` about 5 MiB, of which 2.6 MB is the text it returns.
:func:`encode` gives the text in pieces, a matrix's rows apart, so the CLI
writes a document without ever holding all of it.
"""

from __future__ import annotations

import json
import math
import re
import sys
from collections import Counter
from typing import Any, Iterator, Optional

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
_OUT_OF_RANGE = "an output value left the float range: JSON has no inf or nan"

# Chunk sizes of the array writer (entries) and reader (characters of text).
# Timed on a random 64 x 64 block graph and on twisted Q_9 and Q_10, chunks
# 4x smaller or 4-16x larger read and write no faster; larger ones hold more.
_WRITE_CHUNK = 1 << 14
_READ_CHUNK = 1 << 16
# The reader fills runs of at least _MIN_RUN copies (a power of two, 2 or more)
# of the commonest of the first _SAMPLE pieces; a shorter run costs more to
# find than to split.
_MIN_RUN = 32
_SAMPLE = 64


def dumps(doc: dict) -> str:
    """``doc`` as JSON with sorted keys; numpy arrays become [re, im] pairs.

    The text is byte for byte ``json.dumps(..., sort_keys=True,
    allow_nan=False, separators=(",", ": "))`` of the document with each
    array replaced by its nested-list form.  A non-finite value raises
    ``DocumentError``: the output has no JSON form.
    """
    return "".join(encode(doc))


def encode(doc: dict) -> list[str]:
    """The text of :func:`dumps` as a list of pieces, a matrix's rows apart.

    A writer that writes the pieces one by one never holds the whole text,
    and writes nothing of a document that fails.
    """
    arrays: list[np.ndarray] = []

    def stand_in(obj: Any) -> str:
        if not isinstance(obj, np.ndarray):
            raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
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


def _array_texts(arrays: list[np.ndarray]) -> Iterator[tuple[str, ...]]:
    """The JSON text of each array in turn, as a tuple of pieces; the arrays of
    one shape are written as one stack.  One at a time: a projection document
    can hold a million arrays, and an object per array would cost the
    collector more than the writing."""
    by_shape: dict[tuple, list[np.ndarray]] = {}
    for a in arrays:
        by_shape.setdefault(a.shape, []).append(a)
    texts = {}
    for shape, same in by_shape.items():
        pieces, c = _stack_texts(np.asarray(same[0])[None] if len(same) == 1 else np.array(same))
        texts[shape] = zip(*[iter(pieces)] * c)  # c pieces at a time
    for a in arrays:
        yield next(texts[a.shape])


def _bracketed(texts: list[str]) -> list[str]:
    """The pieces of the JSON list of the values whose texts are ``texts``."""
    if not texts:
        return ["[]"]
    pieces = [","] * (2 * len(texts) + 1)
    pieces[0], pieces[-1] = "[", "]"
    pieces[1::2] = texts
    return pieces


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
# are read with numpy.  Elsewhere an array would reach a consumer that expects
# a list or a scalar (``kind``, ``blocks``, a projection entry [0, 0]) and
# change its error message, so projection lists are left to json.loads too.
_ARRAY_KEYS = ("adjacency", "bicharacter", "gen_values", "matrix")
# a JSON string, or one of those keys with a value of numbers and brackets
_STRING_OR_ARRAY = re.compile(r'"(?:(?:%s)"[ \t\n\r]*:[ \t\n\r]*(\[[-+.0-9eE \t\n\r,\[\]]*\])'
                              r'|(?:[^"\\]|\\.)*")' % "|".join(_ARRAY_KEYS), re.DOTALL)
_NOT_SKELETON = str.maketrans("", "", "-+.0123456789eE \t\n\r")


def _shape(text: str, start: int, end: int) -> Optional[list[int]]:
    """The shape of the array ``text[start:end]`` spells if its brackets and
    commas are those of a rectangular array of [re, im] pairs, at least 2-D, else None."""
    skeleton = "".join(text[a:min(a + _READ_CHUNK, end)].translate(_NOT_SKELETON)
                       for a in range(start, end, _READ_CHUNK))
    shape, expected = [2], "[,]"  # from the innermost axis out
    for depth in range(2, len(skeleton) - len(skeleton.lstrip("[")) + 1):
        leaves = skeleton.count(",", 0, skeleton.find("]" * depth)) + 1  # in the first block
        shape.insert(0, leaves // math.prod(shape))
        if not shape[0]:  # an empty axis spells "[]", which no deeper skeleton is
            return None
        expected = "[" + ",".join([expected] * shape[0]) + "]"
    if len(shape) < 2 or skeleton != expected:
        return None
    return shape


def _learn(table: dict, pieces: set) -> bool:
    """Enter the values of the new non-blank ``pieces`` in ``table``; False if one is
    not a pair of JSON numbers and closing brackets."""
    texts, heads = [], []
    for piece in pieces.difference(table):
        head, close, tail = piece.partition("]")
        if close:
            if tail.strip("], \t\n\r"):
                return False
            texts.append(piece)
            heads.append(head)
        elif piece.strip(" \t\n\r"):
            return False
    if heads:
        try:
            values = _numbers(json.loads("[[" + "],[".join(heads) + "]]"), "pairs")
        except ValueError:  # not JSON numbers, or not finite (a DocumentError)
            return False
        if values.shape != (len(heads), 2):
            return False
        table.update(zip(texts, values.view(np.complex128)[:, 0].tolist()))
    return True


def _run_texts(chunk: str) -> Optional[list[str]]:
    """``"[" + piece``, 1, 2, 4, ... times, up to the chunk size, for the commonest pair piece
    among the first ``_SAMPLE`` of ``chunk``; [] if it does not repeat there, and None if
    ``chunk`` holds no pair piece."""
    for piece, n in Counter(chunk.split("[", _SAMPLE + 1)[1:_SAMPLE + 1]).most_common():
        if piece.strip(" \t\n\r"):
            if n < 2:
                return []
            powers = ["[" + piece]
            while len(powers) < _MIN_RUN.bit_length() or len(powers[-1]) <= _READ_CHUNK:
                powers.append(powers[-1] * 2)
            return powers
    return None


def _copies(text: str, at: int, powers: list[str], j: int) -> int:
    """How many copies of ``powers[0]`` follow one another from ``text[at]``, given that
    ``powers[j]`` (``2**j`` copies) starts there.  A run longer than twice the last power
    is counted short; its rest is found as a run of its own."""
    while j + 1 < len(powers) and text.startswith(powers[j + 1], at):
        j += 1
    k, at = 1 << j, at + len(powers[j])
    for j in range(j - 1, -1, -1):  # the binary digits of the rest
        if text.startswith(powers[j], at):
            k, at = k + (1 << j), at + len(powers[j])
    return k


def _lift(text: str, start: int, end: int) -> Optional[np.ndarray]:
    """The float64 array that ``text[start:end]`` spells if it is a rectangular
    array of [re, im] pairs of JSON numbers, at least 2-D, else None.

    The brackets and commas must be those of a rectangular array, and the text
    after each "[" (a piece) whitespace, or a pair and closing brackets.  The
    region is read in chunks of about ``_READ_CHUNK`` characters, each cut just
    before a "[".  Each run of ``_MIN_RUN`` or more copies of "[" + the
    commonest piece near the start (:func:`_run_texts`) that ``str.find`` meets
    in a chunk is filled by one slice assignment.  The text between the runs is
    split at each "["; the pieces not yet in the table of distinct pieces,
    with the common piece, are read by one ``json.loads`` and :func:`_numbers`
    per chunk, so the values are bit for bit those ``_numbers`` makes of
    ``json.loads(text[start:end])``.  Besides the text and the array, the
    reader holds one chunk, the table and the run texts: a twisted adjacency,
    its N x N pieces all one but about N, costs O(N) Python objects.
    """
    shape = _shape(text, start, end)
    if shape is None:
        return None
    out = np.empty(math.prod(shape[:-1]), np.complex128)
    table: dict[str, complex] = {}
    powers = None
    shortest = _MIN_RUN.bit_length() - 1  # powers[shortest]: the shortest run filled
    filled = 0
    while start < end:
        cut = text.find("[", start + _READ_CHUNK, end)
        cut = end if cut < 0 else cut
        chunk = text[start:cut]
        if powers is None:
            powers = _run_texts(chunk)
        texts, runs = [], []  # the texts between the runs, and the runs' lengths
        i = 0
        at = chunk.find(powers[shortest]) if powers else -1
        while at >= 0:
            k = _copies(chunk, at, powers, shortest)
            stop = at + k * len(powers[0])
            if stop < len(chunk) and chunk[stop] != "[":  # the last copy begins a longer piece
                k, stop = k - 1, stop - len(powers[0])
            texts.append(chunk[i:at])
            runs.append(k)
            i = stop
            at = chunk.find(powers[shortest], i)
        texts.append(chunk[i:])
        parts = [t.split("[")[1:] for t in texts]
        common = powers[0][1:] if runs else None
        if not _learn(table, set().union(*parts, [common] if runs else [])):
            return None
        for pieces, k in zip(parts, runs + [0]):
            pairs = np.fromiter(map(table.__getitem__, filter(table.__contains__, pieces)),
                                np.complex128)
            out[filled:filled + len(pairs)] = pairs
            filled += len(pairs)
            if k:
                out[filled:filled + k] = table[common]
                filled += k
        start = cut
    return out.view(np.float64).reshape(shape)


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
    """The JSON value of ``text``; arrays under ``_ARRAY_KEYS`` come back as float64 arrays.

    Each array that :func:`_lift` reads is replaced in the text by the string
    NUL + its index, which ``json.loads`` parses with the rest; a text that
    spells NUL itself is read entirely by ``json.loads``.
    """
    arrays: list[np.ndarray] = []

    def lift(match: re.Match) -> str:
        # by position: match[1] would copy the array's text
        array = None if match.start(1) < 0 else _lift(text, match.start(1), match.end(1))
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
        value = _json(rest, restore if arrays else None)
    except json.JSONDecodeError:
        try:  # the lifted arrays are valid JSON: the text fails too, and places the error
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

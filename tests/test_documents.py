"""The document codec: byte-identical encoding, exact round trips, refusals."""

import json
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from conftest import document_text
from hypothesis import given, settings, strategies as st

from qgraphs import documents as docs
from qgraphs.clifford import cube_like_graph, hypercube_generators
from qgraphs.errors import InvalidInput
from qgraphs.graphs import QuantumGraph
from qgraphs.groups import AbelianGroup


def reference_complex_to_json(z):
    """The per-entry encoder the array codec replaced."""
    z = complex(z)
    return [float(z.real), float(z.imag)]


def reference_matrix_to_json(a):
    a = np.asarray(a, dtype=complex)
    return [[reference_complex_to_json(z) for z in row] for row in a]


SPECIAL = np.array([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1.0, -3.0, 1e16, 0.1])


def _random_matrix(rng, shape):
    re = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
    im = rng.integers(-5, 6, shape).astype(float)  # integer-valued entries
    a = re + 1j * im
    mask = rng.random(shape) < 0.3
    a.real[mask] = rng.choice(SPECIAL, mask.sum())
    mask = rng.random(shape) < 0.3
    a.imag[mask] = rng.choice(SPECIAL, mask.sum())
    return a


@pytest.mark.parametrize("shape", [(1, 1), (3, 3), (5, 7), (16, 16)])
def test_encoder_matches_the_per_entry_reference(shape):
    rng = np.random.default_rng(sum(shape))
    for _ in range(5):
        a = _random_matrix(rng, shape)
        got = document_text({"m": docs.array_to_json(a)})
        assert got == document_text({"m": reference_matrix_to_json(a)})
        back = docs.array_from_json(json.loads(got)["m"])
        assert back.shape == shape
        assert np.array_equal(back, a)
        assert np.array_equal(np.signbit(back.real), np.signbit(a.real))
        assert np.array_equal(np.signbit(back.imag), np.signbit(a.imag))


def test_vector_and_scalar_match_the_reference():
    rng = np.random.default_rng(7)
    lam = _random_matrix(rng, (1, 9))[0]
    assert docs.array_to_json(lam) == [reference_complex_to_json(z) for z in lam]
    assert docs.array_to_json(lam[3]) == reference_complex_to_json(lam[3])
    assert docs.array_to_json(8 + 0j) == [8.0, 0.0]
    assert np.array_equal(docs.array_from_json(docs.array_to_json(lam)), lam)
    scalar = docs.array_from_json(docs.array_to_json(complex(-0.0, 2)))
    assert scalar.shape == () and scalar == 2j and np.signbit(scalar.real)


def test_encoder_accepts_real_and_strided_input():
    a = np.arange(12.0).reshape(3, 4)
    assert docs.array_to_json(a[:, ::2]) == reference_matrix_to_json(a[:, ::2])
    assert docs.array_to_json(a.T) == reference_matrix_to_json(a.T)


@pytest.mark.parametrize("value", [
    [[[1, 0], [0, 0]], [[0, 0]]],          # ragged rows
    [[[1, 0], [0]]],                       # short pair
    [[[1, 0, 0]]],                         # triple, not a pair
    [[[["1", 0]]]],                        # a string
    [1, 0, 0],                             # a triple at the top level
    1.5,                                   # a bare number, not a pair
    [[["1", True]]],                       # string and boolean
    [[[True, False]]],                     # all booleans
    [[[None, 0]]],                         # null
    [[[1e400, 0]]],                        # overflows to inf when parsed
    [[[10 ** 400, 0]]],                    # an integer too large for a float
    [[[2 ** 70, True]]],                   # a boolean beside an oversized integer
    [[[float("nan"), 0]]],
    [],
    None,
    "matrix",
    {"re": 1, "im": 0},
    [[[1, True]]],                         # a boolean beside an integer
    [[[True, 2.5]]],                       # a boolean beside a float
])
def test_decoder_refuses_malformed_arrays(value):
    with pytest.raises(docs.DocumentError):
        docs.array_from_json(value)


def test_decoder_accepts_integers_and_large_values():
    got = docs.array_from_json([[[1, -2], [2 ** 62, 1e308]]])
    assert np.array_equal(got, np.array([[1 - 2j, 2.0 ** 62 + 1e308j]]))


def test_decoder_accepts_integers_beyond_int64():
    got = docs.array_from_json(json.loads("[[[18446744073709551616, -0.5], [1, 2]]]"))
    assert np.array_equal(got, np.array([[2.0 ** 64 - 0.5j, 1 + 2j]]))


def test_decoder_reads_any_depth_and_consumers_check_the_shape():
    assert docs.array_from_json([[1, 0], [0, 0]]).shape == (2,)
    g = QuantumGraph(set=docs.set_from_spec({"blocks": [1, 1]}), adjacency=np.zeros((2, 2)))
    doc = json.loads(document_text(docs.graph_to_document(g)))
    for adjacency in ([[1, 0], [0, 0]], [doc["adjacency"]]):
        doc["adjacency"] = adjacency
        with pytest.raises(InvalidInput, match="adjacency has shape"):
            docs.graph_from_document(doc)


def test_inline_generator_values_accept_reals_or_pairs():
    group = AbelianGroup((2, 2))
    real = docs.bicharacter_from_text("[[1, 1], [-1, 1]]", group)
    pairs = docs.bicharacter_from_text("[[[1, 0], [1, 0]], [[-1, 0], [1, 0]]]", group)
    assert np.array_equal(real.gen_values, pairs.gen_values)
    for text in ("[[1, 1], [-1, null]]", "[[1, 1], [-1]]", "[[1, 1], [-1, 1e400]]", "[[1,"):
        with pytest.raises(docs.DocumentError):
            docs.bicharacter_from_text(text, group)


def test_bicharacter_document_checks_its_group():
    doc = docs.bicharacter_to_document(AbelianGroup((2, 2)), np.ones((2, 2)))
    assert docs.bicharacter_from_document(doc, AbelianGroup((2, 2))).group.orders == (2, 2)
    with pytest.raises(docs.DocumentError, match="different group"):
        docs.bicharacter_from_document(doc, AbelianGroup((2, 4)))
    del doc["gen_values"]
    with pytest.raises(docs.DocumentError, match="gen_values"):
        docs.bicharacter_from_document(doc, AbelianGroup((2, 2)))


# ---------------------------------------------------------------------------
# the writer: numpy arrays in, the stdlib encoding of their list form out
# ---------------------------------------------------------------------------


def stdlib_dumps(doc):
    """The reference: every complex array replaced by its nested [re, im] lists, any
    other array by its plain numbers."""
    def plain(v):
        if isinstance(v, np.ndarray) and not np.iscomplexobj(v):
            return v.tolist()
        if isinstance(v, np.ndarray):
            return np.ascontiguousarray(v).view(np.float64).reshape(v.shape + (2,)).tolist()
        if isinstance(v, dict):
            return {k: plain(x) for k, x in v.items()}
        if isinstance(v, list):
            return [plain(x) for x in v]
        return v
    return json.dumps(plain(doc), sort_keys=True, allow_nan=False, separators=(",", ": "))


FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e16, 1e-5, 1.0, -1.0, 0.1, 1e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def complex_arrays(draw):
    shape = tuple(draw(st.lists(st.integers(0, 4), max_size=3)))
    size = int(np.prod(shape))
    # a small pool of values makes repeats likely
    pool = draw(st.lists(st.tuples(FLOATS, FLOATS), min_size=1, max_size=6))
    picks = draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size))
    return np.array([complex(re, im) for re, im in picks], dtype=complex).reshape(shape)


TEXT = st.text(st.characters(exclude_characters="\x00"), max_size=8)
LEAVES = st.one_of(st.none(), st.booleans(), st.integers(), FLOATS, TEXT, complex_arrays())
DOCUMENTS = st.recursive(LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.dictionaries(TEXT, inner, max_size=4)), max_leaves=12)


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(TEXT, DOCUMENTS, max_size=5))
def test_writer_matches_the_stdlib_encoding(doc):
    assert document_text(doc) == stdlib_dumps(doc)


@pytest.mark.parametrize("bad", [complex(np.nan, 0), complex(0, np.inf), complex(-np.inf, 1)])
@pytest.mark.parametrize("shape", [(), (3,), (2, 2), (2, 1, 1)])
def test_writer_refuses_non_finite_values(bad, shape):
    a = np.ones(shape, dtype=complex)
    a.reshape(-1)[-1] = bad
    with pytest.raises(ValueError):
        document_text({"a": a})
    with pytest.raises(ValueError):
        document_text({"blocks": [np.ones(shape), a]})


def test_writer_shares_a_table_between_arrays_of_one_shape():
    stack = np.arange(24.0).reshape(4, 3, 2) - 1j * np.arange(24.0).reshape(4, 3, 2)
    doc = {"blocks": [[k, stack[k]] for k in range(4)], "other": stack[0, 0],
           "unit": np.ones((5, 1, 1), dtype=complex), "empty": [np.zeros((0, 3)), np.zeros((2, 0))]}
    assert document_text(doc) == stdlib_dumps(doc)


def test_writer_refuses_objects_and_the_stand_in():
    with pytest.raises(TypeError):
        document_text({"x": np.complex64(1)})
    for text in ("\x00", '"\x00'):  # strings whose encoding holds the quoted stand-in
        with pytest.raises(ValueError):
            document_text({"a": np.eye(2), "text": text})


def test_loads_refuses_booleans_in_lists_only():
    with pytest.raises(docs.DocumentError):
        docs.loads('{"adjacency": [[[1.0, 0.0], [0.0, true]]]}')
    with pytest.raises(docs.DocumentError):
        docs.loads('{"adjacency": [[[1.0, 0.0]], [[false, 0.0]]]}')
    report = docs.loads('{"checks": [{"passed": true}], "all_pass": false}')
    assert report["checks"][0]["passed"] is True


def test_loads_scans_for_booleans_only_when_the_text_spells_one(monkeypatch):
    def scan(v):
        raise AssertionError("boolean scan ran on a text without true or false")

    monkeypatch.setattr(docs, "_holds_boolean", scan)
    assert docs.loads('{"m": [[[1.0, 0.0]]], "note": "t r u e"}')["m"] == [[[1.0, 0.0]]]


# ---------------------------------------------------------------------------
# the reader: rectangular arrays of [re, im] pairs read with numpy
# ---------------------------------------------------------------------------


def reference_loads(text):
    """The reader before arrays were read with numpy: json.loads and the boolean scan."""
    try:
        doc = json.loads(text, parse_constant=docs._reject_constant)
    except json.JSONDecodeError as exc:
        raise docs.DocumentError(
            f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    if docs._holds_boolean(doc):
        raise docs.DocumentError("true or false stands where a number is expected")
    if not isinstance(doc, dict):
        raise docs.DocumentError("document root must be a JSON object")
    return doc


NUMBER_TOKENS = st.one_of(
    FLOATS.map(repr),                                       # 17-digit reprs, -0.0, 5e-324
    st.floats(allow_nan=False, allow_infinity=False).map(lambda x: f"{x:.6e}"),
    st.integers(-10 ** 18 + 1, 10 ** 18 - 1).map(str),
    st.integers(2 ** 63, 2 ** 70).map(lambda n: str(n * (-1) ** (n % 3))),
    st.sampled_from(["-0", "0", "-0.0", "-0e0", "1E+2", "2.5e-3", "-5E-324", "9007199254740993",
                     "123456789012345678", "1.7976931348623157e308", "0.1e1", "4e-320"]),
)


@st.composite
def array_texts(draw):
    shape = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)) + [2]
    tokens = iter(draw(st.lists(NUMBER_TOKENS, min_size=int(np.prod(shape)),
                                max_size=int(np.prod(shape)))))
    sep = draw(st.sampled_from([",", ", ", " ,\n\t", "\r\n,"]))
    pad = draw(st.sampled_from(["", " ", "\n  "]))

    def spell(shape):
        if not shape:
            return next(tokens)
        return "[" + pad + sep.join(spell(shape[1:]) for _ in range(shape[0])) + pad + "]"

    return spell(shape)


@settings(max_examples=200, deadline=None)
@given(array_texts(), st.sampled_from(['": ', '":', '" :\n ']))
def test_reader_arrays_are_those_of_json_loads_and_asarray(array_text, colon):
    text = '{"adjacency' + colon + array_text + ', "m' + colon + array_text + "}"
    got, want = docs.loads(text), json.loads(text)
    reference = np.asarray(want["adjacency"]).astype(np.float64)
    assert docs._numbers(got["adjacency"], "a").tobytes() == reference.tobytes()
    # an array comes back as an ndarray exactly when the walk reads it; every other key's
    # value is left to json.loads
    walked = docs._diagonal_walk(text, text.index("[")) is not None
    assert isinstance(got["adjacency"], np.ndarray) == walked
    if walked:
        assert got["adjacency"].shape == reference.shape
    else:
        assert got["adjacency"] == want["adjacency"]
    assert got["m"] == want["m"] and not isinstance(got["m"], np.ndarray)


def _graph_doc(adjacency="[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]",
               note='"a note"', kind='"quantum-graph"', blocks="[1, 1]"):
    return ('{"adjacency": %s, "kind": %s, "metadata": {"note": %s}, "schema_version": 1, '
            '"set": {"blocks": %s}}' % (adjacency, kind, note, blocks))


def _with_entry(token):
    """A graph document whose last adjacency entry has ``token`` as its real part."""
    return _graph_doc("[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [%s, 0.0]]]" % token)


def _projection_doc(projection):
    return ('{"kind": "quantum-graph", "metadata": {}, "projection": %s, "schema_version": 1, '
            '"set": {"blocks": [1]}}' % projection)


# arrays that a reader taking pairs one by one, or runs of one pair text, could misread
EDGE_ARRAYS = {
    # a malformed pair, or a whitespace-only piece, after valid ones
    "overflow-after-valid-pairs":
        "[[[1.0, 0.0], [2.0, 0.0]], [[3.0, 0.0], [1e400, 0.0]]]",
    "leading-zero-after-valid-pairs":
        "[[[1.0, 0.0], [2.0, 0.0]], [[3.0, 0.0], [01, 0.0]]]",
    "three-numbers-after-valid-pairs":
        "[[[1.0, 0.0], [2.0, 0.0]], [[3.0, 0.0], [1.0, 0.0 1]]]",
    "bare-sign-after-valid-pairs":
        "[[[1.0, 0.0], [2.0, 0.0]], [[3.0, 0.0], [-, 0.0]]]",
    "blank-pair-after-valid-pairs": "[[[1.0, 0.0], [2.0, 0.0]], [[3.0, 0.0], [ ]]]",
    "newline-inside-a-row-bracket":
        "[[[1.0, 0.0], [2.0, 0.0]], [ \n [3.0, 0.0], [4.0, 0.0]]]",
    "distinct-pair-last": "[[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [5.0, -1.0]]]",
    # runs of one pair text with whitespace beside one copy ...
    "space-before-a-copy":
        "[[[0.0,0.0],[0.0,0.0],[0.0,0.0], [0.0,0.0],[0.0,0.0],[0.0,0.0],[1.0,0.0]]]",
    "space-after-a-copy":
        "[[[0.0,0.0],[0.0,0.0],[0.0,0.0],[0.0,0.0] ,[0.0,0.0],[0.0,0.0],[1.0,0.0]]]",
    # ... or a stray token, which json.loads refuses
    "number-before-a-copy":
        "[[[0.0,0.0],[0.0,0.0],[0.0,0.0],5[0.0,0.0],[0.0,0.0],[0.0,0.0],[1.0,0.0]]]",
    "number-after-a-copy":
        "[[[0.0,0.0],[0.0,0.0],[0.0,0.0],[0.0,0.0]5,[0.0,0.0],[0.0,0.0],[1.0,0.0]]]",
    # a run that ends a row, the array, or at a malformed pair
    "run-ending-each-row":
        "[[[0.0,0.0],[0.0,0.0],[0.0,0.0]],[[0.0,0.0],[0.0,0.0],[0.0,0.0]]]",
    "leading-zero-after-a-run":
        "[[[0.0,0.0],[0.0,0.0],[0.0,0.0],[0.0,0.0],[0.0,0.0],[0.0,01]]]",
    "space-in-the-last-copy":
        "[[[0.0,0.0],[0.0,0.0],[0.0,0.0],[0.0,0.0],[0.0,0.0],[0.0,0.0 ]]]",
    # the commonest pair is malformed, or first repeats after other pairs
    "overflow-in-every-pair": "[[[0.0,1e400],[0.0,1e400],[0.0,1e400],[0.0,1e400]]]",
    "run-after-distinct-pairs":
        "[[[1.0,0.0],[2.0,0.0],[3.0,0.0],[4.0,0.0],[0.0,0.0],[0.0,0.0],[0.0,0.0],[0.0,0.0]]]",
}


READER_CORPUS = {
    "ragged": _graph_doc("[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]]]"),
    "empty-leaf": _graph_doc("[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [, 0.0]]]"),
    "leading-zero": _with_entry("01"),
    "plus-sign": _with_entry("+1"),
    "bare-fraction": _with_entry(".5"),
    "bare-point": _with_entry("1."),
    "bare-exponent": _with_entry("1e"),
    "nan": _with_entry("NaN"),
    "overflow": _with_entry("1e400"),
    "integer-overflow": _with_entry("1" + "0" * 400),
    "big-integer": _with_entry("18446744073709551616"),
    "negative-zero-integer": _with_entry("-0"),
    "true": _with_entry("true"),
    "string": _with_entry('"1"'),
    "space-in-number": _with_entry("1 2"),
    "unbalanced-open": _graph_doc("[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]"),
    "unbalanced-close": _graph_doc("[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]]"),
    "trailing-comma": _graph_doc("[[[1.0, 0.0], [0.0, 0.0],], [[0.0, 0.0], [1.0, 0.0]]]"),
    "triples": _graph_doc("[[[1.0, 0.0, 0.0]]]"),
    "too-shallow": _graph_doc("[[1.0, 0.0], [0.0, 0.0]]"),
    "number-after-an-outer-bracket": _graph_doc("[5[1.0, 0.0]]"),
    "sign-after-an-outer-bracket": _graph_doc("[-[1.0, 0.0], [0.0, 0.0]]"),
    "exponent-after-the-root-bracket": _graph_doc("[1e5[[1.0, 0.0], [0.0, 0.0]]]"),
    "number-after-a-row-bracket":
        _graph_doc("[[[1.0, 0.0], [0.0, 0.0]], [0[0.0, 0.0], [1.0, 0.0]]]"),
    "error-after-an-array": _graph_doc(blocks="[1, 01]"),
    "array-as-root": "[[1.0, 0.0], [0.0, 0.0]]",
    "array-as-kind": _graph_doc(kind="[[1.0, 0.0]]"),
    "array-as-blocks": _graph_doc(blocks="[[1, 1]]"),
    "nul-in-metadata": _graph_doc(note='"\\u0000"'),
    "stand-in-in-metadata": _graph_doc(note='"\\u00000"'),
    "key-in-metadata": _graph_doc(note='{"adjacency": [[1.0, 0.0]]}'),
    "stand-in-as-adjacency": ('{"adjacency": "\\u00000", "kind": "quantum-graph", '
                              '"schema_version": 1, "set": {"bicharacter": [[[1.0, 0.0]]], '
                              '"group": {"orders": [2]}}}'),
    "compact": _graph_doc().replace(", ", ",").replace(": ", ":"),
    "projection": _projection_doc("[[0, 0, [[[1.0, 0.0]]]]]"),
    "projection-entry-without-matrix": _projection_doc("[[0, 0]]"),
    # an empty number slot beside a number out of its slot: the skeleton is a 2 x 2 array's
    "empty-slot-closing-a-pair": _graph_doc("[[1.0,]2.0,[3.0,4.0]]"),
    "empty-slot-opening-a-pair": _graph_doc("[[1.0,2.0],3.0[,4.0]]"),
    # rows of 2 and 4: a run of [0.0,0.0] crosses the first row's length
    "run-across-a-row-end":
        _graph_doc("[[[1.0,0.0],[0.0,0.0]],[[0.0,0.0],[0.0,0.0],[0.0,0.0],[1.0,0.0]]]"),
    **{name: _graph_doc(array) for name, array in EDGE_ARRAYS.items()},
    # diagonal texts but for one token where the walk expects the first row's "[", or in
    # every separator, which json.loads reads as an entry
    "number-for-the-first-row-bracket": _graph_doc("[5[1.0,0.0],[0.0,0.0]],[[0.0,0.0],[1.0,0.0]]]"),
    "number-in-every-separator": _graph_doc("[[[1.0,0.0],5,[0.0,0.0]],5,[[0.0,0.0],5,[1.0,0.0]]]"),
}


def _outcome(read, text):
    """What a reader and the consumer make of ``text``: an error message or the array bytes."""
    try:
        doc = read(text)
        if "projection" in doc:
            return "ok", docs.projection_from_document(doc).blocks[0, 0].tobytes()
        return "ok", docs.graph_from_document(doc).adjacency.tobytes()
    except InvalidInput as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("name", sorted(READER_CORPUS))
def test_reader_gives_the_json_loads_outcome(name):
    text = READER_CORPUS[name]
    assert _outcome(docs.loads, text) == _outcome(reference_loads, text)
    if '"adjacency"' in text:  # the values, whatever shape the set wants
        assert _adjacency_outcome(docs.loads, text) == _adjacency_outcome(reference_loads, text)


# a diagonal array the walk reads: the text that json.loads reads is then spliced
WALKED_ENTRY = '"matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]], '


@pytest.mark.parametrize("name", sorted(n for n in READER_CORPUS if READER_CORPUS[n][0] == "{"))
def test_reader_gives_the_json_loads_outcome_after_a_walked_array(name):
    """An error in the spliced text is placed where json.loads places it in the text given,
    and a string that spells NUL still cannot pass for the walked array's stand-in."""
    text = READER_CORPUS[name].replace("{", "{" + WALKED_ENTRY, 1)
    want = _outcome(reference_loads, text)
    assert _outcome(docs.loads, text) == want
    if want[0] == "ok":
        assert isinstance(docs.loads(text)["matrix"], np.ndarray)


def _adjacency_outcome(read, text, key="adjacency"):
    """The array a reader makes of ``text``'s ``key`` as ``_numbers`` sees it, or the error
    message."""
    try:
        a = docs._numbers(read(text)[key], key)
    except InvalidInput as exc:
        return type(exc).__name__, str(exc)
    return "ok", a.shape, a.tobytes()


@pytest.mark.parametrize("key", docs._ARRAY_KEYS)
@pytest.mark.parametrize("name", sorted(EDGE_ARRAYS))
def test_reader_edge_arrays_give_the_json_loads_outcome_under_every_array_key(name, key):
    text = '{"%s": %s}' % (key, EDGE_ARRAYS[name])
    got = _adjacency_outcome(docs.loads, text, key)
    assert got == _adjacency_outcome(reference_loads, text, key)


@settings(max_examples=300, deadline=None)
@given(array_texts(), st.data())
def test_reader_matches_json_loads_on_arrays_with_one_character_inserted(array_text, data):
    at = data.draw(st.integers(0, len(array_text)))
    char = data.draw(st.sampled_from(list("-+.0123456789eE ,[]")))
    text = '{"adjacency": ' + array_text[:at] + char + array_text[at:] + "}"
    assert _adjacency_outcome(docs.loads, text) == _adjacency_outcome(reference_loads, text)


# ---------------------------------------------------------------------------
# chunks: the writer gives the same bytes at every chunk size
# ---------------------------------------------------------------------------


# arrays with a unit trailing axis too: a unit axis wraps each entry, not each row
CHUNK_ARRAYS = st.one_of(complex_arrays(), complex_arrays().map(lambda a: a[..., None]),
                         complex_arrays().map(lambda a: a[..., None, None]))


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(TEXT, st.one_of(CHUNK_ARRAYS, st.lists(CHUNK_ARRAYS, max_size=3)),
                       max_size=4),
       st.sampled_from([1, 2]))
def test_writer_matches_the_stdlib_encoding_at_every_chunk_size(doc, write_chunk):
    with mock.patch.object(docs, "_WRITE_CHUNK", write_chunk):
        got = document_text(doc)
    assert got == stdlib_dumps(doc)


# ---------------------------------------------------------------------------
# runs: most entries one value, as in a twisted adjacency
# ---------------------------------------------------------------------------


@st.composite
def run_texts(draw):
    """An array text whose pairs are drawn from a pool of 1-3, almost all the first: long
    runs of one piece that cross rows, in one of several spacings."""
    shape = draw(st.lists(st.integers(1, 9), min_size=1, max_size=3))
    size = int(np.prod(shape))
    pool = draw(st.lists(st.tuples(NUMBER_TOKENS, NUMBER_TOKENS), min_size=1, max_size=3))
    pairs = [pool[0]] * size
    for at, pair in draw(st.lists(st.tuples(st.integers(0, size - 1), st.sampled_from(pool)),
                                  max_size=4)):
        pairs[at] = pair
    pairs = iter(pairs)
    comma = draw(st.sampled_from([",", ", ", ",\n "]))
    pad = draw(st.sampled_from(["", " ", "\n  "]))

    def spell(shape):
        if not shape:
            return "[%s,%s]" % next(pairs)
        return "[" + pad + comma.join(spell(shape[1:]) for _ in range(shape[0])) + pad + "]"

    return spell(shape)


@settings(max_examples=300, deadline=None)
@given(run_texts(), st.data())
def test_reader_matches_json_loads_on_runs(array_text, data):
    at = data.draw(st.integers(0, len(array_text)))
    char = data.draw(st.sampled_from(["", *"-+.0123456789eE ,[]"]))
    text = '{"adjacency": ' + array_text[:at] + char + array_text[at:] + "}"
    assert _adjacency_outcome(docs.loads, text) == _adjacency_outcome(reference_loads, text)


@st.composite
def distinct_texts(draw):
    """An array text whose pairs are all distinct, as in a random dense block graph: no
    piece repeats, so the whole array is text between runs."""
    shape = draw(st.lists(st.integers(1, 6), min_size=1, max_size=3))
    size = int(np.prod(shape))
    pairs = iter(draw(st.lists(st.tuples(NUMBER_TOKENS, NUMBER_TOKENS), unique=True,
                               min_size=size, max_size=size)))
    comma = draw(st.sampled_from([",", ", ", ",\n "]))

    def spell(shape):
        if not shape:
            return "[%s,%s]" % next(pairs)
        return "[" + comma.join(spell(shape[1:]) for _ in range(shape[0])) + "]"

    return spell(shape)


@settings(max_examples=300, deadline=None)
@given(distinct_texts(), st.data())
def test_reader_matches_json_loads_on_distinct_pairs(array_text, data):
    at = data.draw(st.integers(0, len(array_text)))
    char = data.draw(st.sampled_from(["", *"-+.0123456789eE ,[]"]))
    text = '{"adjacency": ' + array_text[:at] + char + array_text[at:] + "}"
    assert _adjacency_outcome(docs.loads, text) == _adjacency_outcome(reference_loads, text)


# ---------------------------------------------------------------------------
# mutations that keep the brackets and commas of a well-formed array
# ---------------------------------------------------------------------------


def _move_a_number(text, data):
    """``text`` with one number moved across the one or two brackets or commas beside
    it: [a,b],[c,d] becomes [a,]b,[c,d] or [a,],b[c,d].  The skeleton is unchanged, so
    only the empty number slot it leaves tells the text from an array."""
    tokens = re.findall(r"[-+.0-9eE]+|[ \t\n\r]+|.", text)
    k = data.draw(st.sampled_from([k for k, t in enumerate(tokens) if t[0] in "-+.0123456789eE"]))
    step = data.draw(st.sampled_from([-2, -1, 1, 2]))
    number = tokens.pop(k)
    # where it lands: past |step| tokens that are not whitespace, or at an end of the text
    after = [j + 1 for j, t in enumerate(tokens) if j >= k and not t.isspace()]
    before = [j for j, t in enumerate(tokens) if j < k and not t.isspace()]
    tokens.insert((after + [len(tokens)] * 2)[step - 1] if step > 0 else ([0, 0] + before)[step], number)
    return "".join(tokens)


def _resize_a_row(text, data):
    """``text`` with one row lengthened or shortened by k pairs, its commas kept
    well-formed: a pair repeated k more times, or k pairs cut.  With k one or two first
    rows, the text's row ends still fall where the first row's length puts them, and
    only a run of the commonest pair crosses the one it lacks, which it must not."""
    rows = [[]]
    for pair in re.finditer(r"\[[^\[\]]*\]", text):
        if rows[-1] and not re.fullmatch(r"[ \t\n\r]*,[ \t\n\r]*", text[rows[-1][-1].end():pair.start()]):
            rows.append([])
        rows[-1].append(pair)
    row = data.draw(st.sampled_from(rows))
    i = data.draw(st.integers(0, len(row) - 1))
    k = data.draw(st.sampled_from(sorted({1, 2, 3, len(rows[0]), 2 * len(rows[0])})))
    if data.draw(st.booleans()):
        sep = text[row[0].end():row[1].start()] if len(row) > 1 else ","
        return text[:row[i].end()] + (sep + row[i][0]) * k + text[row[i].end():]
    j = min(i + k, len(row))  # pairs i .. j - 1 go, with the separators between them
    if j < len(row):
        a, b = row[i].start(), row[j].start()
    else:
        a, b = (row[i - 1].end() if i else row[0].start()), row[-1].end()
    return text[:a] + text[b:]


@settings(max_examples=300, deadline=None)
@given(st.one_of(array_texts(), run_texts(), distinct_texts()), st.data())
def test_reader_matches_json_loads_with_a_number_moved_across_a_bracket(array_text, data):
    text = '{"adjacency": ' + _move_a_number(array_text, data) + "}"
    assert _adjacency_outcome(docs.loads, text) == _adjacency_outcome(reference_loads, text)


@settings(max_examples=300, deadline=None)
@given(run_texts(), st.data())
def test_reader_matches_json_loads_with_one_row_resized(array_text, data):
    text = '{"adjacency": ' + _resize_a_row(array_text, data) + "}"
    assert _adjacency_outcome(docs.loads, text) == _adjacency_outcome(reference_loads, text)


# ---------------------------------------------------------------------------
# the diagonal walk: every off-diagonal pair one text, as in a twisted adjacency
# ---------------------------------------------------------------------------


OFF_DIAGONAL_TOKENS = st.one_of(
    st.sampled_from(["0.0", "-0.0", "1e-300"]),
    st.integers(-10 ** 6, 10 ** 6).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda x: f"{x:.16e}"),  # 17 digits
)


@st.composite
def diagonal_texts(draw):
    """An N x N array text whose off-diagonal pairs all spell one text and whose diagonal
    pairs are any, compact or in json.dumps's default spacing: the walk's shape."""
    n = draw(st.integers(1, 9))
    sep = draw(st.sampled_from([",", ", "]))
    off = "[%s]" % sep.join(draw(st.tuples(OFF_DIAGONAL_TOKENS, OFF_DIAGONAL_TOKENS)))
    diagonal = ["[%s]" % sep.join(pair) for pair in draw(st.lists(
        st.tuples(NUMBER_TOKENS, NUMBER_TOKENS), min_size=n, max_size=n))]
    rows = [[diagonal[i] if i == j else off for j in range(n)] for i in range(n)]
    return "[" + sep.join("[" + sep.join(row) + "]" for row in rows) + "]"


_PAIR = re.compile(r"\[[^\[\]]*\]")


def _side(text):
    """N, for the text of an N x N array of pairs."""
    return math.isqrt(len(_PAIR.findall(text)))


def _replace_an_off_diagonal_pair(text, data):
    """``text`` with one off-diagonal pair spelled otherwise, if it has one."""
    pairs = list(_PAIR.finditer(text))
    n = math.isqrt(len(pairs))
    if n < 2:
        return text
    k = data.draw(st.sampled_from([k for k in range(len(pairs)) if k // n != k % n]))
    pair = "[%s,%s]" % data.draw(st.tuples(NUMBER_TOKENS, NUMBER_TOKENS))
    return text[:pairs[k].start()] + pair + text[pairs[k].end():]


def _insert_a_character(text, data):
    at = data.draw(st.integers(0, len(text)))
    return text[:at] + data.draw(st.sampled_from(list("-+.0123456789eE ,[]"))) + text[at:]


@settings(max_examples=300, deadline=None)
@given(diagonal_texts())
def test_walk_reads_every_diagonal_text_as_json_loads_does(array_text):
    text = '{"adjacency": ' + array_text + "}"
    walked = docs._diagonal_walk(text, text.index("["))
    assert (walked is not None) == (_side(array_text) > 1)
    assert _adjacency_outcome(docs.loads, text) == _adjacency_outcome(reference_loads, text)


@settings(max_examples=400, deadline=None)
@given(diagonal_texts(),
       st.sampled_from([_insert_a_character, _move_a_number, _resize_a_row,
                        _replace_an_off_diagonal_pair]),
       st.data())
def test_walk_matches_json_loads_on_mutated_diagonal_texts(array_text, mutate, data):
    text = '{"adjacency": ' + mutate(array_text, data) + "}"
    assert _adjacency_outcome(docs.loads, text) == _adjacency_outcome(reference_loads, text)


def _spied_loads(text):
    """What ``docs.loads`` makes of ``text``, and the walk's results."""
    real, walked = docs._diagonal_walk, []

    def walk(text, start):
        walked.append(real(text, start))
        return walked[-1]

    with mock.patch.object(docs, "_diagonal_walk", walk):
        doc = docs.loads(text)
    return doc, walked


def test_twisted_adjacencies_are_walked_and_others_read_by_json_loads(twisted_q9):
    from conftest import random_generating_multiset, twisted_family
    from qgraphs.groups import cayley_spectrum, classical_cayley

    rng = np.random.default_rng(28)
    graphs = [twisted_q9[0]] + [
        docs.graph_to_document(QuantumGraph(x, np.diag(cayley_spectrum(
            x.group, random_generating_multiset(x.group, rng))))) for _, x in twisted_family()]
    for doc in graphs:
        text = document_text(doc)
        got, walked = _spied_loads(text)
        assert walked[0] is not None  # "adjacency" is the first key
        assert got["adjacency"].tobytes() == np.asarray(json.loads(text)["adjacency"]).tobytes()
    group = AbelianGroup((2,) * 7)
    classical = classical_cayley(group, [tuple(int(i == k) for i in range(7)) for k in range(7)])
    dense = rng.standard_normal((64, 64, 2)).tolist()
    cube = np.zeros((2, 40, 40, 2)).tolist()
    for text in (document_text(docs.graph_to_document(classical)),
                 json.dumps({"adjacency": dense}), json.dumps({"adjacency": cube})):
        got, walked = _spied_loads(text)
        assert walked == [None]
        assert got["adjacency"] == json.loads(text)["adjacency"]  # lists, as json.loads reads


@st.composite
def run_arrays(draw):
    """A complex array almost all one value, -0.0 beside 0.0 among the others, with up to two
    unit trailing axes."""
    shape = tuple(draw(st.lists(st.integers(0, 9), max_size=3)))
    a = np.full(shape, complex(*draw(st.tuples(FLOATS, FLOATS))))
    zeros = [complex(x, y) for x in (0.0, -0.0) for y in (0.0, -0.0)]
    pool = st.sampled_from(zeros) | st.tuples(FLOATS, FLOATS).map(lambda p: complex(*p))
    if a.size:
        for at, value in draw(st.lists(st.tuples(st.integers(0, a.size - 1), pool), max_size=5)):
            a.reshape(-1)[at] = value
    return a.reshape(shape + (1,) * draw(st.integers(0, 2)))


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(TEXT, st.one_of(run_arrays(), st.lists(run_arrays(), max_size=3)),
                       max_size=3),
       st.sampled_from([1, 2, docs._WRITE_CHUNK]))
def test_writer_matches_the_stdlib_encoding_on_runs(doc, write_chunk):
    with mock.patch.object(docs, "_WRITE_CHUNK", write_chunk):
        got = document_text(doc)
    assert got == stdlib_dumps(doc)


@st.composite
def diagonal_arrays(draw):
    """An N x N complex array, N from 1 to 9, whose off-diagonal entries are one value
    and whose diagonal is any, with where to put a value that JSON cannot spell."""
    from qgraphs.kernels import unit_root

    n = draw(st.integers(1, 9))
    off = draw(st.one_of(st.sampled_from([0.0, -0.0, 1e-300, 0.12345678901234568]),
                         st.floats(allow_nan=False, allow_infinity=False),
                         st.builds(unit_root, st.integers(0, 11), st.integers(1, 12))))
    a = np.full((n, n), complex(off))
    a[np.arange(n), np.arange(n)] = [complex(*p) for p in draw(
        st.lists(st.tuples(FLOATS, FLOATS), min_size=n, max_size=n))]
    return a, draw(st.sampled_from(["diagonal", "off-diagonal", "one entry"])), draw(st.sampled_from(
        [complex(np.nan, 0), complex(0, np.inf), complex(-np.inf, 1)]))


@settings(max_examples=300, deadline=None)
@given(diagonal_arrays())
def test_writer_matches_the_stdlib_encoding_on_diagonal_arrays(drawn):
    a, where, bad = drawn
    doc = {"adjacency": a, "kind": "quantum-graph"}
    assert "".join(docs.encode(doc)) == stdlib_dumps(doc)
    n = len(a)
    if where == "diagonal":
        a[n - 1, n - 1] = bad
    elif where == "off-diagonal":  # all of them: one value still
        a[~np.eye(n, dtype=bool)] = bad
    else:
        a[0, n - 1] = bad
    if where == "diagonal" or n > 1:
        with pytest.raises(docs.DocumentError, match="^an output value left the float range"):
            docs.encode(doc)


def test_twisted_adjacencies_skip_the_run_writer(twisted_q9):
    from conftest import random_generating_multiset, twisted_family
    from qgraphs.algebra import build_quantum_set
    from qgraphs.groups import cayley_spectrum, classical_cayley

    rng = np.random.default_rng(29)
    twisted = [twisted_q9[0]] + [
        docs.graph_to_document(QuantumGraph(x, np.diag(cayley_spectrum(
            x.group, random_generating_multiset(x.group, rng))))) for _, x in twisted_family()]
    group = AbelianGroup((2,) * 7)
    classical = classical_cayley(group, [tuple(int(i == k) for i in range(7)) for k in range(7)])
    dense = QuantumGraph(build_quantum_set([8]), rng.standard_normal((64, 64)) + 0j)
    # two arrays of one shape are written as one stack
    stack = {"blocks": [np.diag([1.0, 2.0j]), np.diag([3.0j, 4.0])]}
    others = [docs.graph_to_document(classical), docs.graph_to_document(dense), stack]
    for doc, stacked in [(doc, False) for doc in twisted] + [(doc, True) for doc in others]:
        with mock.patch.object(docs, "_stack_texts", wraps=docs._stack_texts) as spy:
            text = "".join(docs.encode(doc))
        assert spy.called == stacked
        assert text == stdlib_dumps(doc)


def test_a_report_number_out_of_the_float_range_is_refused():
    from qgraphs.algebra import Check, Report
    from qgraphs.graphs import GraphReport

    counts = dict(is_graph=False, is_undirected=True, loop_status="none", is_simple=False,
                  is_multigraph=None, vertices=4, quantum_edges=None)
    for report in (GraphReport(edges=complex(math.inf, 0.0), regular_degree=None, **counts),
                   GraphReport(edges=4.0, regular_degree=math.inf, **counts),
                   Report([Check("associativity", False, math.inf)], 1e-9)):
        with pytest.raises(docs.DocumentError, match="^an output value left the float range"):
            docs.report_to_document(report)


def test_boolean_scan_reads_any_depth():
    for leaf, holds in (([1.0, True], True), ([1.0, 0.0], False)):
        v = leaf
        for _ in range(100_000):
            v = [{"x": v}]
        assert docs._holds_boolean(v) is holds


@pytest.mark.parametrize("escapes", [1, 2, 3, 1000])
def test_a_text_that_spells_nul_still_walks_its_arrays(twisted_q9, escapes):
    """No string of the text passes for a walked array's stand-in, however many NULs in a
    row it holds, even under a matrix key: the stand-ins hold one NUL more."""
    doc, text = twisted_q9
    nul = "\\u0000" * escapes
    metadata = ('"metadata": {"adjacency": "%s0", "matrix": "x%s", "preset": "%s"}'
                % (nul, nul, nul))
    spelled = text.replace('"metadata": {}', metadata, 1)
    assert spelled != text
    got = docs.loads(spelled)
    assert isinstance(got["adjacency"], np.ndarray)
    assert np.array_equal(got["adjacency"].view(complex)[..., 0], doc["adjacency"])
    assert got["metadata"] == json.loads(spelled)["metadata"]


@pytest.fixture(scope="module")
def twisted_q9():
    """Twisted Q_9 (N = 512, a 4 MiB adjacency): its document and its text."""
    doc = docs.graph_to_document(cube_like_graph(9, hypercube_generators(9)))
    return doc, document_text(doc)


def _traced_peak(f, *args):
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# the codec holds the text, the array and one chunk: no Python object per entry
def test_loads_memory_on_a_twisted_hypercube(twisted_q9):
    doc, text = twisted_q9
    assert np.array_equal(docs.loads(text)["adjacency"].view(complex)[..., 0], doc["adjacency"])
    peak = _traced_peak(docs.loads, text)
    assert peak <= 2 * doc["adjacency"].nbytes, peak  # 8 MiB


def test_encode_memory_on_a_twisted_hypercube(twisted_q9):
    doc, text = twisted_q9
    peak = _traced_peak(docs.encode, doc)
    assert peak <= 5 * 2 ** 20, peak  # the pieces hold the 2.6 MB text

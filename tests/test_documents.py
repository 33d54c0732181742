"""The document codec: byte-identical encoding, exact round trips, refusals."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qgraphs import documents as docs
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
        got = docs.dumps({"m": docs.array_to_json(a)})
        assert got == docs.dumps({"m": reference_matrix_to_json(a)})
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
    doc = json.loads(docs.dumps(docs.graph_to_document(g)))
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
    """The reference: every array replaced by its nested [re, im] lists."""
    def plain(v):
        if isinstance(v, np.ndarray):
            a = np.asarray(v, dtype=complex)
            return np.ascontiguousarray(a).view(np.float64).reshape(a.shape + (2,)).tolist()
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
    assert docs.dumps(doc) == stdlib_dumps(doc)


@pytest.mark.parametrize("bad", [complex(np.nan, 0), complex(0, np.inf), complex(-np.inf, 1)])
@pytest.mark.parametrize("shape", [(), (3,), (2, 2), (2, 1, 1)])
def test_writer_refuses_non_finite_values(bad, shape):
    a = np.ones(shape, dtype=complex)
    a.reshape(-1)[-1] = bad
    with pytest.raises(ValueError):
        docs.dumps({"a": a})
    with pytest.raises(ValueError):
        docs.dumps({"blocks": [np.ones(shape), a]})


def test_writer_shares_a_table_between_arrays_of_one_shape():
    stack = np.arange(24.0).reshape(4, 3, 2) - 1j * np.arange(24.0).reshape(4, 3, 2)
    doc = {"blocks": [[k, stack[k]] for k in range(4)], "other": stack[0, 0],
           "unit": np.ones((5, 1, 1)), "empty": [np.zeros((0, 3)), np.zeros((2, 0))]}
    assert docs.dumps(doc) == stdlib_dumps(doc)


def test_writer_refuses_objects_and_the_stand_in():
    with pytest.raises(TypeError):
        docs.dumps({"x": np.complex64(1)})
    for text in ("\x00", '"\x00'):  # strings whose encoding holds the quoted stand-in
        with pytest.raises(ValueError):
            docs.dumps({"a": np.eye(2), "text": text})


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
    # integers beyond 18 digits are left to json.loads, and so is every other key
    entries = np.asarray(want["adjacency"], dtype=object).ravel()
    big = any(type(v) is int and abs(v) >= 10 ** 18 for v in entries)
    if not big:
        assert isinstance(got["adjacency"], np.ndarray)
        assert got["adjacency"].shape == reference.shape
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


def _adjacency_outcome(read, text):
    """The adjacency a reader makes of ``text`` as ``_numbers`` sees it, or the error message."""
    try:
        a = docs._numbers(read(text)["adjacency"], "adjacency")
    except InvalidInput as exc:
        return type(exc).__name__, str(exc)
    return "ok", a.shape, a.tobytes()


@settings(max_examples=300, deadline=None)
@given(array_texts(), st.data())
def test_reader_matches_json_loads_on_arrays_with_one_character_inserted(array_text, data):
    at = data.draw(st.integers(0, len(array_text)))
    char = data.draw(st.sampled_from(list("-+.0123456789eE ,[]")))
    text = '{"adjacency": ' + array_text[:at] + char + array_text[at:] + "}"
    assert _adjacency_outcome(docs.loads, text) == _adjacency_outcome(reference_loads, text)

"""The document codec: byte-identical encoding, exact round trips, refusals."""

import json

import numpy as np
import pytest

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
    doc = docs.graph_to_document(g)
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

"""Graphs held by their diagonal: the same results as their N x N twins, and no N x N array
between the builder or the reader and the predicate battery or the obstruction."""

import contextlib
import io
import json

import numpy as np
import pytest
from conftest import (document_text, random_generating_multiset, random_twist_instance,
                      twisted_family)

from qgraphs import documents as docs
from qgraphs.catalog import m2_graph
from qgraphs.cli import main
from qgraphs.clifford import cube_like_graph, hypercube_generators
from qgraphs.errors import InvalidInput
from qgraphs.graphs import QuantumGraph, edge_spectrum, graph_report
from qgraphs.groups import cayley_spectrum, twisted_cayley
from qgraphs.obstruction import classical_obstruction


def _twins():
    """(label, diagonal-held graph) over every twisted_family() set and 20 random twists."""
    rng = np.random.default_rng(31)
    out = [(label, QuantumGraph(x, diagonal=cayley_spectrum(
        x.group, random_generating_multiset(x.group, rng)))) for label, x in twisted_family()]
    for seed in range(20):
        group, gens, sigma = random_twist_instance(np.random.default_rng(seed))
        out.append((f"random-twist-{seed}", twisted_cayley(group, gens, sigma)))
    return out


TWINS = _twins()


def _results(g):
    """What the battery, the edge spectrum, the obstruction and the writer make of g."""
    spectrum = edge_spectrum(g)
    return (graph_report(g), None if spectrum is None else spectrum.tobytes(),
            document_text(docs.certificate_to_document(classical_obstruction(g))),
            document_text(docs.graph_to_document(g)))


@pytest.mark.parametrize("label, held", TWINS, ids=[label for label, _ in TWINS])
def test_diagonal_and_dense_twins_give_the_same_results(label, held):
    d = held.diagonal
    assert d is not None and d.shape == (held.set.N,)
    dense = QuantumGraph(held.set, np.diag(d))
    assert dense.diagonal is None
    assert _results(held) == _results(dense)
    assert held._adjacency is None  # none of them formed the N x N array
    # the document read back is held by its diagonal, with the same bits
    read = docs.graph_from_document(docs.loads(document_text(docs.graph_to_document(held))))
    assert read.diagonal is not None and read.diagonal.tobytes() == d.tobytes()
    assert _results(read) == _results(dense)
    # the adjacency, formed on first read and kept, is np.diag(d) bit for bit
    assert held.adjacency.tobytes() == np.diag(d).tobytes()
    assert held.adjacency is held.adjacency


def test_a_graph_needs_exactly_one_form_of_the_right_size():
    x = m2_graph(0).set
    for kwargs, message in (({}, "exactly one"),
                            ({"adjacency": np.eye(4), "diagonal": np.ones(4)}, "exactly one"),
                            ({"diagonal": np.ones(3)}, r"adjacency has shape \(3, 3\)"),
                            ({"diagonal": np.eye(4)}, r"diagonal has shape \(4, 4\)")):
        with pytest.raises(InvalidInput, match=message):
            QuantumGraph(x, **kwargs)


def _cli(argv, text=None, tmp_path=None):
    if text is not None:
        path = tmp_path / "in.json"
        path.write_text(text)
        argv = [argv[0], str(path), *argv[1:]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _q3_text():
    return document_text(docs.graph_to_document(cube_like_graph(3, hypercube_generators(3))))


@pytest.mark.parametrize("off, held", [
    ("[0.0,0.0]", True), ("[0,0]", True), ("[0e5,0.0]", True),
    ("[-0.0,0.0]", False), ("[0.0,-0.0]", False), ("[1e400,-0.0]", False), ("[1.5,0.0]", False),
])
def test_only_a_positive_zero_off_the_diagonal_is_held_by_the_diagonal(off, held):
    """Any other off-diagonal pair is filled into the N x N array; either way np.asarray
    gives the bits of json.loads + np.asarray, -0.0 and inf included."""
    text = _q3_text().replace("[0.0,0.0]", off)
    got = docs.loads(text)["adjacency"]
    assert isinstance(got, docs.DiagonalArray if held else np.ndarray)
    assert np.asarray(got).tobytes() == np.asarray(json.loads(text)["adjacency"],
                                                   dtype=np.float64).tobytes()
    if "1e400" not in off:
        g = docs.graph_from_document(docs.loads(text))
        assert (g.diagonal is not None) == held
        assert graph_report(g) == graph_report(QuantumGraph(g.set, g.adjacency))


def test_an_infinite_diagonal_entry_exits_2_with_one_line(tmp_path):
    text = _q3_text().replace("[[[3.0,0.0]", "[[[1e400,0.0]", 1)
    assert text != _q3_text()
    assert isinstance(docs.loads(text)["adjacency"], docs.DiagonalArray)
    for command in ("graph-check", "obstruct", "rotate"):
        code, out, err = _cli([command, "--json"], text, tmp_path)
        assert (code, out, err) == (2, "", "error: adjacency has a non-finite entry\n")


def test_a_block_set_graph_read_by_its_diagonal_reports_as_its_matrix(tmp_path):
    code, text, _ = _cli(["catalog", "m2-empty", "--json"])
    assert code == 0
    doc = docs.loads(text)
    assert isinstance(doc["adjacency"], docs.DiagonalArray)
    g = docs.graph_from_document(doc)
    assert g.diagonal is not None
    assert graph_report(g) == graph_report(m2_graph(0))
    assert document_text(docs.graph_to_document(g, metadata=doc["metadata"])) + "\n" == text
    assert document_text(doc) + "\n" == text
    # with a newline inside every row the walk leaves the array to json.loads: a dense read
    dense_text = json.dumps(json.loads(text), indent=1)
    assert isinstance(docs.loads(dense_text)["adjacency"], list)
    for command in ("graph-check", "rotate", "obstruct"):
        held = _cli([command, "--json"], text, tmp_path)
        assert held == _cli([command, "--json"], dense_text, tmp_path) and held[0] == 0

"""CLI: pipelines, exit codes, document round trips, determinism."""

import contextlib
import copy
import functools
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from conftest import diagonal_embedding, document_text
from hypothesis import given, settings, strategies as st

from qgraphs import cli, documents as docs
from qgraphs.algebra import Operator, build_quantum_set
from qgraphs.catalog import anticommutative_square
from qgraphs.cli import main
from qgraphs.clifford import cube_like_graph, hypercube_generators
from qgraphs.graphs import QuantumGraph, adjacency_to_projection


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_catalog_graph_check_pipeline(capsys, tmp_path):
    code, out, _ = run(capsys, "catalog", "anticommutative-square", "--json")
    assert code == 0
    path = tmp_path / "square.json"
    path.write_text(out)
    code, out, _ = run(capsys, "graph-check", str(path), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "report"
    s = doc["summary"]
    assert s["is_simple"] and s["vertices"] == 4
    assert abs(s["edges"][0] - 8) < 1e-9 and abs(s["edges"][1]) < 1e-12
    assert s["quantum_edges"] == 2


def test_twist_pipeline_cube(capsys, tmp_path):
    code, out, _ = run(capsys, "twist", "--orders", "2,2,2", "--gens", "100;010;001",
                       "--bichar", "clifford", "--json")
    assert code == 0
    path = tmp_path / "cube.json"
    path.write_text(out)
    code, out, _ = run(capsys, "graph-check", str(path), "--json")
    assert code == 0
    s = json.loads(out)["summary"]
    assert s["vertices"] == 8 and abs(s["regular_degree"] - 3) < 1e-9
    assert s["is_simple"]


@pytest.mark.parametrize("orders, gens", [("2,2,2", "100;010;001"), ("4,4", "10;01")])
def test_twist_clifford_preset_on_any_accepted_orders(capsys, orders, gens):
    code, out, _ = run(capsys, "twist", "--orders", orders, "--gens", gens,
                       "--bichar", "clifford", "--json")
    assert code == 0
    g = docs.graph_from_document(docs.loads(out))
    rank = len(orders.split(","))
    want = np.where(np.tril(np.ones((rank, rank)), -1) > 0, -1.0, 1.0)
    assert np.array_equal(g.set.bicharacter.gen_values, want)


def test_json_output_skips_the_report_table(capsys, monkeypatch):
    import qgraphs.cli

    def refuse(*args, **kwargs):
        raise AssertionError("graph_report ran for a table that is not printed")

    monkeypatch.setattr(qgraphs.cli, "graph_report", refuse)
    for argv in (["catalog", "m2-edge"], ["cayley", "--orders", "4", "--gens", "1;3"],
                 ["twist", "--orders", "2,2", "--gens", "10;01", "--bichar", "clifford"]):
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 0 and json.loads(out)["kind"] == "quantum-graph"


def test_twist_with_inline_and_document_bicharacter(capsys, tmp_path):
    from qgraphs.groups import AbelianGroup

    code, out1, _ = run(capsys, "twist", "--orders", "2,2", "--gens", "10;01",
                        "--bichar", "[[1, 1], [-1, 1]]", "--json")
    assert code == 0
    doc = docs.bicharacter_to_document(AbelianGroup((2, 2)),
                                       np.array([[1, 1], [-1, 1]], dtype=complex))
    path = tmp_path / "sign.json"
    path.write_text(document_text(doc))
    code, out2, _ = run(capsys, "twist", "--orders", "2,2", "--gens", "10;01",
                        "--bichar", str(path), "--json")
    assert code == 0
    g1 = docs.graph_from_document(docs.loads(out1))
    g2 = docs.graph_from_document(docs.loads(out2))
    assert np.array_equal(g1.adjacency, g2.adjacency)
    # rejects an order-violating matrix
    code, _, err = run(capsys, "twist", "--orders", "3,3", "--gens", "10",
                       "--bichar", "[[1, -1], [1, 1]]", "--json")
    assert code == 2


def test_obstruct_gell_mann(capsys, tmp_path):
    code, out, _ = run(capsys, "catalog", "gell-mann", "--json")
    assert code == 0
    path = tmp_path / "gm.json"
    path.write_text(out)
    code, out, _ = run(capsys, "obstruct", str(path), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "certificate"
    assert doc["residual"] > 1e-6


def test_obstruct_inconclusive(capsys, tmp_path):
    code, out, _ = run(capsys, "catalog", "anticommutative-square", "--json")
    path = tmp_path / "sq.json"
    path.write_text(out)
    code, out, _ = run(capsys, "obstruct", str(path), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "report"
    assert doc["summary"]["outcome"] == "inconclusive"


def test_set_check_exit_codes(capsys):
    code, out, _ = run(capsys, "set-check", "--blocks", "1,2,3", "--json")
    assert code == 0
    assert json.loads(out)["summary"]["all_pass"] is True
    code, _, err = run(capsys, "set-check", "--blocks", "0,2")
    assert code == 2


def test_set_check_samples_nothing_and_ignores_seed(capsys, tmp_path):
    # every identity, (ab)* = b*a* among them, is checked on every basis pair or triple
    path = tmp_path / "squared.json"
    path.write_text(run(capsys, "catalog", "squared", "--n", "6", "--json")[1])
    for source in (["--blocks", "1,2,3,4"], [str(path)]):
        for form in (["--json"], []):
            outputs = {run(capsys, "set-check", *source, *form, *seed)
                       for seed in ([], ["--seed", "1"], ["--seed", "2"])}
            assert len(outputs) == 1 and next(iter(outputs))[0] == 0, (source, form)
        names = [check["name"] for check in json.loads(run(capsys, "set-check", *source,
                                                           "--json")[1])["checks"]]
        assert not [name for name in names if name.startswith("random_")]
        assert "star_antimultiplicative" in names and "associativity" in names


def test_set_check_refuses_a_non_integer_seed(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["set-check", "--blocks", "1", "--seed", "1.5"])
    assert exc.value.code == 2
    assert "--seed: invalid int value: '1.5'" in capsys.readouterr().err


_BELOW_ONE = [["catalog", preset, "--n", n] for preset in ("hypercube", "folded", "squared")
              for n in ("0", "-1")]


@pytest.mark.parametrize("argv", _BELOW_ONE + [["catalog", "cube", "--n", "0", "--gens", "1"]])
def test_cube_presets_refuse_n_below_one(capsys, argv):
    code, out, err = run(capsys, *argv, "--json")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_set_check_at_the_size_limit(capsys):
    # N = 4096 points: the battery builds no N x N array
    code, out, _ = run(capsys, "set-check", "--blocks", ",".join(["1"] * 4096), "--json")
    assert code == 0
    assert json.loads(out)["summary"]["all_pass"] is True


def test_malformed_json_is_exit_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"kind": "quantum-graph",')
    code, _, err = run(capsys, "graph-check", str(path))
    assert code == 2
    assert "line 1" in err


def test_reserialisation_is_idempotent(capsys, tmp_path):
    code, out1, _ = run(capsys, "catalog", "rook", "--n", "3", "--json")
    assert code == 0
    g = docs.graph_from_document(docs.loads(out1))
    out2 = document_text(docs.graph_to_document(
        g, metadata={"command": "catalog", "preset": "rook"}))
    assert out1.strip() == out2.strip()


def test_seed_reproducibility(capsys):
    _, out1, _ = run(capsys, "set-check", "--blocks", "2,2", "--seed", "5", "--json")
    _, out2, _ = run(capsys, "set-check", "--blocks", "2,2", "--seed", "5", "--json")
    assert out1 == out2


@pytest.mark.parametrize("argv", [
    ["catalog", "m2-edge", "--seed", "5"],
    ["cayley", "--orders", "2", "--gens", "1", "--seed", "5"],
    ["graph-check", "-", "--seed", "5"],
])
def test_seed_is_refused_where_no_check_is_randomized(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 5" in capsys.readouterr().err


# Sizes whose first allocation numpy or Python would refuse outright without
# the admission check: N = 10^10 for the block, N = 2^80 for the groups, a
# 1.6 PB index grid for the rook's closed form, and a 10^12-tuple of orders
# or a 10^12 x 10^12 identity of generators for the cubes.
@pytest.mark.parametrize("argv", [
    ["set-check", "--blocks", "100000"],
    ["cayley", "--orders", "1099511627776,1099511627776", "--gens", "1,0"],
    ["twist", "--orders", "1099511627776,1099511627776", "--gens", "1,0", "--bichar", "trivial"],
    ["catalog", "hypercube", "--n", "1000000000000"],
    ["catalog", "folded", "--n", "1000000000000"],
    ["catalog", "squared", "--n", "1000000000000"],
    ["catalog", "rook", "--n", "10000000"],
])
def test_oversized_sets_are_refused_before_allocation(capsys, argv):
    code, out, err = run(capsys, *argv, "--json")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "the limit is 4096" in err


def test_more_cyclic_factors_than_numpy_dimensions_are_refused(capsys):
    code, out, err = run(capsys, "cayley", "--orders", ",".join(["1"] * 32 + ["2"]),
                         "--gens", ",".join(["0"] * 32 + ["1"]), "--json")
    assert code == 2 and out == ""
    assert err == "error: at most 31 cyclic factors are supported, got 33\n"


def test_rotate_round_trip(capsys, tmp_path):
    code, out, _ = run(capsys, "catalog", "m2-edge", "--json")
    path = tmp_path / "edge.json"
    path.write_text(out)
    code, rotated, _ = run(capsys, "rotate", str(path), "--json")
    assert code == 0
    doc = json.loads(rotated)
    assert "projection" in doc
    path2 = tmp_path / "rotated.json"
    path2.write_text(rotated)
    code, back, _ = run(capsys, "rotate", str(path2), "--json")
    assert code == 0
    g0 = docs.graph_from_document(docs.loads(out))
    g1 = docs.graph_from_document(docs.loads(back))
    assert np.abs(g0.adjacency - g1.adjacency).max() < 1e-12


def test_quotient_command(capsys, tmp_path):
    r3 = math.sqrt(3.0)
    a_x = 0.25 * np.array(
        [[3, r3, r3, 1], [r3, -3, 1, -r3], [r3, 1, -3, -r3], [1, -r3, -r3, 3]],
        dtype=complex)
    x = build_quantum_set([2])
    gpath = tmp_path / "g.json"
    gpath.write_text(document_text(docs.graph_to_document(QuantumGraph(x, a_x))))
    iota = diagonal_embedding(2)
    mpath = tmp_path / "iota.json"
    mpath.write_text(document_text(docs.operator_to_document(iota)))
    code, out, _ = run(capsys, "quotient", str(gpath), str(mpath), "--json")
    assert code == 0
    g = docs.graph_from_document(docs.loads(out))
    assert np.abs(g.adjacency - 0.5 * np.array([[3, 1], [1, 3]])).max() < 1e-12


def test_subgraph_command(capsys, tmp_path):
    x = build_quantum_set([1, 1, 1])
    path_a = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex)
    gpath = tmp_path / "path.json"
    gpath.write_text(document_text(docs.graph_to_document(QuantumGraph(x, path_a))))
    code, out, _ = run(capsys, "subgraph", str(gpath), "--keep", "0,1", "--json")
    assert code == 0
    g = docs.graph_from_document(docs.loads(out))
    assert g.set.N == 2
    assert np.abs(g.adjacency - np.array([[0, 1], [1, 0]])).max() < 1e-12


def test_iso_check_command(capsys, tmp_path):
    g = anticommutative_square()
    gpath = tmp_path / "g.json"
    gpath.write_text(document_text(docs.graph_to_document(g)))
    ident = Operator(g.set, g.set, np.eye(4, dtype=complex))
    mpath = tmp_path / "id.json"
    mpath.write_text(document_text(docs.operator_to_document(ident)))
    code, out, _ = run(capsys, "iso-check", str(gpath), str(gpath), str(mpath), "--json")
    assert code == 0
    assert json.loads(out)["summary"]["isomorphism"] is True
    # a wrong map between different graphs exits 1
    from qgraphs import quantum_edge
    from qgraphs.catalog import SIGMA_3
    hpath = tmp_path / "h.json"
    hpath.write_text(document_text(docs.graph_to_document(quantum_edge(2, SIGMA_3))))
    code, out, _ = run(capsys, "iso-check", str(gpath), str(hpath), str(mpath), "--json")
    assert code == 1


def test_tol_environment_and_flag(capsys, tmp_path, monkeypatch):
    # a graph 1e-6 away from Schur-idempotent: strict tol fails, loose passes
    g = anticommutative_square()
    a = g.adjacency.copy()
    a[0, 0] += 1e-6
    gpath = tmp_path / "g.json"
    gpath.write_text(document_text(docs.graph_to_document(QuantumGraph(g.set, a))))
    code, _, _ = run(capsys, "graph-check", str(gpath), "--json")
    assert code == 1
    monkeypatch.setenv("QG_TOL", "1e-3")
    code, _, _ = run(capsys, "graph-check", str(gpath), "--json")
    assert code == 0
    # the flag beats the environment variable
    code, _, _ = run(capsys, "graph-check", str(gpath), "--tol", "1e-9", "--json")
    assert code == 1


@pytest.mark.parametrize("kind", ["block", "twisted"])
@pytest.mark.parametrize("source, value", [("--tol", "0"), ("--tol", "-1"), ("--tol", "nan"),
                                           ("--tol", "inf"), ("QG_TOL", "inf")])
def test_tol_must_be_finite_and_positive(capsys, tmp_path, monkeypatch, kind, source, value):
    g = anticommutative_square() if kind == "block" else cube_like_graph(2, hypercube_generators(2))
    path = tmp_path / "g.json"
    path.write_text(document_text(docs.graph_to_document(g)))
    argv = ["graph-check", str(path), "--json"]
    if source == "QG_TOL":
        monkeypatch.setenv("QG_TOL", value)
    else:
        argv += ["--tol", value]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {source} must be a finite positive number, got {float(value)!r}\n"


def test_twist_bicharacter_is_snapped_at_tol(capsys, tmp_path):
    from qgraphs.groups import AbelianGroup

    near = [[1, 1], [-0.99999, 1]]
    argv = ["twist", "--orders", "2,2", "--gens", "10;01", "--json"]
    code, _, err = run(capsys, *argv, "--bichar", json.dumps(near))
    assert code == 2 and "not unimodular" in err
    code, inline, _ = run(capsys, *argv, "--bichar", json.dumps(near), "--tol", "1e-3")
    assert code == 0
    g = docs.graph_from_document(docs.loads(inline))
    assert np.array_equal(g.set.bicharacter.gen_values, [[1, 1], [-1, 1]])
    path = tmp_path / "near.json"
    path.write_text(document_text(docs.bicharacter_to_document(AbelianGroup((2, 2)),
                                                             np.array(near, dtype=complex))))
    code, _, _ = run(capsys, *argv, "--bichar", str(path))
    assert code == 2
    code, from_doc, _ = run(capsys, *argv, "--bichar", str(path), "--tol", "1e-3")
    assert code == 0
    assert {k: v for k, v in json.loads(from_doc).items() if k != "metadata"} \
        == {k: v for k, v in json.loads(inline).items() if k != "metadata"}
    # a graph document's bicharacter is snapped at the same tolerance
    graph = json.loads(inline)
    graph["set"]["bicharacter"] = [[[v, 0.0] for v in row] for row in near]
    gpath = tmp_path / "graph.json"
    gpath.write_text(json.dumps(graph))
    assert run(capsys, "graph-check", str(gpath), "--json")[0] == 2
    assert run(capsys, "graph-check", str(gpath), "--tol", "1e-3", "--json")[0] == 0


def test_documents_forbid_nan(tmp_path):
    x = build_quantum_set([1, 1])
    a = np.array([[np.nan, 0], [0, 0]], dtype=complex)
    with pytest.raises(ValueError):
        document_text(docs.graph_to_document(QuantumGraph(x, a)))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("flags", [["--json"], []], ids=["json", "table"])
def test_rotate_refuses_a_projection_block_that_leaves_the_float_range(capsys, tmp_path, flags):
    # -1e308 is a float, but the adjacency holds it times sqrt(2 * 2): both forms refuse the
    # block alike, before any table or document is built, and no overflow warning escapes
    path = tmp_path / "input.json"
    path.write_text(run(capsys, "catalog", "m2-edge", "--json")[1])
    doc = json.loads(run(capsys, "rotate", str(path), "--json")[1])
    doc["projection"][0][2][0][0] = [-1e308, 0.0]
    path.write_text(json.dumps(doc))
    assert run(capsys, "rotate", str(path), *flags) == (
        2, "", "error: projection block (0,0) times sqrt(n_i n_j) = 2 leaves the float range\n")


def _with_entries(capsys, path, argv, entries):
    """The document ``argv`` writes, with adjacency entries (i, j) set to [re, 0.0], at ``path``."""
    doc = json.loads(run(capsys, *argv, "--json")[1])
    for (i, j), value in entries.items():
        doc["adjacency"][i][j] = [value, 0.0]
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("flags", [["--json"], []], ids=["json", "table"])
@pytest.mark.parametrize("argv, entries", [
    # the matrix calculus: the (0, 3) block pair of M_2 squares 1e160 past the float range
    (["catalog", "m2-edge"], {(0, 3): 1e160, (3, 0): 1e160}),
    # ... and 1e308, whose edge count eta^dag A eta = 4e308 would leave it too
    (["catalog", "m2-edge"], {(0, 3): 1e308, (3, 0): 1e308}),
    # the diagonal calculus: the connection function of twisted Q_2 squares d_0 / 4 = 2.5e299
    (["catalog", "hypercube", "--n", "2"], {(0, 0): 1e300}),
], ids=["matrix", "matrix-1e308", "diagonal"])
def test_graph_check_refuses_a_schur_square_that_leaves_the_float_range(capsys, tmp_path, flags,
                                                                        argv, entries):
    path = _with_entries(capsys, tmp_path / "input.json", argv, entries)
    assert run(capsys, "graph-check", str(path), *flags) == (
        2, "", "error: the Schur product A . A leaves the float range\n")
    # obstruct measures its seeds against their largest entry, and reads the graph as before
    code, out, err = run(capsys, "obstruct", str(path), "--json")
    assert code == 0 and err == "" and json.loads(out)["summary"]["outcome"] == "inconclusive"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("flags", [["--json"], []], ids=["json", "table"])
def test_quotient_refuses_an_adjacency_that_leaves_the_float_range(capsys, tmp_path, flags):
    # the diagonal embedding doubles the entries it keeps: 2e308 is past the float range
    path = _with_entries(capsys, tmp_path / "input.json", ["catalog", "m2-full"],
                         {(i, i): 1e308 for i in range(4)})
    embedding = tmp_path / "iota.json"
    embedding.write_text(document_text(docs.operator_to_document(diagonal_embedding(2))))
    assert run(capsys, "quotient", str(path), str(embedding), *flags) == (
        2, "", "error: the quotient iota^dag A iota leaves the float range\n")


@pytest.mark.parametrize("command", ["set-check", "graph-check"])
def test_a_set_spec_with_two_presentations_is_refused(capsys, tmp_path, command):
    # a twisted Z_2^2 set that also claims to be M_3: neither presentation wins
    doc = json.loads(run(capsys, "catalog", "hypercube", "--n", "2", "--json")[1])
    doc["set"]["blocks"] = [3]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    for flags in (["--json"], []):
        assert run(capsys, command, str(path), *flags) == (
            2, "", "error: set spec has both 'blocks' and 'group': give one presentation of "
                   "the set\n")


def test_cayley_spectrum_output(capsys):
    code, out, _ = run(capsys, "cayley", "--orders", "2,2,2",
                       "--gens", "100;010;001", "--spectrum", "--json")
    assert code == 0
    doc = json.loads(out)
    lams = sorted(z[0] for z in doc["spectrum"])
    assert lams == [-3, -1, -1, -1, 1, 1, 1, 3]


@pytest.mark.parametrize("preset", [["rook", "--n", "3"], ["rook", "--n", "8"], ["m2-empty"],
                                    ["m2-edge"], ["m2-two"], ["m2-full"],
                                    ["anticommutative-square"]],
                         ids=" ".join)
def test_catalog_graph_does_not_depend_on_tol(capsys, preset):
    # a catalog graph is built without a tolerance; --tol governs only the checks
    code, want, _ = run(capsys, "catalog", *preset, "--json")
    assert code == 0
    for tol in ("1e-20", "10"):
        assert run(capsys, "catalog", *preset, "--json", "--tol", tol) == (0, want, "")


def _graph_text(edit=None):
    """A [1, 2] graph document as text, after ``edit`` mutates the dict."""
    x = build_quantum_set([1, 2])
    a = np.eye(5, dtype=complex)
    a[0, 0] = 12345.5  # sentinel that a probe may replace in the text
    doc = json.loads(document_text(docs.graph_to_document(QuantumGraph(x, a))))
    if edit is not None:
        edit(doc)
    return json.dumps(doc)


def _projection_text(edit=None):
    x = build_quantum_set([1, 2])
    a = np.eye(5, dtype=complex)
    doc = json.loads(document_text(docs.projection_to_document(
        adjacency_to_projection(QuantumGraph(x, a)))))
    doc["projection"][0][2][0][0] = [12345.5, 0.0]
    if edit is not None:
        edit(doc)
    return json.dumps(doc)


def _drop_pair(doc, pair):
    doc["projection"] = [e for e in doc["projection"] if (e[0], e[1]) != pair]


MALFORMED = {
    "group-without-orders": ("graph-check", _graph_text(
        lambda d: d.update(set={"group": {}, "bicharacter": [[[1.0, 0.0]]]}))),
    "null-entry": ("graph-check", _graph_text(
        lambda d: d["adjacency"][0].__setitem__(1, [None, 0.0]))),
    "string-and-bool-pair": ("graph-check", _graph_text(
        lambda d: d["adjacency"][0].__setitem__(1, ["1", True]))),
    "bool-among-numbers": ("graph-check", _graph_text(
        lambda d: d["adjacency"][0].__setitem__(1, [1.0, True]))),
    "overflow-obstruct": ("obstruct", _graph_text().replace("12345.5", "1e400")),
    "overflow-rotate": ("rotate", _projection_text().replace("12345.5", "1e400")),
    "projection-missing-pair": ("rotate", _projection_text(lambda d: _drop_pair(d, (0, 1)))),
    "projection-entry-without-matrix": ("rotate", _projection_text(
        lambda d: d["projection"].__setitem__(0, [0, 0]))),
    "string-blocks": ("graph-check", _graph_text(lambda d: d["set"].update(blocks=["a"]))),
    # deeper than json.loads, or the boolean scan, recurses; longer than int() reads
    "list-nested-990-deep": ("graph-check", _graph_text().replace(
        '"metadata": {}', '"metadata": {"x": ' + "[" * 990 + "]" * 990 + "}")),
    "true-nested-980-deep": ("graph-check", _graph_text().replace(
        '"metadata": {}', '"metadata": {"x": ' + "[" * 980 + "true" + "]" * 980 + "}")),
    "5000-digit-adjacency-entry": ("graph-check", _graph_text().replace("12345.5", "1" * 5000)),
    "5000-digit-block-size": ("graph-check", _graph_text().replace(
        '"blocks": [1, 2]', '"blocks": [1, 2' + "0" * 5000 + "]")),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_documents_exit_2_with_one_error_line(capsys, tmp_path, name):
    command, text = MALFORMED[name]
    path = tmp_path / "doc.json"
    path.write_text(text)
    code, out, err = run(capsys, command, str(path), "--json")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["cayley", "--orders", "2,x", "--gens", "1,1"],
    ["cayley", "--orders", "2,2", "--gens", "1x"],
    ["twist", "--orders", "2,2", "--gens", "1,,1", "--bichar", "trivial"],
    ["set-check", "--blocks", "1,a"],
    ["subgraph", "-", "--keep", "a"],
    ["obstruct", "-", "--max-dim", "-1"],
    ["obstruct", "-", "--max-dim", "0"],
    ["twist", "--orders", "2,2", "--gens", "10;01", "--bichar", "[[1,1],[1,%s]]" % ("1" * 5000)],
])
def test_bad_integer_arguments_exit_2_with_one_error_line(capsys, monkeypatch, argv):
    monkeypatch.setattr("sys.stdin", io.StringIO(_graph_text()))
    code, out, err = run(capsys, *argv, "--json")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("case", ["directory-document", "directory-bichar", "utf-16-document"])
def test_unreadable_inputs_exit_2_with_one_error_line(capsys, tmp_path, case):
    # exit 1 means a failed verification, so an input that cannot be read
    # or decoded must not end in a traceback
    utf16 = tmp_path / "doc.json"
    utf16.write_bytes(b"\xff\xfe" + _graph_text().encode("utf-16-le"))
    argv = {
        "directory-document": ["graph-check", str(tmp_path)],
        "directory-bichar": ["twist", "--orders", "2,2", "--gens", "10;01", "--bichar",
                             str(tmp_path)],
        "utf-16-document": ["graph-check", str(utf16)],
    }[case]
    code, out, err = run(capsys, *argv, "--json")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_generic_schur_product_is_refused_above_the_dense_limit(capsys, tmp_path):
    """One off-diagonal pair takes a twisted Q_7 (N = 128) out of the diagonal
    calculus; the generic Schur product it then needs is refused, not computed."""
    from qgraphs.algebra import DENSE_LIMIT
    from qgraphs.errors import ResourceLimit
    from qgraphs.graphs import schur_product

    g = cube_like_graph(7, hypercube_generators(7))
    a = g.adjacency.copy()
    a[1, 2] = a[2, 1] = 1.0
    with pytest.raises(ResourceLimit, match=f"N=128 > {DENSE_LIMIT}"):
        schur_product(g.set, a, a)
    path = tmp_path / "q7.json"
    path.write_text(document_text(docs.graph_to_document(QuantumGraph(g.set, a))))
    for command in ("graph-check", "obstruct"):
        code, out, err = run(capsys, command, str(path), "--json")
        assert code == 2 and out == "", command
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err and f"> {DENSE_LIMIT}" in err


def test_closed_stdout_is_exit_2_without_traceback():
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    # about 0.4 MB of JSON, several times a pipe buffer
    proc = subprocess.Popen([sys.executable, "-m", "qgraphs", "catalog", "hypercube",
                             "--n", "7", "--json"], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env)
    assert proc.stdout.read(10) == b'{"adjacenc'
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err and "Exception ignored" not in err


def test_weyl_preset_is_weyl_bicharacter(capsys):
    from qgraphs.weyl import weyl_bicharacter

    code, _, _ = run(capsys, "twist", "--orders", "1,1", "--gens", "00",
                     "--bichar", "weyl", "--json")
    assert code == 0
    code, out, _ = run(capsys, "twist", "--orders", "3,3", "--gens", "10;01",
                       "--bichar", "weyl", "--json")
    assert code == 0
    g = docs.graph_from_document(docs.loads(out))
    assert np.array_equal(g.set.bicharacter.gen_values, weyl_bicharacter(3).gen_values)


def test_one_parser_serves_many_calls(capsys):
    from qgraphs import cli

    argvs = [["catalog", "m2-edge", "--json"], ["cayley", "--orders", "2,2", "--gens", "10;01"],
             ["graph-check"], ["catalog", "rook", "--json"], ["set-check", "--blocks", "1,2"],
             ["catalog", "m2-edge", "--json"]]

    def outcomes(fresh):
        got = []
        for argv in argvs:
            if fresh:
                cli._build_parser.cache_clear()
            try:
                code = main(list(argv))
            except SystemExit as exc:  # argparse refusing the argv
                code = exc.code
            got.append((code, *capsys.readouterr()))
        return got

    fresh = outcomes(fresh=True)
    cli._build_parser.cache_clear()
    assert outcomes(fresh=False) == fresh
    assert cli._build_parser.cache_info().misses == 1
    assert [code for code, _, _ in fresh] == [0, 0, 2, 2, 0, 0]


def test_unexpected_exception_is_exit_3_with_one_error_line(capsys, monkeypatch):
    # exit 1 means a failed verification, so a fault of the program gets its
    # own code; the cached parser binds the _cmd_* functions, so the fault is
    # planted in a library call they make
    def fail(*args, **kwargs):
        raise RuntimeError("planted fault")

    monkeypatch.setattr("qgraphs.cli.graph_report", fail)
    monkeypatch.setattr("sys.stdin", io.StringIO(_graph_text()))
    code, out, err = run(capsys, "graph-check", "-", "--json")
    assert code == 3 and out == ""
    assert err == "error: internal error: RuntimeError: planted fault\n"


# -- fuzzing the exit contract ------------------------------------------------

_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=8)
_TOLS = st.one_of(st.none(), st.floats(min_value=1e-12, max_value=1e-3),
                  st.sampled_from([0.0, -0.0, -1.0, math.nan, math.inf, -math.inf]), st.floats())


def _fuzz_bases():
    """Small valid documents: graphs on a block set and a twisted set, and an operator."""
    block = anticommutative_square()
    twisted = cube_like_graph(1, hypercube_generators(1))
    op = Operator(block.set, block.set, np.eye(4, dtype=complex))
    return {name: json.loads(document_text(doc)) for name, doc in (
        ("block", docs.graph_to_document(block)),
        ("twisted", docs.graph_to_document(twisted)),
        ("operator", docs.operator_to_document(op)))}


_FUZZ_BASES = _fuzz_bases()


def _slots(value, path=()):
    """The path of every value nested in a document, the root's entries first."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return []
    out = []
    for key, child in items:
        out.append(path + (key,))
        out.extend(_slots(child, path + (key,)))
    return out


@settings(max_examples=300, deadline=None)
@given(base=st.sampled_from(sorted(_FUZZ_BASES)), data=st.data(), value=_JSON_VALUES,
       tol=_TOLS, command=st.sampled_from(["graph-check", "rotate", "obstruct", "iso-check",
                                           "subgraph", "quotient", "set-check"]))
def test_cli_exit_contract_under_fuzzed_documents(tmp_path_factory, base, data, value, tol,
                                                  command):
    doc = copy.deepcopy(_FUZZ_BASES[base])
    path = data.draw(st.sampled_from(_slots(doc)))
    parent = functools.reduce(lambda node, key: node[key], path[:-1], doc)
    parent[path[-1]] = value
    where = tmp_path_factory.mktemp("fuzz")
    fuzzed = where / "fuzzed.json"
    fuzzed.write_text(json.dumps(doc))
    graph = where / "graph.json"
    graph.write_text(json.dumps(_FUZZ_BASES["block"]))
    operator = where / "operator.json"
    operator.write_text(json.dumps(_FUZZ_BASES["operator"]))
    if command == "iso-check":
        files = [graph, graph, fuzzed] if base == "operator" else [fuzzed, graph, operator]
    elif command == "quotient":  # a fuzzed map, or a fuzzed graph
        files = [graph, fuzzed] if base == "operator" else [fuzzed, operator]
    else:
        files = [fuzzed]
    options = ["--keep", "0"] if command == "subgraph" else []
    argv = [command, *map(str, files), *options, "--json"] + (
        [] if tol is None else [f"--tol={tol!r}"])
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (argv, doc, err.getvalue())
    assert "Traceback" not in err.getvalue() and "internal error" not in err.getvalue(), \
        (argv, doc, err.getvalue())


# -- the command pipeline and the preset tables -------------------------------

_MINIMAL_OPTIONS = {"n": "3", "m": "2", "t": "0.5", "gens": "110;011"}


@pytest.mark.parametrize("preset", list(cli._PRESETS))
def test_every_catalog_preset_builds_with_minimal_options(capsys, preset):
    needs, _ = cli._PRESETS[preset]
    options = [tok for group in needs for opt in group for tok in (f"--{opt}", _MINIMAL_OPTIONS[opt])]
    code, out, err = run(capsys, "catalog", preset, *options, "--json")
    assert code == 0, err
    doc = json.loads(out)
    assert doc["metadata"] == {"command": "catalog", "preset": preset}
    assert run(capsys, "catalog", preset, *options)[0] == 0  # the table as well


_PRESET_ARGV = [["catalog", preset, *[tok for group in needs for opt in group
                                      for tok in (f"--{opt}", _MINIMAL_OPTIONS[opt])]]
                for preset, (needs, _) in cli._PRESETS.items()]


@pytest.mark.parametrize("argv", _PRESET_ARGV + [
    ["catalog", "rook", "--n", "4"], ["catalog", "hypercube", "--n", "5"],
    ["twist", "--orders", "4,4", "--gens", "1,0;0,1", "--bichar", "weyl"],
    ["cayley", "--orders", "2,2,2", "--gens", "100;010;001", "--spectrum"],
], ids=" ".join)
def test_document_text_survives_a_read_and_write(capsys, argv):
    # loads gives each matrix as float64 [re, im] numbers, and encode writes them back as read
    code, out, err = run(capsys, *argv, "--json")
    assert code == 0, err
    assert document_text(docs.loads(out)) + "\n" == out


@pytest.mark.parametrize("argv, missing", [
    (["catalog", "cube"], "--n"),
    (["catalog", "cube", "--n", "3"], "--gens"),
    (["catalog", "m2-partial", "--m", "1"], "--m and --t"),
    (["catalog", "m2-partial", "--t", "0.5"], "--m and --t"),
    (["catalog", "rook"], "--n"),
])
def test_missing_catalog_options_name_what_is_needed(capsys, argv, missing):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: catalog {argv[1]} needs {missing}\n"


def test_catalog_help_lists_the_preset_table(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(["catalog", "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    # every name is printed whole: a name wrapped at its hyphen would be two words
    printed = text.split("positional arguments:")[1].split("options:")[0].split()
    assert printed == ["preset", *" | ".join(cli._PRESETS).split()]
    code, _, err = run(capsys, "catalog", "nope")
    assert code == 2 and err == "error: unknown catalog preset 'nope'\n"


@pytest.mark.parametrize("name, orders", [("trivial", "2,4,3"), ("clifford", "2,2,2"),
                                          ("weyl", "3,3")])
def test_bichar_presets_give_their_generator_values(capsys, name, orders):
    from qgraphs.clifford import clifford_bicharacter
    from qgraphs.weyl import weyl_bicharacter

    rank = len(orders.split(","))
    code, out, _ = run(capsys, "twist", "--orders", orders, "--gens", "0" * rank,
                       "--bichar", name, "--json")
    assert code == 0
    want = {"trivial": lambda: np.ones((rank, rank)),
            "clifford": lambda: clifford_bicharacter(rank).gen_values,
            "weyl": lambda: weyl_bicharacter(3).gen_values}[name]()
    got = docs.graph_from_document(docs.loads(out)).set.bicharacter.gen_values
    assert np.array_equal(got, want)


def test_weyl_preset_needs_a_square_group(capsys):
    code, out, err = run(capsys, "twist", "--orders", "2,4", "--gens", "1,0", "--bichar", "weyl")
    assert code == 2 and out == ""
    assert err == "error: the weyl preset needs a group Z_n x Z_n\n"


def test_every_command_names_itself_in_its_document(capsys, tmp_path):
    graph = tmp_path / "g.json"
    graph.write_text(run(capsys, "catalog", "m2-edge", "--json")[1])
    proj = tmp_path / "p.json"
    proj.write_text(run(capsys, "rotate", str(graph), "--json")[1])
    x = build_quantum_set([2])
    op = tmp_path / "op.json"
    op.write_text(document_text(docs.operator_to_document(Operator(x, x, np.eye(4, dtype=complex)))))
    embed = tmp_path / "embed.json"
    embed.write_text(document_text(docs.operator_to_document(diagonal_embedding(2))))
    argvs = {
        "set-check": ["--blocks", "1,2"],
        "graph-check": [str(graph)],
        "rotate": [str(proj)],
        "cayley": ["--orders", "4", "--gens", "1;3", "--spectrum"],
        "twist": ["--orders", "2,2", "--gens", "10;01", "--bichar", "clifford"],
        "catalog": ["gell-mann"],
        "quotient": [str(graph), str(embed)],
        "subgraph": [str(graph), "--keep", "0"],
        "obstruct": [str(graph)],
        "iso-check": [str(graph), str(graph), str(op)],
    }
    with pytest.raises(SystemExit):
        main(["--help"])
    usage = capsys.readouterr().out
    assert usage.split("{")[1].split("}")[0].split(",") == list(argvs)
    for command, args in argvs.items():
        code, out, err = run(capsys, command, *args, "--json")
        assert code == 0, (command, err)
        assert json.loads(out)["metadata"]["command"] == command


def test_operator_documents_with_a_map_kind_entry_still_read(capsys, tmp_path):
    # documents written before the entry was dropped carry "map_kind": "iso"
    g = anticommutative_square()
    gpath = tmp_path / "g.json"
    gpath.write_text(document_text(docs.graph_to_document(g)))
    op = json.loads(document_text(docs.operator_to_document(
        Operator(g.set, g.set, np.eye(4, dtype=complex)))))
    assert "map_kind" not in op
    op["map_kind"] = "iso"
    mpath = tmp_path / "op.json"
    mpath.write_text(json.dumps(op))
    assert np.array_equal(docs.operator_from_document(docs.loads(mpath.read_text())).matrix,
                          np.eye(4))
    code, out, _ = run(capsys, "iso-check", str(gpath), str(gpath), str(mpath), "--json")
    assert code == 0 and json.loads(out)["summary"]["isomorphism"] is True

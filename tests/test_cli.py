"""CLI: pipelines, exit codes, document round trips, determinism."""

import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from qgraphs import documents as docs
from qgraphs.algebra import Operator, build_quantum_set
from qgraphs.catalog import anticommutative_square
from qgraphs.cli import main
from qgraphs.constructions import diagonal_embedding
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
    path.write_text(docs.dumps(doc))
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
    out2 = docs.dumps(docs.graph_to_document(
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
    gpath.write_text(docs.dumps(docs.graph_to_document(QuantumGraph(x, a_x))))
    iota = diagonal_embedding(2)
    mpath = tmp_path / "iota.json"
    mpath.write_text(docs.dumps(docs.operator_to_document(
        iota.op, map_kind=iota.kind)))
    code, out, _ = run(capsys, "quotient", str(gpath), str(mpath), "--json")
    assert code == 0
    g = docs.graph_from_document(docs.loads(out))
    assert np.abs(g.adjacency - 0.5 * np.array([[3, 1], [1, 3]])).max() < 1e-12


def test_subgraph_command(capsys, tmp_path):
    x = build_quantum_set([1, 1, 1])
    path_a = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex)
    gpath = tmp_path / "path.json"
    gpath.write_text(docs.dumps(docs.graph_to_document(QuantumGraph(x, path_a))))
    code, out, _ = run(capsys, "subgraph", str(gpath), "--keep", "0,1", "--json")
    assert code == 0
    g = docs.graph_from_document(docs.loads(out))
    assert g.set.N == 2
    assert np.abs(g.adjacency - np.array([[0, 1], [1, 0]])).max() < 1e-12


def test_iso_check_command(capsys, tmp_path):
    g = anticommutative_square()
    gpath = tmp_path / "g.json"
    gpath.write_text(docs.dumps(docs.graph_to_document(g)))
    ident = Operator(g.set, g.set, np.eye(4, dtype=complex))
    mpath = tmp_path / "id.json"
    mpath.write_text(docs.dumps(docs.operator_to_document(ident)))
    code, out, _ = run(capsys, "iso-check", str(gpath), str(gpath), str(mpath), "--json")
    assert code == 0
    assert json.loads(out)["summary"]["isomorphism"] is True
    # a wrong map between different graphs exits 1
    from qgraphs import quantum_edge
    from qgraphs.catalog import SIGMA_3
    hpath = tmp_path / "h.json"
    hpath.write_text(docs.dumps(docs.graph_to_document(quantum_edge(2, SIGMA_3))))
    code, out, _ = run(capsys, "iso-check", str(gpath), str(hpath), str(mpath), "--json")
    assert code == 1


def test_tol_environment_and_flag(capsys, tmp_path, monkeypatch):
    # a graph 1e-6 away from Schur-idempotent: strict tol fails, loose passes
    g = anticommutative_square()
    a = g.adjacency.copy()
    a[0, 0] += 1e-6
    gpath = tmp_path / "g.json"
    gpath.write_text(docs.dumps(docs.graph_to_document(QuantumGraph(g.set, a))))
    code, _, _ = run(capsys, "graph-check", str(gpath), "--json")
    assert code == 1
    monkeypatch.setenv("QG_TOL", "1e-3")
    code, _, _ = run(capsys, "graph-check", str(gpath), "--json")
    assert code == 0
    # the flag beats the environment variable
    code, _, _ = run(capsys, "graph-check", str(gpath), "--tol", "1e-9", "--json")
    assert code == 1


def test_documents_forbid_nan(tmp_path):
    x = build_quantum_set([1, 1])
    a = np.array([[np.nan, 0], [0, 0]], dtype=complex)
    with pytest.raises(ValueError):
        docs.dumps(docs.graph_to_document(QuantumGraph(x, a)))


def test_cayley_spectrum_output(capsys):
    code, out, _ = run(capsys, "cayley", "--orders", "2,2,2",
                       "--gens", "100;010;001", "--spectrum", "--json")
    assert code == 0
    doc = json.loads(out)
    lams = sorted(z[0] for z in doc["spectrum"])
    assert lams == [-3, -1, -1, -1, 1, 1, 1, 3]


def test_catalog_rook_cross_check_failure_is_exit_2(capsys):
    code, out, err = run(capsys, "catalog", "rook", "--n", "3", "--tol", "1e-20")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "1e-20" in err


def _graph_text(edit=None):
    """A [1, 2] graph document as text, after ``edit`` mutates the dict."""
    x = build_quantum_set([1, 2])
    a = np.eye(5, dtype=complex)
    a[0, 0] = 12345.5  # sentinel that a probe may replace in the text
    doc = json.loads(docs.dumps(docs.graph_to_document(QuantumGraph(x, a))))
    if edit is not None:
        edit(doc)
    return json.dumps(doc)


def _projection_text(edit=None):
    x = build_quantum_set([1, 2])
    a = np.eye(5, dtype=complex)
    doc = json.loads(docs.dumps(docs.projection_to_document(
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
    ["set-check", "--blocks", "1", "--seed", "-1"],
    ["subgraph", "-", "--keep", "a"],
    ["obstruct", "-", "--max-dim", "-1"],
    ["obstruct", "-", "--max-dim", "0"],
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

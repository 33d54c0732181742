"""Self-test of the benchmark harness; needs numpy only, not qgraphs.

    python3 perfbench/selftest.py

Checks that the same seed gives byte-identical inputs, that the oracle
flags deliberately corrupted outputs, that ``pipeline_tail_s`` always has
at least 10 samples beyond it, that the pipeline median weighs every item
the same, that the oracle never imports qgraphs, and
that the metric names match ``BENCHMARK.json``.  Scratch files go under
``.bench_out/`` of the current directory.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import sys
import tempfile

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _tree(path: str) -> dict:
    out = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            out[name] = fh.read()
    return out


def _items_without_paths(items, base: str) -> str:
    return json.dumps([vars(i) for i in items], sort_keys=True, default=str).replace(base, "<dir>")


def test_same_seed_gives_identical_inputs(scratch: str) -> None:
    for workload in workloads.WORKLOADS:
        trees, specs = [], []
        for rep in range(2):
            base = os.path.join(scratch, f"{workload}-{rep}")
            items = workloads.generate(workload, 7, base)
            trees.append(_tree(base))
            specs.append(_items_without_paths(items, base))
        assert trees[0] == trees[1], f"{workload}: documents differ for the same seed"
        assert specs[0] == specs[1], f"{workload}: argv or oracle specs differ for the same seed"
        other = os.path.join(scratch, f"{workload}-other")
        items = workloads.generate(workload, 8, other)
        assert (_tree(other), _items_without_paths(items, other)) != (trees[0], specs[0]), \
            f"{workload}: another seed gives the same inputs"


def _report_doc(summary: dict) -> str:
    return json.dumps({"kind": "report", "schema_version": 1, "summary": summary, "metadata": {}})


def test_oracle_flags_corrupted_outputs(scratch: str) -> None:
    # a graph-check report of the M_2 graph with two quantum edges
    good = {"is_graph": True, "is_undirected": True, "loop_status": "none", "is_simple": True,
            "is_multigraph": True, "vertices": 4, "edges": [8.0, 0.0], "quantum_edges": 2,
            "regular_degree": 2.0}
    spec = {"kind": "m2_report", "m": 2}
    assert oracle.check(spec, _report_doc(good)) is None
    for key, bad in (("quantum_edges", 3), ("edges", [8.5, 0.0]), ("is_simple", False),
                     ("vertices", 5)):
        assert oracle.check(spec, _report_doc({**good, key: bad})) is not None, key
    assert oracle.check(spec, "Traceback (most recent call last):") is not None

    # a Gell-Mann certificate (A, A o A): valid as built, flagged once corrupted
    lam8 = np.diag([1.0, 1.0, -2.0]).astype(complex) / np.sqrt(2)
    a = oracle.quantum_edge(3, lam8)
    x = a / np.linalg.norm(a)
    y = a @ a / np.linalg.norm(a @ a)
    residual = float(np.abs(oracle.schur_product([3], x, y) - oracle.schur_product([3], y, x)).max())
    cert = {"kind": "certificate", "schema_version": 1, "residual": residual, "threshold": 1e-6,
            "witnesses": {"trace_x": "A", "trace_y": "(A∘A)", "x": workloads.matrix_json(x),
                          "y": workloads.matrix_json(y)}, "metadata": {}}
    spec = {"kind": "certificate", "blocks": [3], "traces": ["A", "(A∘A)"]}
    assert residual > 1e-3
    assert oracle.check(spec, json.dumps(cert)) is None
    assert oracle.check(spec, json.dumps({**cert, "residual": 2 * residual})) is not None
    bad_y = workloads.matrix_json(x)  # x commutes with itself: residual 0
    assert oracle.check(spec, json.dumps({**cert, "witnesses": {**cert["witnesses"], "y": bad_y}})) \
        is not None
    assert oracle.check({"kind": "inconclusive"}, json.dumps(cert)) is not None

    # a twisted Cayley document whose diagonal is off by one entry
    orders, gens = (2, 2, 2), workloads.hypercube_gens(3)
    lam = oracle.cayley_spectrum(orders, gens)
    doc = {"kind": "quantum-graph", "schema_version": 1, "metadata": {},
           "set": {"group": {"orders": list(orders)}, "bicharacter": []},
           "adjacency": workloads.matrix_json(np.diag(lam))}
    spec = workloads.group_doc_check(orders, gens, spectrum=False)
    assert oracle.check(spec, json.dumps(doc)) is None
    lam[3] += 1e-3
    assert oracle.check(spec, json.dumps({**doc, "adjacency": workloads.matrix_json(np.diag(lam))})) \
        is not None

    # a subgraph document with one perturbed entry
    rng = np.random.default_rng(0)
    adjacency, _, _ = workloads.random_block_graph(rng, [1, 2], 0.5)
    ref = os.path.join(scratch, "ref.json")
    with open(ref, "w", encoding="utf-8") as fh:
        fh.write(workloads.dump_document(workloads.graph_document([1, 2], adjacency)))
    spec = {"kind": "graph_document", "ref": ref, "keep": [1]}
    sub = adjacency[1:, 1:].copy()
    assert oracle.check(spec, json.dumps(workloads.graph_document([2], sub))) is None
    sub[0, 0] += 1e-4
    assert oracle.check(spec, json.dumps(workloads.graph_document([2], sub))) is not None


def test_tail_has_ten_samples_beyond() -> None:
    rnd = random.Random(3)
    for n in range(11, 400):
        values = [round(rnd.lognormvariate(0, 1), rnd.choice((1, 3, 9))) for _ in range(n)]
        value, percentile, beyond = run.tail(values)
        assert beyond >= 10 and sum(v > value for v in values) == beyond, n
        assert percentile == 100.0 * sum(v <= value for v in values) / n
        # no larger sample qualifies
        assert all(sum(w > v for w in values) < 10 for v in values if v > value), n
    assert run.tail(list(range(10))) is None
    assert run.MIN_SAMPLES >= 11


def test_mix_median_weighs_items_equally() -> None:
    # equal sample counts: the lower median of all samples
    assert run.mix_median({"a": [1.0, 4.0], "b": [2.0, 3.0]}) == 2.0
    assert run.mix_median({"a": [1.0, 2.0, 3.0]}) == 2.0
    # an extra sample of the slow item does not pull the median towards it
    assert run.mix_median({"fast": [1.0, 1.0], "slow": [5.0, 5.0, 5.0]}) == 1.0
    assert run.mix_median({"fast": [1.0, 1.0, 1.2], "mid": [2.0, 2.0], "slow": [5.0, 5.0]}) == 2.0


def test_oracle_does_not_import_qgraphs() -> None:
    assert not any(name == "qgraphs" or name.startswith("qgraphs.") for name in sys.modules)


def test_metric_names_match_benchmark_json() -> None:
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert tuple(w["name"] for w in spec["workloads"]) == workloads.WORKLOADS


def main() -> int:
    out_root = os.path.join(os.getcwd(), ".bench_out")
    os.makedirs(out_root, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="selftest-", dir=out_root)
    tests = [
        ("same seed, identical inputs", lambda: test_same_seed_gives_identical_inputs(scratch)),
        ("oracle flags corrupted outputs", lambda: test_oracle_flags_corrupted_outputs(scratch)),
        ("tail has >= 10 samples beyond", test_tail_has_ten_samples_beyond),
        ("mix median weighs items equally", test_mix_median_weighs_items_equally),
        ("oracle does not import qgraphs", test_oracle_does_not_import_qgraphs),
        ("metric names match BENCHMARK.json", test_metric_names_match_benchmark_json),
    ]
    failed = 0
    try:
        for name, test in tests:
            try:
                test()
                print(f"pass  {name}")
            except AssertionError as exc:
                failed += 1
                print(f"FAIL  {name}: {exc}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

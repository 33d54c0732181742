"""Seeded inputs for the two benchmark workloads.

Each workload is a fixed, ordered mix of pipelines (one cycle).  The seed
changes the contents of the generated documents and generator sets, never
the structure of the mix: block sizes, edge-projection ranks, group sizes
and ``--max-dim`` values are fixed per item, so every seed asks the program
for the same amount of work.  Heavy and light items alternate so that the
work of a cycle is spread evenly over its length.

The program receives only the generated documents and argv.  Every item
carries an oracle specification (see :mod:`oracle`) for its final output and,
where the intermediate document is worth checking, for its first stage.

This module never imports ``qgraphs``.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

import oracle

WORKLOADS = ("blocks", "cayley")

# stdin placeholder in stage argv; the in-process pass substitutes a file
STDIN = "-"


@dataclass
class Item:
    """One pipeline of the mix.

    ``stages`` are qgraph argv lists; a stage after the first reads the
    previous stage's output through ``-``.  ``stdin`` names the input
    document fed to the first stage, if it reads ``-``.  ``code`` is the
    expected exit code of the last stage (earlier stages must exit 0).
    ``part`` names the part of the mix the item comes from.
    """

    id: str
    stages: list[list[str]]
    check: dict
    code: int = 0
    stdin: Optional[str] = None
    stage_checks: dict[int, dict] = field(default_factory=dict)
    part: str = ""


# ---------------------------------------------------------------------------
# documents
# ---------------------------------------------------------------------------


def matrix_json(a: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(a, dtype=complex)]


def block_set_spec(blocks) -> dict:
    return {"blocks": [int(n) for n in blocks]}


def graph_document(blocks, adjacency: np.ndarray) -> dict:
    return {
        "kind": "quantum-graph",
        "schema_version": 1,
        "set": block_set_spec(blocks),
        "adjacency": matrix_json(adjacency),
        "metadata": {"source": "perfbench"},
    }


def operator_document(blocks, matrix: np.ndarray) -> dict:
    spec = block_set_spec(blocks)
    return {
        "kind": "operator",
        "schema_version": 1,
        "domain": spec,
        "codomain": spec,
        "matrix": matrix_json(matrix),
        "map_kind": "iso",
        "metadata": {"source": "perfbench"},
    }


def dump_document(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# random block-set graphs
# ---------------------------------------------------------------------------


def block_offsets(blocks) -> list[int]:
    out = [0]
    for n in blocks:
        out.append(out[-1] + n * n)
    return out


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))[None, :]


def random_projection(rng: np.random.Generator, dim: int, rank: int) -> np.ndarray:
    """Orthogonal projection of the given rank onto a random subspace of C^dim."""
    if rank == 0:
        return np.zeros((dim, dim), dtype=complex)
    z = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    q, _ = np.linalg.qr(z)
    p = q @ q.conj().T
    return 0.5 * (p + p.conj().T)


def adjacency_from_projections(blocks, projections: dict) -> np.ndarray:
    """Inverse realignment: A[(i,a,b),(j,c,d)] = sqrt(n_i n_j) P_ij[(a,c),(b,d)]."""
    off = block_offsets(blocks)
    n_total = off[-1]
    a = np.zeros((n_total, n_total), dtype=complex)
    for (i, j), p in projections.items():
        ni, nj = blocks[i], blocks[j]
        four = p.reshape(ni, nj, ni, nj).transpose(0, 2, 1, 3)
        a[off[i]:off[i + 1], off[j]:off[j + 1]] = four.reshape(ni * ni, nj * nj) * math.sqrt(ni * nj)
    return a


def random_block_graph(rng: np.random.Generator, blocks, rank_fraction: float):
    """A quantum graph with one random edge projection per ordered block pair.

    Every pair (i, j) gets a projection of rank round(rank_fraction * n_i n_j),
    so the work the program does depends on the seed only through the
    subspaces.  Returns (adjacency, total rank, projections).
    """
    projections = {}
    total = 0
    for i, ni in enumerate(blocks):
        for j, nj in enumerate(blocks):
            dim = ni * nj
            rank = int(round(rank_fraction * dim))
            projections[(i, j)] = random_projection(rng, dim, rank)
            total += rank
    return adjacency_from_projections(blocks, projections), total, projections


def block_unitary_map(blocks, unitaries) -> np.ndarray:
    """Operator matrix of x -> U x U^dag, U = direct sum of the block unitaries."""
    off = block_offsets(blocks)
    mat = np.zeros((off[-1], off[-1]), dtype=complex)
    for i, u in enumerate(unitaries):
        mat[off[i]:off[i + 1], off[i]:off[i + 1]] = np.kron(u, np.conj(u))
    return mat


# ---------------------------------------------------------------------------
# abelian groups
# ---------------------------------------------------------------------------


def format_elements(elements, orders) -> str:
    if max(orders) <= 10:
        return ";".join("".join(str(c) for c in el) for el in elements)
    return ";".join(",".join(str(c) for c in el) for el in elements)


def random_generator_set(rng: np.random.Generator, orders, size: int, symmetric: bool) -> list:
    """``size`` distinct nonzero elements (closed under negation if asked)."""
    gens: list[tuple[int, ...]] = []
    while len(gens) < size:
        el = tuple(int(rng.integers(0, n)) for n in orders)
        if not any(el) or el in gens:
            continue
        neg = tuple((-c) % n for c, n in zip(el, orders))
        if symmetric and neg != el:
            if len(gens) + 2 > size:
                continue
            gens.append(neg)
        gens.append(el)
    return sorted(gens)


def hypercube_gens(n: int) -> list:
    return [tuple(int(k == i) for k in range(n)) for i in range(n)]


def folded_gens(n: int) -> list:
    return hypercube_gens(n) + [(1,) * n]


def squared_gens(n: int) -> list:
    pairs = [tuple(int(k in (i, j)) for k in range(n)) for i in range(n) for j in range(i + 1, n)]
    return hypercube_gens(n) + pairs


def rook_gens(n: int) -> list:
    return [(a, 0) for a in range(1, n)] + [(0, b) for b in range(1, n)]


def cayley_expectation(orders, gens, classical: bool) -> dict:
    """The report fields a (twisted) Cayley graph must show: the classical invariants."""
    n = int(np.prod(orders))
    return {
        "kind": "graph_report",
        "expect": {
            "is_graph": True,
            "is_undirected": True,
            "loop_status": "none",
            "is_simple": True,
            "is_multigraph": True,
            "vertices": n,
            "edges": [float(n * len(gens)), 0.0],
            "regular_degree": float(len(gens)),
            "quantum_edges": n * len(gens) if classical else None,
        },
    }


def group_doc_check(orders, gens, spectrum: bool) -> dict:
    return {"kind": "cayley_document", "orders": list(orders), "gens": [list(g) for g in gens],
            "spectrum": spectrum}


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class _Mix:
    def __init__(self, workload: str, seed: int, outdir: str):
        self.rng = np.random.default_rng([int(seed), WORKLOADS.index(workload)])
        self.outdir = outdir
        self.items: list[Item] = []

    def write(self, name: str, doc: dict) -> str:
        path = os.path.join(self.outdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(dump_document(doc))
        return path

    def add(self, item: Item) -> None:
        self.items.append(item)


def _graph_check(path: str) -> list[str]:
    return ["graph-check", path, "--json"]


def _interleave(b: _Mix, *parts) -> None:
    """Build each part of the mix in turn, then alternate their items."""
    built = []
    for part in parts:
        b.items = []
        part(b)
        for item in b.items:
            item.part = part.__name__.lstrip("_")
        built.append(b.items)
    b.items = [item for row in itertools.zip_longest(*built) for item in row if item]


def _blocks(b: _Mix) -> None:
    """Block-graph pipelines alternating with single-stage certificate searches."""
    _interleave(b, _block_graphs, _certificates)


def _cayley(b: _Mix) -> None:
    """Classical and twisted Cayley pairs alternating with large twisted graphs."""
    _interleave(b, _cayley_pairs, _bulk)


def _block_graphs(b: _Mix) -> None:
    rng = b.rng

    def random_graph_item(name, blocks, fraction):
        a, rank, _ = random_block_graph(rng, blocks, fraction)
        path = b.write(f"{name}.json", graph_document(blocks, a))
        b.add(Item(name, [_graph_check(STDIN)], stdin=path,
                   check={"kind": "block_graph_report", "ref": path, "quantum_edges": rank}))

    random_graph_item("gc-dense-8", [8], 0.125)
    b.add(Item("m2-edge-gc", [["catalog", "m2-edge", "--json"], _graph_check(STDIN)],
               check={"kind": "m2_report", "m": 1}))
    random_graph_item("gc-blocks-2-3-4", [2, 3, 4], 0.5)
    blocks = [int(n) for n in rng.permutation([1, 2, 3, 4])]
    b.add(Item("set-check", [["set-check", "--blocks", ",".join(map(str, blocks)),
                              "--seed", str(int(rng.integers(0, 1000))), "--json"]],
               check={"kind": "set_report"}))
    b.add(Item("rook-8-gc", [["catalog", "rook", "--n", "8", "--json"], _graph_check(STDIN)],
               check={"kind": "rook_report", "n": 8}))

    # rotate round trip: adjacency -> edge projection -> adjacency
    rot_blocks = [1, 2, 3]
    a, _, projections = random_block_graph(rng, rot_blocks, 0.5)
    path = b.write("rotate.json", graph_document(rot_blocks, a))
    proj_path = b.write("rotate-projections.json", {
        "blocks": rot_blocks,
        "projections": [[i, j, matrix_json(p)] for (i, j), p in sorted(projections.items())],
    })
    b.add(Item("rotate-trip", [["rotate", path, "--json"], ["rotate", STDIN, "--json"]],
               check={"kind": "graph_document", "ref": path, "keep": None},
               stage_checks={0: {"kind": "projection_document", "ref": proj_path}}))

    random_graph_item("gc-blocks-2x16", [2] * 16, 0.5)

    sub_blocks = [1, 2, 3, 4]
    a, _, _ = random_block_graph(rng, sub_blocks, 0.5)
    path = b.write("subgraph.json", graph_document(sub_blocks, a))
    keep = sorted(int(k) for k in rng.choice(len(sub_blocks), size=2, replace=False))
    b.add(Item("subgraph", [["subgraph", path, "--keep", ",".join(map(str, keep)), "--json"]],
               check={"kind": "graph_document", "ref": path, "keep": keep}))

    # isomorphism: a block-unitary conjugation (true) and a perturbed map (false)
    iso_blocks = [1, 2, 4]
    a, _, _ = random_block_graph(rng, iso_blocks, 0.5)
    phi = block_unitary_map(iso_blocks, [random_unitary(rng, n) for n in iso_blocks])
    g1 = b.write("iso-g1.json", graph_document(iso_blocks, a))
    g2 = b.write("iso-g2.json", graph_document(iso_blocks, phi @ a @ phi.conj().T))
    good = b.write("iso-phi.json", operator_document(iso_blocks, phi))
    noise = rng.standard_normal(phi.shape) + 1j * rng.standard_normal(phi.shape)
    bad = b.write("iso-phi-perturbed.json", operator_document(iso_blocks, phi + 0.05 * noise))
    b.add(Item("iso-true", [["iso-check", g1, g2, good, "--json"]],
               check={"kind": "iso_report", "isomorphism": True}))
    b.add(Item("m2-full-gc", [["catalog", "m2-full", "--json"], _graph_check(STDIN)],
               check={"kind": "m2_report", "m": 3}))
    b.add(Item("iso-perturbed", [["iso-check", g1, g2, bad, "--json"]], code=1,
               check={"kind": "iso_report", "isomorphism": False}))
    b.add(Item("rook-5-gc", [["catalog", "rook", "--n", "5", "--json"], _graph_check(STDIN)],
               check={"kind": "rook_report", "n": 5}))


def _cayley_pairs(b: _Mix) -> None:
    rng = b.rng

    def twist(orders, gens, bichar):
        return ["twist", "--orders", ",".join(map(str, orders)),
                "--gens", format_elements(gens, orders), "--bichar", bichar, "--json"]

    def cayley(orders, gens):
        return ["cayley", "--orders", ",".join(map(str, orders)),
                "--gens", format_elements(gens, orders), "--spectrum", "--json"]

    def pair(name, orders, gens, bichar):
        """The classical graph and its twist, both through graph-check."""
        b.add(Item(f"{name}-classical-gc", [cayley(orders, gens), _graph_check(STDIN)],
                   check=cayley_expectation(orders, gens, classical=True),
                   stage_checks={0: group_doc_check(orders, gens, spectrum=True)}))
        b.add(Item(f"{name}-twisted-gc", [twist(orders, gens, bichar), _graph_check(STDIN)],
                   check=cayley_expectation(orders, gens, classical=False),
                   stage_checks={0: group_doc_check(orders, gens, spectrum=False)}))

    def obstruct(name, orders, gens, bichar):
        b.add(Item(f"{name}-obstruct", [twist(orders, gens, bichar), ["obstruct", STDIN, "--json"]],
                   check={"kind": "inconclusive"},
                   stage_checks={0: group_doc_check(orders, gens, spectrum=False)}))

    z2_6 = (2,) * 6
    pair("hypercube6", z2_6, hypercube_gens(6), "clifford")
    obstruct("hypercube6", z2_6, hypercube_gens(6), "clifford")
    z2_5 = (2,) * 5
    seeded5 = random_generator_set(rng, z2_5, 6, symmetric=True)
    pair("z2x5-seeded", z2_5, seeded5, "clifford")
    b.add(Item("z2x6-seeded-set-check",
               [twist(z2_6, random_generator_set(rng, z2_6, 7, symmetric=True), "clifford"),
                ["set-check", STDIN, "--json"]],
               check={"kind": "set_report"}))
    z6 = (6, 6)
    pair("weyl6-seeded", z6, random_generator_set(rng, z6, 6, symmetric=True), "weyl")
    obstruct("weyl4-rook", (4, 4), rook_gens(4), "weyl")
    z2_4 = (2,) * 4
    b.add(Item("squared4-twisted-gc", [twist(z2_4, squared_gens(4), "clifford"), _graph_check(STDIN)],
               check=cayley_expectation(z2_4, squared_gens(4), classical=False)))
    obstruct("squared4", z2_4, squared_gens(4), "clifford")


def _certificates(b: _Mix) -> None:
    """Single-stage ``obstruct`` on generated documents, so no producer runs graph_report."""
    rng = b.rng

    def obstruct(name, blocks, adjacency, check, max_dim=None):
        path = b.write(f"{name}.json", graph_document(blocks, adjacency))
        argv = ["obstruct", STDIN, "--json"]
        if max_dim is not None:
            argv[2:2] = ["--max-dim", str(max_dim)]
        b.add(Item(name, [argv], stdin=path, check=check))

    def random_obstruct(name, blocks, fraction, max_dim):
        a, _, _ = random_block_graph(rng, blocks, fraction)
        obstruct(name, blocks, a, {"kind": "certificate", "blocks": blocks, "traces": None,
                                   "allow_inconclusive": True}, max_dim)

    def m2_graph(paulis):
        return sum((oracle.quantum_edge(2, oracle.PAULI[k]) for k in paulis), np.zeros((4, 4), complex))

    # the partial-loop family: the edge of sin(t) sigma_3 + cos(t) I, plus P_2 (m >= 2), P_1 (m = 3)
    m = int(rng.integers(1, 4))
    t = float(rng.uniform(0.2, 1.35))
    partial = oracle.quantum_edge(2, math.sin(t) * oracle.PAULI[2] + math.cos(t) * np.eye(2))
    partial = partial + m2_graph([1, 0][:m - 1])
    lam8 = np.diag([1.0, 1.0, -2.0]) / math.sqrt(2)
    m2 = int(rng.integers(0, 4))

    random_obstruct("obstruct-1-3", [1, 3], 0.5, 24)
    obstruct("partial", [2], partial, {"kind": "certificate", "blocks": [2], "traces": ["I", "A"]})
    random_obstruct("obstruct-2", [2], 0.5, 16)
    obstruct("gell-mann", [3], oracle.quantum_edge(3, lam8),
             {"kind": "certificate", "blocks": [3], "traces": ["A", "(A∘A)"]})
    random_obstruct("obstruct-3", [3], 0.25, 24)
    obstruct(f"m2-{m2}-edges", [2], m2_graph(range(m2)), {"kind": "inconclusive"})
    random_obstruct("obstruct-1-1-2", [1, 1, 2], 0.5, 20)
    obstruct("anticommutative-square", [2], m2_graph([0, 2]), {"kind": "inconclusive"})
    random_obstruct("obstruct-2-2", [2, 2], 0.5, 20)
    random_obstruct("obstruct-1-2", [1, 2], 0.5, 24)


def _bulk(b: _Mix) -> None:
    rng = b.rng

    def cube(name, n, gens, argv):
        orders = (2,) * n
        b.add(Item(name, [["catalog", *argv, "--json"], _graph_check(STDIN)],
                   check=cayley_expectation(orders, gens, classical=False),
                   stage_checks={0: group_doc_check(orders, gens, spectrum=False)}))

    def weyl(name, n, gens):
        orders = (n, n)
        b.add(Item(name, [["twist", "--orders", f"{n},{n}", "--gens", format_elements(gens, orders),
                           "--bichar", "weyl", "--json"], _graph_check(STDIN)],
                   check=cayley_expectation(orders, gens, classical=False),
                   stage_checks={0: group_doc_check(orders, gens, spectrum=False)}))

    def twist_cube(name, gens, bichar):
        orders = (2,) * 8
        b.add(Item(name, [["twist", "--orders", ",".join(["2"] * 8), "--gens",
                           format_elements(gens, orders), "--bichar", bichar, "--json"],
                          _graph_check(STDIN)],
                   check=cayley_expectation(orders, gens, classical=False),
                   stage_checks={0: group_doc_check(orders, gens, spectrum=False)}))

    # two N = 512 items and nine N = 256 items per cycle
    cube("hypercube9", 9, hypercube_gens(9), ["hypercube", "--n", "9"])
    cube("folded8", 8, folded_gens(8), ["folded", "--n", "8"])
    weyl("weyl16-seeded-a", 16, random_generator_set(rng, (16, 16), 6, symmetric=True))
    seeded = random_generator_set(rng, (2,) * 8, 10, symmetric=False)
    cube("cube8-seeded", 8, seeded, ["cube", "--n", "8", "--gens", format_elements(seeded, (2,) * 8)])
    cube("squared8", 8, squared_gens(8), ["squared", "--n", "8"])
    twist_cube("twist8-seeded", random_generator_set(rng, (2,) * 8, 14, symmetric=False), "clifford")
    cube("folded9", 9, folded_gens(9), ["folded", "--n", "9"])
    weyl("weyl16-rook", 16, rook_gens(16))
    cube("hypercube8", 8, hypercube_gens(8), ["hypercube", "--n", "8"])
    twist_cube("trivial8-seeded", random_generator_set(rng, (2,) * 8, 12, symmetric=False), "trivial")
    weyl("weyl16-seeded-b", 16, random_generator_set(rng, (16, 16), 10, symmetric=True))


_MIXES = {"blocks": _blocks, "cayley": _cayley}


def generate(workload: str, seed: int, outdir: str) -> list[Item]:
    """Write the workload's input documents into ``outdir``; return its mix."""
    if workload not in _MIXES:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    os.makedirs(outdir, exist_ok=True)
    mix = _Mix(workload, seed, outdir)
    _MIXES[workload](mix)
    for k, item in enumerate(mix.items):
        item.id = f"{k:02d}-{item.id}"
    return mix.items


def write_warmups(commands, outdir: str) -> list[list[str]]:
    """One small single-stage invocation per distinct command of the mix.

    Warm-ups fill the page cache and the bytecode cache before anything is
    timed; their outputs are not checked, only their exit codes.
    """
    os.makedirs(outdir, exist_ok=True)
    tiny = os.path.join(outdir, "warmup-graph.json")
    with open(tiny, "w", encoding="utf-8") as fh:
        fh.write(dump_document(graph_document([1, 1], np.eye(2))))
    phi = os.path.join(outdir, "warmup-phi.json")
    with open(phi, "w", encoding="utf-8") as fh:
        fh.write(dump_document(operator_document([1, 1], np.eye(2))))
    table = {
        "catalog": ["catalog", "m2-empty", "--json"],
        "graph-check": ["graph-check", tiny, "--json"],
        "set-check": ["set-check", "--blocks", "1,1", "--json"],
        "rotate": ["rotate", tiny, "--json"],
        "subgraph": ["subgraph", tiny, "--keep", "0", "--json"],
        "iso-check": ["iso-check", tiny, tiny, phi, "--json"],
        "cayley": ["cayley", "--orders", "2", "--gens", "1", "--json"],
        "twist": ["twist", "--orders", "2,2", "--gens", "10;01", "--bichar", "clifford", "--json"],
        "obstruct": ["obstruct", tiny, "--json"],
    }
    return [table[c] for c in sorted(set(commands))]


def mix_commands(items: list[Item]) -> list[str]:
    return sorted({stage[0] for item in items for stage in item.stages})

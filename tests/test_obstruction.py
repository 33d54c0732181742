"""The Schur-noncommutativity obstruction and its closure machinery."""

import math

import numpy as np
import pytest
from conftest import random_twist_instance, rook_generators

from qgraphs import (
    Certificate,
    Inconclusive,
    QuantumGraph,
    build_quantum_set,
    classical_cayley,
    classical_obstruction,
    gell_mann_graph,
    m2_partial_family,
    schur_closure,
    schur_product,
    twisted_cayley,
)
from qgraphs.catalog import anticommutative_square
from qgraphs.errors import InvalidInput
from qgraphs.groups import AbelianGroup
from qgraphs.kernels import gram_schmidt, max_abs, orthogonal_part


def test_gell_mann_certificate():
    res = classical_obstruction(gell_mann_graph())
    assert isinstance(res, Certificate)
    assert res.residual > 1e-6
    assert {res.trace_x, res.trace_y} == {"A", "(A∘A)"}
    # soundness: the stored witnesses reproduce the residual
    g = gell_mann_graph()
    comm = schur_product(g.set, res.witness_x, res.witness_y) \
        - schur_product(g.set, res.witness_y, res.witness_x)
    assert abs(max_abs(comm) - res.residual) < 1e-12


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e-170, 1e-100, 1e-10, 1e-6, 1.0, 1e150, 1e300,
                                   complex(1.3407807929942597e154, 1.3407807929942597e154)])
def test_scaled_down_gell_mann_still_certifies(scale):
    # seeds enter the closure at any non-zero norm, also where their plain
    # norm under- or overflows (outside about 1e+-154), or is NaN because the
    # complex dot product forms inf - inf; only products and images of
    # unit-norm members are cut at rounding level
    g = gell_mann_graph()
    res = classical_obstruction(QuantumGraph(g.set, scale * g.adjacency))
    assert isinstance(res, Certificate)
    assert {res.trace_x, res.trace_y} == {"A", "(A∘A)"}
    assert res.residual > 1e-6


def _twisted_cube():
    from qgraphs.clifford import cube_like_graph, hypercube_generators

    return cube_like_graph(3, hypercube_generators(3))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e-170, 1e-100, 1.0, 1e150, 1e300])
def test_scaled_twisted_cube_keeps_its_diagonal_closure(scale):
    q = _twisted_cube()
    scaled = QuantumGraph(q.set, scale * q.adjacency)
    assert len(schur_closure(scaled)[0]) == 4
    res = classical_obstruction(scaled)
    assert isinstance(res, Inconclusive) and res.closure_dim == 4


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("run", [classical_obstruction, schur_closure])
@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("entry", [(1, 1), (0, 1)], ids=["diagonal", "off-diagonal"])
@pytest.mark.parametrize("make", [gell_mann_graph, _twisted_cube], ids=["gell-mann", "twisted-q3"])
def test_non_finite_adjacency_is_refused(make, entry, value, run):
    # refused before any arithmetic, in either representation of the closure
    g = make()
    a = g.adjacency.copy()
    a[entry] = value
    with pytest.raises(InvalidInput, match="non-finite"):
        run(QuantumGraph(g.set, a))


def test_partial_loop_certificate_with_identity_witness():
    g = m2_partial_family(1, math.pi / 4)
    res = classical_obstruction(g)
    assert isinstance(res, Certificate)
    assert {res.trace_x, res.trace_y} == {"I", "A"}
    assert res.residual > 1e-6
    # directly: A . I != I . A
    eye = np.eye(4, dtype=complex)
    diff = schur_product(g.set, g.adjacency, eye) - schur_product(g.set, eye, g.adjacency)
    assert max_abs(diff) > 1e-6


def test_anticommutative_square_is_inconclusive():
    res = classical_obstruction(anticommutative_square())
    assert isinstance(res, Inconclusive)
    assert res.max_residual < 1e-9


def test_classical_four_cycle_closure_commutes():
    g = classical_cayley(AbelianGroup((4,)), [(1,), (3,)])
    res = classical_obstruction(g)
    assert isinstance(res, Inconclusive)


def test_empty_graph_closure_is_i_and_j():
    x = build_quantum_set([1, 1])
    ops, complete = schur_closure(QuantumGraph(x, np.zeros((2, 2))))
    assert complete
    assert [trace for trace, _ in ops] == ["I", "J"]


def test_closure_is_idempotent():
    g = gell_mann_graph()
    ops, complete = schur_closure(g)
    assert complete
    basis = gram_schmidt([mat for _, mat in ops])
    # every dagger / star / product of closure members stays in the span
    x = g.set
    for _, a in ops:
        assert orthogonal_part(a.conj().T, basis)[1] < 1e-8
        for _, b in ops:
            assert orthogonal_part(a @ b, basis)[1] < 1e-8
            assert orthogonal_part(schur_product(x, a, b), basis)[1] < 1e-8


def test_max_dim_truncation_is_flagged():
    ops, complete = schur_closure(gell_mann_graph(), max_dim=4)
    assert len(ops) == 4
    assert not complete
    res = classical_obstruction(gell_mann_graph(), max_dim=3)
    # with only {I, J, A} scanned, commutativity holds and the note says
    # the closure was truncated
    assert isinstance(res, Inconclusive)
    assert "truncated" in res.note


@pytest.mark.parametrize("case, dim", [("hypercube-6", 7), ("squared-4", 3), ("rook-4", 3)])
def test_twisted_closure_matches_classical_twin(case, dim):
    # rounding noise such as I . A on a loopless graph must not enter the
    # closure as a new operator; the true dimensions are those of the
    # Bose-Mesner algebra of H(6,2) and of two strongly regular graphs
    from qgraphs.clifford import clifford_bicharacter, hypercube_generators, squared_generators
    from qgraphs.weyl import weyl_bicharacter

    sigma, gens = {
        "hypercube-6": (clifford_bicharacter(6), hypercube_generators(6)),
        "squared-4": (clifford_bicharacter(4), squared_generators(4)),
        "rook-4": (weyl_bicharacter(4), rook_generators(4)),
    }[case]
    twisted, complete_t = schur_closure(twisted_cayley(sigma.group, gens, sigma))
    classical, complete_c = schur_closure(classical_cayley(sigma.group, gens))
    assert complete_t and complete_c
    assert len(twisted) == len(classical) == dim


@pytest.mark.parametrize("seed", range(5))
def test_twisted_cayley_graphs_are_inconclusive(seed):
    rng = np.random.default_rng(900 + seed)
    group, gens, sigma = random_twist_instance(rng, allow_repeats=False)
    g = twisted_cayley(group, gens, sigma)
    res = classical_obstruction(g)
    assert isinstance(res, Inconclusive), (group.orders, gens)


def test_diagonal_scan_runs_without_the_matrix_schur_product(monkeypatch):
    # a twisted hypercube's closure is diagonal, where both products commute:
    # classical_obstruction forms no Schur product beyond the closure's own,
    # never hands N x N matrices to schur_product, and reports 0.0
    import qgraphs.graphs
    import qgraphs.obstruction
    from qgraphs.clifford import cube_like_graph, hypercube_generators

    g = cube_like_graph(6, hypercube_generators(6))
    ops, _ = schur_closure(g)
    assert all(op.shape == (g.set.N,) for _, op in ops)
    mats = [np.diag(op) for _, op in ops]
    dense = max(max_abs(schur_product(g.set, a, b) - schur_product(g.set, b, a))
                for i, a in enumerate(mats) for b in mats[i + 1:])
    assert dense < 1e-12

    def refuse(*args, **kwargs):
        raise AssertionError("matrix Schur product called on a diagonal closure")

    calls = []
    diagonal = qgraphs.graphs._diagonal  # one transform per diagonal Schur product

    def count(*args):
        calls.append(None)
        return diagonal(*args)

    for module in (qgraphs.obstruction, qgraphs.graphs):
        monkeypatch.setattr(module, "schur_product", refuse)
    monkeypatch.setattr(qgraphs.graphs, "_diagonal", count)
    schur_closure(g)
    in_closure = len(calls)
    res = classical_obstruction(g)
    assert len(calls) == 2 * in_closure
    assert isinstance(res, Inconclusive)
    assert res.closure_dim == 7
    assert res.max_residual == 0.0
    assert res.note == ("closure is diagonal on a group-indexed set, hence Schur-commutative; "
                        "this does not certify classicality")


def test_diagonal_closure_transforms_each_member_once(monkeypatch):
    # a member's connection function is formed when it joins, and kept: each Schur
    # product of two members is then one forward transform
    import qgraphs.graphs
    from qgraphs.clifford import cube_like_graph, hypercube_generators

    calls = {"_connection": 0, "_diagonal": 0}
    for name in calls:
        def count(*args, name=name, f=getattr(qgraphs.graphs, name)):
            calls[name] += 1
            return f(*args)
        monkeypatch.setattr(qgraphs.graphs, name, count)
    members, complete = schur_closure(cube_like_graph(6, hypercube_generators(6)))
    assert complete and len(members) == 7
    assert calls["_connection"] == len(members) + 1  # and A's, once, for the calculus
    products = len(members) * (len(members) + 1) // 2  # both factors from members, in order
    assert 0 < calls["_diagonal"] <= products


def test_diagonal_obstruction_runs_in_bounded_memory():
    # twisted Q_9 (N = 512): the closure holds N-vectors, never an N x N array
    import tracemalloc

    from qgraphs.clifford import cube_like_graph, hypercube_generators

    g = cube_like_graph(9, hypercube_generators(9))
    tracemalloc.start()
    try:
        res = classical_obstruction(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert isinstance(res, Inconclusive) and res.closure_dim == 10
    assert peak < 2**20


def test_diagonal_closure_returns_vectors_in_bounded_memory():
    # twisted Q_10 (N = 1024): schur_closure returns each member as the
    # closure holds it, an N-vector, and forms no N x N array (16 MiB complex)
    import tracemalloc

    from qgraphs.clifford import cube_like_graph, hypercube_generators

    g = cube_like_graph(10, hypercube_generators(10))
    tracemalloc.start()
    try:
        ops, complete = schur_closure(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert complete and len(ops) == 11
    assert all(op.shape == (1024,) for _, op in ops)
    assert peak < 2 * 2**20


def _random_block_graph(blocks, fraction, seed):
    """One random edge projection of rank round(fraction n_i n_j) per ordered block pair."""
    from qgraphs.graphs import EdgeProjection, projection_to_adjacency

    rng = np.random.default_rng(seed)
    projections = {}
    for i, ni in enumerate(blocks):
        for j, nj in enumerate(blocks):
            z = rng.standard_normal((ni * nj, ni * nj)) + 1j * rng.standard_normal((ni * nj, ni * nj))
            q, _ = np.linalg.qr(z)
            q = q[:, :int(round(fraction * ni * nj))]
            projections[(i, j)] = q @ q.conj().T
    return projection_to_adjacency(EdgeProjection(build_quantum_set(blocks), projections))


def _reference_corpus():
    from qgraphs import m2_graph
    from qgraphs.clifford import clifford_bicharacter, hypercube_generators, squared_generators
    from qgraphs.weyl import weyl_bicharacter

    cases = {f"m2-{m}": (lambda m=m: m2_graph(m), None) for m in range(4)}
    cases["anticommutative-square"] = (anticommutative_square, None)
    for m in (1, 2, 3):
        for t in (0.0, 0.3, math.pi / 4, math.pi / 2):
            cases[f"partial-{m}-{t:.2f}"] = (lambda m=m, t=t: m2_partial_family(m, t), None)
    cases["gell-mann"] = (gell_mann_graph, None)
    cases["gell-mann-1e-10"] = (
        lambda: QuantumGraph(gell_mann_graph().set, 1e-10 * gell_mann_graph().adjacency), None)
    cases["gell-mann-max-dim-4"] = (gell_mann_graph, 4)
    # the block sizes, rank fractions and caps of the benchmark's certificate searches
    for blocks, fraction, cap in (([1, 3], 0.5, 24), ([2], 0.5, 16), ([3], 0.25, 24),
                                  ([1, 1, 2], 0.5, 20), ([2, 2], 0.5, 20), ([1, 2], 0.5, 24)):
        for max_dim in (None, cap):
            name = f"random-{'-'.join(map(str, blocks))}-{max_dim}"
            cases[name] = (lambda b=blocks, f=fraction: _random_block_graph(b, f, seed=len(b)),
                           max_dim)
    pairs = {f"hypercube-{n}": (clifford_bicharacter(n), hypercube_generators(n))
             for n in range(2, 8)}
    pairs["squared-4"] = (clifford_bicharacter(4), squared_generators(4))
    pairs["rook-4"] = (weyl_bicharacter(4), rook_generators(4))
    for name, (sigma, gens) in pairs.items():
        cases[f"twisted-{name}"] = (lambda s=sigma, g=gens: twisted_cayley(s.group, g, s), None)
        cases[f"classical-{name}"] = (lambda s=sigma, g=gens: classical_cayley(s.group, g), None)
    return cases


REFERENCE_CORPUS = _reference_corpus()


@pytest.mark.parametrize("name", sorted(REFERENCE_CORPUS))
def test_closure_and_scan_match_the_round_based_reference(name, monkeypatch):
    # the fixpoint skips only pairs an earlier round offered, so it must
    # add the same members in the same order as the round-based loop
    import qgraphs.obstruction
    from conftest import REFERENCE_MAX_ROUNDS, reference_closure, reference_scan

    make, max_dim = REFERENCE_CORPUS[name]
    g = make()
    closure, closures = qgraphs.obstruction.schur_closure, []

    def record(*args):
        closures.append(closure(*args))
        return closures[-1]

    monkeypatch.setattr(qgraphs.obstruction, "schur_closure", record)
    got = classical_obstruction(g, max_dim)
    members, complete = closures[0]
    want = reference_closure(g, max_dim)
    assert want[4] < REFERENCE_MAX_ROUNDS
    assert [t for t, _ in members] == [t for t, _ in want[0]]
    assert all(m.tobytes() == w.tobytes() for (_, m), (_, w) in zip(members, want[0]))
    assert complete == want[1]

    ref = reference_scan(want)
    assert type(got) is type(ref)
    diagonal = want[3] is np.diag  # the reference's members are diagonal vectors
    assert {m.shape for _, m in members} == {(g.set.N,) if diagonal else (g.set.N, g.set.N)}
    if diagonal:
        # the library skips the scan, as both products commute on diagonals;
        # the reference scans every pair and finds rounding noise only
        assert (got.closure_dim, got.max_residual) == (ref.closure_dim, 0.0)
        assert got.note.startswith("closure is diagonal") and ref.max_residual < 1e-12
    elif isinstance(ref, Certificate):
        assert (got.trace_x, got.trace_y, got.threshold) == (ref.trace_x, ref.trace_y, ref.threshold)
        assert np.float64(got.residual).tobytes() == np.float64(ref.residual).tobytes()
        assert got.witness_x.tobytes() == ref.witness_x.tobytes()
        assert got.witness_y.tobytes() == ref.witness_y.tobytes()
    else:
        assert (got.note, got.closure_dim) == (ref.note, ref.closure_dim)
        assert np.float64(got.max_residual).tobytes() == np.float64(ref.max_residual).tobytes()


def _orthogonalisations(monkeypatch) -> list:
    """Record (span, residual part, its norm) of every candidate the closure orthogonalises."""
    import qgraphs.obstruction

    calls = []
    orthogonal_part = qgraphs.obstruction.orthogonal_part

    def record(vector, basis):
        w, residual = orthogonal_part(vector, basis)
        calls.append((basis, w, residual))
        return w, residual

    monkeypatch.setattr(qgraphs.obstruction, "orthogonal_part", record)
    return calls


def test_closure_stops_at_the_caps_first_refusal(monkeypatch):
    # once the cap refuses an independent candidate the member list is full,
    # so no later candidate can change the closure
    from qgraphs.obstruction import RANK_TOL

    make, max_dim = REFERENCE_CORPUS["random-1-3-24"]
    g = make()
    calls = _orthogonalisations(monkeypatch)
    ops, complete = schur_closure(g, max_dim)
    assert len(ops) == max_dim and not complete
    refused = [k for k, (span, _, residual) in enumerate(calls)
               if len(span) == max_dim and residual > RANK_TOL]
    assert refused == [len(calls) - 1]


@pytest.mark.parametrize("name", sorted(REFERENCE_CORPUS))
def test_closure_span_rows_stay_orthonormal(name, monkeypatch):
    # the span the closure tests candidates against is one matrix of
    # orthonormal rows, one per member; the corpus holds twisted Q_6
    from qgraphs.obstruction import RANK_TOL

    make, max_dim = REFERENCE_CORPUS[name]
    calls = _orthogonalisations(monkeypatch)
    members, _ = schur_closure(make(), max_dim)
    q = max((span for span, _, _ in calls), key=len)
    if len(q) < len(members):  # the last member added ends the closure: append its row
        w, residual = next((w, r) for span, w, r in calls if len(span) == len(q) and r > RANK_TOL)
        q = np.vstack([q, w.reshape(1, -1) / residual])
    assert isinstance(q, np.ndarray) and len(q) == len(members)
    assert max_abs(q @ q.conj().T - np.eye(len(q))) <= 1e-12


def _twisted_z2z2_full_span():
    # weights 2 and 1 on two generators separate all four points, so the
    # diagonal closure is every function on Z_2^2
    from qgraphs.clifford import clifford_bicharacter

    sigma = clifford_bicharacter(2)
    return twisted_cayley(sigma.group, [(1, 0), (1, 0), (0, 1)], sigma)


@pytest.mark.parametrize("name, dim", [("random-2-None", 16), ("random-1-3-None", 100),
                                       ("twisted-z2z2-full", 4)])
def test_closure_stops_at_the_full_span(name, dim, monkeypatch):
    # N^2 matrices (N diagonal vectors) span the whole space: every further
    # candidate would be refused, so none is orthogonalised against them
    make, max_dim = {**REFERENCE_CORPUS, "twisted-z2z2-full": (_twisted_z2z2_full_span, None)}[name]
    g = make()
    calls = _orthogonalisations(monkeypatch)
    ops, complete = schur_closure(g, max_dim)
    assert complete is True and len(ops) == dim
    assert max(len(span) for span, _, _ in calls) < dim

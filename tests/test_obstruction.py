"""The Schur-noncommutativity obstruction and its closure machinery."""

import math

import numpy as np
import pytest
from conftest import random_twist_instance

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
from qgraphs.groups import AbelianGroup
from qgraphs.kernels import max_abs, span_residual, gram_schmidt


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


@pytest.mark.parametrize("scale", [1e-10, 1e-6])
def test_scaled_down_gell_mann_still_certifies(scale):
    # seeds enter the closure at any non-zero norm; only products and images
    # of unit-norm members are cut at rounding level
    g = gell_mann_graph()
    res = classical_obstruction(QuantumGraph(g.set, scale * g.adjacency))
    assert isinstance(res, Certificate)
    assert {res.trace_x, res.trace_y} == {"A", "(A∘A)"}
    assert res.residual > 1e-6


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
        assert span_residual(a.conj().T, basis) < 1e-8
        for _, b in ops:
            assert span_residual(a @ b, basis) < 1e-8
            assert span_residual(schur_product(x, a, b), basis) < 1e-8


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
    from qgraphs.weyl import rook_generators, weyl_bicharacter

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
    # a twisted hypercube's closure is diagonal: its scan convolves diagonal
    # vectors and never hands N x N matrices to schur_product
    import qgraphs.obstruction
    from qgraphs.clifford import cube_like_graph

    g = cube_like_graph(6, preset="hypercube")
    ops, _ = schur_closure(g)
    dense = max(max_abs(schur_product(g.set, a, b) - schur_product(g.set, b, a))
                for i, (_, a) in enumerate(ops) for _, b in ops[i + 1:])

    def refuse(*args, **kwargs):
        raise AssertionError("matrix Schur product called on a diagonal closure")

    monkeypatch.setattr(qgraphs.obstruction, "schur_product", refuse)
    res = classical_obstruction(g)
    assert isinstance(res, Inconclusive)
    assert res.closure_dim == 7
    assert res.max_residual == dense


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
    from qgraphs.weyl import rook_generators, weyl_bicharacter

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
    closure, closures = qgraphs.obstruction._closure, []

    def record(*args):
        closures.append(closure(*args))
        return closures[-1]

    monkeypatch.setattr(qgraphs.obstruction, "_closure", record)
    got = classical_obstruction(g, max_dim)
    members, complete, _, _ = closures[0]
    want = reference_closure(g, max_dim)
    assert want[4] < REFERENCE_MAX_ROUNDS
    assert [t for t, _ in members] == [t for t, _ in want[0]]
    assert all(m.tobytes() == w.tobytes() for (_, m), (_, w) in zip(members, want[0]))
    assert complete == want[1]

    ref = reference_scan(want)
    assert type(got) is type(ref)
    if isinstance(ref, Certificate):
        assert (got.trace_x, got.trace_y, got.threshold) == (ref.trace_x, ref.trace_y, ref.threshold)
        assert np.float64(got.residual).tobytes() == np.float64(ref.residual).tobytes()
        assert got.witness_x.tobytes() == ref.witness_x.tobytes()
        assert got.witness_y.tobytes() == ref.witness_y.tobytes()
    else:
        assert (got.note, got.closure_dim) == (ref.note, ref.closure_dim)
        assert np.float64(got.max_residual).tobytes() == np.float64(ref.max_residual).tobytes()

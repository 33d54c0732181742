"""Subgraphs, quotients, isomorphism verification."""

import numpy as np
import pytest
from conftest import diagonal_embedding, projection_is_positive, random_su2, reference_elements

from qgraphs import (
    Operator,
    QuantumGraph,
    anticommutative_square,
    build_quantum_set,
    check_isomorphism,
    conjugation_map,
    edge_subgraph,
    graph_from_subspace,
    graph_report,
    induced_subgraph,
    quantum_edge,
    quotient_graph,
    schur_unit,
)
from qgraphs.catalog import SIGMA_1, SIGMA_2, SIGMA_3
from qgraphs.errors import InvalidInput
from qgraphs.weyl import phi_isomorphism

R3 = np.sqrt(3.0)

# the two worked quotient examples: simple one-edge graphs on M_2 whose
# quotients along the diagonal embedding are the full graph on two points
# and a weighted two-point graph
A_X1 = 0.5 * np.array(
    [[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]], dtype=complex
)
A_Y1 = np.array([[1, 1], [1, 1]], dtype=complex)
A_X2 = 0.25 * np.array(
    [[3, R3, R3, 1], [R3, -3, 1, -R3], [R3, 1, -3, -R3], [1, -R3, -R3, 3]],
    dtype=complex,
)
A_Y2 = 0.5 * np.array([[3, 1], [1, 3]], dtype=complex)


def test_edge_subgraph_examples():
    g13 = anticommutative_square()
    p1 = quantum_edge(2, SIGMA_1)
    p3 = quantum_edge(2, SIGMA_3)
    assert edge_subgraph(g13, p1)
    x = g13.set
    j_graph = QuantumGraph(x, schur_unit(x))
    i_graph = QuantumGraph(x, np.eye(4, dtype=complex))
    assert edge_subgraph(j_graph, i_graph)
    assert not edge_subgraph(p3, p1)


def test_induced_subgraph_classical_path():
    x = build_quantum_set([1, 1, 1])
    path = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex)
    g = induced_subgraph(QuantumGraph(x, path), [0, 1])
    assert g.set.blocks == (1, 1)
    assert np.abs(g.adjacency - np.array([[0, 1], [1, 0]])).max() < 1e-12


def test_induced_subgraph_keep_all_and_empty_corner():
    x = build_quantum_set([1, 2])
    # edge supported entirely in the M_2 x M_2 pair
    a = np.zeros((5, 5), dtype=complex)
    a[1:, 1:] = quantum_edge(2, SIGMA_1).adjacency
    g = QuantumGraph(x, a)
    full = induced_subgraph(g, [0, 1])
    assert np.abs(full.adjacency - a).max() < 1e-12
    corner = induced_subgraph(g, [0])
    assert corner.set.blocks == (1,)
    assert np.abs(corner.adjacency).max() < 1e-12
    assert graph_report(corner).is_graph
    with pytest.raises(InvalidInput):
        induced_subgraph(g, [])


def test_induced_subgraph_is_graph():
    rng = np.random.default_rng(44)
    x = build_quantum_set([1, 2, 2])
    # a graph: sum of orthogonal projections in realigned space is hard to
    # write directly, so use the full graph minus loops
    g = QuantumGraph(x, schur_unit(x) - np.eye(x.N))
    sub = induced_subgraph(g, [1, 2])
    rep = graph_report(sub)
    assert rep.is_graph


def test_quotient_first_worked_example():
    x = build_quantum_set([2])
    iota = diagonal_embedding(2)
    g = QuantumGraph(x, A_X1)
    assert graph_report(g).is_simple
    out = quotient_graph(g, iota)
    assert np.abs(out.adjacency - A_Y1).max() < 1e-12
    # edge totals conserved (4 on both sides)
    e_x = np.vdot(x.unit_vec, A_X1 @ x.unit_vec)
    e_y = np.vdot(out.set.unit_vec, out.adjacency @ out.set.unit_vec)
    assert abs(e_x - 4) < 1e-12 and abs(e_y - 4) < 1e-12
    rep = graph_report(out)
    assert rep.loop_status == "all"  # full graph on two points


def test_quotient_second_worked_example():
    x = build_quantum_set([2])
    iota = diagonal_embedding(2)
    g = QuantumGraph(x, A_X2)
    assert graph_report(g).is_simple
    out = quotient_graph(g, iota)
    assert np.abs(out.adjacency - A_Y2).max() < 1e-12
    e_y = np.vdot(out.set.unit_vec, out.adjacency @ out.set.unit_vec)
    assert abs(e_y - 4) < 1e-12
    rep = graph_report(out)
    assert not rep.is_graph  # weighted
    assert rep.loop_status == "mixed-weighted"
    assert projection_is_positive(out)


def test_quotient_identity_embedding_is_identity():
    x = build_quantum_set([2])
    g = anticommutative_square()
    ident = Operator(x, x, np.eye(4, dtype=complex))
    out = quotient_graph(g, ident)
    assert np.abs(out.adjacency - g.adjacency).max() < 1e-12


def test_quotient_rejects_non_homomorphism():
    x = build_quantum_set([2])
    y = build_quantum_set([1, 1])
    bad = Operator(y, x, np.ones((4, 2), dtype=complex))
    with pytest.raises(InvalidInput):
        quotient_graph(anticommutative_square(), bad)


def test_quotient_positivity_and_edge_conservation_random():
    from qgraphs.graphs import EdgeProjection, projection_to_adjacency
    from qgraphs.groups import cayley_spectrum

    rng = np.random.default_rng(99)
    # the two embeddings with checkable targets: X_2 -> M_2 and M_2 -> twist
    embeddings = [diagonal_embedding(2), phi_isomorphism(2).dagger()]
    for emb in embeddings:
        big = emb.codomain
        for _ in range(50):
            if big.blocks is not None:
                # random weighted graph: realignment z z^dag is positive
                z = rng.standard_normal((big.N, big.N)) \
                    + 1j * rng.standard_normal((big.N, big.N))
                g = projection_to_adjacency(EdgeProjection(big, {(0, 0): z @ z.conj().T}))
            else:
                # random multigraph on the twisted set (Cayley multiset)
                elements = reference_elements(big.group.orders)
                gens = [elements[rng.integers(0, big.N)] for _ in range(3)]
                g = QuantumGraph(big, np.diag(cayley_spectrum(big.group, gens)))
            out = quotient_graph(g, emb)
            assert projection_is_positive(out, tol=1e-8)
            e_big = np.vdot(big.unit_vec, g.adjacency @ big.unit_vec)
            e_small = np.vdot(out.set.unit_vec, out.adjacency @ out.set.unit_vec)
            assert abs(e_big - e_small) < 1e-8 * max(1.0, abs(e_big))


def test_check_isomorphism_su2_conjugations():
    rng = np.random.default_rng(0)
    for _ in range(10):
        u = random_su2(rng)
        v_basis = [SIGMA_1, SIGMA_3]
        g = graph_from_subspace(2, v_basis)
        h = graph_from_subspace(2, [u @ b @ u.conj().T for b in v_basis])
        phi = conjugation_map(u, g.set)
        assert check_isomorphism(phi, g, h)


def test_check_isomorphism_needs_the_right_map():
    p1 = quantum_edge(2, SIGMA_1)
    p3 = quantum_edge(2, SIGMA_3)
    ident = Operator(p1.set, p3.set, np.eye(4, dtype=complex))
    assert not check_isomorphism(ident, p1, p3)
    # Hadamard conjugation swaps sigma_1 and sigma_3
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    assert check_isomorphism(conjugation_map(h, p1.set), p1, p3)
    g = anticommutative_square()
    assert check_isomorphism(Operator(g.set, g.set, np.eye(4, dtype=complex)), g, g)


def test_check_isomorphism_is_equivalence_on_m2_catalog():
    from qgraphs import m2_graph
    rng = np.random.default_rng(8)
    u1, u2 = random_su2(rng), random_su2(rng)
    for m in range(4):
        g = m2_graph(m)
        basis = [SIGMA_1, SIGMA_2, SIGMA_3][:m]
        g1 = graph_from_subspace(2, [u1 @ b @ u1.conj().T for b in basis])
        g2 = graph_from_subspace(2, [(u2 @ u1) @ b @ (u2 @ u1).conj().T for b in basis])
        phi1 = conjugation_map(u1, g.set)
        phi2 = conjugation_map(u2, g.set)
        # reflexive / symmetric / transitive
        assert check_isomorphism(conjugation_map(np.eye(2), g.set), g, g)
        assert check_isomorphism(phi1, g, g1)
        assert check_isomorphism(Operator(g.set, g.set, phi1.matrix.conj().T), g1, g)
        assert check_isomorphism(Operator(g.set, g.set, phi2.matrix @ phi1.matrix),
                                 g, g2)

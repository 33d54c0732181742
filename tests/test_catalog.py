"""The named M_2 / M_3 graphs and the complete classifier."""

import math

import numpy as np
import pytest
from conftest import random_su2

from qgraphs import (
    check_isomorphism,
    classify_m2,
    conjugation_map,
    gell_mann_graph,
    graph_from_subspace,
    graph_report,
    m2_graph,
    m2_partial_family,
    schur_unit,
)
from qgraphs.catalog import (
    IOTA_2,
    LAMBDA_8,
    SIGMA_1,
    SIGMA_2,
    SIGMA_3,
    anticommutative_square,
    pauli_edge,
)
from qgraphs.errors import InvalidInput

P1 = np.array([[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]], dtype=complex)
P2 = np.array([[0, 0, 0, 1], [0, 0, -1, 0], [0, -1, 0, 0], [1, 0, 0, 0]], dtype=complex)
P3 = np.diag([1.0, -1.0, -1.0, 1.0]).astype(complex)


def test_pauli_normalisation():
    for s in (SIGMA_1, SIGMA_2, SIGMA_3):
        assert abs(np.trace(s.conj().T @ s) - 2) < 1e-14
        assert np.abs(s - s.conj().T).max() < 1e-14
        assert abs(np.trace(s)) < 1e-14
    assert abs(np.trace(LAMBDA_8.conj().T @ LAMBDA_8) - 3) < 1e-14


def test_pauli_edge_matrices():
    assert np.abs(pauli_edge(1).adjacency - P1).max() < 1e-12
    assert np.abs(pauli_edge(2).adjacency - P2).max() < 1e-12
    assert np.abs(pauli_edge(3).adjacency - P3).max() < 1e-12


def test_m2_graph_family():
    g0 = m2_graph(0)
    assert np.abs(g0.adjacency).max() == 0.0
    g1 = m2_graph(1)
    assert np.abs(g1.adjacency - P1).max() < 1e-12
    g2 = m2_graph(2)
    assert np.abs(g2.adjacency - (P1 + P2)).max() < 1e-12
    g3 = m2_graph(3)
    x = g3.set
    assert np.abs(g3.adjacency - (schur_unit(x) - np.eye(4))).max() < 1e-12
    for m in range(4):
        rep = graph_report(m2_graph(m))
        assert rep.is_simple
        assert rep.quantum_edges == m
        assert abs(rep.regular_degree - m) < 1e-9
        assert abs(rep.edges - 4 * m) < 1e-9
    with pytest.raises(InvalidInput):
        m2_graph(4)


def test_partial_family_endpoints():
    g0 = m2_partial_family(1, 0.0)
    assert np.abs(g0.adjacency - np.eye(4)).max() < 1e-12
    g1 = m2_partial_family(1, math.pi / 2)
    assert np.abs(g1.adjacency - P3).max() < 1e-12
    gm = m2_partial_family(1, math.pi / 4)
    assert np.abs(gm.adjacency - np.diag([2.0, 0, 0, 0])).max() < 1e-12


def test_partial_family_matches_display():
    for t in (0.3, 0.9, 1.2):
        g = m2_partial_family(1, t)
        want = np.diag([1 + math.sin(2 * t), math.cos(2 * t),
                        math.cos(2 * t), 1 - math.sin(2 * t)])
        assert np.abs(g.adjacency - want).max() < 1e-12


@pytest.mark.parametrize("m", [1, 2, 3])
def test_partial_family_loop_status(m):
    for t in (0.2, 0.7, 1.3):
        rep = graph_report(m2_partial_family(m, t))
        assert rep.is_graph and rep.is_undirected
        assert rep.loop_status == "partial"
        assert rep.quantum_edges == m
    rep_end = graph_report(m2_partial_family(m, math.pi / 2))
    assert rep_end.loop_status == "none"
    rep_start = graph_report(m2_partial_family(m, 0.0))
    assert rep_start.loop_status in ("all", "partial")
    if m == 1:
        assert rep_start.loop_status == "all"


def test_classify_m2_examples():
    assert classify_m2(anticommutative_square()) == 2
    assert classify_m2(m2_graph(3)) == 3
    rng = np.random.default_rng(55)
    coeffs = rng.standard_normal(3)
    xi = coeffs[0] * SIGMA_1 + coeffs[1] * SIGMA_2 + coeffs[2] * SIGMA_3
    assert classify_m2(graph_from_subspace(2, [xi])) == 1
    with pytest.raises(InvalidInput):
        classify_m2(m2_partial_family(1, 0.5))


def test_both_two_edge_representatives_are_isomorphic():
    # rotating the Bloch sphere a quarter turn about the sigma_1 axis sends
    # span{sigma_1, sigma_2} to span{sigma_1, sigma_3}
    u = np.cos(np.pi / 4) * IOTA_2 - 1j * np.sin(np.pi / 4) * SIGMA_1
    g = m2_graph(2)
    h = anticommutative_square()
    assert check_isomorphism(conjugation_map(u, g.set), g, h)
    assert classify_m2(g) == classify_m2(h) == 2


def test_classify_m2_invariant_under_conjugation():
    rng = np.random.default_rng(77)
    paulis = [SIGMA_1, SIGMA_2, SIGMA_3]
    for m in range(4):
        g = m2_graph(m)
        for _ in range(20):
            u = random_su2(rng)
            h = graph_from_subspace(2, [u @ b @ u.conj().T for b in paulis[:m]])
            assert classify_m2(h) == m
            assert check_isomorphism(conjugation_map(u, g.set), g, h)


def test_partial_family_members_have_distinct_spectra():
    # heuristic non-isomorphism witness: the adjacency spectra of A(t)
    # separate the family members pairwise
    ts = [0.15, 0.4, 0.7, 1.0, 1.3]
    for m in (1, 2, 3):
        spectra = [np.sort(np.linalg.eigvalsh(m2_partial_family(m, t).adjacency))
                   for t in ts]
        for i in range(len(ts)):
            for j in range(i + 1, len(ts)):
                assert np.abs(spectra[i] - spectra[j]).max() > 1e-6


def test_gell_mann_graph_report():
    rep = graph_report(gell_mann_graph())
    assert rep.is_simple and rep.is_undirected
    assert abs(rep.edges - 9) < 1e-9
    assert rep.quantum_edges == 1
    assert rep.vertices == 9


def test_random_su2_is_special_unitary():
    rng = np.random.default_rng(123)
    for _ in range(25):
        u = random_su2(rng)
        assert np.abs(u @ u.conj().T - np.eye(2)).max() < 1e-12
        det = u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]
        assert abs(det - 1) < 1e-12

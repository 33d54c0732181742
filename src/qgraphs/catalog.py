"""Named small graphs on M_2 and M_3: Pauli edges, the partial-loop
families, the Gell-Mann graph, and the complete M_2 classifier.  The
constructors take no tolerance: the Pauli bases are orthonormal."""

from __future__ import annotations

import math
import numpy as np

from .algebra import DEFAULT_TOL
from .errors import InvalidInput
from .graphs import (
    QuantumGraph,
    graph_from_subspace,
    graph_report,
    quantum_edge,
)

SIGMA_1 = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_3 = np.array([[1, 0], [0, -1]], dtype=complex)
IOTA_2 = np.eye(2, dtype=complex)
# normalised so that Tr(L8^dag L8) = 3
LAMBDA_8 = np.diag([1, 1, -2]).astype(complex) / math.sqrt(2)

_PAULIS = (SIGMA_1, SIGMA_2, SIGMA_3)


def pauli_edge(i: int) -> QuantumGraph:
    """The quantum edge P_i = sigma_i (x) sigma_i^* on M_2 (i in 1..3)."""
    if i not in (1, 2, 3):
        raise InvalidInput("pauli_edge index must be 1, 2 or 3")
    return quantum_edge(2, _PAULIS[i - 1])


def m2_graph(m: int) -> QuantumGraph:
    """The simple graph on M_2 with m quantum edges, m in 0..3.

    These are complete isomorphism representatives: the empty graph,
    P_1, P_1 + P_2, and the full graph J - I.
    """
    if m not in (0, 1, 2, 3):
        raise InvalidInput(f"m2_graph: m must be in 0..3, got {m}")
    return graph_from_subspace(2, list(_PAULIS[:m]))


def anticommutative_square() -> QuantumGraph:
    """The two-edge graph built from sigma_1 and sigma_3 (the P_1 + P_3 square)."""
    return graph_from_subspace(2, [SIGMA_1, SIGMA_3])


def m2_partial_family(m: int, t: float) -> QuantumGraph:
    """The one-parameter families of undirected graphs with partial loops.

    A(t) starts from the edge of sigma_3(t) = sigma_3 sin t + id cos t and
    adds P_2 (m >= 2) and P_1 (m = 3); t = 0 gives the pure loop summand I,
    t = pi/2 gives P_3.
    """
    if m not in (1, 2, 3):
        raise InvalidInput(f"m2_partial_family: m must be in 1..3, got {m}")
    if not 0.0 <= t <= math.pi / 2 + 1e-12:
        raise InvalidInput(f"m2_partial_family: t must lie in [0, pi/2], got {t}")
    sigma_3_t = math.sin(t) * SIGMA_3 + math.cos(t) * IOTA_2
    g = quantum_edge(2, sigma_3_t)
    a = g.adjacency.copy()
    if m >= 2:
        a += quantum_edge(2, SIGMA_2).adjacency
    if m == 3:
        a += quantum_edge(2, SIGMA_1).adjacency
    return QuantumGraph(set=g.set, adjacency=a)


def classify_m2(g: QuantumGraph, tol: float = DEFAULT_TOL) -> int:
    """The number of quantum edges, a complete invariant for simple M_2 graphs."""
    if g.set.blocks != (2,):
        raise InvalidInput("classify_m2 expects a graph on the single-block set M_2")
    report = graph_report(g, tol=tol)
    if not report.is_simple:
        raise InvalidInput(
            "classify_m2 expects a simple graph; see graph_report for the failing "
            f"predicates (loop_status={report.loop_status}, is_graph={report.is_graph}, "
            f"is_undirected={report.is_undirected})"
        )
    return int(report.quantum_edges)


def gell_mann_graph() -> QuantumGraph:
    """The simple one-edge graph on M_3 generated by the diagonal Gell-Mann matrix."""
    return quantum_edge(3, LAMBDA_8)

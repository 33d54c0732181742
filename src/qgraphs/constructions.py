"""Subgraphs, quotients and isomorphism checking.

Adjoints of maps between different quantum sets are always taken with
respect to each set's own scaled inner product; in the orthonormal bases
used throughout, that is the plain conjugate transpose.  The coordinate
factors seen in hand computations (a diagonal embedding of X_2 in M_2 has
"iota^dag = 2 transpose" in matrix-unit coordinates) come out of this one
convention automatically.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .algebra import (
    DEFAULT_TOL,
    Operator,
    QuantumSet,
    build_quantum_set,
    check_star_homomorphism,
)
from .errors import InvalidInput
from .graphs import QuantumGraph, _tensor_with_conj, is_quantum_graph, schur_product
from .kernels import hermitian_eigs, max_abs, scale_of


def edge_subgraph(g: QuantumGraph, h: QuantumGraph, tol: float = DEFAULT_TOL) -> bool:
    """Whether h is a subgraph of g made by removing edges (H_tilde <= G_tilde).

    Checked in the Schur calculus as A_H . A_G = A_H = A_G . A_H.
    """
    if not g.set.same_set(h.set):
        raise InvalidInput("edge_subgraph: graphs live on different quantum sets")
    if not (is_quantum_graph(g, tol=tol) and is_quantum_graph(h, tol=tol)):
        raise InvalidInput("edge_subgraph expects quantum graphs on both sides")
    a, b = g.adjacency, h.adjacency
    scale = scale_of(a, b)
    return (
        max_abs(schur_product(g.set, b, a) - b) <= tol * scale
        and max_abs(schur_product(g.set, a, b) - b) <= tol * scale
    )


def induced_subgraph(g: QuantumGraph, keep: Sequence[int]) -> QuantumGraph:
    """Induced subgraph on the kept blocks, A_Y = q A_X q^dag for the block
    surjection q, which keeps the entries of A between the kept blocks' slots."""
    x = g.set
    if x.blocks is None:
        raise InvalidInput("block surjections need a matrix-unit basis")
    keep = sorted(set(int(k) for k in keep))
    if not keep:
        raise InvalidInput("keep must name at least one block")
    if keep[0] < 0 or keep[-1] >= len(x.blocks):
        raise InvalidInput(f"block indices {keep} out of range for {len(x.blocks)} blocks")
    ends = np.cumsum([n * n for n in x.blocks])
    idx = np.concatenate([np.arange(ends[i] - x.blocks[i] ** 2, ends[i]) for i in keep])
    return QuantumGraph(set=build_quantum_set([x.blocks[i] for i in keep]),
                        adjacency=g.adjacency[np.ix_(idx, idx)])


def quotient_graph(g: QuantumGraph, iota: Operator, tol: float = DEFAULT_TOL) -> QuantumGraph:
    """Quotient (generally weighted) graph along an embedding iota: C(Y) -> C(X).

    A_Y = iota^dag A_X iota; the edge total eta^dag A eta is conserved
    because iota is unital.  Raises InvalidInput, naming the product, when it
    leaves the float range (an entry inf or nan).
    """
    if not iota.codomain.same_set(g.set):
        raise InvalidInput("quotient_graph: embedding codomain must be the graph's set")
    hom = check_star_homomorphism(iota, tol=tol)
    if not hom.all_pass:
        raise InvalidInput(
            f"quotient_graph: iota is not a unital *-homomorphism (failed: {hom.failed()})"
        )
    mat = iota.matrix
    with np.errstate(over="ignore", invalid="ignore"):
        adjacency = mat.conj().T @ g.adjacency @ mat
    if not np.isfinite(adjacency).all():
        raise InvalidInput("the quotient iota^dag A iota leaves the float range")
    return QuantumGraph(set=iota.domain, adjacency=adjacency)


def check_isomorphism(phi: Operator, g1: QuantumGraph, g2: QuantumGraph,
                      tol: float = DEFAULT_TOL) -> bool:
    """Whether phi realises an isomorphism of quantum graphs g1 -> g2.

    phi must be an invertible unital *-homomorphism with phi A_1 = A_2 phi.
    """
    if not (phi.domain.same_set(g1.set) and phi.codomain.same_set(g2.set)):
        raise InvalidInput("check_isomorphism: phi does not map between the graphs' sets")
    if phi.domain.N != phi.codomain.N:
        return False
    if not check_star_homomorphism(phi, tol=tol).all_pass:
        return False
    lam, _ = hermitian_eigs(phi.matrix.conj().T @ phi.matrix, tol=tol)
    if lam[0] <= tol * scale_of(phi.matrix):
        return False
    resid = max_abs(phi.matrix @ g1.adjacency - g2.adjacency @ phi.matrix)
    return resid <= tol * scale_of(g1.adjacency, g2.adjacency, phi.matrix)


def conjugation_map(u: np.ndarray, x: QuantumSet) -> Operator:
    """The *-automorphism x -> U x U^dag of a single-block set M_n."""
    if x.blocks is None or len(x.blocks) != 1:
        raise InvalidInput("conjugation_map is defined on single-block sets M_n")
    n = x.blocks[0]
    u = np.asarray(u, dtype=complex)
    if u.shape != (n, n):
        raise InvalidInput(f"unitary has shape {u.shape}, expected ({n}, {n})")
    return Operator(domain=x, codomain=x, matrix=_tensor_with_conj(u))

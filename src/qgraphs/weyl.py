"""The Z_n x Z_n specialisation: the phase bicharacter whose twist turns the
classical n^2-point set into M_n, the explicit isomorphism realising that,
and the quantum rook's graph.

The isomorphism phi sends the first deformed generator to
diag(1, w, ..., w^{n-1}) and the second one to the cyclic shift; entrywise
``phi^{ij}_{ab} = delta_{b, i-j} w^{ia}`` (indices mod n).  With both bases
orthonormal the operator matrix of phi is unitary, so transporting
structure tensors through it is plain conjugation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import Operator, QuantumSet, build_quantum_set
from .errors import InvalidInput
from .graphs import QuantumGraph
from .groups import (
    AbelianGroup,
    Bicharacter,
    cayley_spectrum,
    make_bicharacter,
    twist_quantum_set,
    twisted_cayley,
)
from .kernels import max_abs, scale_of, unit_root, unit_roots

__all__ = [
    "WeylData",
    "weyl_bicharacter",
    "phi_isomorphism",
    "rook_generators",
    "quantum_rook",
    "rook_adjacency_closed_form",
    "transported_duality",
    "transported_mult",
]


@dataclass(eq=False)
class WeylData:
    n: int
    omega: complex
    group: AbelianGroup
    sigma: Bicharacter
    twisted: QuantumSet
    matrix_set: QuantumSet
    phi: Operator  # twisted -> M_n
    phi_inv: Operator  # M_n -> twisted


def weyl_bicharacter(n: int) -> Bicharacter:
    """sigma(a e1 + b e2, c e1 + d e2) = w^{bc} on Z_n x Z_n (trivial at n = 1)."""
    if n < 1:
        raise InvalidInput("weyl_bicharacter requires n >= 1")
    group = AbelianGroup((n, n))
    omega = unit_root(1, n)
    return make_bicharacter(group, [[1.0, 1.0], [omega, 1.0]])


def phi_isomorphism(n: int, tol: float = 1e-9) -> WeylData:
    """The unitary *-isomorphism from the twisted n^2-point set onto M_n."""
    if n < 2:
        raise InvalidInput("phi_isomorphism requires n >= 2")
    sigma = weyl_bicharacter(n)
    group = sigma.group
    twisted = twist_quantum_set(group, sigma, tol=tol)
    mn = build_quantum_set([n], tol=tol)

    mat = np.zeros((n * n, n * n), dtype=complex)
    inv_sqrt_n = 1.0 / math.sqrt(n)
    a, b, i = np.indices((n, n, n)).reshape(3, -1)  # column (a, b), row (i, i - b)
    mat[i * n + (i - b) % n, a * n + b] = unit_roots(n)[(i * a) % n] * inv_sqrt_n
    phi = Operator(domain=twisted, codomain=mn, matrix=mat)
    phi_inv = Operator(domain=mn, codomain=twisted, matrix=mat.conj().T)
    return WeylData(
        n=n,
        omega=unit_root(1, n),
        group=group,
        sigma=sigma,
        twisted=twisted,
        matrix_set=mn,
        phi=phi,
        phi_inv=phi_inv,
    )


def rook_generators(n: int) -> list[tuple[int, int]]:
    """The rook generating multiset {a e1}_{a=1..n-1} + {b e2}_{b=1..n-1}."""
    return [(a, 0) for a in range(1, n)] + [(0, b) for b in range(1, n)]


def rook_adjacency_closed_form(n: int) -> np.ndarray:
    """A[(i,j),(k,l)] = d_{i-j,k-l mod n} + n d_{ijkl} - 2 d_{ik} d_{jl}."""
    i, j = np.indices((n, n)).reshape(2, -1)  # row (i, j) and column (k, l) coordinates
    d = (i - j) % n
    a = (d[:, None] == d).astype(complex)
    a[np.diag_indices(n * n)] += np.where(i == j, n, 0) - 2.0
    return a


def quantum_rook(n: int, tol: float = 1e-9) -> QuantumGraph:
    """The quantum rook's graph on M_n.

    Built from the closed-form adjacency; the twist pipeline (twisted
    Cayley graph conjugated through phi) is evaluated as well and the two
    are required to agree within tolerance, else InvalidInput.
    """
    if n < 2:
        raise InvalidInput("quantum_rook requires n >= 2")
    wd = phi_isomorphism(n, tol=tol)  # admits the n^2-point set before the closed form
    a = rook_adjacency_closed_form(n)
    b = rook_pipeline_adjacency(wd)
    if max_abs(a - b) > tol * scale_of(a):
        raise InvalidInput(
            f"rook closed form and twist pipeline disagree by {max_abs(a - b):.3e}, "
            f"more than the tolerance {tol:g} allows"
        )
    return QuantumGraph(set=wd.matrix_set, adjacency=a)


def rook_pipeline_adjacency(wd: WeylData) -> np.ndarray:
    """Adjacency of the twisted rook Cayley graph transported to M_n via phi."""
    g = twisted_cayley(wd.group, rook_generators(wd.n), wd.sigma)
    u = wd.phi.matrix
    return u @ g.adjacency @ u.conj().T


def rook_spectrum(n: int) -> np.ndarray:
    """lambda_{ab} = n d_{a0} + n d_{b0} - 2 for the rook's graph."""
    return cayley_spectrum(AbelianGroup((n, n)), rook_generators(n))


def transported_duality(wd: WeylData) -> np.ndarray:
    """The twisted duality tensor moved through phi: (U (x) U) R_breve."""
    u = wd.phi.matrix
    return u @ wd.twisted.dense_star() @ u.T


def transported_mult(wd: WeylData) -> np.ndarray:
    """The twisted multiplication moved through phi, as an (N, N, N) tensor."""
    u = wd.phi.matrix
    m = wd.twisted.dense_mult()
    t = np.einsum("pk,kmn->pmn", u, m)
    t = np.einsum("pmn,qm->pqn", t, np.conj(u))
    return np.einsum("pqn,rn->pqr", t, np.conj(u))

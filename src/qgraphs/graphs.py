"""Quantum graphs: rotation, Schur-product calculus and the predicate battery.

A quantum graph on X is stored canonically through its adjacency operator,
an N x N matrix on l2(X) in the orthonormal basis.  The edge projection is
a derived view obtained by "rotation":

* abstractly, the edge element is ``A_tilde = A F`` as an N x N coefficient
  matrix in the e_p (x) e_q basis (F is the duality/star matrix), and the
  inverse rotation is right multiplication by conj(F);
* concretely, for sets with matrix-unit bases the edge element materialises
  per ordered block pair (i, j) as the realignment
  ``M[(a,c),(b,d)] = A[(i,a,b),(j,c,d)] / sqrt(n_i n_j)``,
  which is an orthogonal projection exactly when A is Schur-idempotent and
  Schur-self-adjoint.

The realignment is a *-isomorphism from the Schur algebra onto
C(X) (x) C(X)^op, so on matrix-unit sets ``realign(A . B)`` is the blockwise
matrix product ``realign(A) realign(B)``.  One cached gather layout
(:func:`_realignment`) serves the Schur product, the rotation and the edge
spectrum of those sets.  Group-indexed (twisted) sets have no block pairs:
there the Schur product of diagonal operators is a convolution over the
group, and any other pair of operators goes through the dense contraction
``m (A (x) B) m^dag``, which is capped at N <= DENSE_LIMIT.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .algebra import (
    DENSE_LIMIT,
    Operator,
    QuantumSet,
    build_quantum_set,
)
from .errors import InvalidInput, ResourceLimit
from .kernels import gram_schmidt, hermitian_eigs, max_abs, orthogonal_part, scale_of, span_residual

__all__ = [
    "QuantumGraph",
    "EdgeProjection",
    "GraphReport",
    "schur_unit",
    "schur_product",
    "schur_star",
    "rotate_to_edge",
    "rotate_from_edge",
    "adjacency_to_projection",
    "projection_to_adjacency",
    "graph_report",
    "is_quantum_graph",
    "quantum_edge",
    "graph_from_subspace",
    "subspace_from_graph",
    "selfadjoint_basis",
    "check_bimodule",
    "edge_spectrum",
    "projection_is_positive",
]


@dataclass(eq=False)
class QuantumGraph:
    """A quantum set together with an adjacency operator on l2(X)."""

    set: QuantumSet
    adjacency: np.ndarray

    def __post_init__(self) -> None:
        self.adjacency = np.asarray(self.adjacency, dtype=complex)
        if self.adjacency.shape != (self.set.N, self.set.N):
            raise InvalidInput(
                f"adjacency has shape {self.adjacency.shape}, expected "
                f"({self.set.N}, {self.set.N})"
            )


@dataclass(eq=False)
class EdgeProjection:
    """Edge element materialised per ordered block pair (matrix-unit sets)."""

    set: QuantumSet
    blocks: dict[tuple[int, int], np.ndarray]


@dataclass
class GraphReport:
    is_graph: bool
    is_undirected: bool
    loop_status: str  # "none" | "all" | "partial" | "mixed-weighted"
    is_simple: bool
    is_multigraph: Optional[bool]
    vertices: int
    edges: complex
    quantum_edges: Optional[int]
    regular_degree: Optional[float]

    def invariants(self) -> dict:
        """The fields preserved by quantum isomorphism.

        The number of quantum edges (rank of the edge projection) is
        deliberately excluded: it is basis data, not an invariant.
        """
        return {
            "is_graph": self.is_graph,
            "is_undirected": self.is_undirected,
            "loop_status": self.loop_status,
            "is_simple": self.is_simple,
            "is_multigraph": self.is_multigraph,
            "vertices": self.vertices,
            "edges": complex(self.edges),
            "regular_degree": self.regular_degree,
        }


# ---------------------------------------------------------------------------
# Schur calculus
# ---------------------------------------------------------------------------


def schur_unit(x: QuantumSet) -> np.ndarray:
    """J = eta eta^dag, the unit of the Schur product."""
    return np.outer(x.unit_vec, np.conj(x.unit_vec))


def _is_exactly_diagonal(a: np.ndarray) -> bool:
    """No nonzero entry off the diagonal (-0.0 counts as zero, NaN as nonzero)."""
    return np.count_nonzero(a) == np.count_nonzero(np.diagonal(a))


def _unwrap_endomorphism(x: QuantumSet, a) -> np.ndarray:
    if isinstance(a, Operator):
        if not (a.domain.same_set(x) and a.codomain.same_set(x)):
            raise InvalidInput("operator does not live on the given quantum set")
        a = a.matrix
    return np.asarray(a, dtype=complex)


def _group_convolve(x: QuantumSet, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(a . b)_kappa = (1/N) sum_{mu+nu=kappa} a_mu b_nu for diagonal operators."""
    table = x.group.addition_table()
    weights = np.outer(a, b).ravel()
    idx = table.ravel()
    re = np.bincount(idx, weights=weights.real, minlength=x.N)
    im = np.bincount(idx, weights=weights.imag, minlength=x.N)
    return (re + 1j * im) / x.N


class _PairClass(NamedTuple):
    """The ordered block pairs (i, j) with (n_i, n_j) = (p, q).

    ``A[index]`` is the submatrix of rows (i, a, b) in blocks of size p and
    columns (j, c, d) in blocks of size q.  Each side is a slice when those
    blocks are consecutive (always so on uniform sets) and an index vector
    otherwise, so the layout holds O(N) indices however many pairs there are.
    """

    rows: tuple[int, ...]
    cols: tuple[int, ...]
    index: tuple
    p: int
    q: int
    root: float  # sqrt(pq)

    def pairs(self):
        return itertools.product(self.rows, self.cols)

    def gather(self, a: np.ndarray) -> np.ndarray:
        """Realigned blocks M[(a,c),(b,d)] times sqrt(pq), shape (pairs, pq, pq)."""
        p, q = self.p, self.q
        sub = a[self.index].reshape(len(self.rows), p, p, len(self.cols), q, q)
        return sub.transpose(0, 3, 1, 4, 2, 5).reshape(-1, p * q, p * q)

    def scatter(self, out: np.ndarray, stack: np.ndarray) -> None:
        """Inverse of :meth:`gather`: write the blocks back into ``out``."""
        p, q = self.p, self.q
        sub = stack.reshape(len(self.rows), len(self.cols), p, q, p, q)
        out[self.index] = sub.transpose(0, 2, 4, 1, 3, 5).reshape(
            len(self.rows) * p * p, len(self.cols) * q * q)


@functools.lru_cache(maxsize=32)
def _realignment(blocks: tuple[int, ...]) -> tuple[_PairClass, ...]:
    """Gather layout of the realignment, one entry per block-size class.

    Together the classes index every entry of A exactly once.
    """
    offsets = np.cumsum([0] + [n * n for n in blocks[:-1]])
    by_size: dict[int, list[int]] = {}
    for i, n in enumerate(blocks):
        by_size.setdefault(n, []).append(i)
    select = {}
    for n, members in by_size.items():
        idx = (offsets[members][:, None] + np.arange(n * n)).ravel()
        if idx[-1] - idx[0] + 1 == idx.size:  # consecutive blocks
            select[n] = slice(int(idx[0]), int(idx[-1]) + 1)
        else:
            idx.setflags(write=False)
            select[n] = idx
    classes = []
    for p, rows in by_size.items():
        for q, cols in by_size.items():
            index = (select[p], select[q])
            if not any(isinstance(side, slice) for side in index):
                index = np.ix_(*index)
            classes.append(_PairClass(tuple(rows), tuple(cols), index, p, q, math.sqrt(p * q)))
    return tuple(classes)


def _realigned_product(blocks: tuple[int, ...], a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Schur product on a matrix-unit set: one matrix product per block pair."""
    out = np.empty(a.shape, dtype=complex)
    for cls in _realignment(blocks):
        sa, sb = cls.gather(a), cls.gather(b)
        if cls.root == 1.0:  # 1 x 1 blocks: the exact entrywise (Hadamard) product
            cls.scatter(out, sa * sb)
        else:
            cls.scatter(out, (sa @ sb) / cls.root)
    return out


def schur_product(x: QuantumSet, a, b) -> np.ndarray:
    """Schur product m (A (x) B) m^dag of two operators on l2(X).

    Accepts plain matrices or Operator objects (whose sets must match x).
    On matrix-unit sets the product is computed in the edge-projection
    picture, one matrix product per ordered block pair (the entrywise
    product on classical sets).  On group-indexed sets diagonal operators
    reduce to a convolution; other operators there use the dense
    contraction, refused above N = DENSE_LIMIT.  Both fast paths are
    cross-checked against the dense contraction in the test suite.
    """
    a = _unwrap_endomorphism(x, a)
    b = _unwrap_endomorphism(x, b)
    if a.shape != (x.N, x.N) or b.shape != (x.N, x.N):
        raise InvalidInput("schur_product: operands must be N x N on the same set")
    if x.blocks is not None:
        return _realigned_product(x.blocks, a, b)
    if x.group is not None and _is_exactly_diagonal(a) and _is_exactly_diagonal(b):
        return np.diag(_group_convolve(x, np.diag(a), np.diag(b)))
    if x.N > DENSE_LIMIT:
        raise ResourceLimit(
            f"generic Schur product refused for N={x.N} > {DENSE_LIMIT}; "
            "only diagonal operators on group-indexed sets are supported there"
        )
    m = x.dense_mult()
    t = np.einsum("prs,ru->pus", m, a)
    t = np.einsum("pus,sv->puv", t, b)
    return np.einsum("puv,quv->pq", t, np.conj(m))


def schur_star(x: QuantumSet, a) -> np.ndarray:
    """The involution of the Schur C*-structure: F^T conj(A) conj(F).

    The duality F is the stored signed permutation F[k, star_src[k]] =
    star_phase[k], so the triple product is an exact O(N^2) permute and
    phase: entry (k, l) of conj(A) moves to (star_src[k], star_src[l]).
    """
    a = _unwrap_endomorphism(x, a)
    p = x.star_phase
    out = np.empty((x.N, x.N), dtype=complex)
    out[np.ix_(x.star_src, x.star_src)] = np.outer(p, np.conj(p)) * np.conj(a)
    return out


# ---------------------------------------------------------------------------
# rotation between adjacency and edge projection
# ---------------------------------------------------------------------------


def rotate_to_edge(x: QuantumSet, a: np.ndarray) -> np.ndarray:
    """Edge element of A as coefficients on e_p (x) e_q (an N x N matrix): A F."""
    a = np.asarray(a, dtype=complex)
    out = np.empty_like(a)
    out[:, x.star_src] = a * x.star_phase
    return out


def rotate_from_edge(x: QuantumSet, a_tilde: np.ndarray) -> np.ndarray:
    """Inverse rotation A~ conj(F); round-trips with :func:`rotate_to_edge`."""
    a_tilde = np.asarray(a_tilde, dtype=complex)
    out = np.empty_like(a_tilde)
    out[:, x.star_src] = a_tilde * np.conj(x.star_phase)
    return out


def adjacency_to_projection(g: QuantumGraph) -> EdgeProjection:
    """Realign the adjacency into per-block-pair matrices.

    Block pair (i, j) acts on C^{n_i} (x) C^{n_j} with entries
    A[(i,a,b),(j,c,d)] / sqrt(n_i n_j) at row (a,c), column (b,d).
    """
    x = g.set
    if x.blocks is None:
        raise InvalidInput("edge-projection materialisation needs a matrix-unit basis")
    blocks: dict[tuple[int, int], np.ndarray] = {}
    for cls in _realignment(x.blocks):
        blocks.update(zip(cls.pairs(), cls.gather(g.adjacency) / cls.root))
    return EdgeProjection(set=x, blocks=dict(sorted(blocks.items())))


def projection_to_adjacency(p: EdgeProjection) -> QuantumGraph:
    x = p.set
    if x.blocks is None:
        raise InvalidInput("projection_to_adjacency needs a matrix-unit basis")
    if len(p.blocks) != len(x.blocks) ** 2:
        raise InvalidInput(f"projection has {len(p.blocks)} blocks, expected one per "
                           f"ordered pair of the {len(x.blocks)} blocks")
    adjacency = np.empty((x.N, x.N), dtype=complex)
    for cls in _realignment(x.blocks):
        side = (cls.p * cls.q,) * 2
        mats = []
        for i, j in cls.pairs():
            if (i, j) not in p.blocks:
                raise InvalidInput(f"projection block ({i},{j}) is missing")
            mat = np.asarray(p.blocks[(i, j)], dtype=complex)
            if mat.shape != side:
                raise InvalidInput(
                    f"projection block ({i},{j}) has shape {mat.shape}, expected {side}"
                )
            mats.append(mat)
        cls.scatter(adjacency, np.stack(mats) * cls.root)
    return QuantumGraph(set=x, adjacency=adjacency)


def edge_spectrum(g: QuantumGraph, tol: Optional[float] = None) -> Optional[np.ndarray]:
    """Spectrum of the edge element, when cheaply computable.

    Matrix-unit sets: eigenvalues of the realigned blocks, or None if some
    block is not Hermitian within tol.  Group-indexed sets with diagonal
    adjacency: the inverse Fourier transform F d / N of the diagonal d
    (the Schur calculus restricted to diagonals is the convolution
    algebra, so these are exactly the spectral values), computed as an
    FFT over the group's cyclic factors without forming F; it agrees with
    the matrix product up to rounding, and callers only compare its values
    against tolerances.  None if the transform is not real within tol.
    Returns None otherwise.  Raises InvalidInput on non-finite entries.
    """
    x = g.set
    tol = x.tol if tol is None else tol
    if not np.isfinite(g.adjacency).all():
        raise InvalidInput("adjacency has non-finite entries")
    if x.blocks is not None:
        lams = []
        for cls in _realignment(x.blocks):
            stack = cls.gather(g.adjacency) / cls.root
            herm = 0.5 * (stack + np.conj(stack.swapaxes(1, 2)))
            dev = np.abs(herm - stack).max(axis=(1, 2))
            scale = np.maximum(1.0, np.abs(stack).max(axis=(1, 2)))
            if np.any(dev > tol * scale):
                return None
            lams.append(np.linalg.eigvalsh(herm).ravel())
        return np.sort(np.concatenate(lams))
    if x.group is not None and _is_exactly_diagonal(g.adjacency):
        vals = np.fft.ifftn(np.diagonal(g.adjacency).reshape(x.group.orders)).ravel()
        if max_abs(np.asarray(vals).imag) > tol * scale_of(g.adjacency):
            return None
        return np.sort(vals.real)
    return None


def projection_is_positive(g: QuantumGraph, tol: Optional[float] = None) -> bool:
    """Whether the edge element of ``g`` is a positive element (weighted graph)."""
    x = g.set
    tol = x.tol if tol is None else tol
    spec = edge_spectrum(g, tol=tol)
    if spec is None:
        raise ResourceLimit("edge-element spectrum not available for this graph")
    if spec.size == 0:
        return True
    return bool(spec[0] >= -tol * scale_of(g.adjacency))


# ---------------------------------------------------------------------------
# predicate battery
# ---------------------------------------------------------------------------


def is_quantum_graph(g: QuantumGraph, tol: Optional[float] = None) -> bool:
    """A . A = A and A = A* in the Schur calculus."""
    x = g.set
    tol = x.tol if tol is None else tol
    a = g.adjacency
    scale = scale_of(a)
    return (
        max_abs(schur_product(x, a, a) - a) <= tol * scale
        and max_abs(schur_star(x, a) - a) <= tol * scale
    )


def graph_report(g: QuantumGraph, tol: Optional[float] = None) -> GraphReport:
    """Evaluate the full predicate battery on ``g``."""
    x = g.set
    tol = x.tol if tol is None else tol
    a = g.adjacency
    scale = scale_of(a)
    eye = np.eye(x.N, dtype=complex)

    graph_flag = is_quantum_graph(g, tol=tol)
    undirected = max_abs(a - a.conj().T) <= tol * scale

    loops_left = schur_product(x, a, eye)
    loops_right = schur_product(x, eye, a)
    no_loops = max_abs(loops_left) <= tol * scale and max_abs(loops_right) <= tol * scale
    all_loops = (
        max_abs(loops_left - eye) <= tol * scale
        and max_abs(loops_right - eye) <= tol * scale
    )
    if no_loops:
        loop_status = "none"
    elif all_loops:
        loop_status = "all"
    elif graph_flag:
        loop_status = "partial"
    else:
        loop_status = "mixed-weighted"

    vertices = int(round(np.vdot(x.unit_vec, x.unit_vec).real))
    edges = complex(np.vdot(x.unit_vec, a @ x.unit_vec))

    eta_row = np.conj(x.unit_vec) @ a  # eta^dag A
    degree = edges / vertices
    if max_abs(eta_row - degree * np.conj(x.unit_vec)) <= tol * max(scale, 1.0):
        regular: Optional[float] = float(degree.real)
    else:
        regular = None

    spec = edge_spectrum(g, tol=tol)
    quantum_edges: Optional[int] = None
    if spec is None:
        multigraph: Optional[bool] = None
    else:
        if x.blocks is not None:
            quantum_edges = int(np.sum(spec > 0.5))
        multigraph = bool(np.all(np.abs(spec - np.round(spec)) <= tol * max(scale, 1.0))
                          and np.all(spec >= -tol * max(scale, 1.0)))

    return GraphReport(
        is_graph=graph_flag,
        is_undirected=undirected,
        loop_status=loop_status,
        is_simple=graph_flag and undirected and loop_status == "none",
        is_multigraph=multigraph,
        vertices=vertices,
        edges=edges,
        quantum_edges=quantum_edges,
        regular_degree=regular,
    )


# ---------------------------------------------------------------------------
# quantum edges and operator-space form on M_n
# ---------------------------------------------------------------------------


def quantum_edge(n: int, xi: np.ndarray, tol: float = 1e-9) -> QuantumGraph:
    """The quantum edge on M_n attached to a nonzero matrix xi.

    Adjacency P[(i,j),(k,l)] = n / Tr(xi^dag xi) * xi[i,k] conj(xi[j,l]);
    it carries no loop iff Tr xi = 0 and is symmetric iff xi is
    proportional to xi^dag.
    """
    xi = np.asarray(xi, dtype=complex)
    if xi.shape != (n, n):
        raise InvalidInput(f"xi has shape {xi.shape}, expected ({n}, {n})")
    norm = np.trace(xi.conj().T @ xi).real
    if norm <= 0.0:
        raise InvalidInput("quantum_edge: xi must be nonzero")
    x = build_quantum_set([n], tol=tol)
    p = (n / norm) * np.einsum("ik,jl->ijkl", xi, np.conj(xi)).reshape(n * n, n * n)
    return QuantumGraph(set=x, adjacency=p)


def graph_from_subspace(
    n: int, basis: Sequence[np.ndarray], tol: float = 1e-9
) -> QuantumGraph:
    """Graph on M_n with operator space spanned by ``basis``.

    The basis is orthonormalised under <xi, zeta> = Tr(xi^dag zeta) and
    rescaled to Tr(xi^dag xi) = n, then A = sum_s xi_s (x) xi_s^*; the
    result depends only on the span.
    """
    mats = [np.asarray(b, dtype=complex) for b in basis]
    for b in mats:
        if b.shape != (n, n):
            raise InvalidInput(f"subspace basis matrix has shape {b.shape}, expected ({n}, {n})")
    ortho = gram_schmidt(mats, tol=tol)
    if len(ortho) != len(mats):
        raise InvalidInput("graph_from_subspace: basis is linearly dependent")
    x = build_quantum_set([n], tol=tol)
    a = np.zeros((n * n, n * n), dtype=complex)
    for xi in ortho:
        xi = xi * math.sqrt(n)  # Tr(xi^dag xi) = n
        a += np.einsum("ik,jl->ijkl", xi, np.conj(xi)).reshape(n * n, n * n)
    return QuantumGraph(set=x, adjacency=a)


def subspace_from_graph(
    g: QuantumGraph, tol: Optional[float] = None
) -> dict[tuple[int, int], list[np.ndarray]]:
    """Recover the block-pair operator spaces V_ij from a quantum graph.

    Eigenvectors of each realigned block with eigenvalue above the 0.5
    rank threshold are reshaped to n_i x n_j matrices, rescaled so that
    Tr(xi^dag xi) = sqrt(n_i n_j).
    """
    x = g.set
    tol = x.tol if tol is None else tol
    if not is_quantum_graph(g, tol=tol):
        raise InvalidInput("subspace_from_graph expects a quantum graph")
    proj = adjacency_to_projection(g)
    out: dict[tuple[int, int], list[np.ndarray]] = {}
    for (i, j), mat in proj.blocks.items():
        ni, nj = x.blocks[i], x.blocks[j]
        lam, vecs = hermitian_eigs(0.5 * (mat + mat.conj().T), tol=tol)
        kept = []
        for k in range(lam.size):
            if lam[k] > 0.5:
                xi = vecs[:, k].reshape(ni, nj) * (ni * nj) ** 0.25
                kept.append(xi)
        out[(i, j)] = kept
    return out


def selfadjoint_basis(
    basis: Sequence[np.ndarray], tol: float = 1e-9
) -> list[np.ndarray]:
    """Self-adjoint basis of a dagger-closed span of matrices.

    Takes real and imaginary parts (xi + xi^dag)/2 and i(xi^dag - xi)/2 of
    the given spanning family and keeps a maximal independent subfamily;
    raises InvalidInput if the span is not closed under dagger.
    """
    mats = [np.asarray(b, dtype=complex) for b in basis]
    ortho = gram_schmidt(mats, tol=tol)
    for b in mats:
        if span_residual(b.conj().T, ortho) > tol * scale_of(b):
            raise InvalidInput("selfadjoint_basis: span is not closed under dagger")
    chosen: list[np.ndarray] = []
    chosen_ortho: list[np.ndarray] = []
    for b in mats:
        for cand in (0.5 * (b + b.conj().T), 0.5j * (b.conj().T - b)):
            w, nrm = orthogonal_part(cand, chosen_ortho)
            if nrm > tol * scale_of(cand):
                chosen.append(cand)
                chosen_ortho.append(w / nrm)
    if len(chosen) != len(ortho):
        raise InvalidInput("selfadjoint_basis: failed to span with self-adjoint parts")
    return chosen


def check_bimodule(
    x: QuantumSet, basis: Sequence[np.ndarray], tol: Optional[float] = None
) -> bool:
    """Closure of an operator space under the commutant bimodule action.

    The commutant of C(X) acting on C^{n_1} + ... + C^{n_a} is spanned by
    the block projections; V is a bimodule over it iff compressing every
    basis element to any block pair stays inside the span.
    """
    tol = x.tol if tol is None else tol
    if x.blocks is None:
        raise InvalidInput("check_bimodule needs a matrix-unit basis")
    small = sum(x.blocks)
    mats = [np.asarray(b, dtype=complex) for b in basis]
    for b in mats:
        if b.shape != (small, small):
            raise InvalidInput(f"bimodule basis matrix has shape {b.shape}, expected ({small}, {small})")
    ortho = gram_schmidt(mats, tol=tol)
    bounds = np.cumsum([0] + list(x.blocks))
    for b in mats:
        for i in range(len(x.blocks)):
            for j in range(len(x.blocks)):
                comp = np.zeros_like(b)
                comp[bounds[i]:bounds[i + 1], bounds[j]:bounds[j + 1]] = (
                    b[bounds[i]:bounds[i + 1], bounds[j]:bounds[j + 1]]
                )
                if span_residual(comp, ortho) > tol * max(scale_of(b), 1.0):
                    return False
    return True

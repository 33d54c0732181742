"""Quantum graphs: rotation, Schur-product calculus and the predicate battery.

A quantum graph on X is stored canonically through its adjacency operator,
an N x N matrix on l2(X) in the orthonormal basis, or a diagonal one by its
diagonal alone.  The edge projection is a derived view obtained by
"rotation":

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
there diagonal operators have their own Schur product and star, below, and
any other pair of operators goes through the generic contraction
``m (A (x) B) m^dag`` over the sparse entries of m, which is capped at
N <= DENSE_LIMIT.

On diagonals the Schur product is a convolution over the group, and on the
connection function f = F d / N of a diagonal d (an inverse FFT over the
group's cyclic factors) it is pointwise.  :func:`_diagonal_schur` and
:func:`_diagonal_star` are the one product and star of diagonals, in
N-vectors and O(N log N); ``schur_product`` uses them on diagonal operands.

A graph's Schur calculus is chosen once, by :func:`_calculus`, after one pass
that refuses non-finite entries, over the diagonal of a graph held by it and
over A otherwise: the diagonal calculus on N-vectors when the set is
group-indexed, A is exactly diagonal and eta has at most one nonzero entry (a
twisted Cayley graph), and the matrix calculus on N x N matrices for every
other graph.  The predicate battery, the edge spectrum and the obstruction's
closure each run one body on the calculus it returns.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .algebra import (
    DEFAULT_TOL,
    DENSE_LIMIT,
    Operator,
    QuantumSet,
    build_quantum_set,
)
from .errors import InvalidInput, ResourceLimit
from .kernels import gram_schmidt, hermitian_eigs, max_abs, orthogonal_part, scale_of


class QuantumGraph:
    """A quantum set together with an adjacency operator on l2(X).

    ``QuantumGraph(x, a)`` holds the N x N matrix a.  ``QuantumGraph(x,
    diagonal=d)`` holds a diagonal adjacency by its N-vector d alone, as
    twisted Cayley graphs are built and read: ``diagonal`` is d (None for a
    graph held by its matrix), and ``adjacency`` forms ``np.diag(d)`` on
    first read and keeps it.  The Schur calculus, the document writer and the
    obstruction take d as it is, so they form no N x N array.
    """

    def __init__(self, set: QuantumSet, adjacency=None, *, diagonal=None) -> None:
        if (adjacency is None) == (diagonal is None):
            raise InvalidInput("a quantum graph needs exactly one of adjacency and diagonal")
        self.set = set
        if diagonal is None:
            self.diagonal, self._adjacency = None, np.asarray(adjacency, dtype=complex)
            shape = self._adjacency.shape
        else:
            self.diagonal, self._adjacency = np.asarray(diagonal, dtype=complex), None
            if self.diagonal.ndim != 1:
                raise InvalidInput(f"diagonal has shape {self.diagonal.shape}, "
                                   f"expected ({set.N},)")
            shape = self.diagonal.shape * 2
        if shape != (set.N, set.N):
            raise InvalidInput(f"adjacency has shape {shape}, expected ({set.N}, {set.N})")

    @property
    def adjacency(self) -> np.ndarray:
        if self._adjacency is None:
            self._adjacency = np.diag(self.diagonal)
        return self._adjacency


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
    reduce to a convolution (:func:`_diagonal_schur`); others use the
    generic contraction over the entries of m, refused above
    N = DENSE_LIMIT: ``val A[left]`` is scattered to ``t[out, right, :]``,
    multiplied by B once, and gathered at ``(right, left)`` against
    ``conj(val)``, summed by output.  Every path is cross-checked against
    the dense tensor contraction in the test suite.
    """
    a = _unwrap_endomorphism(x, a)
    b = _unwrap_endomorphism(x, b)
    if a.shape != (x.N, x.N) or b.shape != (x.N, x.N):
        raise InvalidInput("schur_product: operands must be N x N on the same set")
    if x.blocks is not None:
        return _realigned_product(x.blocks, a, b)
    if x.group is not None and _is_exactly_diagonal(a) and _is_exactly_diagonal(b):
        return np.diag(_diagonal_schur(x, np.diag(a), np.diag(b)))
    if x.N > DENSE_LIMIT:
        raise ResourceLimit(
            f"generic Schur product refused for N={x.N} > {DENSE_LIMIT}; "
            "only diagonal operators on group-indexed sets are supported there"
        )
    n = x.N
    out, lft, rgt, val = x.mult
    t = np.zeros((n * n, n), dtype=complex)  # t[p, s, u] = sum_r m^p_rs A[r, u]
    np.add.at(t, out * n + rgt, val[:, None] * a[lft])
    t = b.T @ t.reshape(n, n, n)  # t[p, v, u] = sum_s B[s, v] t[p, s, u]
    res = np.zeros((n, n), dtype=complex)  # res[p, q] = sum_uv t[p, v, u] conj(m^q_uv)
    np.add.at(res, (slice(None), out), t[:, rgt, lft] * np.conj(val))
    return res


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


def adjacency_to_projection(g: QuantumGraph) -> EdgeProjection:
    """Realign the adjacency into per-block-pair matrices.

    Block pair (i, j) acts on C^{n_i} (x) C^{n_j} with entries
    A[(i,a,b),(j,c,d)] / sqrt(n_i n_j) at row (a,c), column (b,d), in
    gather order (the document writer sorts them).
    """
    x = g.set
    if x.blocks is None:
        raise InvalidInput("edge-projection materialisation needs a matrix-unit basis")
    blocks: dict[tuple[int, int], np.ndarray] = {}
    for cls in _realignment(x.blocks):
        blocks.update(zip(cls.pairs(), cls.gather(g.adjacency) / cls.root))
    return EdgeProjection(set=x, blocks=blocks)


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
        with np.errstate(over="ignore", invalid="ignore"):
            stack = np.stack(mats) * cls.root
        bad = ~np.isfinite(stack).all(axis=(1, 2))
        if bad.any():
            raise InvalidInput("projection block ({},{}) times sqrt(n_i n_j) = {:g} leaves the "
                               "float range".format(*list(cls.pairs())[bad.argmax()], cls.root))
        cls.scatter(adjacency, stack)
    return QuantumGraph(set=x, adjacency=adjacency)


def _finite_diagonal(g: QuantumGraph) -> Optional[np.ndarray]:
    """The diagonal d of A when the set is group-indexed and A is exactly diagonal.

    A graph held by its diagonal (``g.diagonal``) gives d with no pass over
    N^2 entries; only d is checked for finiteness.  Otherwise one pass over
    A decides it: a NaN or infinity off the diagonal counts as a nonzero
    entry, so only d itself is left to check.  Returns None for any other
    finite adjacency; raises InvalidInput on non-finite entries.
    """
    d = g.diagonal
    if d is None:
        a = g.adjacency
        if g.set.group is not None and _is_exactly_diagonal(a):
            d = np.diagonal(a)
        elif np.isfinite(a).all():
            return None
        else:
            raise InvalidInput("adjacency has non-finite entries")
    if not np.isfinite(d).all():
        raise InvalidInput("adjacency has non-finite entries")
    return d if g.set.group is not None else None


def _connection(x: QuantumSet, d: np.ndarray) -> np.ndarray:
    """f = F d / N, the inverse FFT of a diagonal over the group's cyclic factors.

    On diagonals the Schur product is convolution, so on f it is pointwise:
    diag(A) . diag(B) = _diagonal(f_A f_B).
    """
    return np.fft.ifftn(d.reshape(x.group.orders)).ravel()


def _diagonal(x: QuantumSet, f: np.ndarray) -> np.ndarray:
    """The diagonal with connection function f: the inverse of :func:`_connection`."""
    return np.fft.fftn(f.reshape(x.group.orders)).ravel()


def _diagonal_schur(x: QuantumSet, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """diag(a) . diag(b), a convolution over the group: pointwise on connection functions."""
    return _diagonal(x, _connection(x, a) * _connection(x, b))


def _diagonal_star(x: QuantumSet, d: np.ndarray) -> np.ndarray:
    """The Schur star of diag(d), a diagonal: star_src[k] gets |star_phase[k]|^2 conj(d_k)."""
    star = np.empty_like(d)
    star[x.star_src] = x.star_phase * np.conj(x.star_phase) * np.conj(d)
    return star


def _real_values(f: np.ndarray, bound: float) -> Optional[np.ndarray]:
    """The sorted real parts of f, or None if some imaginary part exceeds bound."""
    if max_abs(f.imag) > bound:
        return None
    return np.sort(f.real)


def _block_spectrum(x: QuantumSet, a: np.ndarray, tol: float) -> Optional[np.ndarray]:
    """The edge spectrum of a finite N x N adjacency: realigned block pairs, or None."""
    if x.blocks is None:
        return None
    lams = []
    for cls in _realignment(x.blocks):
        stack = cls.gather(a) / cls.root
        herm = 0.5 * (stack + np.conj(stack.swapaxes(1, 2)))
        dev = np.abs(herm - stack).max(axis=(1, 2))
        scale = np.maximum(1.0, np.abs(stack).max(axis=(1, 2)))
        if np.any(dev > tol * scale):
            return None
        lams.append(np.linalg.eigvalsh(herm).ravel())
    return np.sort(np.concatenate(lams))


#: The Schur calculus of a graph's set in one representation, with A in it:
#: operators are N-vectors of diagonals or N x N matrices, ``eye()`` and
#: ``unit()`` build I and J on demand, ``square()`` gives A . A, ``loops()``
#: gives A . I and I . A, and ``spectrum(tol)`` the edge spectrum of A.
#: ``schur`` multiplies operators in the form ``hold`` gives them, which a
#: caller that multiplies one operator many times can keep beside it.
_Calculus = collections.namedtuple(
    "_Calculus", "a eye unit compose hold schur dagger star square loops spectrum")


def _calculus(g: QuantumGraph) -> _Calculus:
    """The Schur calculus of g's set with A in it: the one choice of representation.

    The diagonal calculus applies when the set is group-indexed, A is
    exactly diagonal and finite (:func:`_finite_diagonal`) and eta has at
    most one nonzero entry, so that J is diagonal too; the matrix calculus
    applies to every other graph.  Raises InvalidInput on non-finite entries.
    """
    x = g.set
    d = _finite_diagonal(g)
    if d is not None and np.count_nonzero(x.unit_vec) <= 1:
        # a contiguous copy of d: vdot on a strided view rounds differently
        return _diagonal_calculus(x, d.copy())
    a = g.adjacency
    eye = functools.cache(lambda: np.eye(x.N, dtype=complex))  # N x N: only when asked
    return _Calculus(
        a, eye, lambda: schur_unit(x), np.matmul, lambda u: u, functools.partial(schur_product, x),
        lambda u: u.conj().T, functools.partial(schur_star, x),
        square=lambda: schur_product(x, a, a),
        loops=lambda: (schur_product(x, a, eye()), schur_product(x, eye(), a)),
        spectrum=lambda tol: _block_spectrum(x, a, tol))


def _diagonal_calculus(x: QuantumSet, d: np.ndarray) -> _Calculus:
    """The Schur calculus of diagonals on a group-indexed set, with A = diag(d).

    All in O(N log N) on N-vectors.  With f = :func:`_connection` of d:
    A . A = _diagonal(f^2), A . I = I . A = f(0) 1, and the edge spectrum is
    the values of f (on diagonals the Schur calculus is the convolution algebra).
    An operator is held as its connection function, so a product of held
    operators is one transform.
    """
    f = _connection(x, d)
    loop = np.full(x.N, f[0])
    return _Calculus(
        d, lambda: np.ones(x.N, dtype=complex), lambda: x.unit_vec * np.conj(x.unit_vec),
        np.multiply, functools.partial(_connection, x), lambda fa, fb: _diagonal(x, fa * fb),
        np.conj, functools.partial(_diagonal_star, x),
        square=lambda: _diagonal(x, f * f), loops=lambda: (loop, loop),
        spectrum=lambda tol: _real_values(f, tol * scale_of(d)))


def edge_spectrum(g: QuantumGraph, tol: float = DEFAULT_TOL) -> Optional[np.ndarray]:
    """Spectrum of the edge element, when cheaply computable.

    In the matrix calculus: eigenvalues of the realigned blocks on a
    matrix-unit set, or None if some block is not Hermitian within tol, and
    None on any other set.  In the diagonal calculus (:func:`_calculus`):
    the values of the connection function f = F d / N of the diagonal d,
    an FFT over the group's cyclic factors, or None if f is not real within
    tol.  Raises InvalidInput on non-finite entries.
    """
    return _calculus(g).spectrum(tol)


# ---------------------------------------------------------------------------
# predicate battery
# ---------------------------------------------------------------------------


def _products(c: _Calculus, loops: bool) -> list[np.ndarray]:
    """A . A, and A . I and I . A if ``loops``, in the calculus c.  Raises InvalidInput,
    naming the product, when one leaves the float range (an entry inf or nan)."""
    names = ["A . A", "A . I", "I . A"] if loops else ["A . A"]
    with np.errstate(over="ignore", invalid="ignore"):
        products = [c.square(), *c.loops()] if loops else [c.square()]
    for name, p in zip(names, products):
        if not np.isfinite(p).all():
            raise InvalidInput(f"the Schur product {name} leaves the float range")
    return products


def _is_graph(c: _Calculus, square: np.ndarray, scale: float, tol: float) -> bool:
    """A . A = A and A = A* in the calculus c, given A . A."""
    a = c.a
    return max_abs(square - a) <= tol * scale and max_abs(c.star(a) - a) <= tol * scale


def is_quantum_graph(g: QuantumGraph, tol: float = DEFAULT_TOL) -> bool:
    """A . A = A and A = A* in the Schur calculus of :func:`_calculus`.

    Raises InvalidInput on non-finite entries, and when A . A leaves the
    float range.
    """
    c = _calculus(g)
    return _is_graph(c, *_products(c, loops=False), scale_of(c.a), tol)


def graph_report(g: QuantumGraph, tol: float = DEFAULT_TOL) -> GraphReport:
    """Evaluate the full predicate battery on ``g``.

    Raises InvalidInput on non-finite entries before any arithmetic, and
    when A . A, A . I or I . A leaves the float range.  The battery runs
    once, in the Schur calculus :func:`_calculus` chooses.  On a diagonal
    adjacency on a group-indexed set (a twisted Cayley graph) that is
    N-vectors: A . A squares the connection function f, A . I = I . A =
    f(0) 1, the star and the adjoint are permuted and conjugated copies of
    the diagonal d, and the counts come from d u; neither ``schur_product``
    nor ``schur_star`` is called.  A graph held by its diagonal (as
    ``twisted_cayley`` builds it and ``graph_from_document`` reads it) is
    checked in O(N log N) with no N x N array; one held by its matrix costs
    one pass over A first.
    """
    x = g.set
    c = _calculus(g)
    a = c.a
    scale = scale_of(a)
    square, loops_left, loops_right = _products(c, loops=True)
    graph_flag = _is_graph(c, square, scale, tol)
    undirected = max_abs(a - c.dagger(a)) <= tol * scale
    if max_abs(loops_left) <= tol * scale and max_abs(loops_right) <= tol * scale:
        loop_status = "none"
    elif (max_abs(loops_left - c.eye()) <= tol * scale
          and max_abs(loops_right - c.eye()) <= tol * scale):
        loop_status = "all"
    elif graph_flag:
        loop_status = "partial"
    else:
        loop_status = "mixed-weighted"

    vertices = int(round(np.vdot(x.unit_vec, x.unit_vec).real))
    edges = complex(np.vdot(x.unit_vec, c.compose(a, x.unit_vec)))  # eta^dag A eta

    degree = edges / vertices
    eta_a = c.compose(np.conj(x.unit_vec), a)  # eta^dag A
    if max_abs(eta_a - degree * np.conj(x.unit_vec)) <= tol * max(scale, 1.0):
        regular: Optional[float] = float(degree.real)
    else:
        regular = None

    spec = c.spectrum(tol)
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


def _tensor_with_conj(xi: np.ndarray) -> np.ndarray:
    """xi (x) conj(xi) as an (n^2, n^2) matrix: entry [(i,j),(k,l)] = xi[i,k] conj(xi[j,l])."""
    n = xi.shape[0]
    return np.einsum("ik,jl->ijkl", xi, np.conj(xi)).reshape(n * n, n * n)


def quantum_edge(n: int, xi: np.ndarray) -> QuantumGraph:
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
    x = build_quantum_set([n])
    p = (n / norm) * _tensor_with_conj(xi)
    return QuantumGraph(set=x, adjacency=p)


def graph_from_subspace(
    n: int, basis: Sequence[np.ndarray], tol: float = DEFAULT_TOL
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
    x = build_quantum_set([n])
    a = np.zeros((n * n, n * n), dtype=complex)
    for xi in ortho:
        xi = xi * math.sqrt(n)  # Tr(xi^dag xi) = n
        a += _tensor_with_conj(xi)
    return QuantumGraph(set=x, adjacency=a)


def subspace_from_graph(
    g: QuantumGraph, tol: float = DEFAULT_TOL
) -> dict[tuple[int, int], list[np.ndarray]]:
    """Recover the block-pair operator spaces V_ij from a quantum graph.

    Eigenvectors of each realigned block with eigenvalue above the 0.5
    rank threshold are reshaped to n_i x n_j matrices, rescaled so that
    Tr(xi^dag xi) = sqrt(n_i n_j).
    """
    x = g.set
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
    basis: Sequence[np.ndarray], tol: float = DEFAULT_TOL
) -> list[np.ndarray]:
    """Self-adjoint basis of a dagger-closed span of matrices.

    Takes real and imaginary parts (xi + xi^dag)/2 and i(xi^dag - xi)/2 of
    the given spanning family and keeps a maximal independent subfamily;
    raises InvalidInput if the span is not closed under dagger.
    """
    mats = [np.asarray(b, dtype=complex) for b in basis]
    ortho = gram_schmidt(mats, tol=tol)
    for b in mats:
        if orthogonal_part(b.conj().T, ortho)[1] > tol * scale_of(b):
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
    x: QuantumSet, basis: Sequence[np.ndarray], tol: float = DEFAULT_TOL
) -> bool:
    """Closure of an operator space under the commutant bimodule action.

    The commutant of C(X) acting on C^{n_1} + ... + C^{n_a} is spanned by
    the block projections; V is a bimodule over it iff compressing every
    basis element to any block pair stays inside the span.
    """
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
                if orthogonal_part(comp, ortho)[1] > tol * max(scale_of(b), 1.0):
                    return False
    return True

"""Finite quantum sets as special symmetric Frobenius algebras.

Conventions used everywhere in this package:

* A quantum set is a finite-dimensional C*-algebra, either a direct sum of
  matrix blocks M_{n_1} + ... + M_{n_a} or a deformed group algebra (see
  :mod:`qgraphs.groups`).  Its counit is the scaled trace
  ``eta^dag(x) = sum_i n_i Tr(x_i)`` and the inner product is
  ``<a, b> = eta^dag(a* b)``.
* All coefficient vectors and operator matrices are written in a fixed
  ORTHONORMAL basis of that inner product.  For matrix blocks this is the
  block-ordered, row-major family ``e_ab / sqrt(n_i)``; for deformed group
  algebras it is ``tau_mu / sqrt(N)``.  With this choice the adjoint of
  every operator matrix is the plain conjugate transpose.
* The multiplication tensor ``m`` is stored sparsely as parallel arrays
  (out, left, right, value), never densified above ``DENSE_LIMIT``.
* The star sends each basis vector to a phase times another basis vector
  (``e_ab^* = e_ba``, ``tau_mu^* = c_mu tau_{-mu}``), so the duality R is a
  signed permutation and is stored as one: two length-N arrays with
  ``e_k^* = star_phase[k] e_{star_src[k]}``.  A set therefore holds
  O(N + nonzeros of m) numbers; no N x N array is kept.

``verify_frobenius`` re-derives all the defining identities (specialness,
Frobenius law, snake identities, unit laws, symmetry, involutivity,
associativity) numerically from the stored tensors, so a set object that
passes it is a valid special symmetric Frobenius algebra regardless of how
it was built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from .errors import InvalidInput, ResourceLimit
from .kernels import hermitian_eigs, max_abs, scale_of

if TYPE_CHECKING:  # pragma: no cover
    from .groups import AbelianGroup, Bicharacter

__all__ = [
    "DENSE_LIMIT",
    "MAX_N",
    "admit_dimension",
    "DEFAULT_TOL",
    "QuantumSet",
    "AlgebraElement",
    "Operator",
    "Check",
    "Report",
    "build_quantum_set",
    "algebra_multiply",
    "algebra_star",
    "counit_apply",
    "verify_frobenius",
    "check_star_homomorphism",
    "is_positive_element",
    "element_is_positive",
    "left_mult_matrix",
    "element_from_block_matrices",
    "element_to_block_matrices",
]

DEFAULT_TOL = 1e-9
#: largest N for which the multiplication tensor may be densified
DENSE_LIMIT = 64
#: largest dimension N of a quantum set that any constructor admits: 2^12,
#: the largest set a preset builds (Q_12, the block [64], the rook's graph on
#: M_64).  Constructors check it before allocating anything proportional to N.
MAX_N = 4096


def admit_dimension(n: int) -> None:
    """Raise ResourceLimit when a quantum set of dimension ``n`` exceeds MAX_N."""
    if n > MAX_N:
        shown = n if n < 2**64 else "2**64 or more"
        raise ResourceLimit(f"quantum set of dimension N = {shown} refused; the limit is {MAX_N}")


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class QuantumSet:
    """A finite quantum set with precomputed Frobenius structure tensors.

    ``blocks`` is set when the orthonormal basis consists of scaled matrix
    units, block-ordered and row-major; it is None for deformed group
    algebras, whose basis is indexed by group elements instead.  All
    operations that need no block data work on either kind.

    The star is the signed permutation ``e_k^* = star_phase[k]
    e_{star_src[k]}``; construction refuses a ``star_src`` that is not a
    permutation of ``range(N)``.  Together with the sparse multiplication
    this keeps a set at O(N + nonzeros of m) memory.
    """

    blocks: Optional[tuple[int, ...]]
    N: int
    mult_out: np.ndarray  # int64[k]
    mult_left: np.ndarray  # int64[k]
    mult_right: np.ndarray  # int64[k]
    mult_val: np.ndarray  # complex128[k]
    unit_vec: np.ndarray  # complex128[N]
    star_src: np.ndarray  # int64[N]; e_k^* = star_phase[k] e_{star_src[k]}
    star_phase: np.ndarray  # complex128[N]
    tol: float = DEFAULT_TOL
    group: Optional["AbelianGroup"] = None
    bicharacter: Optional["Bicharacter"] = None
    _dense_mult: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        src = self.star_src
        if (src.dtype.kind not in "iu" or src.shape != (self.N,)
                or self.star_phase.shape != (self.N,)
                or not np.array_equal(np.sort(src), np.arange(self.N))):
            raise InvalidInput(f"star source is not a permutation of the {self.N} basis slots")
        for a in (self.mult_out, self.mult_left, self.mult_right, self.mult_val,
                  self.unit_vec, self.star_src, self.star_phase):
            _readonly(a)

    # -- structure tensors ------------------------------------------------

    def dense_mult(self) -> np.ndarray:
        """The multiplication tensor as an (N, N, N) array m[out, left, right]."""
        if self.N > DENSE_LIMIT:
            raise ResourceLimit(
                f"dense multiplication tensor refused for N={self.N} > {DENSE_LIMIT}"
            )
        if self._dense_mult is None:
            m = np.zeros((self.N, self.N, self.N), dtype=complex)
            m[self.mult_out, self.mult_left, self.mult_right] = self.mult_val
            self._dense_mult = _readonly(m)
        return self._dense_mult

    def dense_star(self) -> np.ndarray:
        """The duality R as an (N, N) array; row k holds the coefficients of e_k^*."""
        f = np.zeros((self.N, self.N), dtype=complex)
        f[np.arange(self.N), self.star_src] = self.star_phase
        return f

    def same_set(self, other: "QuantumSet") -> bool:
        if self.N != other.N or self.blocks != other.blocks:
            return False
        if (self.group is None) != (other.group is None):
            return False
        if self.group is not None:
            if self.group.orders != other.group.orders:
                return False
            a, b = self.bicharacter, other.bicharacter
            if (a is None) != (b is None):
                return False
            if a is not None and not np.array_equal(a.gen_values, b.gen_values):
                return False
        return True

    def unit_element(self) -> "AlgebraElement":
        return AlgebraElement(self, self.unit_vec.copy())

    def basis_element(self, slot: int) -> "AlgebraElement":
        coeffs = np.zeros(self.N, dtype=complex)
        coeffs[slot] = 1.0
        return AlgebraElement(self, coeffs)


@dataclass(eq=False)
class AlgebraElement:
    """An element of C(X), stored as coefficients in the orthonormal basis."""

    set: QuantumSet
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        if self.coeffs.shape != (self.set.N,):
            raise InvalidInput(
                f"coefficient vector has shape {self.coeffs.shape}, expected ({self.set.N},)"
            )

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        return algebra_multiply(self, other)

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        return AlgebraElement(self.set, self.coeffs + other.coeffs)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return AlgebraElement(self.set, self.coeffs - other.coeffs)

    def __rmul__(self, scalar: complex) -> "AlgebraElement":
        return AlgebraElement(self.set, scalar * self.coeffs)

    def star(self) -> "AlgebraElement":
        return algebra_star(self)


@dataclass(eq=False)
class Operator:
    """A linear map l2(domain) -> l2(codomain) in the orthonormal bases.

    ``matrix[r, c]`` is the coefficient of codomain basis vector r in the
    image of domain basis vector c; since both bases are orthonormal,
    ``dagger`` is the conjugate transpose.
    """

    domain: QuantumSet
    codomain: QuantumSet
    matrix: np.ndarray

    def __post_init__(self) -> None:
        self.matrix = np.asarray(self.matrix, dtype=complex)
        if self.matrix.shape != (self.codomain.N, self.domain.N):
            raise InvalidInput(
                f"operator matrix has shape {self.matrix.shape}, expected "
                f"({self.codomain.N}, {self.domain.N})"
            )

    def dagger(self) -> "Operator":
        return Operator(self.codomain, self.domain, self.matrix.conj().T)

    def __matmul__(self, other: "Operator") -> "Operator":
        if other.codomain is not self.domain and not other.codomain.same_set(self.domain):
            raise InvalidInput("operator composition: domain/codomain mismatch")
        return Operator(other.domain, self.codomain, self.matrix @ other.matrix)

    def apply(self, x: AlgebraElement) -> AlgebraElement:
        return AlgebraElement(self.codomain, self.matrix @ x.coeffs)


@dataclass
class Check:
    name: str
    passed: bool
    residual: float


@dataclass
class Report:
    """Outcome of an axiom battery: named checks with residuals."""

    checks: list[Check]
    tol: float

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed(self) -> list[str]:
        return [c.name for c in self.checks if not c.passed]

    def residual(self, name: str) -> float:
        for c in self.checks:
            if c.name == name:
                return c.residual
        raise KeyError(name)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def build_quantum_set(blocks: Sequence[int], tol: float = DEFAULT_TOL) -> QuantumSet:
    """Quantum set for the algebra M_{n_1} + ... + M_{n_a}.

    Structure constants in the orthonormal basis e_ab / sqrt(n):
    multiplication couples (i,a,b)(i,b,d) -> (i,a,d) with weight 1/sqrt(n_i),
    entries ordered by block, then (a, b, d) row-major; the unit has entry
    sqrt(n_i) at each diagonal slot, and the star sends (i,a,b) to (i,b,a)
    with phase 1.
    """
    blocks = tuple(int(n) for n in blocks)
    if len(blocks) == 0:
        raise InvalidInput("block list must be nonempty")
    if any(n <= 0 for n in blocks):
        raise InvalidInput(f"block sizes must be positive, got {blocks}")
    admit_dimension(sum(n * n for n in blocks))
    if not tol > 0:
        raise InvalidInput("tolerance must be positive")

    sizes = np.asarray(blocks, dtype=np.int64)
    slots = sizes * sizes

    def grid(counts: np.ndarray):
        """(block offset, block size, local index) of each of counts[i] indices per block."""
        n = np.repeat(sizes, counts)
        t = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
        return np.repeat(np.cumsum(slots) - slots, counts), n, t

    o, n, t = grid(slots)  # slot (a, b) of its block: t = a n + b
    a, b = t // n, t % n
    unit = np.where(a == b, np.sqrt(n), 0.0).astype(complex)
    o3, n3, t3 = grid(slots * sizes)  # entry (a, b, d): t = (a n + b) n + d
    return QuantumSet(
        blocks=blocks,
        N=int(slots.sum()),
        mult_out=o3 + t3 // (n3 * n3) * n3 + t3 % n3,
        mult_left=o3 + t3 // n3,
        mult_right=o3 + t3 % (n3 * n3),
        mult_val=(1.0 / np.sqrt(n3)).astype(complex),
        unit_vec=unit,
        star_src=o + b * n + a,
        star_phase=np.ones(a.size, dtype=complex),
        tol=tol,
    )


# ---------------------------------------------------------------------------
# elementary operations
# ---------------------------------------------------------------------------


def _scatter_accumulate(idx: np.ndarray, weights: np.ndarray, size: int) -> np.ndarray:
    re = np.bincount(idx, weights=weights.real, minlength=size)
    im = np.bincount(idx, weights=weights.imag, minlength=size)
    return re + 1j * im


def algebra_multiply(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """Product in C(X) through the sparse structure constants."""
    s = x.set
    if s is not y.set and not s.same_set(y.set):
        raise InvalidInput("algebra_multiply: elements live on different quantum sets")
    w = s.mult_val * x.coeffs[s.mult_left] * y.coeffs[s.mult_right]
    return AlgebraElement(s, _scatter_accumulate(s.mult_out, w, s.N))


def algebra_star(x: AlgebraElement) -> AlgebraElement:
    """The *-operation: c_k e_k goes to conj(c_k) star_phase[k] e_{star_src[k]}."""
    s = x.set
    coeffs = np.empty(s.N, dtype=complex)
    coeffs[s.star_src] = s.star_phase * np.conj(x.coeffs)
    return AlgebraElement(s, coeffs)


def counit_apply(x: AlgebraElement) -> complex:
    """eta^dag(x) = <eta, x>; equals sum_i n_i Tr(x_i) on matrix blocks."""
    return complex(np.vdot(x.set.unit_vec, x.coeffs))


def left_mult_matrix(x: AlgebraElement) -> np.ndarray:
    """Matrix of left multiplication by ``x`` on l2(X) (a faithful picture)."""
    s = x.set
    mat = np.zeros((s.N, s.N), dtype=complex)
    np.add.at(mat, (s.mult_out, s.mult_right), s.mult_val * x.coeffs[s.mult_left])
    return mat


def element_from_block_matrices(x_set: QuantumSet, mats: Sequence[np.ndarray]) -> AlgebraElement:
    """Element with block components ``mats`` (matrix-unit coordinates)."""
    if x_set.blocks is None:
        raise InvalidInput("element_from_block_matrices needs a matrix-unit basis")
    if len(mats) != len(x_set.blocks):
        raise InvalidInput("one matrix per block required")
    coeffs = np.zeros(x_set.N, dtype=complex)
    offset = 0
    for n, mat in zip(x_set.blocks, mats):
        mat = np.asarray(mat, dtype=complex)
        if mat.shape != (n, n):
            raise InvalidInput(f"block matrix has shape {mat.shape}, expected ({n}, {n})")
        # e_ab = sqrt(n) * (orthonormal basis vector)
        coeffs[offset:offset + n * n] = math.sqrt(n) * mat.reshape(-1)
        offset += n * n
    return AlgebraElement(x_set, coeffs)


def element_to_block_matrices(x: AlgebraElement) -> list[np.ndarray]:
    if x.set.blocks is None:
        raise InvalidInput("element_to_block_matrices needs a matrix-unit basis")
    mats = []
    offset = 0
    for n in x.set.blocks:
        mats.append(x.coeffs[offset:offset + n * n].reshape(n, n) / math.sqrt(n))
        offset += n * n
    return mats


# ---------------------------------------------------------------------------
# sparse tensor identities
# ---------------------------------------------------------------------------


def _join(ja: np.ndarray, jb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (ia, ib) with ja[ia] == jb[ib]: ia ascending, ib stable per key."""
    order_b = np.argsort(jb, kind="stable")
    sb = jb[order_b]
    lo = np.searchsorted(sb, ja, side="left")
    count = np.searchsorted(sb, ja, side="right") - lo
    # pair p of index i takes the (p - first pair of i)-th b of its key run
    skip = np.repeat(lo - (np.cumsum(count) - count), count)
    return np.repeat(np.arange(ja.size), count), order_b[np.arange(skip.size) + skip]


def _coo_max_diff(keys1, vals1, keys2, vals2) -> float:
    """Max |entry| of the difference of two COO tensors over the key union."""
    keys = np.concatenate([keys1, keys2])
    vals = np.concatenate([vals1, -np.asarray(vals2)])
    if keys.size == 0:
        return 0.0
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    vals = vals[order]
    starts = np.concatenate([[0], np.flatnonzero(np.diff(keys)) + 1])
    sums = np.add.reduceat(vals, starts)
    return float(np.abs(sums).max())


def verify_frobenius(x: QuantumSet, tol: Optional[float] = None) -> Report:
    """Numerically verify that the stored tensors form a special symmetric
    Frobenius algebra with counit of the unit equal to N.

    Works entirely on the sparse representation, so it is usable for both
    matrix-block and deformed group-algebra sets.
    """
    tol = x.tol if tol is None else tol
    n = x.N
    out, lft, rgt, val = x.mult_out, x.mult_left, x.mult_right, x.mult_val
    f = x.dense_star()
    scale = scale_of(val, x.star_phase, x.unit_vec)
    checks: list[Check] = []

    def record(name: str, residual: float) -> None:
        checks.append(Check(name, residual <= tol * scale, float(residual)))

    def pack2(i, j):
        return i * n + j

    def pack3(i, j, k):
        return (i * n + j) * n + k

    def pack4(i, j, k, l):
        return ((i * n + j) * n + k) * n + l

    # (a) specialness: m m^dag = id
    ia, ib = _join(pack2(lft, rgt), pack2(lft, rgt))
    mm = np.zeros((n, n), dtype=complex)
    np.add.at(mm, (out[ia], out[ib]), val[ia] * np.conj(val[ib]))
    record("specialness_mmdag", max_abs(mm - np.eye(n)))

    # (b) Frobenius law, both equalities against m^dag m
    ia, ib = _join(out, out)
    rhs_k = pack4(lft[ib], rgt[ib], lft[ia], rgt[ia])
    rhs_v = val[ia] * np.conj(val[ib])
    ia, ib = _join(rgt, lft)
    l1_k = pack4(out[ia], rgt[ib], lft[ia], out[ib])
    l1_v = val[ia] * np.conj(val[ib])
    record("frobenius_law_left", _coo_max_diff(l1_k, l1_v, rhs_k, rhs_v))
    ia, ib = _join(rgt, lft)
    l2_k = pack4(lft[ia], out[ib], out[ia], rgt[ib])
    l2_v = np.conj(val[ia]) * val[ib]
    record("frobenius_law_right", _coo_max_diff(l2_k, l2_v, rhs_k, rhs_v))

    # (c) snake identities for the duality R
    record("snake_left", max_abs(f.conj() @ f - np.eye(n)))
    snake_right = max_abs(f @ f.conj() - np.eye(n))  # also the involutive star
    record("snake_right", snake_right)

    # (d) comultiplication and multiplication recovered from R, whose one
    # entry per row k is R^{k, star_src[k]} = star_phase[k]
    rr, rc, rv = np.arange(n), x.star_src, x.star_phase
    mdag_k = pack3(lft, rgt, out)
    mdag_v = np.conj(val)
    ia, ib = _join(lft, rc)  # sum_l R^{kl} m^p_{la}
    record("comult_from_r_left", _coo_max_diff(
        pack3(rr[ib], out[ia], rgt[ia]), val[ia] * rv[ib], mdag_k, mdag_v))
    ia, ib = _join(rgt, rr)  # sum_k m^p_{ak} R^{kl}
    record("comult_from_r_right", _coo_max_diff(
        pack3(out[ia], rc[ib], lft[ia]), val[ia] * rv[ib], mdag_k, mdag_v))
    m_k = pack3(out, lft, rgt)
    ia, ib = _join(lft, rc)  # sum_r conj(R^{ar} m^b_{rs})
    record("mult_from_r_left", _coo_max_diff(
        pack3(rgt[ia], rr[ib], out[ia]), np.conj(val[ia] * rv[ib]), m_k, val))
    ia, ib = _join(rgt, rr)  # sum_s conj(m^a_{rs} R^{sb})
    record("mult_from_r_right", _coo_max_diff(
        pack3(lft[ia], out[ia], rc[ib]), np.conj(val[ia] * rv[ib]), m_k, val))

    # (e) unit laws
    left_unit = np.zeros((n, n), dtype=complex)
    np.add.at(left_unit, (out, rgt), val * x.unit_vec[lft])
    record("unit_left", max_abs(left_unit - np.eye(n)))
    right_unit = np.zeros((n, n), dtype=complex)
    np.add.at(right_unit, (out, lft), val * x.unit_vec[rgt])
    record("unit_right", max_abs(right_unit - np.eye(n)))

    # (f) symmetric duality, (g) involutive star
    record("duality_symmetric", max_abs(f - f.T))
    record("star_involutive", snake_right)

    # (h) associativity
    ia, ib = _join(out, lft)
    al_k = pack4(out[ib], lft[ia], rgt[ia], rgt[ib])
    al_v = val[ia] * val[ib]
    ia, ib = _join(out, rgt)
    ar_k = pack4(out[ib], lft[ib], lft[ia], rgt[ia])
    ar_v = val[ia] * val[ib]
    record("associativity", _coo_max_diff(al_k, al_v, ar_k, ar_v))

    # (i) counit of the unit counts vertices
    record("vertex_count", abs(np.vdot(x.unit_vec, x.unit_vec) - n))

    # counit compatibility: eta^dag m = R^dag
    pair = np.zeros((n, n), dtype=complex)
    np.add.at(pair, (lft, rgt), val * np.conj(x.unit_vec[out]))
    record("pairing_from_counit", max_abs(pair - f.conj()))

    return Report(checks=checks, tol=tol)


# ---------------------------------------------------------------------------
# homomorphisms and positivity
# ---------------------------------------------------------------------------


def check_star_homomorphism(f: Operator, tol: Optional[float] = None) -> Report:
    """Check that ``f`` is multiplicative, unital and *-preserving.

    Multiplicativity is the tensor identity f m_X = m_Y (f (x) f); the
    *-condition is checked on the basis as f(e_k^*) = f(e_k)^*, which is
    equivalent to the adjoint formulation.
    """
    dom, cod = f.domain, f.codomain
    tol = dom.tol if tol is None else tol
    if max(dom.N, cod.N) > DENSE_LIMIT:
        raise ResourceLimit("homomorphism check limited to N <= %d" % DENSE_LIMIT)
    mx = dom.dense_mult()
    my = cod.dense_mult()
    fm = f.matrix
    scale = scale_of(fm, mx.reshape(dom.N, -1))
    checks = []

    lhs = np.einsum("yp,prs->yrs", fm, mx)
    t = np.einsum("quv,ur->qrv", my, fm)
    rhs = np.einsum("qrv,vs->qrs", t, fm)
    res_mult = max_abs(lhs - rhs)
    checks.append(Check("multiplicative", res_mult <= tol * scale, res_mult))

    res_unit = max_abs(fm @ dom.unit_vec - cod.unit_vec)
    checks.append(Check("unital", res_unit <= tol * scale, res_unit))

    # column k holds f(e_k^*) and f(e_k)^*, both read at rows star_src of Y
    image_of_star = fm[:, dom.star_src] * dom.star_phase
    res_star = max_abs(image_of_star[cod.star_src] - cod.star_phase[:, None] * np.conj(fm))
    checks.append(Check("star_preserving", res_star <= tol * scale, res_star))
    return Report(checks=checks, tol=tol)


def is_positive_element(rep: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """Positivity of an algebra element given by a faithful matrix picture."""
    rep = np.asarray(rep, dtype=complex)
    scale = scale_of(rep)
    if max_abs(rep - rep.conj().T) > tol * scale:
        return False
    lam, _ = hermitian_eigs(rep, tol=tol)
    if lam.size == 0:
        return True
    return bool(lam[0] >= -tol * scale)


def element_is_positive(x: AlgebraElement, tol: Optional[float] = None) -> bool:
    """Positivity of an abstract element via its left regular representation."""
    tol = x.set.tol if tol is None else tol
    return is_positive_element(left_mult_matrix(x), tol=tol)


def random_element(x_set: QuantumSet, rng: np.random.Generator) -> AlgebraElement:
    coeffs = rng.standard_normal(x_set.N) + 1j * rng.standard_normal(x_set.N)
    return AlgebraElement(x_set, coeffs)


def random_positive_element(x_set: QuantumSet, rng: np.random.Generator) -> AlgebraElement:
    x = random_element(x_set, rng)
    return algebra_multiply(algebra_star(x), x)

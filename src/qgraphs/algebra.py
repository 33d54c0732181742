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
  (out, left, right, value).  Both builders give each (left, right) pair at
  most one entry, in (left, right) order with each left index's right
  indices in one contiguous run, so an entry is found from its pair by index
  arithmetic.  Only ``QuantumSet.dense_mult`` densifies m, for the generic
  Schur product of :mod:`qgraphs.graphs` and the Weyl transport, and it
  refuses N above ``DENSE_LIMIT``.
* The star sends each basis vector to a phase times another basis vector
  (``e_ab^* = e_ba``, ``tau_mu^* = c_mu tau_{-mu}``), so the duality R is a
  signed permutation and is stored as one: two length-N arrays with
  ``e_k^* = star_phase[k] e_{star_src[k]}``.  A set therefore holds
  O(N + nonzeros of m) numbers; no N x N array is kept.

``verify_frobenius`` re-derives all the defining identities (specialness,
Frobenius law, snake identities, unit laws, symmetry, involutivity,
associativity) numerically from the stored tensors, so a set object that
passes it is a valid special symmetric Frobenius algebra regardless of how
it was built.  It enumerates the N^3 terms of associativity and the
Frobenius law in fixed-size chunks, finding each term's partner on the
other side by lookup, and holds O(N + nnz(m)) numbers beside the set.  A
set whose m breaks the layout (an index outside range(N), or two entries
for one (left, right) pair) fails instead.
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
    _dense_mult: Optional[np.ndarray] = field(default=None, init=False, repr=False, compare=False)

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

#: terms per chunk when an N^3 identity enumerates its terms
_CHUNK = 1 << 14

#: the checks of verify_frobenius, in report order
_CHECKS = (
    "specialness_mmdag", "frobenius_law_left", "frobenius_law_right", "snake_left",
    "snake_right", "comult_from_r_left", "comult_from_r_right", "mult_from_r_left",
    "mult_from_r_right", "unit_left", "unit_right", "duality_symmetric",
    "star_involutive", "associativity", "vertex_count", "pairing_from_counit",
)


class _Entries:
    """The entries of m, each found from its (left, right) pair by index arithmetic.

    Row l holds the entries with left index l: the entry with right index r
    is ``slot[base[l] + r - lo[l]]`` for ``0 <= r - lo[l] < span[l]``.  Index
    ``k`` = nnz(m) stands for "no entry": its output and indices are -1 and
    its value 0, so it matches no output, and row -1 (the last one) is empty,
    so a lookup in the row of a missing entry's output misses too.  Both set
    builders give ``span == cnt`` and ``slot == arange(k)``.
    """

    def __init__(self, x: QuantumSet, order: np.ndarray):
        n, k = x.N, x.mult_val.size
        self.n, self.k = n, k
        self.out, self.lft, self.rgt = (np.append(a.astype(np.int64), -1) for a in
                                        (x.mult_out, x.mult_left, x.mult_right))
        self.val = np.append(x.mult_val, 0)
        lft, rgt = x.mult_left, x.mult_right
        cnt = np.bincount(lft, minlength=n)
        first = np.cumsum(cnt) - cnt  # a row's first and last entries in (left, right) order
        full = cnt > 0
        lo = np.where(full, rgt[order[np.minimum(first, k - 1)]], 0)
        hi = np.where(full, rgt[order[np.maximum(first + cnt - 1, 0)]], -1)
        span = hi - lo + 1
        self.lo, self.span = np.append(lo, 0), np.append(span, 0)
        self.base = np.append(np.cumsum(span) - span, span.sum())
        self.slot = np.full(span.sum() + 1, k, dtype=np.int64)
        self.slot[self.base[lft] + rgt - lo[lft]] = np.arange(k)
        self.pre = np.bincount(x.mult_out, minlength=n)  # entries per output

    @classmethod
    def of(cls, x: QuantumSet) -> Optional["_Entries"]:
        """The index, or None when indices leave range(N) or a (left, right) pair has two entries."""
        k = x.mult_val.shape[0] if x.mult_val.ndim == 1 else -1
        idx = (x.mult_out, x.mult_left, x.mult_right)
        if k <= 0 or any(a.dtype.kind != "i" or a.shape != (k,) for a in idx):
            return None
        if any(a.min() < 0 or a.max() >= x.N for a in idx):
            return None
        pair = x.mult_left.astype(np.int64) * x.N + x.mult_right
        order = np.argsort(pair, kind="stable")
        if np.any(pair[order[1:]] == pair[order[:-1]]):
            return None
        return cls(x, order)

    def at(self, l: np.ndarray, r: np.ndarray) -> np.ndarray:
        """The entry at (l, r), or k where there is none."""
        t = r - self.lo[l]
        hit = t.view(np.uint64) < self.span[l].view(np.uint64)  # 0 <= t < span
        return self.slot[np.where(hit, self.base[l] + t, -1)]

    def row(self, p: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The t-th slot of row p (t < span[p]) and its right index."""
        return self.slot[self.base[p] + t], self.lo[p] + t

    def by_output(self) -> tuple[np.ndarray, np.ndarray]:
        """Entries grouped by output, and where each output's group starts."""
        return np.argsort(self.out[:-1], kind="stable"), np.cumsum(self.pre) - self.pre


def _expand(counts: np.ndarray, chunk: int = _CHUNK):
    """Yield (item, offset) arrays with offset < counts[item], item-major,
    in chunks of at most ``chunk`` pairs (or one item's, if more)."""
    ends = np.cumsum(counts)
    i0 = 0
    while i0 < counts.size:
        base = ends[i0] - counts[i0]
        i1 = max(i0 + 1, int(np.searchsorted(ends, base + chunk, side="right")))
        item = np.repeat(np.arange(i0, i1), counts[i0:i1])
        start = np.repeat(ends[i0:i1] - counts[i0:i1] - base, counts[i0:i1])
        yield item, np.arange(item.size) - start
        i0 = i1


def _gap(v: np.ndarray, w: np.ndarray, hit: np.ndarray) -> float:
    """Largest |v - w| where the other side has term w at the same key, |v| where it has none."""
    d = v - w
    np.copyto(d, v, where=~hit)  # a complex np.where is several times slower
    return float(np.abs(d).max(initial=0.0))


def _associativity(e: _Entries) -> float:
    """Residual of (e_a e_b) e_c = e_a (e_b e_c) over every key (o, a, b, c) of either side.

    A side has at most one term per key, since a (left, right) pair has at
    most one entry.  The right side is enumerated only when some of its terms
    found no partner.
    """
    out, lft, rgt, val = e.out, e.lft, e.rgt, e.val
    worst, matched = 0.0, 0
    for i, t in _expand(e.span[out[:-1]]):  # i = (a, b -> p), j = (p, c -> o)
        j, c = e.row(out[i], t)
        i2 = e.at(rgt[i], c)  # i2 = (b, c -> q), j2 = (a, q -> o)
        j2 = e.at(lft[i], out[i2])
        hit = (out[j2] == out[j]) & (out[j] >= 0)
        worst = max(worst, _gap(val[i] * val[j], val[i2] * val[j2], hit))
        matched += int(np.count_nonzero(hit))
    counts = e.pre[rgt[:-1]]
    if matched < counts.sum():
        by_out, start = e.by_output()
        for j2, t in _expand(counts):
            i2 = by_out[start[rgt[j2]] + t]
            i = e.at(lft[j2], lft[i2])
            j = e.at(out[i], rgt[i2])
            worst = max(worst, _gap(val[i2] * val[j2], val[i] * val[j], out[j] == out[j2]))
    return worst


def _frobenius_law(e: _Entries) -> float:
    """Residual of (m (x) id)(id (x) m^dag) = m^dag m over every key (a, b, c, d) of either side.

    Left side: i = (c, k -> a), j = (k, b -> d), value m_i conj(m_j).  Right
    side: P = (c, d -> o), Q = (a, b -> o), value m_P conj(m_Q), at most one
    per key.  Left terms share a key only when two entries of one row share
    an output (a *crowded* row, as a misrouted entry makes); such a key's
    left terms in entry order and its negated right term are summed by
    np.add.reduceat, which is the sum a sort of both sides' terms by key
    gives.  The right side is enumerated only when some of its terms found
    no partner.
    """
    n = e.n
    out, lft, rgt, val = e.out, e.lft, e.rgt, e.val
    key = lft[:-1] * n + out[:-1]  # entries sharing a row and an output form a class
    corder = np.argsort(key, kind="stable")  # classes in turn, each in entry order
    skey = key[corder]
    cls_head = np.searchsorted(skey, key)
    cls_size = np.searchsorted(skey, key, side="right") - cls_head
    widest = int(cls_size.max())

    def members(head, size, b):
        """A class's members (from its first position in corder) and each one's term with right index b."""
        tt = np.arange(widest)
        valid = tt < size[:, None]
        m = corder[np.where(valid, head[:, None] + tt, 0)]
        return valid, m, e.at(rgt[m], b[:, None])

    worst, matched = 0.0, 0
    for i, t in _expand(e.span[rgt[:-1]]):
        j, b = e.row(rgt[i], t)
        d = out[j]
        p, q = e.at(lft[i], d), e.at(out[i], b)
        hit = (out[p] == out[q]) & (out[p] >= 0)
        lv, rv = val[i] * np.conj(val[j]), val[p] * np.conj(val[q])
        crowd = cls_size[i] > 1
        if widest > 1 and crowd.any():
            solo = ~crowd
            worst = max(worst, _gap(lv[solo], rv[solo], hit[solo]))
            matched += int(np.count_nonzero(hit & solo))
            for s in np.array_split(np.flatnonzero(crowd), -(-crowd.sum() * widest // _CHUNK)):
                valid, m, j2 = members(cls_head[i[s]], cls_size[i[s]], b[s])
                same = valid & (out[j2] == d[s, None]) & (d[s, None] >= 0)
                lead = (d[s] >= 0) & ~(same & (m < i[s, None])).any(axis=1)
                terms = np.concatenate([val[m] * np.conj(val[j2]), -rv[s, None]], axis=1)
                mask = np.concatenate([same, hit[s, None]], axis=1)[lead]
                width = mask.sum(axis=1)
                sums = np.add.reduceat(terms[lead][mask], np.cumsum(width) - width)
                worst = max(worst, float(np.abs(sums).max(initial=0.0)))
                matched += int(np.count_nonzero(hit[s][lead]))
        else:
            worst = max(worst, _gap(lv, rv, hit))
            matched += int(np.count_nonzero(hit))
    if matched < (e.pre * e.pre).sum():  # right-side terms without a partner
        by_out, start = e.by_output()
        for p, t in _expand(e.pre[out[:-1]], max(1, _CHUNK // widest)):
            q = by_out[start[out[p]] + t]
            c, a = lft[p], lft[q]
            head = np.searchsorted(skey, c * n + a)
            size = np.searchsorted(skey, c * n + a, side="right") - head
            valid, _, j = members(head, size, rgt[q])
            found = (valid & (out[j] == rgt[p][:, None])).any(axis=1)
            rv = val[p] * np.conj(val[q])
            worst = max(worst, float(np.abs(rv[~found]).max(initial=0.0)))
    return worst


def verify_frobenius(x: QuantumSet, tol: Optional[float] = None) -> Report:
    """Numerically verify that the stored tensors form a special symmetric
    Frobenius algebra with counit of the unit equal to N.

    Layout precondition on m: its indices lie in range(N) and each (left,
    right) pair has at most one entry, in any order.  Both set builders
    store m so, in (left, right) order with each left index's right indices
    in one contiguous run.  A term of one side of an identity then finds its
    partner on the other side by index arithmetic, and each residual, the
    largest |LHS - RHS| over the keys of either side, is bit for bit what
    summing each key over the sorted union of both sides' terms gives.  A set
    whose m breaks the layout fails every check that reads m, with residual
    inf: it never passes.

    Cost: associativity and the Frobenius law enumerate their N^3 terms in
    chunks of ``_CHUNK``, and the check holds O(N + nnz(m)) numbers beside
    the set (plus one slot per missing right index inside a row's run, none
    for the builders' sets).  The star, duality, unit and counit checks read
    ``star_src``/``star_phase`` and the entries of m; no N x N array is built.
    """
    tol = x.tol if tol is None else tol
    n = x.N
    src, ph = x.star_src, x.star_phase
    scale = scale_of(x.mult_val, ph, x.unit_vec)
    res = dict.fromkeys(_CHECKS, math.inf)

    # (c) snake identities for the duality R: (conj R R)^k_l is
    # conj(ph_k) ph_{src k} at l = src src k, and (R conj R)^k_l its conjugate;
    # (g) the star is involutive when the right one holds
    back = src[src] == np.arange(n)  # e_k^** is a multiple of e_k

    def snake(v: np.ndarray) -> float:
        return float(np.where(back, np.abs(v - 1), np.maximum(np.abs(v), 1.0)).max())

    res["snake_left"] = snake(np.conj(ph) * ph[src])
    res["snake_right"] = res["star_involutive"] = snake(ph * np.conj(ph[src]))
    # (f) symmetric duality: R - R^T is ph_k - ph_{src k} at (k, src k), and -ph_l there too
    res["duality_symmetric"] = max_abs(ph - np.where(back, ph[src], 0))
    # (i) counit of the unit counts vertices
    res["vertex_count"] = abs(np.vdot(x.unit_vec, x.unit_vec) - n)

    e = _Entries.of(x)
    if e is not None:
        out, lft, rgt, val = x.mult_out, x.mult_left, x.mult_right, x.mult_val

        # (a) specialness: m m^dag = id; (m m^dag)^o_o' pairs the entries at one
        # (left, right), so it is diagonal with sum |m^o_lr|^2 at (o, o)
        w = val * np.conj(val)
        res["specialness_mmdag"] = max_abs(
            np.bincount(out, w.real, n) + 1j * np.bincount(out, w.imag, n) - 1)

        # (b) Frobenius law; the right equality is the adjoint of the left one,
        # so its residual is the same number
        res["frobenius_law_left"] = res["frobenius_law_right"] = _frobenius_law(e)

        # (d) comultiplication and multiplication recovered from R, whose one
        # entry per row k is R^{k, src k} = ph_k.  Each mult_from_r identity is
        # the conjugate of its comult_from_r one, term for term.
        inv = np.argsort(src)
        fwd = e.at(inv[lft], out)  # sum_l R^{kl} m^p_{la} at (k, p, a) against conj m^a_{kp}
        rev = e.at(src[lft], out)
        res["comult_from_r_left"] = res["mult_from_r_left"] = max(
            _gap(val * ph[inv[lft]], np.conj(e.val[fwd]), e.out[fwd] == rgt),
            _gap(np.conj(val), e.val[rev] * ph[lft], e.out[rev] == rgt))
        fwd = e.at(out, src[rgt])  # sum_k m^p_{ak} R^{kl} at (p, l, a) against conj m^a_{pl}
        rev = e.at(out, inv[rgt])
        res["comult_from_r_right"] = res["mult_from_r_right"] = max(
            _gap(val * ph[rgt], np.conj(e.val[fwd]), e.out[fwd] == lft),
            _gap(np.conj(val), e.val[rev] * ph[inv[rgt]], e.out[rev] == lft))

        # (e) unit laws: sum_l unit_l m^o_{lr} = delta_or and its mirror image
        res["unit_left"] = _unit_law(n, out, rgt, val * x.unit_vec[lft])
        res["unit_right"] = _unit_law(n, out, lft, val * x.unit_vec[rgt])

        # (h) associativity
        res["associativity"] = _associativity(e)

        # counit compatibility: eta^dag m = R^dag; the pairing has one term
        # per entry, conj R one per row k at (k, src k)
        w = val * np.conj(x.unit_vec[out])
        res["pairing_from_counit"] = max(_gap(w, np.conj(ph[lft]), rgt == src[lft]),
                                         max_abs(ph[e.at(np.arange(n), src) == e.k]))

    checks = [Check(name, r <= tol * scale, r) for name, r in
              ((name, float(res[name])) for name in _CHECKS)]
    return Report(checks=checks, tol=tol)


def _unit_law(n: int, rows: np.ndarray, cols: np.ndarray, w: np.ndarray) -> float:
    """max |M - I| over the N x N matrix M summing the terms (rows, cols, w).

    Only terms with w != 0 make keys: the rest add zeros."""
    keep = w != 0
    keys, key_of = np.unique(rows[keep] * n + cols[keep], return_inverse=True)
    w = w[keep]
    sums = np.bincount(key_of, w.real, keys.size) + 1j * np.bincount(key_of, w.imag, keys.size)
    diag = keys // n == keys % n
    worst = max_abs(sums - diag)
    return max(worst, 1.0) if np.count_nonzero(diag) < n else worst


# ---------------------------------------------------------------------------
# homomorphisms and positivity
# ---------------------------------------------------------------------------


def check_star_homomorphism(f: Operator, tol: Optional[float] = None) -> Report:
    """Check that ``f`` is multiplicative, unital and *-preserving.

    Multiplicativity is f(e_r e_s) = f(e_r) f(e_s) on all N_X^2 basis pairs,
    zero products included, one output q of Y at a time: the left side is
    read off m_X's entries, the right side sums val fm[u, r] fm[v, s] over
    m_Y's entries (u, v -> q).  Neither multiplication tensor is densified.
    The *-condition is checked on the basis as f(e_k^*) = f(e_k)^*, which is
    equivalent to the adjoint formulation.
    """
    dom, cod = f.domain, f.codomain
    tol = dom.tol if tol is None else tol
    fm = f.matrix
    scale = scale_of(fm, dom.mult_val)
    checks = []

    order = np.argsort(cod.mult_out, kind="stable")
    ends = np.cumsum(np.bincount(cod.mult_out, minlength=cod.N))
    res_mult = 0.0
    for q in range(cod.N):
        ent = order[ends[q - 1] if q else 0:ends[q]]
        rhs = (cod.mult_val[ent, None] * fm[cod.mult_left[ent]]).T @ fm[cod.mult_right[ent]]
        lhs = np.zeros((dom.N, dom.N), dtype=complex)
        np.add.at(lhs, (dom.mult_left, dom.mult_right), fm[q, dom.mult_out] * dom.mult_val)
        res_mult = max(res_mult, max_abs(lhs - rhs))
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

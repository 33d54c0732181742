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
* The multiplication tensor ``m`` is stored only as sparse entries, the
  parallel arrays ``QuantumSet.mult`` = (out, left, right, val), derived
  from the set's presentation (its blocks, or its group and bicharacter) on
  first read and then kept.  Its layout: entries in (left, right) order,
  each left index's right indices one contiguous run, and no two entries
  with one left index on one output; so an entry is found from its pair by
  index arithmetic.  Nothing in this package densifies m.
* The star sends each basis vector to a phase times another basis vector
  (``e_ab^* = e_ba``, ``tau_mu^* = c_mu tau_{-mu}``), so the duality R is a
  signed permutation and is stored as one: two length-N arrays with
  ``e_k^* = star_phase[k] e_{star_src[k]}``.  A set therefore holds
  O(N) numbers until m is read and O(N + nonzeros of m) after; no N x N
  array is kept.
* A set holds no tolerance.  Each check takes the one it compares with as
  ``tol``, default ``DEFAULT_TOL``.

``verify_frobenius`` re-derives all the defining identities (specialness,
Frobenius law, snake identities, unit laws, symmetry, involutivity, the
star reversing products (ab)* = b*a*, associativity) numerically from the
stored tensors, so a set object that passes it is a valid special symmetric
Frobenius algebra with a star regardless of how it was built.  On a
twisted set whose m is the one its group and bicharacter derive,
associativity and the Frobenius law follow from bilinearity, and their
residuals are bounded from the bicharacter's roots of unity alone.  On any
other set it enumerates the N^3 terms of both identities in fixed-size
chunks, finding each term's partner on the other side by lookup.  Either
way it holds O(N + nnz(m)) numbers beside the set.  A set whose m has an
index outside range(N) or leaves the layout fails every check that reads m,
with residual inf.
"""

from __future__ import annotations

import collections
import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from .errors import InvalidInput, ResourceLimit
from .kernels import hermitian_eigs, max_abs, scale_of, unit_roots

if TYPE_CHECKING:  # pragma: no cover
    from .groups import AbelianGroup, Bicharacter

DEFAULT_TOL = 1e-9
#: largest N for which the generic Schur product of graphs is computed
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


#: the entries of m, int64[k] x 3 and complex128[k]: e_left e_right has val on e_out
Mult = collections.namedtuple("Mult", "out left right val")


@dataclass(eq=False)
class QuantumSet:
    """A finite quantum set: its presentation, unit and star.

    ``blocks`` is set when the orthonormal basis consists of scaled matrix
    units, block-ordered and row-major; it is None for deformed group
    algebras, whose basis is indexed by group elements instead and which
    carry their ``group`` and ``bicharacter``.  All operations that need no
    block data work on either kind.

    The star is the signed permutation ``e_k^* = star_phase[k]
    e_{star_src[k]}``; construction refuses a ``star_src`` that is not a
    permutation of ``range(N)``.  The multiplication ``mult`` is derived
    from the presentation on first read and then kept, so a set holds O(N)
    numbers until m is read and O(N + nonzeros of m) after.
    """

    blocks: Optional[tuple[int, ...]]
    N: int
    unit_vec: np.ndarray  # complex128[N]
    star_src: np.ndarray  # int64[N]; e_k^* = star_phase[k] e_{star_src[k]}
    star_phase: np.ndarray  # complex128[N]
    group: Optional["AbelianGroup"] = None
    bicharacter: Optional["Bicharacter"] = None

    def __post_init__(self) -> None:
        src = self.star_src
        if (src.dtype.kind not in "iu" or src.shape != (self.N,)
                or self.star_phase.shape != (self.N,)
                or not np.array_equal(np.sort(src), np.arange(self.N))):
            raise InvalidInput(f"star source is not a permutation of the {self.N} basis slots")
        for a in (self.unit_vec, self.star_src, self.star_phase):
            _readonly(a)

    @functools.cached_property
    def mult(self) -> Mult:
        """The entries of m, read-only, derived from the presentation.

        On blocks, (i,a,b)(i,b,d) -> (i,a,d) with weight 1/sqrt(n_i), ordered
        by block, then (a, b, d) row-major.  On a group with bicharacter
        sigma, b_mu b_nu = conj(sigma(mu,nu)) b_{mu+nu} / sqrt(N), one entry
        per ordered pair (mu, nu) in row-major order: the addition and
        bicharacter tables raveled.
        """
        return Mult(*map(_readonly, _derive_mult(self)))

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


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def build_quantum_set(blocks: Sequence[int]) -> QuantumSet:
    """Quantum set for the algebra M_{n_1} + ... + M_{n_a}.

    In the orthonormal basis e_ab / sqrt(n) the unit has entry sqrt(n_i) at
    each diagonal slot and the star sends (i,a,b) to (i,b,a) with phase 1;
    the multiplication is derived on first read of ``mult``.
    """
    blocks = tuple(int(n) for n in blocks)
    if len(blocks) == 0:
        raise InvalidInput("block list must be nonempty")
    if any(n <= 0 for n in blocks):
        raise InvalidInput(f"block sizes must be positive, got {blocks}")
    admit_dimension(sum(n * n for n in blocks))

    o, n, t = _block_grid(blocks, 2)  # slot (a, b) of its block: t = a n + b
    a, b = t // n, t % n
    return QuantumSet(
        blocks=blocks,
        N=t.size,
        unit_vec=np.where(a == b, np.sqrt(n), 0.0).astype(complex),
        star_src=o + b * n + a,
        star_phase=np.ones(a.size, dtype=complex),
    )


def _derive_mult(x: QuantumSet) -> tuple[np.ndarray, ...]:
    """The arrays of ``x.mult``, derived anew from the presentation."""
    if x.blocks is not None:
        o, n, t = _block_grid(x.blocks, 3)  # entry (a, b, d): t = (a n + b) n + d
        return (o + t // (n * n) * n + t % n, o + t // n, o + t % (n * n),
                (1.0 / np.sqrt(n)).astype(complex))
    r = np.arange(x.N, dtype=np.int64)
    return (x.group.addition_table().ravel(), np.repeat(r, x.N), np.tile(r, x.N),
            np.conj(x.bicharacter.table().ravel()) / math.sqrt(x.N))


def _block_grid(blocks: tuple[int, ...], power: int):
    """(block offset, block size, local index) of the n_i^power indices of each block."""
    sizes = np.asarray(blocks, dtype=np.int64)
    slots, counts = sizes * sizes, sizes ** power
    n = np.repeat(sizes, counts)
    t = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    return np.repeat(np.cumsum(slots) - slots, counts), n, t


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
    m = s.mult
    w = m.val * x.coeffs[m.left] * y.coeffs[m.right]
    return AlgebraElement(s, _scatter_accumulate(m.out, w, s.N))


def algebra_star(x: AlgebraElement) -> AlgebraElement:
    """The *-operation: c_k e_k goes to conj(c_k) star_phase[k] e_{star_src[k]}."""
    s = x.set
    coeffs = np.empty(s.N, dtype=complex)
    coeffs[s.star_src] = s.star_phase * np.conj(x.coeffs)
    return AlgebraElement(s, coeffs)


def left_mult_matrix(x: AlgebraElement) -> np.ndarray:
    """Matrix of left multiplication by ``x`` on l2(X) (a faithful picture)."""
    s, m = x.set, x.set.mult
    mat = np.zeros((s.N, s.N), dtype=complex)
    np.add.at(mat, (m.out, m.right), m.val * x.coeffs[m.left])
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
    "mult_from_r_right", "unit_left", "unit_right", "duality_symmetric", "star_involutive",
    "associativity", "vertex_count", "pairing_from_counit", "star_antimultiplicative",
)


class _Entries:
    """The entries of m in the layout ``QuantumSet.mult`` derives, each found
    from its (left, right) pair by index arithmetic.

    The layout: entries in (left, right) order, so row l (the entries with
    left index l) starts at entry ``first[l]``; its right indices are one
    contiguous run ``lo[l], ..., lo[l] + cnt[l] - 1``; and no two entries of
    one row share an output.  Index ``k`` = nnz(m) stands for "no entry":
    its output and indices are -1 and its value 0, so it matches no output,
    and row -1 (the last one) is empty, so a lookup in the row of a missing
    entry's output misses too.  ``skey`` holds the keys left N + out in
    sorted order and ``corder`` their entries.
    """

    def __init__(self, x: QuantumSet):
        m = x.mult
        n, k = x.N, m.val.size
        self.n, self.k = n, k
        self.out, self.lft, self.rgt = (np.append(a.astype(np.int64), -1) for a in
                                        (m.out, m.left, m.right))
        self.val = np.append(m.val, 0)
        cnt = np.bincount(m.left, minlength=n)
        first = np.cumsum(cnt) - cnt
        self.cnt, self.first = np.append(cnt, 0), np.append(first, k)
        self.lo = np.append(np.where(cnt > 0, self.rgt[np.minimum(first, k - 1)], 0), 0)
        self.pre = np.bincount(m.out, minlength=n)  # entries per output
        key = self.lft[:-1] * n + self.out[:-1]
        self.corder = np.argsort(key, kind="stable")
        self.skey = key[self.corder]

    @classmethod
    def of(cls, x: QuantumSet) -> Optional["_Entries"]:
        """The index, or None when indices leave range(N) or m breaks the layout."""
        m = x.mult
        k = m.val.shape[0] if m.val.ndim == 1 else -1
        idx = (m.out, m.left, m.right)
        if k <= 0 or any(a.dtype.kind != "i" or a.shape != (k,) for a in idx):
            return None
        if any(a.min() < 0 or a.max() >= x.N for a in idx):
            return None
        e = cls(x)
        # every entry is found at its own index only in (left, right) order,
        # with contiguous runs and one entry per pair
        in_order = np.array_equal(e.at(e.lft[:-1], e.rgt[:-1]), np.arange(k))
        return e if in_order and not np.any(e.skey[1:] == e.skey[:-1]) else None

    def at(self, l: np.ndarray, r: np.ndarray) -> np.ndarray:
        """The entry at (l, r), or k where there is none."""
        t = r - self.lo[l]
        hit = t.view(np.uint64) < self.cnt[l].view(np.uint64)  # 0 <= t < cnt
        return np.where(hit, self.first[l] + t, self.k)

    def row(self, p: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The t-th entry of row p (t < cnt[p]) and its right index."""
        return self.first[p] + t, self.lo[p] + t

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
    for i, t in _expand(e.cnt[out[:-1]]):  # i = (a, b -> p), j = (p, c -> o)
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
    side: P = (c, d -> o), Q = (a, b -> o), value m_P conj(m_Q).  Each side
    has at most one term per key, since no two entries of one row share an
    output.  The right side is enumerated only when some of its terms found
    no partner; each one's left term is the entry of row c on output a.
    """
    n = e.n
    out, lft, rgt, val = e.out, e.lft, e.rgt, e.val
    worst, matched = 0.0, 0
    for i, t in _expand(e.cnt[rgt[:-1]]):
        j, b = e.row(rgt[i], t)
        d = out[j]
        p, q = e.at(lft[i], d), e.at(out[i], b)
        hit = (out[p] == out[q]) & (out[p] >= 0)
        lv, rv = val[i] * np.conj(val[j]), val[p] * np.conj(val[q])
        worst = max(worst, _gap(lv, rv, hit))
        matched += int(np.count_nonzero(hit))
    if matched < (e.pre * e.pre).sum():  # right-side terms without a partner
        by_out, start = e.by_output()
        for p, t in _expand(e.pre[out[:-1]]):
            q = by_out[start[out[p]] + t]
            key = lft[p] * n + lft[q]
            s = np.minimum(np.searchsorted(e.skey, key), e.k - 1)
            i = e.corder[s]
            found = (e.skey[s] == key) & (out[e.at(rgt[i], rgt[q])] == rgt[p])
            rv = val[p] * np.conj(val[q])
            worst = max(worst, float(np.abs(rv[~found]).max(initial=0.0)))
    return worst


def _proved_residuals(x: QuantumSet) -> Optional[tuple[float, float]]:
    """Bounds on the residuals of associativity and of the Frobenius law on a twisted
    set, proved from its presentation; None unless m is bit for bit the m the group and
    bicharacter derive and each exponent denominator d_ij divides gcd(n_i, n_j).

    There b_mu b_nu = v_E(mu, nu) b_{mu+nu}, with v_k = conj(zeta^k) / sqrt(N),
    zeta = exp(2 pi i / L) and E(mu, nu) = mu W nu mod L
    (``Bicharacter._exponents``).  As d_ij divides n_i and n_j, n_i W_ij = 0 mod L, so
    E is well defined on the group and bilinear.

    Associativity.  The term of (b_a b_b) b_c has the exponents (E(a, b), E(a + b, c))
    and that of b_a (b_b b_c) on the same b_{a+b+c} has (E(b, c), E(a, b + c)).  By
    bilinearity both pairs sum to E(a, b) + E(a, c) + E(b, c) mod L: this is the
    cocycle identity of sigma.

    Frobenius law.  A left term m(c, k -> a) conj m(k, b -> d) has the key (a, b, c, d)
    with a = c + k and d = k + b.  The right side m(c, d -> o) conj m(a, b -> o) has a
    term at that key, since a + b = c + d, and each right term has its left partner
    k = a - c.  Since |zeta| = 1, v_k1 conj v_k2 depends on k1 - k2 only, and by
    bilinearity E(c, k) - E(k, b) = E(c, d) - E(a, b).

    So each term of either identity compares fl(v_k1 v_k2) (fl(v_k1 conj v_k2)) for two
    exponent pairs with one sum (difference) mod L.  The residual the enumeration
    reports, the largest |fl(p - q)| over its terms, is therefore at most the largest
    diagonal of the box that bounds the products of one class, since rounding is
    monotone: the bound returned.  Every exponent of the table is a multiple of
    g = gcd(L, W), so only those are classed, and the cost is O((L / g)^2), at most
    O(N^2).  When every root is 1, -1, i or -i, the products of one class are equal
    and both bounds are 0.0.
    """
    g, sigma = x.group, x.bicharacter
    if g is None or sigma is None or sigma.group.orders != g.orders or x.N != g.size:
        return None
    den = sigma._exp_den
    orders = np.asarray(g.orders, dtype=np.int64)
    if (den.dtype.kind != "i" or den.shape != (g.rank, g.rank) or not np.all(den > 0)
            or np.any(np.gcd.outer(orders, orders) % den)):
        return None
    for a, b in zip(x.mult, _derive_mult(x)):
        if a.dtype != b.dtype or a.shape != b.shape or a.tobytes() != b.tobytes():
            return None
    lcm, w = sigma._exponents()
    v = np.conj(unit_roots(lcm)[::math.gcd(lcm, *w.ravel().tolist())]) / math.sqrt(x.N)
    return _class_spread(v, v, 1), _class_spread(v, np.conj(v), -1)


def _class_spread(v: np.ndarray, w: np.ndarray, sign: int) -> float:
    """Largest diagonal of the box bounding the products fl(v[j] w[k]) of one class
    j + sign k = s mod M, for chunks of classes at a time."""
    m = v.size
    j = np.arange(m)[:, None]
    step = max(1, _CHUNK // m)
    worst = 0.0
    for s0 in range(0, m, step):
        p = v[:, None] * w[sign * (np.arange(s0, min(m, s0 + step)) - j) % m]  # a class a column
        worst = max(worst, max_abs(np.ptp(p.real, axis=0) + 1j * np.ptp(p.imag, axis=0)))
    return worst


def verify_frobenius(x: QuantumSet, tol: float = DEFAULT_TOL) -> Report:
    """Numerically verify that the stored tensors form a special symmetric
    Frobenius algebra with counit of the unit equal to N, whose star
    reverses products: (ab)* = b*a* on every basis pair.

    Layout precondition on m: its indices lie in range(N), its entries are
    in (left, right) order with each left index's right indices one
    contiguous run, and no two entries with one left index share an output.
    ``QuantumSet.mult`` derives m so from either presentation.  A term of
    one side of an identity then finds its partner on the other side by
    index arithmetic, and each enumerated residual, the largest |LHS - RHS|
    over the keys of either side, is bit for bit what summing each key over
    the sorted union of both sides' terms gives.  Any other m fails every check
    that reads m, with residual inf: it never passes.

    Associativity and the Frobenius law: on a twisted set whose m is bit for
    bit the m its group and bicharacter derive, and whose exponent
    denominators each divide gcd(n_i, n_j), both hold by bilinearity, and
    each reports a bound on the residual its N^3 terms would give, exactly
    0.0 when every root is 1, -1, i or -i (see :func:`_proved_residuals`).
    Any other m, a corrupted one included, has its N^3 terms enumerated in
    chunks of ``_CHUNK``.

    Cost: the check holds O(N + nnz(m)) numbers beside the set.  The star,
    duality, unit, counit and (ab)* = b*a* checks read
    ``star_src``/``star_phase`` and the entries of m; no N x N array is built.
    """
    n = x.N
    src, ph = x.star_src, x.star_phase
    scale = scale_of(x.mult.val, ph, x.unit_vec)
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
        out, lft, rgt, val = x.mult

        # (a) specialness: m m^dag = id; (m m^dag)^o_o' pairs the entries at one
        # (left, right), so it is diagonal with sum |m^o_lr|^2 at (o, o)
        w = val * np.conj(val)
        res["specialness_mmdag"] = max_abs(
            np.bincount(out, w.real, n) + 1j * np.bincount(out, w.imag, n) - 1)

        # (b) Frobenius law and (h) associativity, proved on a twisted set and enumerated
        # on any other; the right equality is the adjoint of the left one, so its
        # residual is the same number
        proved = _proved_residuals(x)
        if proved is None:
            proved = _associativity(e), _frobenius_law(e)
        res["associativity"], res["frobenius_law_left"] = proved
        res["frobenius_law_right"] = res["frobenius_law_left"]

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

        # (j) the star reverses products, (e_l e_r)* = e_r* e_l*: an entry (l, r -> o)
        # gives conj(m) ph_o at (l, r, src o), an entry (src r, src l -> q) gives
        # ph_l ph_r m at (l, r, q); each side has one term per pair (l, r)
        fwd = e.at(src[rgt], src[lft])
        rev = e.at(inv[rgt], inv[lft])
        res["star_antimultiplicative"] = max(
            _gap(np.conj(val) * ph[out], ph[lft] * ph[rgt] * e.val[fwd], e.out[fwd] == src[out]),
            _gap(ph[inv[rgt]] * ph[inv[lft]] * val, np.conj(e.val[rev]) * ph[inv[out]],
                 e.out[rev] == inv[out]))

        # (e) unit laws: sum_l unit_l m^o_{lr} = delta_or and its mirror image
        res["unit_left"] = _unit_law(n, out, rgt, val * x.unit_vec[lft])
        res["unit_right"] = _unit_law(n, out, lft, val * x.unit_vec[rgt])

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


def check_star_homomorphism(f: Operator, tol: float = DEFAULT_TOL) -> Report:
    """Check that ``f`` is multiplicative, unital and *-preserving.

    Multiplicativity is f(e_r e_s) = f(e_r) f(e_s) on all N_X^2 basis pairs,
    zero products included, one output q of Y at a time: the left side is
    read off m_X's entries, the right side sums val fm[u, r] fm[v, s] over
    m_Y's entries (u, v -> q).  Neither multiplication tensor is densified.
    The *-condition is checked on the basis as f(e_k^*) = f(e_k)^*, which is
    equivalent to the adjoint formulation.  Raises InvalidInput when a side of
    f(e_r e_s) = f(e_r) f(e_s) leaves the float range (an entry inf or nan); a
    residual that leaves it fails its check.
    """
    dom, cod = f.domain, f.codomain
    md, mc = dom.mult, cod.mult
    fm = f.matrix
    scale = scale_of(fm, md.val)
    checks = []

    order = np.argsort(mc.out, kind="stable")
    ends = np.cumsum(np.bincount(mc.out, minlength=cod.N))
    res_mult = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for q in range(cod.N):
            ent = order[ends[q - 1] if q else 0:ends[q]]
            rhs = (mc.val[ent, None] * fm[mc.left[ent]]).T @ fm[mc.right[ent]]
            lhs = np.zeros((dom.N, dom.N), dtype=complex)
            np.add.at(lhs, (md.left, md.right), fm[q, md.out] * md.val)
            if not (np.isfinite(lhs).all() and np.isfinite(rhs).all()):
                raise InvalidInput("f(e_r e_s) or f(e_r) f(e_s) leaves the float range")
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

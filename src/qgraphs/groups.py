"""Finite abelian groups, Cayley graphs and bicharacter twists.

The group Z_{n_1} x ... x Z_{n_m} is enumerated in numpy's C order over
``orders`` (row-major over residue tuples): element k is entry k of the
raveled ``np.indices(orders)`` grid, and the per-element tables
(coordinates, indices, negation, addition) are index arithmetic on it.  The
Cayley spectrum lambda_mu = sum_{theta in S} tau_mu(-theta), with the
characters tau_mu(alpha) = prod_i omega_i^{alpha_i mu_i} and
omega_i = exp(2 pi i / n_i), is the FFT (``np.fft.fftn``) of the generator
counts over that grid, the transform ``graphs.edge_spectrum`` inverts.

A unitary bicharacter is stored through its values on the generators,
snapped to exact roots of unity of order dividing gcd(n_i, n_j) (the
well-definedness condition for the multiplicative extension); its N x N
table is one integer matrix product of the coordinates, turned into
phases by a lookup in a root-of-unity table, so order-2 and order-4 values
are exact.  Twisting the function algebra by a bicharacter deforms the
multiplication in the Fourier basis to
``b_mu b_nu = conj(sigma(mu,nu)) b_{mu+nu} / sqrt(N)`` and leaves counit
and Cayley adjacency untouched, which is how the twisted quantum sets and
twisted Cayley graphs below are built: the structure constants are the
addition and bicharacter tables read in row-major order.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .algebra import DEFAULT_TOL, QuantumSet, admit_dimension
from .errors import InvalidInput
from .kernels import unit_root, unit_roots


@dataclass(eq=False)
class AbelianGroup:
    """Z_{n_1} x ... x Z_{n_m} with componentwise arithmetic, elements in C order."""

    orders: tuple[int, ...]

    def __post_init__(self) -> None:
        self.orders = tuple(int(n) for n in self.orders)
        if len(self.orders) == 0 or any(n <= 0 for n in self.orders):
            raise InvalidInput(f"cyclic factor orders must be positive, got {self.orders}")
        admit_dimension(self.size)  # before any table of the elements is built
        if self.rank > 31:  # np.indices(orders) has rank + 1 axes; numpy 1.x allows 32
            raise InvalidInput(f"at most 31 cyclic factors are supported, got {self.rank}")

    @property
    def size(self) -> int:
        return math.prod(self.orders)

    @property
    def rank(self) -> int:
        return len(self.orders)

    def coords(self) -> np.ndarray:
        """The (N, rank) coordinate rows of the elements, in order."""
        return np.indices(self.orders, dtype=np.int64).reshape(self.rank, -1).T

    def index(self, el: Sequence[int]) -> int:
        """Position of the element ``el``, its coordinates taken modulo the orders."""
        if len(el) != self.rank:
            raise InvalidInput(f"element {tuple(el)} has wrong rank for orders {self.orders}")
        return int(np.ravel_multi_index([x % n for x, n in zip(el, self.orders)], self.orders))

    def addition_table(self) -> np.ndarray:
        """table[i, j] = index(el_i + el_j), built anew on each call.

        Built one cyclic factor at a time: row-major indices satisfy
        index(a, a_k) = index(a) n_k + a_k, so appending Z_{n_k} expands
        every entry of the table so far into an n_k x n_k block.
        """
        idx = np.zeros((1, 1), dtype=np.int64)
        for n in self.orders:
            r = np.arange(n, dtype=np.int64)
            m = idx.shape[0]
            idx = (idx[:, None, :, None] * n + ((r[:, None] + r) % n)[None, :, None, :]
                   ).reshape(m * n, m * n)
        return idx

    def negation(self) -> np.ndarray:
        """neg[i] = index(-el_i)."""
        return np.ravel_multi_index(tuple(-self.coords().T), self.orders, mode="wrap")


@dataclass(eq=False)
class Bicharacter:
    """A unitary bicharacter, stored exactly through snapped generator values.

    ``gen_values[i][j]`` holds sigma(eps_i, eps_j).  Each must be a root of
    unity of order dividing gcd(n_i, n_j); anything else cannot extend to a
    homomorphism in both arguments and is rejected naming the offending
    pair, the first in row-major order; a NaN or infinite value is not
    unimodular.  The values are snapped to those roots, and each is kept as an
    integer exponent over gcd(n_i, n_j), so every evaluation is an exact
    root of unity.  The exponents are derived from ``gen_values`` on every
    construction, ``dataclasses.replace`` included.
    """

    group: AbelianGroup
    gen_values: np.ndarray
    tol: InitVar[float] = DEFAULT_TOL
    _exp_num: np.ndarray = field(init=False, repr=False)  # k_ij
    _exp_den: np.ndarray = field(init=False, repr=False)  # gcd(n_i, n_j)

    def __post_init__(self, tol: float) -> None:
        g = self.group
        vals = np.asarray(self.gen_values, dtype=complex)
        if vals.shape != (g.rank, g.rank):
            raise InvalidInput(
                f"gen_values must be {g.rank} x {g.rank} for orders {g.orders}, got {vals.shape}"
            )
        den = np.gcd.outer(g.orders, g.orders).astype(np.int64)
        off_unit = ~(np.abs(np.abs(vals) - 1.0) <= tol)  # NaN and infinity included
        v = np.where(off_unit, 1.0, vals)  # an off-unit value is refused below, unrounded
        num = np.round(np.angle(v) / (2 * math.pi) * den).astype(np.int64) % den
        roots = [unit_root(k, d) for k, d in zip(num.ravel().tolist(), den.ravel().tolist())]
        snapped = np.asarray(roots, dtype=complex).reshape(vals.shape)
        bad = off_unit | (np.abs(v - snapped) > tol)
        if bad.any():  # the first offending pair in row-major order
            i, j = divmod(int(np.argmax(bad)), g.rank)
            if off_unit[i, j]:
                raise InvalidInput(f"bicharacter value at ({i},{j}) is not unimodular: {vals[i, j]}")
            raise InvalidInput(
                f"bicharacter value at ({i},{j}) violates the order condition: "
                f"{vals[i, j]} is not a root of unity of order dividing "
                f"gcd{g.orders[i], g.orders[j]}={den[i, j]}"
            )
        self.gen_values, self._exp_num, self._exp_den = snapped, num, den

    def table(self) -> np.ndarray:
        """sigma(mu, nu) for all pairs of group elements, built anew on each call."""
        c = self.group.coords()
        return self._phases(c, c.T)

    def _phases(self, mu: np.ndarray, nu: np.ndarray) -> np.ndarray:
        """sigma of coordinate rows mu and columns nu, stacks of them broadcast
        as by matmul: zeta^(mu W nu), exact.

        zeta is a primitive root of unity of order L = lcm of the gcd(n_i,
        n_j) and W[i, j] the generator exponents over L, so the exponents
        are one integer product and a lookup in the root table turns them
        into phases.
        """
        lcm, w = self._exponents()
        return unit_roots(lcm)[((mu @ w) @ nu) % lcm]

    def _exponents(self) -> tuple[int, np.ndarray]:
        """The order L of zeta and the exponent matrix W of :meth:`_phases`."""
        lcm = math.lcm(*(int(d) for d in self._exp_den.ravel()))
        return lcm, (self._exp_num * (lcm // self._exp_den)) % lcm


# ---------------------------------------------------------------------------
# classical Cayley graphs
# ---------------------------------------------------------------------------


def _generator_indices(group: AbelianGroup, gens: Iterable[Sequence[int]]) -> np.ndarray:
    """Positions of the multiset ``gens`` in the group."""
    return np.asarray([group.index(theta) for theta in gens], dtype=np.int64)


def classical_cayley(group: AbelianGroup, gens: Iterable[Sequence[int]]) -> "QuantumGraph":
    """Cayley graph of the classical set: A[beta, alpha] = #{theta in S : beta = alpha + theta}.

    ``gens`` is a multiset; repeats produce multigraphs and 0 produces loops.
    """
    from .algebra import build_quantum_set
    from .graphs import QuantumGraph

    thetas = _generator_indices(group, gens)
    n = group.size
    x = build_quantum_set([1] * n)
    a = np.zeros((n, n), dtype=complex)
    c = group.coords().T
    for k in thetas:  # column alpha has a one in row alpha + theta
        a[np.ravel_multi_index(tuple(c + c[:, k, None]), group.orders, mode="wrap"),
          np.arange(n)] += 1.0
    return QuantumGraph(set=x, adjacency=a)


def cayley_spectrum(group: AbelianGroup, gens: Iterable[Sequence[int]]) -> np.ndarray:
    """Eigenvalues lambda_mu = sum_{theta in S} tau_mu(-theta), mu in the order of coords().

    The FFT of the generator counts over the group's cyclic factors.
    """
    counts = np.bincount(_generator_indices(group, gens), minlength=group.size)
    return np.fft.fftn(counts.reshape(group.orders)).ravel()


# ---------------------------------------------------------------------------
# twisting
# ---------------------------------------------------------------------------


def twist_quantum_set(group: AbelianGroup, sigma: Bicharacter) -> QuantumSet:
    """The quantum set deforming C(Gamma) by the bicharacter sigma.

    Orthonormal basis b_mu indexed by group elements, with multiplication
    ``b_mu b_nu = conj(sigma(mu,nu)) b_{mu+nu} / sqrt(N)``, unit sqrt(N) b_0
    and counit sqrt(N) delta_{mu,0}.  The star is the signed permutation
    tau_mu^* = c_mu tau_{-mu} with c_mu = 1 / conj(sigma(-mu, mu)), read
    exactly from the bicharacter's exponent table (``Bicharacter._phases``)
    so that tau_mu^* tau_mu = 1.  The set holds O(N) numbers; its
    multiplication is derived on first read of ``mult``.
    """
    if sigma.group is not group and sigma.group.orders != group.orders:
        raise InvalidInput("bicharacter is defined on a different group")
    n = group.size
    unit = np.zeros(n, dtype=complex)
    unit[0] = math.sqrt(n)  # element 0 is the identity

    # solve tau_mu^* = c_mu tau_{-mu} from (c_mu tau_{-mu}) tau_mu = 1:
    # the product coefficient of tau_{-mu} tau_mu on tau_0 is
    # conj(sigma(-mu, mu)), so c_mu is its reciprocal; sigma(-mu, mu) is
    # read from the exponents of Bicharacter.table, one pair per mu.
    neg = group.negation()
    c = group.coords()
    phase = 1.0 / np.conj(sigma._phases(c[neg, None, :], c[:, :, None]).ravel())
    return QuantumSet(blocks=None, N=n, unit_vec=unit, star_src=neg, star_phase=phase,
                      group=group, bicharacter=sigma)


def twisted_cayley(group: AbelianGroup, gens: Iterable[Sequence[int]],
                   sigma: Bicharacter) -> "QuantumGraph":
    """Twisted Cayley graph: diagonal adjacency with the classical eigenvalues."""
    from .graphs import QuantumGraph

    x = twist_quantum_set(group, sigma)
    lam = cayley_spectrum(group, gens)
    return QuantumGraph(set=x, adjacency=np.diag(lam))


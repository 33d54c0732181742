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
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .algebra import DEFAULT_TOL, QuantumSet, admit_dimension
from .errors import InvalidInput
from .kernels import unit_root, unit_roots

__all__ = [
    "AbelianGroup",
    "Bicharacter",
    "classical_cayley",
    "cayley_spectrum",
    "make_bicharacter",
    "trivial_bicharacter",
    "twist_quantum_set",
    "twisted_cayley",
    "twist_tensor",
    "leg_phases",
]


@dataclass(eq=False)
class AbelianGroup:
    """Z_{n_1} x ... x Z_{n_m} with componentwise arithmetic, elements in C order."""

    orders: tuple[int, ...]
    _add_table: Optional[np.ndarray] = field(default=None, init=False, repr=False)

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

    def elements(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self.coords().tolist()))

    def index(self, el: Sequence[int]) -> int:
        """Position of the element ``el``, its coordinates taken modulo the orders."""
        if len(el) != self.rank:
            raise InvalidInput(f"element {tuple(el)} has wrong rank for orders {self.orders}")
        return int(np.ravel_multi_index([x % n for x, n in zip(el, self.orders)], self.orders))

    def addition_table(self) -> np.ndarray:
        """table[i, j] = index(el_i + el_j).

        Built one cyclic factor at a time: row-major indices satisfy
        index(a, a_k) = index(a) n_k + a_k, so appending Z_{n_k} expands
        every entry of the table so far into an n_k x n_k block.
        """
        if self._add_table is None:
            idx = np.zeros((1, 1), dtype=np.int64)
            for n in self.orders:
                r = np.arange(n, dtype=np.int64)
                m = idx.shape[0]
                idx = (idx[:, None, :, None] * n + ((r[:, None] + r) % n)[None, :, None, :]
                       ).reshape(m * n, m * n)
            self._add_table = idx
            self._add_table.setflags(write=False)
        return self._add_table

    def negation(self) -> np.ndarray:
        """neg[i] = index(-el_i)."""
        return np.ravel_multi_index(tuple(-self.coords().T), self.orders, mode="wrap")


@dataclass(eq=False)
class Bicharacter:
    """A unitary bicharacter, stored exactly through snapped generator values.

    ``gen_values[i][j]`` holds sigma(eps_i, eps_j); internally each value is
    an integer exponent over gcd(n_i, n_j), so every evaluation is an exact
    root of unity.
    """

    group: AbelianGroup
    gen_values: np.ndarray
    _exp_num: np.ndarray = field(repr=False, default=None)  # k_ij
    _exp_den: np.ndarray = field(repr=False, default=None)  # gcd(n_i, n_j)
    _table: Optional[np.ndarray] = field(default=None, init=False, repr=False)

    def value(self, mu: Sequence[int], nu: Sequence[int]) -> complex:
        return self.table()[self.group.index(mu), self.group.index(nu)]

    def table(self) -> np.ndarray:
        """sigma(mu, nu) for all pairs of group elements.

        sigma(mu, nu) = zeta^(mu^T W nu) with zeta a primitive root of
        unity of order L = lcm of the gcd(n_i, n_j) and W[i, j] the
        generator exponents over L, so the whole exponent table is one
        integer product (c W) c^T of the coordinate matrix c, exact, and a
        lookup in the root table turns it into phases.
        """
        if self._table is None:
            c = self.group.coords()
            lcm = math.lcm(*(int(d) for d in self._exp_den.ravel()))
            w = (self._exp_num * (lcm // self._exp_den)) % lcm
            self._table = unit_roots(lcm)[((c @ w) @ c.T) % lcm]
            self._table.setflags(write=False)
        return self._table


def make_bicharacter(
    group: AbelianGroup, gen_values: Sequence[Sequence[complex]], tol: float = DEFAULT_TOL
) -> Bicharacter:
    """Validate generator values and build the multiplicative extension.

    Each sigma(eps_i, eps_j) must be a root of unity of order dividing
    gcd(n_i, n_j); anything else cannot extend to a homomorphism in both
    arguments and is rejected naming the offending pair.
    """
    g = group
    vals = np.asarray(gen_values, dtype=complex)
    if vals.shape != (g.rank, g.rank):
        raise InvalidInput(
            f"gen_values must be {g.rank} x {g.rank} for orders {g.orders}, got {vals.shape}"
        )
    num = np.zeros((g.rank, g.rank), dtype=np.int64)
    den = np.zeros((g.rank, g.rank), dtype=np.int64)
    for i in range(g.rank):
        for j in range(g.rank):
            d = math.gcd(g.orders[i], g.orders[j])
            v = vals[i, j]
            if abs(abs(v) - 1.0) > tol:
                raise InvalidInput(f"bicharacter value at ({i},{j}) is not unimodular: {v}")
            theta = np.angle(v) / (2 * math.pi)
            k = int(round(theta * d)) % d
            if abs(v - unit_root(k, d)) > tol:
                raise InvalidInput(
                    f"bicharacter value at ({i},{j}) violates the order condition: "
                    f"{v} is not a root of unity of order dividing gcd{g.orders[i], g.orders[j]}={d}"
                )
            num[i, j] = k
            den[i, j] = d
    snapped = np.asarray(
        [[unit_root(int(num[i, j]), int(den[i, j])) for j in range(g.rank)]
         for i in range(g.rank)], dtype=complex)
    return Bicharacter(group=g, gen_values=snapped, _exp_num=num, _exp_den=den)


def trivial_bicharacter(group: AbelianGroup) -> Bicharacter:
    return make_bicharacter(group, np.ones((group.rank, group.rank)))


# ---------------------------------------------------------------------------
# classical Cayley graphs
# ---------------------------------------------------------------------------


def _generator_indices(group: AbelianGroup, gens: Iterable[Sequence[int]]) -> np.ndarray:
    """Positions of the multiset ``gens`` in the group."""
    return np.asarray([group.index(theta) for theta in gens], dtype=np.int64)


def classical_cayley(group: AbelianGroup, gens: Iterable[Sequence[int]],
                     tol: float = DEFAULT_TOL) -> "QuantumGraph":
    """Cayley graph of the classical set: A[beta, alpha] = #{theta in S : beta = alpha + theta}.

    ``gens`` is a multiset; repeats produce multigraphs and 0 produces loops.
    """
    from .algebra import build_quantum_set
    from .graphs import QuantumGraph

    thetas = _generator_indices(group, gens)
    n = group.size
    x = build_quantum_set([1] * n, tol=tol)
    a = np.zeros((n, n), dtype=complex)
    c = group.coords().T
    for k in thetas:  # column alpha has a one in row alpha + theta
        a[np.ravel_multi_index(tuple(c + c[:, k, None]), group.orders, mode="wrap"),
          np.arange(n)] += 1.0
    return QuantumGraph(set=x, adjacency=a)


def cayley_spectrum(group: AbelianGroup, gens: Iterable[Sequence[int]]) -> np.ndarray:
    """Eigenvalues lambda_mu = sum_{theta in S} tau_mu(-theta), mu ordered as elements().

    The FFT of the generator counts over the group's cyclic factors.
    """
    counts = np.bincount(_generator_indices(group, gens), minlength=group.size)
    return np.fft.fftn(counts.reshape(group.orders)).ravel()


# ---------------------------------------------------------------------------
# twisting
# ---------------------------------------------------------------------------


def twist_quantum_set(group: AbelianGroup, sigma: Bicharacter,
                      tol: float = DEFAULT_TOL) -> QuantumSet:
    """The quantum set deforming C(Gamma) by the bicharacter sigma.

    Orthonormal basis b_mu indexed by group elements, with multiplication
    ``b_mu b_nu = conj(sigma(mu,nu)) b_{mu+nu} / sqrt(N)``, unit sqrt(N) b_0
    and counit sqrt(N) delta_{mu,0}.  The star is the signed permutation
    mu -> -mu whose phases are solved numerically from unitarity of the
    scaled basis (each tau_mu must satisfy tau_mu^* tau_mu = 1 with
    tau_mu^* a multiple of tau_{-mu}); consistency is certified by
    verify_frobenius rather than by a symbolic phase rule.
    """
    if sigma.group is not group and sigma.group.orders != group.orders:
        raise InvalidInput("bicharacter is defined on a different group")
    n = group.size
    table = group.addition_table()
    sig = sigma.table()
    sqrt_n = math.sqrt(n)

    # every ordered pair (mu, nu), row-major: the tables in raveled order
    lft = np.repeat(np.arange(n, dtype=np.int64), n)
    rgt = np.tile(np.arange(n, dtype=np.int64), n)
    out = table.ravel()
    val = np.conj(sig.ravel()) / sqrt_n

    unit = np.zeros(n, dtype=complex)
    unit[0] = sqrt_n  # element 0 is the identity

    # solve tau_mu^* = c_mu tau_{-mu} from (c_mu tau_{-mu}) tau_mu = 1:
    # the stored product coefficient of tau_{-mu} tau_mu on tau_0 is
    # conj(sigma(-mu, mu)), so c_mu is its reciprocal.
    neg = group.negation()
    phase = 1.0 / np.conj(sig[neg, np.arange(n)])

    return QuantumSet(
        blocks=None,
        N=n,
        mult_out=out,
        mult_left=lft,
        mult_right=rgt,
        mult_val=val,
        unit_vec=unit,
        star_src=neg,
        star_phase=phase,
        tol=tol,
        group=group,
        bicharacter=sigma,
    )


def twisted_cayley(group: AbelianGroup, gens: Iterable[Sequence[int]],
                   sigma: Bicharacter, tol: float = DEFAULT_TOL) -> "QuantumGraph":
    """Twisted Cayley graph: diagonal adjacency with the classical eigenvalues."""
    from .graphs import QuantumGraph

    x = twist_quantum_set(group, sigma, tol=tol)
    lam = cayley_spectrum(group, gens)
    return QuantumGraph(set=x, adjacency=np.diag(lam))


def leg_phases(group: AbelianGroup, sigma: Bicharacter, legs: int) -> np.ndarray:
    """Multi-index phases sigma_i = prod_{a<b} sigma(g_{i_a}, g_{i_b}).

    Returned as a vector over row-major multi-indices of length ``legs``.
    """
    n = group.size
    if legs == 0:
        return np.ones(1, dtype=complex)
    table = group.addition_table()
    sig = sigma.table()
    phases = np.ones(n, dtype=complex)
    sums = np.arange(n, dtype=np.int64)
    for _ in range(legs - 1):
        phases = (phases[:, None] * sig[sums[:, None], np.arange(n)[None, :]]).ravel()
        sums = table[sums[:, None], np.arange(n)[None, :]].ravel()
    return phases


def twist_tensor(tensor: np.ndarray, out_legs: int, in_legs: int,
                 group: AbelianGroup, sigma: Bicharacter) -> np.ndarray:
    """Entrywise twist of a tensor with group-graded legs.

    ``tensor`` is an (N^out_legs) x (N^in_legs) matrix over row-major
    multi-indices; the twisted tensor multiplies each entry by
    sigma_i conj(sigma_j) for output multi-index i and input multi-index j.
    """
    n = group.size
    t = np.asarray(tensor, dtype=complex)
    expected = (n ** out_legs, n ** in_legs)
    if t.shape != expected:
        raise InvalidInput(f"tensor has shape {t.shape}, expected {expected}")
    po = leg_phases(group, sigma, out_legs)
    pi = leg_phases(group, sigma, in_legs)
    return (po[:, None] * t) * np.conj(pi)[None, :]

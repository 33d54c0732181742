"""Shared helpers for sampling twisted Cayley instances, and reference group tables."""

import itertools

import numpy as np

from qgraphs.groups import AbelianGroup, Bicharacter, make_bicharacter
from qgraphs.kernels import unit_root

# abelian groups of order <= 64 used by the randomized twist suites
GROUP_POOL = [
    (2,), (3,), (4,), (2, 2), (6,), (8,), (2, 4), (2, 2, 2), (3, 3),
    (12,), (2, 6), (4, 4), (2, 2, 3), (5, 5), (2, 2, 2, 2), (6, 6),
    (2, 2, 2, 2, 2), (7, 7), (2, 4, 8), (8, 8), (4, 4, 4), (2,) * 6,
]


def random_bicharacter(group: AbelianGroup, rng: np.random.Generator) -> Bicharacter:
    """A uniformly random unitary bicharacter (exponents modulo each gcd)."""
    import math

    m = group.rank
    vals = np.ones((m, m), dtype=complex)
    for i in range(m):
        for j in range(m):
            d = math.gcd(group.orders[i], group.orders[j])
            vals[i, j] = unit_root(int(rng.integers(0, d)), d)
    return make_bicharacter(group, vals)


def random_generating_multiset(group: AbelianGroup, rng: np.random.Generator,
                               allow_repeats: bool = True,
                               allow_zero: bool = True) -> list[tuple[int, ...]]:
    elements = list(group.elements())
    size = int(rng.integers(1, min(6, group.size) + 1))
    gens: list[tuple[int, ...]] = []
    while len(gens) < size:
        el = elements[int(rng.integers(0, len(elements)))]
        if not allow_zero and all(x == 0 for x in el):
            continue
        if not allow_repeats and el in gens:
            continue
        gens.append(el)
    if rng.random() < 0.5:
        # close under inversion so roughly half the samples are undirected
        closed = list(gens)
        for el in gens:
            neg = tuple((-x) % n for x, n in zip(el, group.orders))
            if neg not in closed or allow_repeats:
                if neg not in closed:
                    closed.append(neg)
        gens = closed
    return gens


def random_twist_instance(rng: np.random.Generator, allow_repeats: bool = True):
    orders = GROUP_POOL[int(rng.integers(0, len(GROUP_POOL)))]
    group = AbelianGroup(orders)
    sigma = random_bicharacter(group, rng)
    gens = random_generating_multiset(group, rng, allow_repeats=allow_repeats)
    return group, gens, sigma


def reference_elements(orders) -> list[tuple[int, ...]]:
    """The group's elements by their definition: residue tuples, row-major."""
    return list(itertools.product(*(range(n) for n in orders)))


def reference_fourier_matrix(group: AbelianGroup) -> np.ndarray:
    """F[alpha, mu] = tau_mu(alpha) = prod_i omega_i^(alpha_i mu_i), one cyclic factor at a time.

    Each factor's phases t multiply the product so far as ``f * t``: a
    complex product can round differently in its two operand orders.
    """
    c = np.asarray(reference_elements(group.orders)).reshape(group.size, group.rank)
    f = np.ones((group.size, group.size), dtype=complex)
    for k, n in enumerate(group.orders):
        roots = np.asarray([unit_root(j, n) for j in range(n)])
        f = f * roots[(c[:, None, k] * c[None, :, k]) % n]
    return f

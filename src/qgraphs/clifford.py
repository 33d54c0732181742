"""The Z_2^n specialisation: sign-twisted group algebras (Clifford algebras)
and the anticommutative cube-like graphs living on them.

The sign bicharacter is -1 on generator pairs (i, j) with i > j and +1
otherwise; the twisted generators then square to one, are self-adjoint and
pairwise anticommute.  Cayley graphs of Z_2^n deform accordingly, with
spectra given by the same character sums as their classical counterparts:

* hypercube (generators eps_i):            lambda = n - 2 deg(mu)
* folded (generators + all-ones element):  lambda = n + 1 - 4 ceil(deg/2)
* squared (generators + all pair sums):    lambda = ((n+1-2d)^2 - n - 1)/2
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import Iterable, Sequence

import numpy as np

from .algebra import (DEFAULT_TOL, Check, Operator, QuantumSet, Report, admit_dimension,
                      check_star_homomorphism)
from .constructions import quotient_graph
from .errors import InvalidInput
from .graphs import QuantumGraph, _diagonal_calculus
from .groups import (
    AbelianGroup,
    Bicharacter,
    cayley_spectrum,
    twist_quantum_set,
    twisted_cayley,
)
from .kernels import max_abs, scale_of


def clifford_bicharacter(n: int) -> Bicharacter:
    """The sign bicharacter on Z_2^n: -1 when the first generator index is larger."""
    if n < 1:
        raise InvalidInput("clifford_bicharacter requires n >= 1")
    admit_dimension(2 ** min(n, 64))  # before the n orders and the n x n values
    group = AbelianGroup((2,) * n)
    return Bicharacter(group, np.where(np.tri(n, k=-1, dtype=bool), -1.0, 1.0))


def clifford_set(n: int) -> QuantumSet:
    """The twisted set of Z_2^n with the sign bicharacter (dimension 2^n)."""
    sigma = clifford_bicharacter(n)
    return twist_quantum_set(sigma.group, sigma)


def hypercube_generators(n: int) -> list[tuple[int, ...]]:
    """The generators eps_1 .. eps_n of Z_2^n; an n that :func:`clifford_bicharacter`
    refuses (n < 1, or 2^n beyond ``MAX_N``) is refused before the list is built."""
    clifford_bicharacter(n)
    return [tuple(row) for row in np.eye(n, dtype=int).tolist()]


def folded_generators(n: int) -> list[tuple[int, ...]]:
    return hypercube_generators(n) + [(1,) * n]


def squared_generators(n: int) -> list[tuple[int, ...]]:
    gens = hypercube_generators(n)
    return gens + [tuple(map(operator.add, u, v)) for u, v in itertools.combinations(gens, 2)]


def lambda_squared(n: int, d: int) -> float:
    return ((n + 1 - 2 * d) ** 2 - n - 1) / 2


def cube_like_graph(n: int, gens: Iterable[Sequence[int]]) -> QuantumGraph:
    """Anticommutative deformation of the Cayley graph of Z_2^n with generators ``gens``."""
    sigma = clifford_bicharacter(n)
    return twisted_cayley(sigma.group, gens, sigma)


def folded_embedding(n: int, tol: float = DEFAULT_TOL) -> tuple[Operator, Report]:
    """The unital *-embedding of Cl_n into Cl_{n+1} behind the folded quotient.

    Basis elements of even degree map across unchanged, odd-degree ones pick
    up the extra generator and a factor i; with l2-normalised bases every
    image is scaled by sqrt(2), so iota^dag iota = 2 id.
    """
    dom = clifford_set(n)  # refuses n < 1
    cod = clifford_set(n + 1)
    c = dom.group.coords()
    odd = c.sum(axis=1) % 2
    mat = np.zeros((cod.N, dom.N), dtype=complex)
    root2 = math.sqrt(2.0)
    rows = np.ravel_multi_index((*c.T, odd), cod.group.orders)  # mu -> (mu, deg mu mod 2)
    mat[rows, np.arange(dom.N)] = np.where(odd, 1j * root2, root2)
    op = Operator(domain=dom, codomain=cod, matrix=mat)
    return op, check_star_homomorphism(op, tol=tol)


def folded_quotient_check(n: int, tol: float = DEFAULT_TOL) -> Report:
    """Verify iota^dag A_{hypercube(n+1)} iota = 2 A_{folded(n)} and edge totals."""
    iota, hom = folded_embedding(n, tol=tol)
    cube = cube_like_graph(n + 1, hypercube_generators(n + 1))
    folded = cube_like_graph(n, folded_generators(n))
    quot = quotient_graph(cube, iota, tol=tol)
    scale = scale_of(quot.adjacency)
    res = max_abs(quot.adjacency - 2.0 * folded.adjacency)
    checks = list(hom.checks)
    checks.append(Check("quotient_factor_two", res <= tol * scale, float(res)))
    e_x = np.vdot(cube.set.unit_vec, cube.adjacency @ cube.set.unit_vec)
    e_y = np.vdot(quot.set.unit_vec, quot.adjacency @ quot.set.unit_vec)
    res_e = abs(e_x - e_y)
    checks.append(Check("edge_total_conserved", res_e <= tol * max(abs(e_x), 1.0),
                        float(res_e)))
    return Report(checks=checks, tol=tol)


def halved_square_check(n: int, tol: float = DEFAULT_TOL) -> Report:
    """Checks that (A^2 - (n+1) I)/2 on the deformed (n+1)-hypercube is a
    simple quantum graph whose spectrum follows the squared-hypercube rule;
    both are diagonal, so the checks run in the diagonal Schur calculus."""
    x = clifford_set(n + 1)
    lam = cayley_spectrum(x.group, hypercube_generators(n + 1))  # the diagonal of A
    b = 0.5 * (lam * lam - (n + 1))
    c = _diagonal_calculus(x, b)
    scale = scale_of(b)
    residuals = {
        "schur_idempotent": max_abs(c.square() - b),
        "schur_selfadjoint": max_abs(c.star(b) - b),
        "undirected": max_abs(b - c.dagger(b)),
        "no_loops": max_abs(c.loops()[0]),
        "squared_spectrum": max_abs(b.real - lambda_squared(n, x.group.coords().sum(axis=1))),
    }
    return Report(checks=[Check(name, res <= tol * scale, res) for name, res in residuals.items()],
                  tol=tol)

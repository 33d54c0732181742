"""The Z_n x Z_n twist: phase bicharacter, the explicit isomorphism onto
M_n, closed-form transported tensors, and the quantum rook's graph."""

import numpy as np
import pytest
from conftest import (
    dense_mult,
    dense_star,
    rook_generators,
    rook_pipeline_adjacency,
    rook_spectrum,
    transported_duality,
    transported_mult,
)

from qgraphs import (
    check_star_homomorphism,
    graph_report,
    quantum_rook,
    verify_frobenius,
    weyl_bicharacter,
)
from qgraphs.catalog import SIGMA_1, SIGMA_3, anticommutative_square
from qgraphs.clifford import clifford_bicharacter
from qgraphs.errors import InvalidInput
from qgraphs.kernels import unit_root
from qgraphs.weyl import phi_isomorphism


def test_weyl_bicharacter_values():
    sigma = weyl_bicharacter(3)
    table, index = sigma.table(), sigma.group.index
    assert abs(table[index((0, 1)), index((1, 0))] - unit_root(1, 3)) < 1e-15
    assert table[index((1, 0)), index((0, 1))] == 1
    # extension: sigma((1,1),(1,1)) = omega^{b c} with b = c = 1
    assert abs(table[index((1, 1)), index((1, 1))] - unit_root(1, 3)) < 1e-15


def test_weyl_n2_equals_clifford_n2():
    assert np.array_equal(weyl_bicharacter(2).gen_values,
                          clifford_bicharacter(2).gen_values)


def test_weyl_rejects_small_n():
    # the bicharacter is defined (and trivial) on Z_1 x Z_1; the
    # isomorphism onto M_n needs n >= 2
    assert np.array_equal(weyl_bicharacter(1).gen_values, np.ones((2, 2)))
    with pytest.raises(InvalidInput):
        weyl_bicharacter(0)
    with pytest.raises(InvalidInput):
        phi_isomorphism(1)


def test_phi_generators_at_n2():
    phi = phi_isomorphism(2)
    u = phi.matrix

    def phi_of(mu):
        # phi(tau_mu) = sqrt(N) * (column of U in the orthonormal basis);
        # matrix-unit coordinates divide by a further sqrt(n)
        col = u[:, phi.domain.group.index(mu)]
        return col.reshape(2, 2) * np.sqrt(2)

    assert np.abs(phi_of((1, 0)) - SIGMA_3).max() < 1e-12
    assert np.abs(phi_of((0, 1)) - SIGMA_1).max() < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_phi_is_unitary_star_isomorphism(n):
    phi = phi_isomorphism(n)
    u = phi.matrix
    assert np.abs(u @ u.conj().T - np.eye(n * n)).max() < 1e-12
    report = check_star_homomorphism(phi)
    assert report.all_pass, report.failed()
    assert np.abs((phi @ phi.dagger()).matrix - np.eye(n * n)).max() < 1e-12


def test_phi_multiplicative_on_generators():
    phi = phi_isomorphism(4)
    u = phi.matrix

    def phi_of(mu):
        col = u[:, phi.domain.group.index(mu)]
        return col.reshape(4, 4) * 2.0  # times sqrt(n) for matrix units

    t1, t2, t12 = phi_of((1, 0)), phi_of((0, 1)), phi_of((1, 1))
    assert np.abs(t1 @ t2 - t12).max() < 1e-12
    # diag(1, w, ..., w^{n-1}) and the cyclic shift
    want_diag = np.diag([unit_root(k, 4) for k in range(4)])
    assert np.abs(t1 - want_diag).max() < 1e-12
    shift = np.zeros((4, 4), dtype=complex)
    for i in range(4):
        shift[i, (i - 1) % 4] = 1.0
    assert np.abs(t2 - shift).max() < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_transported_tensors_match_closed_forms(n):
    phi = phi_isomorphism(n)
    mn = phi.codomain
    # R~^{ijkl} = delta_{jk} delta_{il}
    want_r = np.zeros((n * n, n * n), dtype=complex)
    for i in range(n):
        for j in range(n):
            want_r[i * n + j, j * n + i] = 1.0
    assert np.abs(transported_duality(phi) - want_r).max() < 1e-9
    assert np.abs(want_r - dense_star(mn)).max() == 0.0
    # m~^{rs}_{ijkl} = delta_{ri} delta_{kj} delta_{sl} / sqrt(n)
    want_m = np.zeros((n * n, n * n, n * n), dtype=complex)
    for i in range(n):
        for j in range(n):
            for l in range(n):
                want_m[i * n + l, i * n + j, j * n + l] = 1.0 / np.sqrt(n)
    assert np.abs(transported_mult(phi) - want_m).max() < 1e-9
    assert np.abs(want_m - dense_mult(mn)).max() == 0.0


def test_twisted_set_passes_frobenius_for_weyl():
    for n in (2, 3, 4):
        assert verify_frobenius(phi_isomorphism(n).domain).all_pass


def test_rook_n2_is_the_anticommutative_square():
    g = quantum_rook(2)
    assert np.array_equal(g.adjacency, anticommutative_square().adjacency)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 16])
def test_rook_two_path_consistency(n):
    # the twist pipeline through phi is the reference for the closed form
    closed = quantum_rook(n).adjacency
    pipeline = rook_pipeline_adjacency(phi_isomorphism(n))
    assert np.abs(closed - pipeline).max() < 1e-9


def test_quantum_rook_32_is_fast():
    # the closed form alone: no n^2 x n^2 conjugation through phi
    import time

    times = []
    for _ in range(3):
        start = time.perf_counter()
        g = quantum_rook(32)
        times.append(time.perf_counter() - start)
    assert g.set.blocks == (32,)
    assert min(times) < 0.05


def test_rook_spectrum_multiset():
    lam = sorted(np.round(rook_spectrum(3).real, 9))
    assert lam == [-2, -2, -2, -2, 1, 1, 1, 1, 4]
    # adjacency eigenvalues agree with the formula as a multiset
    g = quantum_rook(3)
    eig = np.linalg.eigvalsh(g.adjacency)
    assert np.abs(np.sort(eig) - np.sort(rook_spectrum(3).real)).max() < 1e-9


def _close_invariants(a, b, tol=1e-8):
    for key in a:
        va, vb = a[key], b[key]
        if isinstance(va, (int, float, complex)) and not isinstance(va, bool) \
                and va is not None and vb is not None:
            if abs(va - vb) > tol:
                return False
        elif va != vb:
            return False
    return True


@pytest.mark.parametrize("n", [2, 3, 4])
def test_rook_report(n):
    rep = graph_report(quantum_rook(n))
    assert rep.is_simple
    assert rep.vertices == n * n
    assert abs(rep.regular_degree - 2 * (n - 1)) < 1e-9
    assert abs(rep.edges - 2 * n * n * (n - 1)) < 1e-9
    # report invariants equal those of the classical rook's graph
    from qgraphs import classical_cayley
    from qgraphs.groups import AbelianGroup
    classical = classical_cayley(AbelianGroup((n, n)), rook_generators(n))
    assert _close_invariants(graph_report(classical).invariants(), rep.invariants())

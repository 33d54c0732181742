"""The Z_n x Z_n twist: phase bicharacter, the explicit isomorphism onto
M_n, closed-form transported tensors, and the quantum rook's graph."""

import numpy as np
import pytest

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
from qgraphs.weyl import (
    phi_isomorphism,
    rook_adjacency_closed_form,
    rook_generators,
    rook_pipeline_adjacency,
    rook_spectrum,
    transported_duality,
    transported_mult,
)


def test_weyl_bicharacter_values():
    sigma = weyl_bicharacter(3)
    assert abs(sigma.value((0, 1), (1, 0)) - unit_root(1, 3)) < 1e-15
    assert sigma.value((1, 0), (0, 1)) == 1
    # extension: sigma((1,1),(1,1)) = omega^{b c} with b = c = 1
    assert abs(sigma.value((1, 1), (1, 1)) - unit_root(1, 3)) < 1e-15


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
    wd = phi_isomorphism(2)
    u = wd.phi.matrix

    def phi_of(mu):
        # phi(tau_mu) = sqrt(N) * (column of U in the orthonormal basis);
        # matrix-unit coordinates divide by a further sqrt(n)
        col = u[:, wd.group.index(mu)]
        return col.reshape(2, 2) * np.sqrt(2)

    assert np.abs(phi_of((1, 0)) - SIGMA_3).max() < 1e-12
    assert np.abs(phi_of((0, 1)) - SIGMA_1).max() < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_phi_is_unitary_star_isomorphism(n):
    wd = phi_isomorphism(n)
    u = wd.phi.matrix
    assert np.abs(u @ u.conj().T - np.eye(n * n)).max() < 1e-12
    report = check_star_homomorphism(wd.phi)
    assert report.all_pass, report.failed()
    assert np.abs((wd.phi @ wd.phi_inv).matrix - np.eye(n * n)).max() < 1e-12


def test_phi_multiplicative_on_generators():
    wd = phi_isomorphism(4)
    u = wd.phi.matrix
    x = wd.twisted

    def phi_of(mu):
        col = u[:, wd.group.index(mu)]
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
    wd = phi_isomorphism(n)
    mn = wd.matrix_set
    # R~^{ijkl} = delta_{jk} delta_{il}
    want_r = np.zeros((n * n, n * n), dtype=complex)
    for i in range(n):
        for j in range(n):
            want_r[i * n + j, j * n + i] = 1.0
    assert np.abs(transported_duality(wd) - want_r).max() < 1e-9
    assert np.abs(want_r - mn.dense_star()).max() == 0.0
    # m~^{rs}_{ijkl} = delta_{ri} delta_{kj} delta_{sl} / sqrt(n)
    want_m = np.zeros((n * n, n * n, n * n), dtype=complex)
    for i in range(n):
        for j in range(n):
            for l in range(n):
                want_m[i * n + l, i * n + j, j * n + l] = 1.0 / np.sqrt(n)
    assert np.abs(transported_mult(wd) - want_m).max() < 1e-9
    assert np.abs(want_m - mn.dense_mult()).max() == 0.0


def test_twisted_set_passes_frobenius_for_weyl():
    for n in (2, 3, 4):
        wd = phi_isomorphism(n)
        assert verify_frobenius(wd.twisted).all_pass


def test_rook_n2_is_the_anticommutative_square():
    g = quantum_rook(2)
    assert np.array_equal(g.adjacency, anticommutative_square().adjacency)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_rook_two_path_consistency(n):
    closed = rook_adjacency_closed_form(n)
    pipeline = rook_pipeline_adjacency(phi_isomorphism(n))
    assert np.abs(closed - pipeline).max() < 1e-9


def test_rook_cross_check_failure_is_invalid_input():
    # rounding alone separates the two paths by ~1e-15, more than tol 1e-20 allows
    with pytest.raises(InvalidInput, match="tolerance 1e-20"):
        quantum_rook(3, tol=1e-20)


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

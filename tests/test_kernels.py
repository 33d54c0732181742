"""Kernels: exact roots of unity and the validated Hermitian eigensolver.

The eigensolver wraps LAPACK, so the numpy oracle test mainly pins the
contract around it: ascending eigenvalues, orthonormal eigenvectors and a
small residual ``h v - v diag(lam)``.
"""

import numpy as np
import pytest

from qgraphs.errors import InvalidInput
from qgraphs.kernels import gram_schmidt, hermitian_eigs, span_residual, unit_root


def test_unit_root_quarter_turns_exact():
    assert unit_root(0, 5) == 1
    assert unit_root(1, 2) == -1
    assert unit_root(1, 4) == 1j
    assert unit_root(3, 4) == -1j
    assert unit_root(2, 4) == -1
    assert unit_root(7, 4) == -1j  # reduction mod n
    assert unit_root(-1, 4) == -1j


def test_unit_root_generic_values():
    w = unit_root(1, 3)
    assert abs(w - np.exp(2j * np.pi / 3)) < 1e-15
    assert abs(w**3 - 1) < 1e-14


def test_eigs_diagonal():
    lam, v = hermitian_eigs(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(lam, [1.0, 2.0, 3.0])
    assert np.allclose(v.conj().T @ v, np.eye(3))


def test_eigs_pauli_x():
    sigma1 = np.array([[0, 1], [1, 0]], dtype=complex)
    lam, v = hermitian_eigs(sigma1)
    assert np.allclose(lam, [-1.0, 1.0])
    assert np.abs(sigma1 @ v - v @ np.diag(lam)).max() < 1e-12


def test_eigs_rank_one_projector_scaled():
    # 2 * (edge element of the identity on M_2): rank 1, trace 2
    m = np.array([[1, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 1]], dtype=complex)
    lam, _ = hermitian_eigs(m)
    assert np.allclose(lam, [0.0, 0.0, 0.0, 2.0], atol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 5, 8, 13])
def test_eigs_against_numpy_oracle(n):
    rng = np.random.default_rng(17 + n)
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = z + z.conj().T
    lam, v = hermitian_eigs(h)
    ref = np.linalg.eigvalsh(h)
    assert np.abs(lam - ref).max() < 1e-9 * max(1.0, np.abs(h).max())
    assert np.abs(v.conj().T @ v - np.eye(n)).max() < 1e-9
    assert np.abs(h @ v - v @ np.diag(lam)).max() < 1e-8 * max(1.0, np.abs(h).max())


def test_eigs_deterministic():
    rng = np.random.default_rng(3)
    z = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    h = z + z.conj().T
    lam1, v1 = hermitian_eigs(h)
    lam2, v2 = hermitian_eigs(h)
    assert np.array_equal(lam1, lam2)
    assert np.array_equal(v1, v2)


def test_eigs_rejects_non_hermitian():
    with pytest.raises(InvalidInput):
        hermitian_eigs(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_eigs_rejects_non_finite(bad):
    h = np.eye(3, dtype=complex)
    h[1, 1] = bad
    with pytest.raises(InvalidInput):
        hermitian_eigs(h)


def test_gram_schmidt_drops_dependent_vectors():
    v1 = np.array([1.0, 0.0, 0.0])
    v2 = np.array([1.0, 1.0, 0.0])
    v3 = 2.0 * v1 + 3.0 * v2
    basis = gram_schmidt([v1, v2, v3])
    assert len(basis) == 2
    assert span_residual(v3, basis) < 1e-12

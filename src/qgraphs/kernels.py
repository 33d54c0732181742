"""Small dense complex linear-algebra kernels on top of numpy.

The Hermitian eigensolver wraps LAPACK (``numpy.linalg.eigh``) with input
validation and a fixed eigenvector phase.  Its callers only threshold the
eigenvalues (ranks at 0.5, positivity at -tol * scale), so none of them
depends on the last bits of the decomposition.  The span test projects onto
an orthonormal list or matrix of rows by Gram-Schmidt applied twice.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import InvalidInput


def unit_root(k: int, n: int) -> complex:
    """exp(2*pi*i*k/n), exact for quarter turns (k/n in {0, 1/4, 1/2, 3/4}).

    All phases in this package are roots of unity; routing them through a
    single helper keeps |phase| == 1 at machine precision and makes the
    order-2 and order-4 cases exact.
    """
    if n <= 0:
        raise InvalidInput(f"root order must be positive, got {n}")
    k = k % n
    if (4 * k) % n == 0:
        return (1 + 0j, 1j, -1 + 0j, -1j)[(4 * k) // n]
    return cmath.exp(2j * math.pi * k / n)


def unit_roots(n: int) -> np.ndarray:
    """The table ``[unit_root(k, n) for k in range(n)]``, indexed by exponents mod n."""
    return np.asarray([unit_root(k, n) for k in range(n)], dtype=complex)


def max_abs(a: np.ndarray) -> float:
    """Largest entry magnitude; 0.0 for empty arrays."""
    if a.size == 0:
        return 0.0
    return float(np.abs(a).max())


def scale_of(*arrays: np.ndarray) -> float:
    """Comparison scale: max(1, largest entry magnitude of the operands)."""
    s = 1.0
    for a in arrays:
        s = max(s, max_abs(np.asarray(a)))
    return s


def hermitian_eigs(h: np.ndarray, tol: float = 1e-9) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues ascending, eigenvectors as orthonormal columns)
    with ``h ~= V diag(lam) V^dag``.  Eigenvector phases are normalised so
    the largest-magnitude component of each column is real positive.

    Raises InvalidInput if ``h`` has non-finite entries, is not Hermitian
    within tol * scale, or the eigensolver does not converge.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise InvalidInput(f"expected a square matrix, got shape {h.shape}")
    if not np.isfinite(h).all():
        raise InvalidInput("matrix has non-finite entries")
    if max_abs(h - h.conj().T) > tol * scale_of(h):
        raise InvalidInput("matrix is not Hermitian within tolerance")
    n = h.shape[0]
    if n == 0:
        return np.zeros(0), np.zeros((0, 0), dtype=complex)
    try:
        lam, v = np.linalg.eigh(0.5 * (h + h.conj().T))
    except np.linalg.LinAlgError as exc:
        raise InvalidInput(f"Hermitian eigensolver failed: {exc}") from None
    piv = v[np.argmax(np.abs(v), axis=0), np.arange(n)]
    return lam, v * (np.conj(piv) / np.abs(piv))


def orthogonal_part(vector: np.ndarray, basis: list[np.ndarray] | np.ndarray) -> tuple[np.ndarray, float]:
    """``vector`` minus its projection onto an orthonormal basis (a list of
    arrays or the rows of one matrix; flattened inner product) and that part's
    norm, by classical Gram-Schmidt applied twice: as accurate as the modified
    form (Giraud, Langou and Rozloznik, 2005)."""
    w = np.asarray(vector, dtype=complex)
    q = np.asarray(basis, dtype=complex).reshape(len(basis), w.size)
    for _ in range(2):
        w = w - (np.conj(q @ np.conj(w.ravel())) @ q).reshape(w.shape)
    return w, math.sqrt(abs(np.vdot(w, w).real))


def gram_schmidt(vectors: list[np.ndarray], tol: float = 1e-9) -> list[np.ndarray]:
    """Orthonormalise ``vectors`` (any shape, flattened inner product).

    Vectors whose residual after projection is below tol * scale are
    dropped, so the result is an orthonormal basis of the span.
    """
    basis: list[np.ndarray] = []
    for vec in vectors:
        v, nrm = orthogonal_part(vec, basis)
        if nrm > tol * scale_of(vec):
            basis.append(v / nrm)
    return basis

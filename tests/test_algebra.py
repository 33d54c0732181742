"""Quantum sets: structure tensors, axiom battery, homomorphisms, positivity.

Independent oracles: matrix-unit elements are multiplied as literal numpy
matrices (element_from/to_block_matrices round trips through the structure
constants) and positivity is cross-checked against numpy eigenvalues.
"""

import math

import numpy as np
import pytest

from qgraphs import (
    AlgebraElement,
    Operator,
    algebra_multiply,
    algebra_star,
    build_quantum_set,
    check_star_homomorphism,
    counit_apply,
    element_from_block_matrices,
    element_is_positive,
    element_to_block_matrices,
    is_positive_element,
    rotate_from_edge,
    rotate_to_edge,
    schur_star,
    verify_frobenius,
)
from qgraphs.algebra import left_mult_matrix, random_element, random_positive_element
from qgraphs.errors import InvalidInput, ResourceLimit


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_classical_four_points():
    x = build_quantum_set([1, 1, 1, 1])
    assert x.N == 4
    assert np.array_equal(x.dense_star(), np.eye(4))
    # multiplication is the diagonal delta tensor
    m = x.dense_mult()
    want = np.zeros((4, 4, 4))
    for i in range(4):
        want[i, i, i] = 1.0
    assert np.array_equal(m, want)
    assert np.array_equal(x.unit_vec, np.ones(4))


def test_m2_unit_vector():
    x = build_quantum_set([2])
    r2 = math.sqrt(2)
    assert np.allclose(x.unit_vec, [r2, 0, 0, r2])


def test_mixed_blocks_vertex_count():
    x = build_quantum_set([1, 2, 3])
    assert x.N == 14
    assert abs(counit_apply(x.unit_element()) - 14) < 1e-12


def test_build_rejects_bad_input():
    with pytest.raises(InvalidInput):
        build_quantum_set([])
    with pytest.raises(InvalidInput):
        build_quantum_set([2, 0])
    with pytest.raises(InvalidInput):
        build_quantum_set([2], tol=0.0)


def test_dimension_limit_is_checked_on_the_set_size():
    from qgraphs.algebra import MAX_N
    from qgraphs.groups import AbelianGroup, cayley_spectrum

    assert build_quantum_set([64]).N == MAX_N == 4096
    with pytest.raises(ResourceLimit, match="limit is 4096"):
        build_quantum_set([64, 1])
    assert cayley_spectrum(AbelianGroup((MAX_N,)), [(1,)]).shape == (MAX_N,)
    with pytest.raises(ResourceLimit, match="limit is 4096"):
        cayley_spectrum(AbelianGroup((MAX_N + 1,)), [(1,)])


# ---------------------------------------------------------------------------
# the star as a signed permutation
# ---------------------------------------------------------------------------

W3 = complex(-0.5, math.sqrt(3) / 2)
W6 = complex(0.5, math.sqrt(3) / 2)


def _per_entry_blocks(blocks):
    """The block set's tensors built entry by entry, with a dense star matrix."""
    n_total = sum(n * n for n in blocks)
    out, lft, rgt, val = [], [], [], []
    unit = np.zeros(n_total, dtype=complex)
    star = np.zeros((n_total, n_total), dtype=complex)
    offset = 0
    for n in blocks:
        for a in range(n):
            unit[offset + a * n + a] = math.sqrt(n)
            for b in range(n):
                star[offset + a * n + b, offset + b * n + a] = 1.0
                for d in range(n):
                    out.append(offset + a * n + d)
                    lft.append(offset + a * n + b)
                    rgt.append(offset + b * n + d)
                    val.append(1.0 / math.sqrt(n))
        offset += n * n
    return out, lft, rgt, np.asarray(val, dtype=complex), unit, star


def _twisted(orders, gen_values):
    from qgraphs import make_bicharacter, twist_quantum_set
    from qgraphs.groups import AbelianGroup

    group = AbelianGroup(orders)
    return twist_quantum_set(group, make_bicharacter(group, gen_values))


def _dense_twisted_star(x):
    """tau_mu^* = c_mu tau_{-mu} with c_mu = 1 / conj(sigma(-mu, mu)), as a matrix."""
    n, neg = x.N, x.group.negation()
    star = np.zeros((n, n), dtype=complex)
    star[np.arange(n), neg] = 1.0 / np.conj(x.bicharacter.table()[neg, np.arange(n)])
    return star


TWISTED_SETS = {
    "weyl-3x3": lambda: _twisted((3, 3), [[1, W3], [np.conj(W3), 1]]),
    "z6xz6-nonsymmetric": lambda: _twisted((6, 6), [[1, W6], [W3, -1]]),
    "z4xz2xz3": lambda: _twisted((4, 2, 3), [[1j, -1, 1], [1, -1, 1], [1, 1, W3]]),
    "clifford-3": lambda: _twisted((2, 2, 2), [[-1, -1, -1], [1, -1, -1], [1, 1, -1]]),
}


@pytest.mark.parametrize("blocks", [[1], [3], [1, 1, 1, 1], [2, 1, 2, 3], [4, 1]])
def test_block_set_matches_per_entry_construction(blocks):
    x = build_quantum_set(blocks)
    out, lft, rgt, val, unit, star = _per_entry_blocks(blocks)
    assert np.array_equal(x.mult_out, out) and np.array_equal(x.mult_left, lft)
    assert np.array_equal(x.mult_right, rgt)
    assert x.mult_val.tobytes() == val.tobytes()
    assert x.unit_vec.tobytes() == unit.tobytes()
    assert np.array_equal(x.dense_star(), star)
    assert np.array_equal(x.star_phase, np.ones(x.N))


def _star_consumers_match_dense(x, f):
    """Every reader of the stored star agrees with the dense-matrix formula."""
    rng = np.random.default_rng(x.N)
    c = rng.standard_normal(x.N) + 1j * rng.standard_normal(x.N)
    a = rng.standard_normal((x.N, x.N)) + 1j * rng.standard_normal((x.N, x.N))
    assert np.abs(algebra_star(AlgebraElement(x, c)).coeffs - f.T @ np.conj(c)).max() < 1e-12
    assert np.abs(schur_star(x, a) - f.T @ np.conj(a) @ np.conj(f)).max() < 1e-12
    assert np.abs(rotate_to_edge(x, a) - a @ f).max() < 1e-12
    assert np.abs(rotate_from_edge(x, a) - a @ np.conj(f)).max() < 1e-12
    if x.N <= 64:
        u = rng.standard_normal((x.N, x.N)) + 1j * rng.standard_normal((x.N, x.N))
        got = check_star_homomorphism(Operator(x, x, u)).residual("star_preserving")
        assert abs(got - np.abs(u @ f.T - f.T @ np.conj(u)).max()) < 1e-12


@pytest.mark.parametrize("blocks", [[2, 1, 2, 3], [3, 2]])
def test_block_star_consumers_match_dense_star(blocks):
    _star_consumers_match_dense(build_quantum_set(blocks), _per_entry_blocks(blocks)[-1])


@pytest.mark.parametrize("name", sorted(TWISTED_SETS))
def test_twisted_star_matches_dense_star(name):
    x = TWISTED_SETS[name]()
    f = _dense_twisted_star(x)
    assert np.array_equal(x.dense_star(), f)
    for mu, el in enumerate(x.group.elements()):  # the source is the group negation
        assert x.star_src[mu] == x.group.index(tuple(-v for v in el))
    _star_consumers_match_dense(x, f)
    assert verify_frobenius(x).all_pass


def test_star_source_must_be_a_permutation():
    import dataclasses

    x = build_quantum_set([2, 1])
    for src in ([0, 0, 2, 3, 4], [1, 2, 3, 4, 5], [0, 2, 1, 3], [-1, 2, 1, 3, 4],
                [0.0, 2.0, 1.0, 3.0, 4.0]):
        with pytest.raises(InvalidInput):
            dataclasses.replace(x, star_src=np.asarray(src), _dense_mult=None)
    with pytest.raises(InvalidInput):
        dataclasses.replace(x, star_phase=np.ones(4, dtype=complex), _dense_mult=None)
    y = dataclasses.replace(x, star_src=np.asarray([0, 2, 1, 3, 4]), _dense_mult=None)
    assert np.array_equal(y.star_src, [0, 2, 1, 3, 4])


@pytest.mark.parametrize("blocks,limit_mib", [([1] * 4096, 1), ([64], 12)])
def test_quantum_set_holds_no_dense_star(blocks, limit_mib):
    import tracemalloc

    tracemalloc.start()
    try:
        x = build_quantum_set(blocks)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert x.N == sum(n * n for n in blocks)
    assert held < limit_mib * 2 ** 20


# ---------------------------------------------------------------------------
# multiplication, star, counit
# ---------------------------------------------------------------------------


def _unit_matrix(n, i, j):
    e = np.zeros((n, n), dtype=complex)
    e[i, j] = 1.0
    return e


def test_unit_law_on_random_elements():
    x = build_quantum_set([1, 2, 3])
    rng = np.random.default_rng(0)
    one = x.unit_element()
    for _ in range(10):
        v = random_element(x, rng)
        assert np.abs(algebra_multiply(one, v).coeffs - v.coeffs).max() < 1e-12
        assert np.abs(algebra_multiply(v, one).coeffs - v.coeffs).max() < 1e-12


@pytest.mark.parametrize("blocks", [[2], [1, 2, 3], [3, 3]])
def test_associativity_on_100_random_triples(blocks):
    x = build_quantum_set(blocks)
    rng = np.random.default_rng(sum(blocks))
    one = x.unit_element()
    for _ in range(100):
        a, b, c = (random_element(x, rng) for _ in range(3))
        scale = max(1.0, np.abs(a.coeffs).max() * np.abs(b.coeffs).max()
                    * np.abs(c.coeffs).max())
        lhs = algebra_multiply(algebra_multiply(a, b), c).coeffs
        rhs = algebra_multiply(a, algebra_multiply(b, c)).coeffs
        assert np.abs(lhs - rhs).max() <= 1e-9 * scale
        assert np.abs(algebra_multiply(one, a).coeffs - a.coeffs).max() <= 1e-9 * scale


def test_multiply_rejects_set_mismatch():
    a = build_quantum_set([2]).unit_element()
    b = build_quantum_set([1, 1, 1, 1]).unit_element()
    with pytest.raises(InvalidInput):
        algebra_multiply(a, b)


def test_matrix_unit_product_in_m2():
    x = build_quantum_set([2])
    e12 = element_from_block_matrices(x, [_unit_matrix(2, 0, 1)])
    e21 = element_from_block_matrices(x, [_unit_matrix(2, 1, 0)])
    prod = algebra_multiply(e12, e21)
    assert np.abs(element_to_block_matrices(prod)[0] - _unit_matrix(2, 0, 0)).max() < 1e-12


def test_block_products_match_numpy_matmul():
    x = build_quantum_set([2, 3])
    rng = np.random.default_rng(5)
    for _ in range(20):
        mats_a = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                  for n in (2, 3)]
        mats_b = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                  for n in (2, 3)]
        a = element_from_block_matrices(x, mats_a)
        b = element_from_block_matrices(x, mats_b)
        got = element_to_block_matrices(algebra_multiply(a, b))
        for g, ma, mb in zip(got, mats_a, mats_b):
            assert np.abs(g - ma @ mb).max() < 1e-12


def test_indicator_is_idempotent():
    x = build_quantum_set([1, 1])
    d1 = x.basis_element(0)
    assert np.abs(algebra_multiply(d1, d1).coeffs - d1.coeffs).max() < 1e-15


def test_star_examples():
    x = build_quantum_set([2])
    e12 = element_from_block_matrices(x, [_unit_matrix(2, 0, 1)])
    starred = element_to_block_matrices(algebra_star(e12))[0]
    assert np.abs(starred - _unit_matrix(2, 1, 0)).max() < 1e-15

    diag = element_from_block_matrices(x, [np.diag([1.5, -0.25])])
    assert np.abs(algebra_star(diag).coeffs - diag.coeffs).max() < 1e-15

    ie11 = element_from_block_matrices(x, [1j * _unit_matrix(2, 0, 0)])
    assert np.abs(algebra_star(ie11).coeffs + ie11.coeffs).max() < 1e-15


def test_star_is_involutive_antiautomorphism():
    x = build_quantum_set([1, 2, 3])
    rng = np.random.default_rng(6)
    for _ in range(20):
        a, b = random_element(x, rng), random_element(x, rng)
        assert np.abs(algebra_star(algebra_star(a)).coeffs - a.coeffs).max() < 1e-12
        lhs = algebra_star(algebra_multiply(a, b)).coeffs
        rhs = algebra_multiply(algebra_star(b), algebra_star(a)).coeffs
        assert np.abs(lhs - rhs).max() < 1e-10


def test_counit_examples():
    m3 = build_quantum_set([3])
    assert abs(counit_apply(m3.unit_element()) - 9) < 1e-12
    m2 = build_quantum_set([2])
    e11 = element_from_block_matrices(m2, [_unit_matrix(2, 0, 0)])
    assert abs(counit_apply(e11) - 2) < 1e-12
    e12 = element_from_block_matrices(m2, [_unit_matrix(2, 0, 1)])
    assert abs(counit_apply(e12)) < 1e-12


def test_counit_pairs_with_multiplication():
    # eta^dag m = R^dag entrywise
    x = build_quantum_set([2, 3])
    pair = np.zeros((x.N, x.N), dtype=complex)
    np.add.at(pair, (x.mult_left, x.mult_right),
              x.mult_val * np.conj(x.unit_vec[x.mult_out]))
    assert np.abs(pair - np.conj(x.dense_star())).max() < 1e-12


# ---------------------------------------------------------------------------
# axiom battery
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("blocks", [[1], [2], [3], [1, 1, 1, 1], [1, 2, 3], [2, 2, 4]])
def test_verify_frobenius_passes(blocks):
    report = verify_frobenius(build_quantum_set(blocks))
    assert report.all_pass, report.failed()


@pytest.mark.parametrize("sizes", [(0, 5), (5, 0), (1, 1), (40, 30), (200, 300)])
def test_join_matches_per_key_loop(sizes):
    from qgraphs.algebra import _join

    rng = np.random.default_rng(sum(sizes))
    ja = rng.integers(0, 12, size=sizes[0])
    jb = rng.integers(0, 12, size=sizes[1])
    want = [(i, j) for i in range(ja.size) for j in range(jb.size) if ja[i] == jb[j]]
    ia, ib = _join(ja, jb)
    assert ia.dtype == ib.dtype == np.int64
    assert list(zip(ia.tolist(), ib.tolist())) == want


def test_verify_frobenius_catches_corruption():
    x = build_quantum_set([2])
    vals = x.mult_val.copy()
    vals[0] += 1e-3
    import dataclasses
    broken = dataclasses.replace(x, mult_val=vals, _dense_mult=None)
    report = verify_frobenius(broken)
    failed = report.failed()
    assert "specialness_mmdag" in failed
    assert "associativity" in failed


# ---------------------------------------------------------------------------
# homomorphism checks
# ---------------------------------------------------------------------------


def test_transpose_is_not_multiplicative():
    x = build_quantum_set([2])
    # transpose in matrix-unit coordinates permutes the orthonormal basis
    mat = x.dense_star()  # (i,j) -> (j,i) permutation, entries 1
    report = check_star_homomorphism(Operator(x, x, mat))
    assert not report.all_pass
    assert "multiplicative" in report.failed()


def test_identity_is_star_homomorphism():
    x = build_quantum_set([1, 2])
    report = check_star_homomorphism(Operator(x, x, np.eye(x.N)))
    assert report.all_pass


# ---------------------------------------------------------------------------
# positivity
# ---------------------------------------------------------------------------


def test_is_positive_element_examples():
    itilde = 0.5 * np.array([[1, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 1]])
    assert is_positive_element(itilde)
    jtilde = 0.5 * np.ones((4, 4))
    probe = jtilde - 2 * itilde
    # oracle: numpy eigenvalues contain -1
    assert np.linalg.eigvalsh(probe).min() < -0.5
    assert not is_positive_element(probe)
    assert is_positive_element(np.zeros((3, 3)))


def test_element_positivity_via_left_regular_representation():
    x = build_quantum_set([2, 3])
    rng = np.random.default_rng(9)
    for _ in range(10):
        p = random_positive_element(x, rng)
        assert element_is_positive(p)
        # oracle: block matrices of x^* x are PSD
        for mat in element_to_block_matrices(p):
            assert np.linalg.eigvalsh(mat).min() > -1e-9
    # a visibly non-positive element
    neg = AlgebraElement(x, -x.unit_vec)
    assert not element_is_positive(neg)


def test_left_mult_matrix_is_faithful_product():
    x = build_quantum_set([1, 2])
    rng = np.random.default_rng(11)
    a, b = random_element(x, rng), random_element(x, rng)
    assert np.abs(left_mult_matrix(a) @ b.coeffs
                  - algebra_multiply(a, b).coeffs).max() < 1e-12

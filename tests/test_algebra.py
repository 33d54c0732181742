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
            dataclasses.replace(x, star_src=np.asarray(src))
    with pytest.raises(InvalidInput):
        dataclasses.replace(x, star_phase=np.ones(4, dtype=complex))
    y = dataclasses.replace(x, star_src=np.asarray([0, 2, 1, 3, 4]))
    assert np.array_equal(y.star_src, [0, 2, 1, 3, 4])


def test_replace_rebuilds_the_dense_multiplication():
    import dataclasses

    from qgraphs import schur_product
    from qgraphs.clifford import clifford_set

    x = clifford_set(2)
    rng = np.random.default_rng(3)
    a, b = (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)) for _ in range(2))
    before = schur_product(x, a, b)  # the generic path, which caches the dense tensor
    y = dataclasses.replace(x, mult_val=2 * x.mult_val)
    assert np.array_equal(y.dense_mult(), 2 * x.dense_mult())
    assert np.allclose(schur_product(y, a, b), 4 * before)


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
    from conftest import _join  # the reference battery's join

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
    broken = dataclasses.replace(x, mult_val=vals)
    report = verify_frobenius(broken)
    failed = report.failed()
    assert "specialness_mmdag" in failed
    assert "associativity" in failed


# ---------------------------------------------------------------------------
# the battery against the sorted-key reference
# ---------------------------------------------------------------------------

#: read off a dense star product in the reference, whose rounding can differ in the last bits
STAR_CHECKS = ("snake_left", "snake_right", "star_involutive", "duality_symmetric")
EPS = np.finfo(float).eps


def _reference_corpus():
    from qgraphs.clifford import clifford_set
    from qgraphs.weyl import weyl_bicharacter
    from qgraphs.groups import twist_quantum_set

    def weyl_set(n):
        sigma = weyl_bicharacter(n)
        return twist_quantum_set(sigma.group, sigma)

    sets = {f"clifford-{n}": (lambda n=n: clifford_set(n)) for n in range(2, 8)}
    sets.update({f"weyl-{n}": (lambda n=n: weyl_set(n)) for n in (3, 5)})
    sets["z6xz6"] = TWISTED_SETS["z6xz6-nonsymmetric"]
    sets["z4xz2xz3"] = TWISTED_SETS["z4xz2xz3"]
    for blocks in ([1, 2, 3, 4], [8] * 4, [16], [2, 1, 2, 3]):
        sets["blocks-" + "-".join(map(str, blocks))] = (lambda b=blocks: build_quantum_set(b))
    return sets


REFERENCE_CORPUS = _reference_corpus()


def _with_entries(x, out=None, lft=None, rgt=None, val=None):
    import dataclasses

    return dataclasses.replace(
        x, mult_out=x.mult_out if out is None else out, mult_left=x.mult_left if lft is None else lft,
        mult_right=x.mult_right if rgt is None else rgt, mult_val=x.mult_val if val is None else val)


def _assert_matches_reference(x):
    from conftest import reference_frobenius_residuals

    report = verify_frobenius(x)
    want = reference_frobenius_residuals(x)
    assert sorted(c.name for c in report.checks) == sorted(want)
    for c in report.checks:
        if c.name in STAR_CHECKS:
            assert abs(c.residual - want[c.name]) <= 8 * EPS, c.name
        else:
            assert c.residual == want[c.name], c.name
    return report


@pytest.mark.parametrize("name", sorted(REFERENCE_CORPUS))
def test_battery_matches_sorted_key_reference(name):
    assert _assert_matches_reference(REFERENCE_CORPUS[name]()).all_pass


def _corruptions(x, rng):
    """One value perturbed, one output misrouted (to a random slot and to slot 0),
    one entry dropped, and one row sent wholly to a single output."""
    k = x.mult_val.size
    for i in rng.integers(0, k, 3):
        val = x.mult_val.copy()
        val[i] += 1e-3 * (1 - 2j)
        yield "value", _with_entries(x, val=val)
        out = x.mult_out.copy()
        out[i] = (out[i] + 1 + rng.integers(0, x.N - 1)) % x.N if x.N > 1 else out[i]
        yield "misrouted", _with_entries(x, out=out)
        out = x.mult_out.copy()
        out[i] = 0 if out[i] else 1
        yield "misrouted-to-0", _with_entries(x, out=out)
        keep = np.arange(k) != i
        yield "dropped", _with_entries(x, x.mult_out[keep], x.mult_left[keep],
                                       x.mult_right[keep], x.mult_val[keep])
    out = x.mult_out.copy()
    out[x.mult_left == x.mult_left[k // 2]] = x.mult_out[k // 2]
    yield "row-to-one-output", _with_entries(x, out=out)


@pytest.mark.parametrize("name", ["clifford-3", "clifford-4", "weyl-3", "z4xz2xz3",
                                  "blocks-2-1-2-3", "blocks-1-2-3-4"])
def test_battery_matches_reference_on_corrupted_sets(name):
    x = REFERENCE_CORPUS[name]()
    rng = np.random.default_rng(x.N)
    for kind, broken in _corruptions(x, rng):
        report = _assert_matches_reference(broken)
        assert not report.all_pass, kind
        assert report.residual("associativity") > 1e-6 or report.residual(
            "frobenius_law_left") > 1e-6, kind


def test_battery_needs_no_entry_order():
    x = REFERENCE_CORPUS["z4xz2xz3"]()
    p = np.random.default_rng(1).permutation(x.mult_val.size)
    shuffled = _with_entries(x, x.mult_out[p], x.mult_left[p], x.mult_right[p], x.mult_val[p])
    assert _assert_matches_reference(shuffled).all_pass
    out = x.mult_out.copy()
    out[5] = 0
    out = out[p]
    assert not _assert_matches_reference(_with_entries(shuffled, out=out)).all_pass


@pytest.mark.parametrize("breakage", ["duplicate-pair", "duplicate-entry", "output-out-of-range"])
def test_layout_violation_fails_every_check_of_m(breakage):
    x = build_quantum_set([2, 1])
    if breakage == "duplicate-pair":  # (left, right) of entry 0 again, with another output
        broken = _with_entries(x, np.append(x.mult_out, 1), np.append(x.mult_left, x.mult_left[0]),
                               np.append(x.mult_right, x.mult_right[0]), np.append(x.mult_val, 0.5))
    elif breakage == "duplicate-entry":  # entry 0 split in two halves
        val = x.mult_val.copy()
        val[0] /= 2
        broken = _with_entries(x, np.append(x.mult_out, x.mult_out[0]),
                               np.append(x.mult_left, x.mult_left[0]),
                               np.append(x.mult_right, x.mult_right[0]), np.append(val, val[0]))
    else:
        out = x.mult_out.copy()
        out[3] = x.N
        broken = _with_entries(x, out=out)
    report = verify_frobenius(broken)
    assert not report.all_pass
    star_only = {"snake_left", "snake_right", "star_involutive", "duality_symmetric",
                 "vertex_count"}
    for c in report.checks:
        if c.name in star_only:
            assert c.passed
        else:
            assert not c.passed and c.residual == math.inf


def test_entry_lookup_matches_a_dict():
    from qgraphs.algebra import _Entries

    x = REFERENCE_CORPUS["blocks-2-1-2-3"]()
    keep = np.random.default_rng(4).random(x.mult_val.size) < 0.7  # rows with gaps
    x = _with_entries(x, x.mult_out[keep], x.mult_left[keep], x.mult_right[keep],
                      x.mult_val[keep])
    e = _Entries.of(x)
    want = {(l, r): i for i, (l, r) in enumerate(zip(x.mult_left.tolist(), x.mult_right.tolist()))}
    # rows -1..N-1 (-1 is a missing entry's output) and right indices -1..N
    ls, rs = (a.ravel() for a in np.meshgrid(np.arange(-1, x.N), np.arange(-1, x.N + 1)))
    for l, r, i in zip(ls.tolist(), rs.tolist(), e.at(ls, rs).tolist()):
        assert i == want.get((l, r), e.k)
    assert e.out[e.k] == -1 and e.val[e.k] == 0


@pytest.mark.parametrize("counts", [[], [0, 0], [3, 0, 5, 1], [70000, 2, 0, 65536, 1]])
def test_expand_enumerates_every_offset_in_bounded_chunks(counts):
    from qgraphs.algebra import _CHUNK, _expand

    counts = np.asarray(counts, dtype=np.int64)
    chunks = list(_expand(counts))
    got = [(i, t) for item, off in chunks for i, t in zip(item.tolist(), off.tolist())]
    assert got == [(i, t) for i, c in enumerate(counts.tolist()) for t in range(c)]
    assert all(item.size <= max(_CHUNK, int(counts.max(initial=0))) for item, _ in chunks)


@pytest.mark.parametrize("make", [lambda: REFERENCE_CORPUS["clifford-6"](),
                                  lambda: build_quantum_set([1] * 4096)])
def test_verify_frobenius_memory_is_bounded(make):
    import tracemalloc

    x = make()
    tracemalloc.start()
    try:
        report = verify_frobenius(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.all_pass
    assert peak <= 16 * 2 ** 20


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


def test_multiplicativity_counts_zero_products():
    # e_0 e_1 = 0 in C(X_2), but both points map to the unit of C(X_1)
    x, y = build_quantum_set([1, 1]), build_quantum_set([1])
    report = check_star_homomorphism(Operator(x, y, np.ones((1, 2))))
    assert "multiplicative" in report.failed()


@pytest.mark.parametrize("pair", [([1, 2], [2, 1]), ([2], [1, 1, 1, 1]), ("clifford-3", "weyl-3")])
def test_multiplicativity_matches_dense_contraction(pair):
    def make(spec):
        return REFERENCE_CORPUS[spec]() if isinstance(spec, str) else build_quantum_set(spec)

    x, y = make(pair[0]), make(pair[1])
    rng = np.random.default_rng(x.N * y.N)
    mx, my = x.dense_mult(), y.dense_mult()
    for fm in (rng.standard_normal((y.N, x.N)) + 1j * rng.standard_normal((y.N, x.N)),
               np.eye(y.N, x.N)):
        lhs = np.einsum("yp,prs->yrs", fm, mx)
        rhs = np.einsum("qrv,vs->qrs", np.einsum("quv,ur->qrv", my, fm), fm)
        want = np.abs(lhs - rhs).max()
        got = check_star_homomorphism(Operator(x, y, fm)).residual("multiplicative")
        assert abs(got - want) <= 64 * EPS * max(1.0, np.abs(rhs).max())


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

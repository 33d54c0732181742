"""Quantum sets: structure tensors, axiom battery, homomorphisms, positivity.

Independent oracles: matrix-unit elements are multiplied as literal numpy
matrices (element_from/to_block_matrices round trips through the structure
constants) and positivity is cross-checked against numpy eigenvalues.
"""

import math

import numpy as np
import pytest
from conftest import (dense_mult, dense_star, random_element, random_positive_element,
                      reference_elements)

from qgraphs import (
    AlgebraElement,
    Operator,
    algebra_multiply,
    algebra_star,
    build_quantum_set,
    check_star_homomorphism,
    element_from_block_matrices,
    element_to_block_matrices,
    is_positive_element,
    schur_star,
    verify_frobenius,
)
from qgraphs.algebra import left_mult_matrix
from qgraphs.errors import InvalidInput, ResourceLimit


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_classical_four_points():
    x = build_quantum_set([1, 1, 1, 1])
    assert x.N == 4
    assert np.array_equal(dense_star(x), np.eye(4))
    # multiplication is the diagonal delta tensor
    m = dense_mult(x)
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
    assert abs(np.vdot(x.unit_vec, x.unit_vec) - 14) < 1e-12


def test_build_rejects_bad_input():
    with pytest.raises(InvalidInput):
        build_quantum_set([])
    with pytest.raises(InvalidInput):
        build_quantum_set([2, 0])


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
    from qgraphs import twist_quantum_set
    from qgraphs.groups import AbelianGroup, Bicharacter

    group = AbelianGroup(orders)
    return twist_quantum_set(group, Bicharacter(group, gen_values))


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
    assert np.array_equal(x.mult.out, out) and np.array_equal(x.mult.left, lft)
    assert np.array_equal(x.mult.right, rgt)
    assert x.mult.val.tobytes() == val.tobytes()
    assert x.unit_vec.tobytes() == unit.tobytes()
    assert np.array_equal(dense_star(x), star)
    assert np.array_equal(x.star_phase, np.ones(x.N))


@pytest.mark.parametrize("name", [f"clifford-{n}" for n in range(2, 7)]
                         + ["weyl-3", "weyl-6", "z6xz6-nonsymmetric"])
def test_generic_schur_product_matches_the_dense_contraction(name):
    from conftest import dense_schur_product

    from qgraphs import schur_product
    from qgraphs.clifford import clifford_set
    from qgraphs.groups import twist_quantum_set
    from qgraphs.weyl import weyl_bicharacter

    kind, _, n = name.partition("-")
    if kind == "clifford":
        x = clifford_set(int(n))
    elif kind == "weyl":
        sigma = weyl_bicharacter(int(n))
        x = twist_quantum_set(sigma.group, sigma)
    else:
        x = TWISTED_SETS[name]()
    rng = np.random.default_rng(x.N)
    for _ in range(3):  # non-diagonal operands: the generic contraction over m's entries
        a, b = (rng.standard_normal((x.N, x.N)) + 1j * rng.standard_normal((x.N, x.N))
                for _ in range(2))
        scale = np.abs(a).max() * np.abs(b).max()
        assert np.abs(schur_product(x, a, b) - dense_schur_product(x, a, b)).max() <= 1e-13 * scale


def _star_consumers_match_dense(x, f):
    """Every reader of the stored star agrees with the dense-matrix formula."""
    rng = np.random.default_rng(x.N)
    c = rng.standard_normal(x.N) + 1j * rng.standard_normal(x.N)
    a = rng.standard_normal((x.N, x.N)) + 1j * rng.standard_normal((x.N, x.N))
    assert np.abs(algebra_star(AlgebraElement(x, c)).coeffs - f.T @ np.conj(c)).max() < 1e-12
    assert np.abs(schur_star(x, a) - f.T @ np.conj(a) @ np.conj(f)).max() < 1e-12
    if x.N <= 64:
        u = rng.standard_normal((x.N, x.N)) + 1j * rng.standard_normal((x.N, x.N))
        checks = check_star_homomorphism(Operator(x, x, u)).checks
        got = next(c.residual for c in checks if c.name == "star_preserving")
        assert abs(got - np.abs(u @ f.T - f.T @ np.conj(u)).max()) < 1e-12


@pytest.mark.parametrize("blocks", [[2, 1, 2, 3], [3, 2]])
def test_block_star_consumers_match_dense_star(blocks):
    _star_consumers_match_dense(build_quantum_set(blocks), _per_entry_blocks(blocks)[-1])


@pytest.mark.parametrize("name", sorted(TWISTED_SETS))
def test_twisted_star_matches_dense_star(name):
    x = TWISTED_SETS[name]()
    f = _dense_twisted_star(x)
    assert np.array_equal(dense_star(x), f)
    for mu, el in enumerate(reference_elements(x.group.orders)):  # the source is the negation
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
    one = AlgebraElement(x, x.unit_vec)
    for _ in range(10):
        v = random_element(x, rng)
        assert np.abs(algebra_multiply(one, v).coeffs - v.coeffs).max() < 1e-12
        assert np.abs(algebra_multiply(v, one).coeffs - v.coeffs).max() < 1e-12


@pytest.mark.parametrize("blocks", [[2], [1, 2, 3], [3, 3]])
def test_associativity_on_100_random_triples(blocks):
    x = build_quantum_set(blocks)
    rng = np.random.default_rng(sum(blocks))
    one = AlgebraElement(x, x.unit_vec)
    for _ in range(100):
        a, b, c = (random_element(x, rng) for _ in range(3))
        scale = max(1.0, np.abs(a.coeffs).max() * np.abs(b.coeffs).max()
                    * np.abs(c.coeffs).max())
        lhs = algebra_multiply(algebra_multiply(a, b), c).coeffs
        rhs = algebra_multiply(a, algebra_multiply(b, c)).coeffs
        assert np.abs(lhs - rhs).max() <= 1e-9 * scale
        assert np.abs(algebra_multiply(one, a).coeffs - a.coeffs).max() <= 1e-9 * scale


def test_multiply_rejects_set_mismatch():
    m2, classical = build_quantum_set([2]), build_quantum_set([1, 1, 1, 1])
    a, b = AlgebraElement(m2, m2.unit_vec), AlgebraElement(classical, classical.unit_vec)
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
    d1 = AlgebraElement(x, [1.0, 0.0])
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
    assert abs(np.vdot(m3.unit_vec, m3.unit_vec) - 9) < 1e-12
    m2 = build_quantum_set([2])
    e11 = element_from_block_matrices(m2, [_unit_matrix(2, 0, 0)])
    assert abs(np.vdot(m2.unit_vec, e11.coeffs) - 2) < 1e-12
    e12 = element_from_block_matrices(m2, [_unit_matrix(2, 0, 1)])
    assert abs(np.vdot(m2.unit_vec, e12.coeffs)) < 1e-12


def test_counit_pairs_with_multiplication():
    # eta^dag m = R^dag entrywise
    x = build_quantum_set([2, 3])
    pair = np.zeros((x.N, x.N), dtype=complex)
    np.add.at(pair, (x.mult.left, x.mult.right),
              x.mult.val * np.conj(x.unit_vec[x.mult.out]))
    assert np.abs(pair - np.conj(dense_star(x))).max() < 1e-12


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
    vals = x.mult.val.copy()
    vals[0] += 1e-3
    import dataclasses
    broken = dataclasses.replace(x)
    broken.mult = x.mult._replace(val=vals)
    report = verify_frobenius(broken)
    failed = report.failed()
    assert "specialness_mmdag" in failed
    assert "associativity" in failed
    # a copy derives m from its presentation again
    assert verify_frobenius(dataclasses.replace(broken)).all_pass


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

    y = dataclasses.replace(x)
    y.mult = x.mult._replace(**{k: v for k, v in zip(x.mult._fields, (out, lft, rgt, val))
                                if v is not None})
    return y


#: the checks proved from the presentation on a twisted set, which reports a bound on the
#: residual its N^3 terms give
PROVED = ("associativity", "frobenius_law_left", "frobenius_law_right")


def _assert_matches_reference(x, proved=False):
    """The battery's residuals are the reference's; with ``proved``, those of PROVED
    are bounds on the reference's that pass."""
    from conftest import reference_frobenius_residuals

    report = verify_frobenius(x)
    want = reference_frobenius_residuals(x)
    assert sorted(c.name for c in report.checks) == sorted(want)
    for c in report.checks:
        if c.name in STAR_CHECKS:
            assert abs(c.residual - want[c.name]) <= 8 * EPS, c.name
        elif proved and c.name in PROVED:
            assert want[c.name] <= c.residual and c.passed, c.name
        else:
            assert c.residual == want[c.name], c.name
    return report


@pytest.mark.parametrize("name", sorted(REFERENCE_CORPUS))
def test_battery_matches_sorted_key_reference(name):
    x = REFERENCE_CORPUS[name]()
    assert _assert_matches_reference(x, proved=x.group is not None).all_pass


def _enumerated(x):
    """The residuals of PROVED from their N^3 terms, as every other set's are found."""
    from qgraphs.algebra import _associativity, _Entries, _frobenius_law

    e = _Entries.of(x)
    frobenius = _frobenius_law(e)
    return {"associativity": _associativity(e), "frobenius_law_left": frobenius,
            "frobenius_law_right": frobenius}


def _spy(monkeypatch, name):
    """The calls of ``qgraphs.algebra.<name>`` from now on, each made as before."""
    from qgraphs import algebra

    calls, real = [], getattr(algebra, name)
    monkeypatch.setattr(algebra, name, lambda *args: calls.append(args) or real(*args))
    return calls


def test_twisted_sets_are_proved_with_the_enumeration_verdicts(monkeypatch):
    from conftest import twisted_family
    from qgraphs.clifford import clifford_set
    from qgraphs.kernels import scale_of

    sets = dict(twisted_family())
    sets.update((name, make()) for name, make in REFERENCE_CORPUS.items()
                if not name.startswith("blocks-"))
    sets.update((f"Cl_{n}", clifford_set(n)) for n in range(2, 9))
    enumerated = {name: _enumerated(x) for name, x in sets.items()}
    calls = [_spy(monkeypatch, "_associativity"), _spy(monkeypatch, "_frobenius_law")]
    for name, x in sets.items():
        report = verify_frobenius(x)
        assert report.all_pass, (name, report.failed())
        tol = report.tol * scale_of(x.mult.val, x.star_phase, x.unit_vec)
        # exact when every root is 1, -1, i or -i: the products of one class are equal
        quarter = np.isin(x.bicharacter.table(), [1, -1, 1j, -1j]).all()
        for c in report.checks:
            if c.name in PROVED:
                assert enumerated[name][c.name] <= c.residual <= tol, (name, c.name)
                assert c.residual == 0.0 or not quarter, (name, c.name)
    assert calls == [[], []]


def _off_presentation(tamper):
    """A set the proof must not read: a block set, a twisted set whose m has one zero's
    sign flipped, or one whose exponent denominator 8 on Z_4 does not divide gcd(4, 4)."""
    from qgraphs.clifford import clifford_set
    from qgraphs.groups import AbelianGroup, Bicharacter, twist_quantum_set

    if tamper == "blocks":
        return build_quantum_set([2, 1])
    if tamper == "signed-zero":
        x = clifford_set(3)
        val = x.mult.val.copy()
        assert val[5].imag == 0.0
        val[5] = complex(val[5].real, -val[5].imag)
        return _with_entries(x, val=val)
    group = AbelianGroup((4,))
    sigma = Bicharacter(group, np.array([[1j]]))
    sigma._exp_den = np.array([[8]])
    return twist_quantum_set(group, sigma)


@pytest.mark.parametrize("tamper", ["blocks", "signed-zero", "exponent-denominator"])
def test_a_set_off_its_presentation_is_enumerated(tamper, monkeypatch):
    x = _off_presentation(tamper)
    enumerated = _enumerated(x)
    calls = [_spy(monkeypatch, "_associativity"), _spy(monkeypatch, "_frobenius_law")]
    report = verify_frobenius(x)
    assert list(map(len, calls)) == [1, 1]
    for c in report.checks:
        if c.name in PROVED:
            assert c.residual == enumerated[c.name], c.name
    # zeta_8^(mu nu) is no cocycle on Z_4: (b_2 b_2) b_1 has the exponents 4 + 0 and
    # b_2 (b_2 b_1) has 2 + 6 = 0 mod 8
    assert report.all_pass == (tamper != "exponent-denominator")


def _in_layout(m):
    """Entries in (left, right) order, each row's right indices one run, and no
    two entries of one row on one output: the layout QuantumSet.mult derives."""
    l, r, o = m.left.tolist(), m.right.tolist(), m.out.tolist()
    runs = all(l2 > l1 or (l2 == l1 and r2 == r1 + 1)
               for l1, r1, l2, r2 in zip(l, r, l[1:], r[1:]))
    return runs and len(set(zip(l, o))) == len(o)


#: the checks that read only the star and the unit, never m
STAR_ONLY = STAR_CHECKS + ("vertex_count",)


def _assert_refused(broken, x):
    """Every check that reads m fails with residual inf; the rest keep the intact set's values."""
    want = {c.name: c.residual for c in verify_frobenius(x).checks}
    for c in verify_frobenius(broken).checks:
        if c.name in STAR_ONLY:
            assert c.residual == want[c.name], c.name
        else:
            assert not c.passed and c.residual == math.inf, c.name


def _corruptions(x, rng):
    """One value perturbed, one output misrouted (to a random slot and to slot 0),
    one entry dropped, and one row sent wholly to a single output."""
    k = x.mult.val.size
    for i in rng.integers(0, k, 3):
        val = x.mult.val.copy()
        val[i] += 1e-3 * (1 - 2j)
        yield "value", _with_entries(x, val=val)
        out = x.mult.out.copy()
        out[i] = (out[i] + 1 + rng.integers(0, x.N - 1)) % x.N if x.N > 1 else out[i]
        yield "misrouted", _with_entries(x, out=out)
        out = x.mult.out.copy()
        out[i] = 0 if out[i] else 1
        yield "misrouted-to-0", _with_entries(x, out=out)
        keep = np.arange(k) != i
        yield "dropped", _with_entries(x, x.mult.out[keep], x.mult.left[keep],
                                       x.mult.right[keep], x.mult.val[keep])
    out = x.mult.out.copy()
    out[x.mult.left == x.mult.left[k // 2]] = x.mult.out[k // 2]
    yield "row-to-one-output", _with_entries(x, out=out)


@pytest.mark.parametrize("name", ["clifford-3", "clifford-4", "weyl-3", "z4xz2xz3",
                                  "blocks-2-1-2-3", "blocks-1-2-3-4"])
def test_battery_matches_reference_on_corrupted_sets(name):
    """A corruption that keeps the layout matches the reference; any other is refused."""
    x = REFERENCE_CORPUS[name]()
    rng = np.random.default_rng(x.N)
    for kind, broken in _corruptions(x, rng):
        if not _in_layout(broken.mult):
            _assert_refused(broken, x)
            continue
        report = _assert_matches_reference(broken)
        assert not report.all_pass, kind
        residual = {c.name: c.residual for c in report.checks}
        assert residual["associativity"] > 1e-6 or residual["frobenius_law_left"] > 1e-6, kind


def test_battery_refuses_permuted_entries():
    x = REFERENCE_CORPUS["z4xz2xz3"]()
    p = np.random.default_rng(1).permutation(x.mult.val.size)
    shuffled = _with_entries(x, x.mult.out[p], x.mult.left[p], x.mult.right[p], x.mult.val[p])
    _assert_refused(shuffled, x)


def _star_reversal_by_every_basis_pair(x):
    """max |(e_l e_r)* - e_r* e_l*| over every basis pair, from the dense m and R."""
    m, f = dense_mult(x), dense_star(x)
    lhs = np.einsum("olr,oq->lrq", np.conj(m), f)
    rhs = np.einsum("qab,ra,lb->lrq", m, f, f)
    return float(np.abs(lhs - rhs).max())


def _negated_star(x):
    import dataclasses

    return dataclasses.replace(x, star_phase=-x.star_phase)


def test_star_antimultiplicative_agrees_with_every_basis_pair():
    from conftest import twisted_family

    sets = [x for _, x in twisted_family() if x.N <= 36]
    sets += [build_quantum_set(b) for b in ([1, 2, 3], [2, 1, 2], [4])]
    for x in sets + [_negated_star(x) for x in sets]:
        got = next(c for c in verify_frobenius(x).checks if c.name == "star_antimultiplicative")
        assert abs(got.residual - _star_reversal_by_every_basis_pair(x)) <= 8 * EPS
        assert got.passed == (x in sets)


def test_negated_star_does_not_reverse_products():
    # on Cl_3 (e_l e_r)* and e_r* e_l* then differ in sign: 2 |m| = 2 / sqrt(8) apart
    from qgraphs.clifford import clifford_set

    report = verify_frobenius(_negated_star(clifford_set(3)))
    assert "star_antimultiplicative" in report.failed()
    got = next(c.residual for c in report.checks if c.name == "star_antimultiplicative")
    assert got == pytest.approx(1 / math.sqrt(2), abs=8 * EPS)


@pytest.mark.parametrize("corruption",
                         ["dropped-last-of-row", "misrouted", "misrouted-and-doubled"])
def test_right_side_passes_match_the_reference(corruption, monkeypatch):
    """Each corruption keeps the layout, and some right-side terms find no partner
    on the left, so the right-side passes run.  On the misrouted sets only they see
    the largest residual of the Frobenius law, and on the doubled one of associativity
    too; there the Frobenius pass must also tell a found key from its sorted neighbour."""
    from qgraphs.algebra import _Entries

    x = build_quantum_set([2, 1])
    out, val = x.mult.out.copy(), x.mult.val.copy()
    if corruption == "dropped-last-of-row":  # entry 1 ends row 0
        keep = np.arange(val.size) != 1
        broken = _with_entries(x, out[keep], x.mult.left[keep], x.mult.right[keep], val[keep])
    else:
        if corruption == "misrouted":  # entry 0 to output 4
            out[0] = 4
        else:  # entry 3 to output 3, its value doubled
            out[3], val[3] = 3, 2 * val[3]
        broken = _with_entries(x, out=out, val=val)
    assert _in_layout(broken.mult) and _Entries.of(broken) is not None
    calls = []
    by_output = _Entries.by_output
    monkeypatch.setattr(_Entries, "by_output", lambda e: calls.append(1) or by_output(e))
    assert not _assert_matches_reference(broken).all_pass
    assert calls


@pytest.mark.parametrize("breakage", ["duplicate-pair", "duplicate-entry", "output-out-of-range",
                                      "permuted", "gap-in-row", "crowded-row"])
def test_layout_violation_fails_every_check_of_m(breakage):
    x = build_quantum_set([2, 1])
    out, lft, rgt = x.mult.out.copy(), x.mult.left.copy(), x.mult.right.copy()
    if breakage == "duplicate-pair":  # (left, right) of entry 0 again, with another output
        broken = _with_entries(x, np.append(out, 1), np.append(lft, lft[0]),
                               np.append(rgt, rgt[0]), np.append(x.mult.val, 0.5))
    elif breakage == "duplicate-entry":  # entry 0 split in two halves
        val = x.mult.val.copy()
        val[0] /= 2
        broken = _with_entries(x, np.append(out, out[0]), np.append(lft, lft[0]),
                               np.append(rgt, rgt[0]), np.append(val, val[0]))
    elif breakage == "permuted":  # entries 0 and 1 of row 0 swapped
        p = np.r_[1, 0, 2:x.mult.val.size]
        broken = _with_entries(x, out[p], lft[p], rgt[p], x.mult.val[p])
    elif breakage == "gap-in-row":  # row 0's right indices 0, 2
        rgt[1] += 1
        broken = _with_entries(x, rgt=rgt)
    elif breakage == "crowded-row":  # row 0's two entries on one output
        out[1] = out[0]
        broken = _with_entries(x, out=out)
    else:
        out[3] = x.N
        broken = _with_entries(x, out=out)
    assert not _in_layout(broken.mult) or breakage == "output-out-of-range"
    _assert_refused(broken, x)
    assert verify_frobenius(x).all_pass


def test_entry_lookup_matches_a_dict():
    from qgraphs.algebra import _Entries

    for x in (make() for make in REFERENCE_CORPUS.values()):
        e = _Entries.of(x)
        want = {(l, r): i for i, (l, r) in
                enumerate(zip(x.mult.left.tolist(), x.mult.right.tolist()))}
        # rows -1..N-1 (-1 is a missing entry's output) and right indices -1..N
        ls, rs = (a.ravel() for a in np.meshgrid(np.arange(-1, x.N), np.arange(-1, x.N + 1)))
        for l, r, i in zip(ls.tolist(), rs.tolist(), e.at(ls, rs).tolist()):
            assert i == want.get((l, r), e.k)
        assert e.out[e.k] == -1 and e.val[e.k] == 0
    # a row with a gap in its run of right indices leaves the layout
    x = REFERENCE_CORPUS["blocks-2-1-2-3"]()
    _, first, cnt = np.unique(x.mult.left, return_index=True, return_counts=True)
    keep = np.arange(x.mult.val.size) != first[cnt >= 3][0] + 1  # a middle entry
    gap = _with_entries(x, x.mult.out[keep], x.mult.left[keep], x.mult.right[keep],
                        x.mult.val[keep])
    assert _Entries.of(gap) is None


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
    mat = dense_star(x)  # (i,j) -> (j,i) permutation, entries 1
    report = check_star_homomorphism(Operator(x, x, mat))
    assert not report.all_pass
    assert "multiplicative" in report.failed()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_map_whose_products_leave_the_float_range_is_refused():
    # the identity on M_2 with one entry 1.6e154: its square on e_00 e_00 passes 1.8e308
    x = build_quantum_set([2])
    mat = np.eye(4, dtype=complex)
    mat[0, 0] = 1.6e154
    with pytest.raises(InvalidInput, match=r"^f\(e_r e_s\) or f\(e_r\) f\(e_s\) leaves the float range$"):
        check_star_homomorphism(Operator(x, x, mat))
    mat[0, 0] = 1e150  # in range: a failed check
    assert "multiplicative" in check_star_homomorphism(Operator(x, x, mat)).failed()


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
    mx, my = dense_mult(x), dense_mult(y)
    for fm in (rng.standard_normal((y.N, x.N)) + 1j * rng.standard_normal((y.N, x.N)),
               np.eye(y.N, x.N)):
        lhs = np.einsum("yp,prs->yrs", fm, mx)
        rhs = np.einsum("qrv,vs->qrs", np.einsum("quv,ur->qrv", my, fm), fm)
        want = np.abs(lhs - rhs).max()
        checks = check_star_homomorphism(Operator(x, y, fm)).checks
        got = next(c.residual for c in checks if c.name == "multiplicative")
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
        assert is_positive_element(left_mult_matrix(p))
        # oracle: block matrices of x^* x are PSD
        for mat in element_to_block_matrices(p):
            assert np.linalg.eigvalsh(mat).min() > -1e-9
    # a visibly non-positive element
    neg = AlgebraElement(x, -x.unit_vec)
    assert not is_positive_element(left_mult_matrix(neg))


def test_left_mult_matrix_is_faithful_product():
    x = build_quantum_set([1, 2])
    rng = np.random.default_rng(11)
    a, b = random_element(x, rng), random_element(x, rng)
    assert np.abs(left_mult_matrix(a) @ b.coeffs
                  - algebra_multiply(a, b).coeffs).max() < 1e-12

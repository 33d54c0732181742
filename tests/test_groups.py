"""Abelian groups, characters, Cayley graphs, bicharacters and twists."""

import numpy as np
import pytest
from conftest import (
    dense_mult,
    dense_schur_product,
    leg_phases,
    random_bicharacter,
    random_twist_instance,
    reference_elements,
    reference_fourier_matrix,
    twist_tensor,
    twisted_family,
)

from qgraphs import (
    AlgebraElement,
    algebra_multiply,
    cayley_spectrum,
    classical_cayley,
    graph_report,
    make_bicharacter,
    schur_product,
    schur_star,
    trivial_bicharacter,
    twist_quantum_set,
    twisted_cayley,
    verify_frobenius,
)
from qgraphs.clifford import clifford_bicharacter
from qgraphs.errors import InvalidInput, ResourceLimit
from qgraphs.groups import AbelianGroup
from qgraphs.kernels import unit_root
from qgraphs.weyl import weyl_bicharacter


# ---------------------------------------------------------------------------
# characters and classical Cayley graphs
# ---------------------------------------------------------------------------


def _reference_index(orders, el):
    return reference_elements(orders).index(tuple(x % n for x, n in zip(el, orders)))


@pytest.mark.parametrize("orders", [(1,), (3, 1, 2), (4, 2, 3), (6, 6), (2,) * 5])
def test_group_arithmetic_follows_the_element_definitions(orders):
    group = AbelianGroup(orders)
    els = reference_elements(orders)
    neg = group.negation()
    assert group.size == len(els)
    assert group.elements() == tuple(els)
    assert all(type(v) is int for el in group.elements() for v in el)
    assert np.array_equal(group.coords(), np.asarray(els).reshape(len(els), len(orders)))
    for k, el in enumerate(els):
        assert group.index(el) == k
        shifted = tuple(x + 3 * n for x, n in zip(el, orders))  # coordinates are residues
        assert group.index(shifted) == k
        assert group.index(tuple(x - n for x, n in zip(el, orders))) == k
        assert neg[k] == _reference_index(orders, tuple(-x for x in el))
    with pytest.raises(InvalidInput):
        group.index((0,) * (len(orders) + 1))


def test_group_size_is_exact_beyond_64_bits():
    # an int64 product wraps 2**32 * 2**32 to 0, which the size check would admit
    with pytest.raises(ResourceLimit, match="N = 2\\*\\*64 or more refused"):
        AbelianGroup((2**32, 2**32))
    with pytest.raises(ResourceLimit, match=f"N = {2**62} refused"):
        AbelianGroup((2**31, 2**31))


def test_group_rank_stays_within_numpy_dimensions():
    group = AbelianGroup((1,) * 30 + (2,))
    assert group.elements() == ((0,) * 31, (0,) * 30 + (1,))
    assert np.array_equal(cayley_spectrum(group, [(0,) * 30 + (1,)]), [1.0, -1.0])
    with pytest.raises(InvalidInput, match="at most 31 cyclic factors"):
        AbelianGroup((1,) * 31 + (2,))


def test_fourier_z2():
    group = AbelianGroup((2,))
    f = reference_fourier_matrix(group)
    assert np.array_equal(f, np.array([[1, 1], [1, -1]], dtype=complex))
    assert np.abs(f @ f.conj().T / 2 - np.eye(2)).max() < 1e-15
    # the spectrum of S = {theta} is the row F[-theta, :]
    assert np.array_equal(cayley_spectrum(group, [(1,)]), f[1])


def test_fourier_z4_column():
    group = AbelianGroup((4,))
    f = reference_fourier_matrix(group)
    assert np.allclose(f[:, 1], [1, 1j, -1, -1j])
    assert np.abs(f @ f.conj().T / 4 - np.eye(4)).max() < 1e-15
    assert np.array_equal(cayley_spectrum(group, [(3,)]), [1, 1j, -1, -1j])


def test_fourier_z2xz2_rows_multiplicative():
    group = AbelianGroup((2, 2))
    f = reference_fourier_matrix(group)
    assert np.array_equal(f.imag, np.zeros((4, 4)))
    assert set(np.unique(f.real)) == {-1.0, 1.0}
    # each row is multiplicative: tau_mu(a + b) = tau_mu(a) tau_mu(b)
    table = group.addition_table()
    for mu in range(4):
        for a in range(4):
            for b in range(4):
                assert f[table[a, b], mu] == f[a, mu] * f[b, mu]


@pytest.mark.parametrize("orders", [(2,) * 6, (6, 6), (16, 16), (4, 2, 3), (5,), (4, 4), (1, 2, 4)])
def test_cayley_spectrum_sums_the_fourier_matrix_rows_bit_for_bit(orders):
    """The FFT gives the character-row sum exactly when every factor has order 1, 2
    or 4 (all its twiddle factors are exact); other orders round differently."""
    group = AbelianGroup(orders)
    rng = np.random.default_rng(len(orders))
    gens = [group.elements()[k] for k in rng.integers(0, group.size, 7)] + [(7,) * len(orders)]
    f = reference_fourier_matrix(group)
    want = np.zeros(group.size, dtype=complex)
    for theta in gens:
        want += f[_reference_index(orders, tuple(-x for x in theta)), :]
    got = cayley_spectrum(group, gens)
    if set(orders) <= {1, 2, 4}:
        assert got.tobytes() == want.tobytes()
    else:
        assert np.abs(got - want).max() < 1e-12


def test_cayley_four_cycle():
    g = classical_cayley(AbelianGroup((4,)), [(1,), (3,)])
    want = np.array([[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]],
                    dtype=complex)
    assert np.array_equal(g.adjacency, want)
    rep = graph_report(g)
    assert rep.is_simple and abs(rep.regular_degree - 2) < 1e-12


def test_cayley_cube():
    group = AbelianGroup((2, 2, 2))
    g = classical_cayley(group, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    rep = graph_report(g)
    assert rep.is_simple
    assert rep.vertices == 8 and abs(rep.regular_degree - 3) < 1e-12


def test_cayley_zero_generator_gives_loops():
    g = classical_cayley(AbelianGroup((3,)), [(0,)])
    assert np.array_equal(g.adjacency, np.eye(3, dtype=complex))


@pytest.mark.parametrize("orders, gens", [
    ((4, 2, 3), [(1, 0, 2), (1, 0, 2), (0, 0, 0), (3, 1, 1), (5, -1, 7)]),
    ((6, 6), [(0, 0), (0, 0), (1, 5), (5, 1), (2, 0), (2, 0), (2, 0)]),
    ((2,) * 5, [(1, 0, 0, 1, 1), (0,) * 5, (1, 0, 0, 1, 1)]),
    ((3, 1, 2), []),
])
def test_classical_cayley_adds_one_addition_table_row_per_generator(orders, gens):
    group = AbelianGroup(orders)
    table = group.addition_table()
    want = np.zeros((group.size, group.size), dtype=complex)
    for theta in gens:
        want[table[_reference_index(orders, theta), :], np.arange(group.size)] += 1.0
    assert np.array_equal(classical_cayley(group, gens).adjacency, want)


def test_cayley_spectrum_formulas():
    # hypercube: n - 2 deg(mu)
    group = AbelianGroup((2,) * 4)
    lam = cayley_spectrum(group, [tuple(r) for r in np.eye(4, dtype=int)])
    for k, mu in enumerate(group.elements()):
        assert abs(lam[k] - (4 - 2 * sum(mu))) < 1e-12
    # rook on Z_3 x Z_3
    group = AbelianGroup((3, 3))
    gens = [(a, 0) for a in (1, 2)] + [(0, b) for b in (1, 2)]
    lam = cayley_spectrum(group, gens)
    for k, (a, b) in enumerate(group.elements()):
        want = 3 * (a == 0) + 3 * (b == 0) - 2
        assert abs(lam[k] - want) < 1e-12
    assert np.abs(cayley_spectrum(group, [])).max() == 0.0


def test_cayley_eigen_relation():
    rng = np.random.default_rng(1)
    for _ in range(5):
        group, gens, _ = random_twist_instance(rng)
        if group.size > 40:
            continue
        g = classical_cayley(group, gens)
        f = reference_fourier_matrix(group)
        lam = cayley_spectrum(group, gens)
        resid = np.abs(g.adjacency @ f - f * lam[None, :]).max()
        assert resid < 1e-9 * max(1.0, np.abs(lam).max())


# ---------------------------------------------------------------------------
# bicharacters
# ---------------------------------------------------------------------------


def test_trivial_bicharacter_everywhere_one():
    sigma = trivial_bicharacter(AbelianGroup((2, 3)))
    assert np.array_equal(sigma.table(), np.ones((6, 6), dtype=complex))


def test_sign_bicharacter_on_z2_squared():
    sigma = make_bicharacter(AbelianGroup((2, 2)), [[1, 1], [-1, 1]])
    assert sigma.value((0, 1), (1, 0)) == -1
    assert sigma.value((1, 0), (0, 1)) == 1


def test_bicharacter_order_condition_rejected():
    with pytest.raises(InvalidInput) as err:
        make_bicharacter(AbelianGroup((3, 3)), [[1, -1], [1, 1]])
    assert "(0,1)" in str(err.value)


def test_bicharacter_rejects_non_unimodular():
    with pytest.raises(InvalidInput):
        make_bicharacter(AbelianGroup((2, 2)), [[1, 1], [0.5, 1]])


def test_replaced_gen_values_rebuild_the_exponents():
    import dataclasses

    sigma = clifford_bicharacter(2)
    replaced = dataclasses.replace(sigma, gen_values=np.ones((2, 2)))
    assert np.array_equal(replaced.table(), trivial_bicharacter(sigma.group).table())
    with pytest.raises(InvalidInput) as err:
        dataclasses.replace(sigma, gen_values=[[1, 1], [1j, 1]])
    assert "(1,0)" in str(err.value)


def test_bicharacter_laws_spot_checked():
    rng = np.random.default_rng(3)
    for _ in range(5):
        group, _, sigma = random_twist_instance(rng)
        table = sigma.table()
        add = group.addition_table()
        n = group.size
        idx = rng.integers(0, n, size=(10, 3))
        for a, b, c in idx:
            assert abs(table[add[a, b], c] - table[a, c] * table[b, c]) < 1e-12
            assert abs(table[a, add[b, c]] - table[a, b] * table[a, c]) < 1e-12
            assert abs(abs(table[a, b]) - 1) < 1e-12


def _reference_table(sigma):
    """sigma(mu, nu) as the product of the generator values, entry by entry."""
    group = sigma.group
    table = np.ones((group.size, group.size), dtype=complex)
    for a, mu in enumerate(group.elements()):
        for b, nu in enumerate(group.elements()):
            for i in range(group.rank):
                for j in range(group.rank):
                    table[a, b] *= sigma.gen_values[i, j] ** (mu[i] * nu[j])
    return table


def test_bicharacter_table_is_the_exact_multiplicative_extension():
    rng = np.random.default_rng(5)
    for orders in [(2, 2, 2), (4, 6), (3, 3), (2, 4, 8), (5, 5)]:
        group = AbelianGroup(orders)
        sigma = random_bicharacter(group, rng)
        table = sigma.table()
        assert np.abs(table - _reference_table(sigma)).max() < 1e-12
        # exact roots of unity: each entry is a lookup in the unit_root table
        lcm = int(np.lcm.reduce(sigma._exp_den.ravel()))
        roots = np.array([unit_root(k, lcm) for k in range(lcm)])
        assert np.isin(table, roots).all()


def test_twisted_structure_constants_are_the_tables_in_row_major_order():
    rng = np.random.default_rng(6)
    group = AbelianGroup((2, 4, 3))
    sigma = random_bicharacter(group, rng)
    x = twist_quantum_set(group, sigma)
    n = group.size
    pairs = [(mu, nu) for mu in range(n) for nu in range(n)]
    assert np.array_equal(x.mult.left, [mu for mu, _ in pairs])
    assert np.array_equal(x.mult.right, [nu for _, nu in pairs])
    assert np.array_equal(x.mult.out, [group.addition_table()[mu, nu] for mu, nu in pairs])
    want = [np.conj(sigma.table()[mu, nu]) / np.sqrt(n) for mu, nu in pairs]
    assert np.array_equal(x.mult.val, want)


# ---------------------------------------------------------------------------
# twisted quantum sets
# ---------------------------------------------------------------------------


def _tau(x, mu):
    coeffs = np.zeros(x.N, dtype=complex)
    coeffs[x.group.index(mu)] = np.sqrt(x.N)
    return AlgebraElement(x, coeffs)


def test_trivial_twist_is_commutative_and_frobenius():
    group = AbelianGroup((2, 3))
    x = twist_quantum_set(group, trivial_bicharacter(group))
    assert verify_frobenius(x).all_pass
    rng = np.random.default_rng(0)
    a = AlgebraElement(x, rng.standard_normal(6) + 1j * rng.standard_normal(6))
    b = AlgebraElement(x, rng.standard_normal(6) + 1j * rng.standard_normal(6))
    assert np.abs(algebra_multiply(a, b).coeffs - algebra_multiply(b, a).coeffs).max() < 1e-12


def test_clifford_twist_anticommutes():
    sigma = clifford_bicharacter(2)
    x = twist_quantum_set(sigma.group, sigma)
    t1, t2 = _tau(x, (1, 0)), _tau(x, (0, 1))
    lhs = algebra_multiply(t1, t2).coeffs
    rhs = algebra_multiply(t2, t1).coeffs
    assert np.abs(lhs + rhs).max() < 1e-14


def test_weyl_twist_commutation_phase():
    for n in (2, 3, 5):
        sigma = weyl_bicharacter(n)
        x = twist_quantum_set(sigma.group, sigma)
        t1, t2 = _tau(x, (1, 0)), _tau(x, (0, 1))
        lhs = algebra_multiply(t1, t2).coeffs
        rhs = algebra_multiply(t2, t1).coeffs
        assert np.abs(lhs - unit_root(1, n) * rhs).max() < 1e-12


def test_twisted_counit():
    rng = np.random.default_rng(5)
    group, _, sigma = random_twist_instance(rng)
    x = twist_quantum_set(group, sigma)
    for k, mu in enumerate(group.elements()):
        val = np.vdot(x.unit_vec, _tau(x, mu).coeffs)
        want = x.N if all(v == 0 for v in mu) else 0.0
        assert abs(val - want) < 1e-9


@pytest.mark.parametrize("seed", range(6))
def test_twisted_sets_pass_frobenius(seed):
    rng = np.random.default_rng(100 + seed)
    group, _, sigma = random_twist_instance(rng)
    x = twist_quantum_set(group, sigma)
    report = verify_frobenius(x)
    assert report.all_pass, report.failed()


# ---------------------------------------------------------------------------
# twisted Cayley graphs
# ---------------------------------------------------------------------------


def test_trivial_twist_is_fourier_conjugated_classical():
    group = AbelianGroup((2, 2))
    gens = [(1, 0), (0, 1)]
    g_classical = classical_cayley(group, gens)
    g_twisted = twisted_cayley(group, gens, trivial_bicharacter(group))
    f = reference_fourier_matrix(group)
    conj = f.conj().T @ g_classical.adjacency @ f / group.size
    assert np.abs(conj - g_twisted.adjacency).max() < 1e-12


def test_twisted_cayley_is_schur_idempotent_and_selfadjoint():
    rng = np.random.default_rng(7)
    for _ in range(8):
        group, gens, sigma = random_twist_instance(rng, allow_repeats=False)
        g = twisted_cayley(group, gens, sigma)
        a = g.adjacency
        assert np.abs(schur_product(g.set, a, a) - a).max() < 1e-9 * max(1.0, np.abs(a).max())
        assert np.abs(schur_star(g.set, a) - a).max() < 1e-9 * max(1.0, np.abs(a).max())


def test_twisted_report_matches_classical():
    rng = np.random.default_rng(21)
    for _ in range(6):
        group, gens, sigma = random_twist_instance(rng)
        rep_c = graph_report(classical_cayley(group, gens)).invariants()
        rep_t = graph_report(twisted_cayley(group, gens, sigma)).invariants()
        for key in rep_c:
            a, b = rep_c[key], rep_t[key]
            if isinstance(a, (complex, float)) and a is not None:
                assert abs(a - b) < 1e-8, (key, a, b)
            else:
                assert a == b, (key, a, b)


def test_multiset_generators_make_multigraphs():
    group = AbelianGroup((4,))
    gens = [(1,), (1,), (3,), (3,)]  # each generator twice
    for g in (classical_cayley(group, gens),
              twisted_cayley(group, gens, trivial_bicharacter(group))):
        rep = graph_report(g)
        assert rep.is_multigraph
        assert not rep.is_graph  # weights 2 are not Schur-idempotent
        assert abs(rep.edges - 16) < 1e-9


def test_diagonal_convolution_matches_generic_schur():
    rng = np.random.default_rng(11)
    sets = []
    for orders in [(2, 2), (3,), (2, 2, 2), (4, 4)]:
        group = AbelianGroup(orders)
        sets.append(twist_quantum_set(group, random_bicharacter(group, rng)))
    sets += [x for _, x in twisted_family()]  # every one has N <= 64
    for x in sets:
        dx = rng.standard_normal(x.N) + 1j * rng.standard_normal(x.N)
        dy = rng.standard_normal(x.N) + 1j * rng.standard_normal(x.N)
        a, b = np.diag(dx), np.diag(dy)
        fast = schur_product(x, a, b)  # diagonal fast path
        slow = dense_schur_product(x, a, b)  # the dense contraction as the oracle
        assert np.abs(fast - slow).max() < 1e-10 * max(1.0, np.abs(dx).max() * np.abs(dy).max())


# ---------------------------------------------------------------------------
# the twist functor on tensors
# ---------------------------------------------------------------------------


def test_twist_of_multiplication_tensor():
    group = AbelianGroup((2, 2))
    sigma = weyl_bicharacter(2)
    plain = twist_quantum_set(group, trivial_bicharacter(group))
    twisted = twist_quantum_set(group, sigma)
    m_hat = dense_mult(plain).reshape(4, 16)
    m_breve = twist_tensor(m_hat, 1, 2, group, sigma)
    assert np.abs(m_breve - dense_mult(twisted).reshape(4, 16)).max() < 1e-14


def test_twist_functoriality_on_intertwiners():
    rng = np.random.default_rng(13)
    group = AbelianGroup((2, 3))
    sigma = random_bicharacter(group, rng)
    n = group.size
    add = group.addition_table()
    # random graded tensors: S: V -> V (x) V supported on kappa = mu + nu,
    # T: V (x) V -> V likewise
    s = np.zeros((n * n, n), dtype=complex)
    t = np.zeros((n, n * n), dtype=complex)
    for mu in range(n):
        for nu in range(n):
            kappa = add[mu, nu]
            s[mu * n + nu, kappa] = rng.standard_normal() + 1j * rng.standard_normal()
            t[kappa, mu * n + nu] = rng.standard_normal() + 1j * rng.standard_normal()
    comp = t @ s  # V -> V
    lhs = twist_tensor(comp, 1, 1, group, sigma)
    rhs = twist_tensor(t, 1, 2, group, sigma) @ twist_tensor(s, 2, 1, group, sigma)
    assert np.abs(lhs - rhs).max() < 1e-12
    # unitarity of the functor: twist commutes with dagger
    lhs_dag = twist_tensor(t.conj().T, 2, 1, group, sigma)
    rhs_dag = twist_tensor(t, 1, 2, group, sigma).conj().T
    assert np.abs(lhs_dag - rhs_dag).max() < 1e-12


def test_twist_monoidality_on_intertwiners():
    rng = np.random.default_rng(17)
    group = AbelianGroup((2, 2))
    sigma = random_bicharacter(group, rng)
    n = group.size
    plain = twist_quantum_set(group, trivial_bicharacter(group))
    m_hat = dense_mult(plain).reshape(n, n * n)
    eta_hat = plain.unit_vec.reshape(n, 1)
    lam = cayley_spectrum(group, [(1, 0), (0, 1)])
    a_hat = np.diag(lam)
    pairs = [(a_hat, 1, 1, m_hat, 1, 2), (m_hat, 1, 2, a_hat, 1, 1),
             (eta_hat, 1, 0, m_hat, 1, 2), (a_hat, 1, 1, a_hat, 1, 1)]
    for t1, o1, i1, t2, o2, i2 in pairs:
        tensor = np.kron(t1, t2)
        lhs = twist_tensor(tensor, o1 + o2, i1 + i2, group, sigma)
        rhs = np.kron(twist_tensor(t1, o1, i1, group, sigma),
                      twist_tensor(t2, o2, i2, group, sigma))
        assert np.abs(lhs - rhs).max() < 1e-12


def test_twist_monoidality_needs_the_grading():
    # sanity: for a non-intertwiner the two sides genuinely differ, so the
    # monoidality test above is not vacuous
    rng = np.random.default_rng(19)
    group = AbelianGroup((2, 2))
    sigma = weyl_bicharacter(2)
    n = group.size
    t1 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    t2 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    lhs = twist_tensor(np.kron(t1, t2), 2, 2, group, sigma)
    rhs = np.kron(twist_tensor(t1, 1, 1, group, sigma),
                  twist_tensor(t2, 1, 1, group, sigma))
    assert np.abs(lhs - rhs).max() > 1e-3


def test_trivial_twist_is_identity_functor():
    group = AbelianGroup((2, 2))
    sigma = trivial_bicharacter(group)
    rng = np.random.default_rng(23)
    t = rng.standard_normal((4, 16)) + 1j * rng.standard_normal((4, 16))
    assert np.array_equal(twist_tensor(t, 1, 2, group, sigma), t)


def test_leg_phases_match_pairwise_products():
    rng = np.random.default_rng(29)
    group = AbelianGroup((2, 3))
    sigma = random_bicharacter(group, rng)
    table = sigma.table()
    phases = leg_phases(group, sigma, 3)
    n = group.size
    for _ in range(20):
        i = rng.integers(0, n, size=3)
        want = table[i[0], i[1]] * table[i[0], i[2]] * table[i[1], i[2]]
        got = phases[(i[0] * n + i[1]) * n + i[2]]
        assert abs(got - want) < 1e-12


@pytest.mark.parametrize("orders", [(2,), (4,), (2, 2, 2), (4, 2, 3), (3, 5), (2, 4, 8)])
def test_addition_table_adds_coordinates(orders):
    group = AbelianGroup(orders)
    els = reference_elements(orders)
    want = [[_reference_index(orders, [x + y for x, y in zip(a, b)]) for b in els] for a in els]
    assert np.array_equal(group.addition_table(), want)

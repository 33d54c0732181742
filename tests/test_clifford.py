"""Sign-twisted Z_2^n: Clifford relations, cube-like spectra, folding and
halving."""

import numpy as np
import pytest
from conftest import (
    degree,
    dense_schur_product,
    dense_star,
    lambda_folded,
    lambda_hypercube,
    reference_elements,
)

from qgraphs import (
    AlgebraElement,
    algebra_multiply,
    algebra_star,
    classical_cayley,
    graph_report,
    verify_frobenius,
)
from qgraphs.clifford import (
    clifford_bicharacter,
    clifford_set,
    cube_like_graph,
    folded_embedding,
    folded_generators,
    folded_quotient_check,
    halved_square_check,
    hypercube_generators,
    lambda_squared,
    squared_generators,
)
from qgraphs.constructions import quotient_graph
from qgraphs.errors import InvalidInput, ResourceLimit
from qgraphs.kernels import max_abs
from qgraphs.groups import cayley_spectrum
from qgraphs.weyl import weyl_bicharacter


def _tau(x, mu):
    coeffs = np.zeros(x.N, dtype=complex)
    coeffs[x.group.index(mu)] = np.sqrt(x.N)
    return AlgebraElement(x, coeffs)


def test_bicharacter_small_cases():
    assert clifford_bicharacter(1).gen_values.shape == (1, 1)
    assert clifford_bicharacter(1).gen_values[0, 0] == 1
    assert np.array_equal(clifford_bicharacter(2).gen_values,
                          weyl_bicharacter(2).gen_values)
    sigma = clifford_bicharacter(3)
    # multiplicative extension: sigma(e2 + e3, e1) = (-1)^2 = 1
    assert sigma.table()[sigma.group.index((0, 1, 1)), sigma.group.index((1, 0, 0))] == 1


def test_twisted_set_keeps_only_its_multiplication():
    # the addition and bicharacter tables are built on first read and held only by m
    import tracemalloc

    tracemalloc.start()
    try:
        x = clifford_set(9)  # N = 512: each N^2 table is 2 MiB (int) or 4 MiB (complex)
        x.mult
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    m = sum(a.nbytes for a in (x.mult.out, x.mult.left, x.mult.right, x.mult.val))
    assert kept <= m + 64 * 2**10
    assert np.array_equal(x.mult.out.reshape(x.N, x.N), x.group.addition_table())
    assert np.array_equal(x.mult.val.reshape(x.N, x.N),
                          np.conj(x.bicharacter.table()) / np.sqrt(x.N))


def test_cl1_is_commutative():
    x = clifford_set(1)
    t = _tau(x, (1,))
    assert np.abs(algebra_multiply(t, t).coeffs - x.unit_vec).max() < 1e-14
    assert verify_frobenius(x).all_pass


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_generator_relations(n):
    x = clifford_set(n)
    eye = np.eye(n, dtype=int)
    gens = [_tau(x, tuple(row)) for row in eye]
    one = x.unit_vec
    for i in range(n):
        sq = algebra_multiply(gens[i], gens[i]).coeffs
        assert np.abs(sq - one).max() < 1e-12
        assert np.abs(algebra_star(gens[i]).coeffs - gens[i].coeffs).max() < 1e-12
        for j in range(i + 1, n):
            ab = algebra_multiply(gens[i], gens[j]).coeffs
            ba = algebra_multiply(gens[j], gens[i]).coeffs
            assert np.abs(ab + ba).max() < 1e-12


def test_cl2_constants_equal_weyl2_twist_exactly():
    from qgraphs.groups import twist_quantum_set

    cl = clifford_set(2)
    wsigma = weyl_bicharacter(2)
    wy = twist_quantum_set(wsigma.group, wsigma)
    assert np.array_equal(cl.mult.val, wy.mult.val)
    assert np.array_equal(cl.mult.out, wy.mult.out)
    assert np.array_equal(dense_star(cl), dense_star(wy))
    assert np.array_equal(cl.unit_vec, wy.unit_vec)


def test_spectra_brute_force_equals_closed_forms():
    for n in (1, 2, 3, 4, 6):
        group = clifford_bicharacter(n).group
        lam_h = cayley_spectrum(group, hypercube_generators(n))
        lam_f = cayley_spectrum(group, folded_generators(n))
        lam_s = cayley_spectrum(group, squared_generators(n))
        for k, mu in enumerate(reference_elements(group.orders)):
            d = degree(mu)
            assert abs(lam_h[k] - lambda_hypercube(n, d)) < 1e-12
            assert abs(lam_f[k] - lambda_folded(n, d)) < 1e-12
            assert abs(lam_s[k] - lambda_squared(n, d)) < 1e-12


def test_spot_values_from_formulas():
    assert lambda_hypercube(3, 2) == -1
    assert lambda_folded(3, 1) == 0
    assert lambda_squared(4, 1) == 2


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_cube_like_graphs_report_like_classical(n):
    sigma = clifford_bicharacter(n)
    for generators in (hypercube_generators, folded_generators, squared_generators):
        gens = generators(n)
        rep = graph_report(cube_like_graph(n, gens))
        rep_c = graph_report(classical_cayley(sigma.group, gens))
        inv_t, inv_c = rep.invariants(), rep_c.invariants()
        for key in inv_t:
            va, vb = inv_t[key], inv_c[key]
            if isinstance(va, (float, complex)) and not isinstance(va, bool):
                assert abs(va - vb) < 1e-8
            else:
                assert va == vb
    # hypercube numbers: 2^n vertices, n-regular, n 2^n edges
    rep = graph_report(cube_like_graph(n, hypercube_generators(n)))
    assert rep.vertices == 2**n
    assert abs(rep.regular_degree - n) < 1e-9
    assert abs(rep.edges - n * 2**n) < 1e-9
    assert rep.is_simple


def test_cube_like_graph_argument_validation():
    with pytest.raises(TypeError):
        cube_like_graph(3)  # the generators are required
    with pytest.raises(InvalidInput, match="wrong rank"):
        cube_like_graph(3, [(1, 0)])
    with pytest.raises(InvalidInput, match="n >= 1"):
        cube_like_graph(0, [])
    with pytest.raises(InvalidInput, match="n >= 1"):
        folded_embedding(0)


def test_generator_lists():
    assert hypercube_generators(3) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert folded_generators(2) == [(1, 0), (0, 1), (1, 1)]
    assert squared_generators(3) == [(1, 0, 0), (0, 1, 0), (0, 0, 1),
                                     (1, 1, 0), (1, 0, 1), (0, 1, 1)]
    assert all(type(v) is int for gen in squared_generators(4) for v in gen)


@pytest.mark.parametrize("generators", [hypercube_generators, folded_generators,
                                        squared_generators])
@pytest.mark.parametrize("n", [0, -1, 13, 100000, 2**70])
def test_generator_lists_refuse_n_before_building_them(generators, n):
    # 2^13 exceeds MAX_N: clifford_bicharacter refuses it before any list of n entries
    with pytest.raises((InvalidInput, ResourceLimit)):
        generators(n)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])  # N = 2^(n+1) up to 256: no dense tensor
def test_folded_embedding_is_star_homomorphism(n):
    iota, report = folded_embedding(n)
    assert report.all_pass
    for check in report.checks:
        assert check.residual < 1e-12
    # iota(1) = 1 and <iota x, iota y> = 2 <x, y>
    mat = iota.matrix
    dom, cod = iota.domain, iota.codomain
    assert np.abs(mat @ dom.unit_vec - cod.unit_vec).max() < 1e-12
    assert np.abs(mat.conj().T @ mat - 2.0 * np.eye(dom.N)).max() < 1e-12


def test_folded_embedding_explicit_images():
    # as an algebra map: tau_mu -> tau_(mu,0) on even degree and
    # tau_mu -> i tau_mu tau_{n+1} = i tau_(mu,1) on odd degree
    iota, _ = folded_embedding(2)
    dom, cod = iota.domain, iota.codomain
    img = iota.matrix @ _tau(dom, (1, 1)).coeffs
    assert np.abs(img - _tau(cod, (1, 1, 0)).coeffs).max() < 1e-12
    img_odd = iota.matrix @ _tau(dom, (1, 0)).coeffs
    assert np.abs(img_odd - 1j * _tau(cod, (1, 0, 1)).coeffs).max() < 1e-12
    # i tau_(mu,1) really is the product i tau_mu tau_3 in Cl_3
    prod = algebra_multiply(_tau(cod, (1, 0, 0)), _tau(cod, (0, 0, 1)))
    assert np.abs(1j * prod.coeffs - img_odd).max() < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
def test_folded_quotient_factor_two(n):
    report = folded_quotient_check(n)
    assert report.all_pass, report.failed()


def test_folded_quotient_diagonal_entries_n3():
    iota, _ = folded_embedding(3)
    cube = cube_like_graph(4, hypercube_generators(4))
    quot = quotient_graph(cube, iota)
    diag = np.diag(quot.adjacency).real
    for k, mu in enumerate(reference_elements(iota.domain.group.orders)):
        d = degree(mu)
        want = 2 * (4 - 2 * d) if d % 2 == 0 else 2 * (2 - 2 * d)
        assert abs(diag[k] - want) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_halved_square_battery(n):
    report = halved_square_check(n)
    assert report.all_pass, report.failed()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_halved_square_residuals_match_the_matrix_calculus(n):
    # the halved square is diagonal: its N-vector checks give the residuals
    # of the N x N Schur calculus bit for bit
    from qgraphs import schur_product, schur_star

    cube = cube_like_graph(n + 1, hypercube_generators(n + 1))
    x, a = cube.set, cube.adjacency
    b = 0.5 * (a @ a - (n + 1) * np.eye(x.N))
    want = [max_abs(schur_product(x, b, b) - b), max_abs(schur_star(x, b) - b),
            max_abs(b - b.conj().T), max_abs(schur_product(x, b, np.eye(x.N, dtype=complex))),
            max_abs(np.diag(b).real - lambda_squared(n, x.group.coords().sum(axis=1)))]
    assert [c.residual for c in halved_square_check(n).checks] == want


def test_halved_square_check_at_max_n_runs_on_vectors():
    # n = 11: Cl_12 with N = 4096 = MAX_N.  The check reads the set's group,
    # unit and star, never m (whose N^2 entries would be 640 MiB), and adds
    # only N-vectors, where one N x N complex array would be 256 MiB
    import tracemalloc

    tracemalloc.start()
    try:
        report = halved_square_check(11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.all_pass, report.failed()
    assert peak < 16 * 2**20


def test_twisted_set_holds_n_vectors_until_m_is_read():
    import tracemalloc

    tracemalloc.start()
    try:
        x = clifford_set(12)  # N = 4096 = MAX_N: unit and star are 160 KiB
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert x.N == 4096
    assert kept < 4 * 2**20


def test_twisted_cayley_pipeline_peaks_at_its_adjacency():
    # N = 1024: the N x N complex adjacency is 16 MiB; the set, the battery,
    # the edge spectrum and the closure scan run on N-vectors beside it
    import tracemalloc

    from qgraphs.graphs import edge_spectrum
    from qgraphs.obstruction import Inconclusive, classical_obstruction

    tracemalloc.start()
    try:
        g = cube_like_graph(10, hypercube_generators(10))
        rep = graph_report(g)
        spectrum = edge_spectrum(g)
        outcome = classical_obstruction(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.is_simple and spectrum is not None
    assert isinstance(outcome, Inconclusive)
    assert peak < g.adjacency.nbytes + 2 * 2**20


def test_twisted_hypercube_frobenius():
    for n in (2, 3, 4, 5, 6):
        assert verify_frobenius(clifford_set(n)).all_pass


def test_twisted_hypercube_battery_generic_and_fast():
    from qgraphs import graph_report, schur_product, schur_star

    # n = 6 (N = 64): the generic dense contraction confirms idempotency
    g = cube_like_graph(6, hypercube_generators(6))
    x, a = g.set, g.adjacency
    slow = dense_schur_product(x, a, a)
    assert np.abs(slow - a).max() < 1e-9 * np.abs(a).max()

    # n = 10 (N = 1024): diagonal convolution fast path
    big = cube_like_graph(10, hypercube_generators(10))
    bx, ba = big.set, big.adjacency
    assert np.abs(schur_product(bx, ba, ba) - ba).max() < 1e-9 * np.abs(ba).max()
    assert np.abs(schur_star(bx, ba) - ba).max() < 1e-12
    rep = graph_report(big)
    assert rep.is_simple
    assert rep.vertices == 1024
    assert abs(rep.regular_degree - 10) < 1e-9
    assert abs(rep.edges - 10 * 1024) < 1e-9

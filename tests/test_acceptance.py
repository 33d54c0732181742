"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v`` (each test name carries the
criterion number; a criterion's line reads PASSED/FAILED).  Each test also
prints an explicit "criterion NN ...: PASS (x.xx s)" line, visible with -s
or in the captured output of a failing run.
"""

import math
import time

import numpy as np
import pytest
from conftest import (
    GROUP_POOL,
    dense_mult,
    dense_star,
    lambda_folded,
    lambda_hypercube,
    random_bicharacter,
    random_generating_multiset,
    rook_spectrum,
    transported_duality,
    transported_mult,
    twisted_family,
)

from qgraphs import (
    AlgebraElement,
    Certificate,
    Inconclusive,
    QuantumGraph,
    build_quantum_set,
    check_isomorphism,
    check_star_homomorphism,
    classical_cayley,
    classical_obstruction,
    classify_m2,
    conjugation_map,
    gell_mann_graph,
    graph_from_subspace,
    graph_report,
    m2_partial_family,
    quantum_rook,
    schur_product,
    schur_star,
    schur_unit,
    twist_quantum_set,
    twisted_cayley,
    verify_frobenius,
    weyl_bicharacter,
    adjacency_to_projection,
)
from qgraphs.catalog import SIGMA_1, SIGMA_2, SIGMA_3, anticommutative_square, random_su2
from qgraphs.clifford import (
    clifford_bicharacter,
    clifford_set,
    cube_like_graph,
    degree,
    folded_embedding,
    folded_generators,
    halved_square_check,
    hypercube_generators,
    lambda_squared,
    squared_generators,
)
from qgraphs.constructions import diagonal_embedding, quotient_graph
from qgraphs.groups import AbelianGroup, cayley_spectrum
from qgraphs.kernels import max_abs
from qgraphs.weyl import (
    phi_isomorphism,
    rook_adjacency_closed_form,
    rook_pipeline_adjacency,
)


class _Stopwatch:
    def __init__(self, label: str, budget: float | None = None):
        self.label = label
        self.budget = budget

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"criterion {self.label}: {status} ({elapsed:.2f} s)")
        if exc_type is None and self.budget is not None:
            assert elapsed < self.budget, (
                f"criterion {self.label} exceeded its {self.budget}s budget: {elapsed:.2f}s"
            )
        return False


def test_criterion_01_frobenius_suite():
    with _Stopwatch("01 frobenius suite"):
        cases = [[1] * 16, [2], [3], [4], [1, 2, 3], [2, 2, 4]]
        for blocks in cases:
            t0 = time.perf_counter()
            report = verify_frobenius(build_quantum_set(blocks), tol=1e-9)
            assert report.all_pass, (blocks, report.failed())
            assert max(c.residual for c in report.checks) <= 1e-9
            assert time.perf_counter() - t0 < 1.0, blocks
        for label, x in twisted_family():
            t0 = time.perf_counter()
            report = verify_frobenius(x, tol=1e-9)
            assert report.all_pass, (label, report.failed())
            assert max(c.residual for c in report.checks) <= 1e-9, label
            assert time.perf_counter() - t0 < 1.0, label


def test_criterion_02_square_example_reproduction():
    with _Stopwatch("02 anticommutative square"):
        a_known = np.array(
            [[1, 0, 0, 1], [0, -1, 1, 0], [0, 1, -1, 0], [1, 0, 0, 1]], dtype=complex)
        at_known = 0.5 * np.array(
            [[1, 0, 0, -1], [0, 1, 1, 0], [0, 1, 1, 0], [-1, 0, 0, 1]], dtype=complex)
        it_known = 0.5 * np.array(
            [[1, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 1]], dtype=complex)
        g = anticommutative_square()
        assert max_abs(g.adjacency - a_known) <= 1e-12
        proj = adjacency_to_projection(g).blocks[(0, 0)]
        assert max_abs(proj - at_known) <= 1e-12
        ident = QuantumGraph(g.set, np.eye(4, dtype=complex))
        it = adjacency_to_projection(ident).blocks[(0, 0)]
        assert max_abs(it - it_known) <= 1e-12
        assert max_abs(at_known @ it_known) <= 1e-12
        rep = graph_report(g)
        assert rep.is_simple and rep.is_undirected
        assert rep.vertices == 4
        assert abs(rep.edges - 8) <= 1e-9
        assert rep.quantum_edges == 2
        assert abs(rep.regular_degree - 2) <= 1e-9


def test_criterion_03_t2_classification():
    with _Stopwatch("03 T2 classification", budget=30.0):
        rng = np.random.default_rng(42)
        paulis = np.stack([SIGMA_1, SIGMA_2, SIGMA_3])
        for _ in range(500):
            dim = int(rng.integers(0, 4))
            coeffs = rng.standard_normal((dim, 3))
            basis = [np.tensordot(c, paulis, axes=1) for c in coeffs]
            g = graph_from_subspace(2, basis)
            assert classify_m2(g) == dim
        for k in range(200):
            m = k % 4
            u = random_su2(rng)
            basis = [SIGMA_1, SIGMA_2, SIGMA_3][:m]
            g = graph_from_subspace(2, basis)
            h = graph_from_subspace(2, [u @ b @ u.conj().T for b in basis])
            assert classify_m2(h) == m
            assert check_isomorphism(conjugation_map(u, g.set), g, h)


def test_criterion_04_rook_two_path():
    with _Stopwatch("04 quantum rook", budget=10.0):
        for n in (2, 3, 4, 5):
            closed = rook_adjacency_closed_form(n)
            pipeline = rook_pipeline_adjacency(phi_isomorphism(n))
            assert max_abs(closed - pipeline) <= 1e-9
            want = np.sort(rook_spectrum(n).real)
            got = np.sort(np.linalg.eigvalsh(closed))
            assert np.abs(want - got).max() <= 1e-9
        assert np.array_equal(quantum_rook(2).adjacency,
                              anticommutative_square().adjacency)


def test_criterion_05_phi_isomorphism():
    with _Stopwatch("05 phi isomorphism"):
        for n in range(2, 7):
            phi = phi_isomorphism(n)
            report = check_star_homomorphism(phi, tol=1e-9)
            assert report.all_pass
            assert max(c.residual for c in report.checks) <= 1e-9
            u = phi.matrix
            assert max_abs(u @ u.conj().T - np.eye(n * n)) <= 1e-9
            mn = phi.codomain
            assert max_abs(transported_duality(phi) - dense_star(mn)) <= 1e-9
            assert max_abs(transported_mult(phi) - dense_mult(mn)) <= 1e-9


def test_criterion_06_clifford_relations():
    with _Stopwatch("06 clifford relations"):
        for n in range(1, 9):
            x = clifford_set(n)
            eye = np.eye(n, dtype=int)

            def tau(mu):
                c = np.zeros(x.N, dtype=complex)
                c[x.group.index(tuple(mu))] = math.sqrt(x.N)
                return AlgebraElement(x, c)

            gens = [tau(eye[i]) for i in range(n)]
            for i in range(n):
                sq = (gens[i] * gens[i]).coeffs
                assert max_abs(sq - x.unit_vec) <= 1e-12
                assert max_abs(gens[i].star().coeffs - gens[i].coeffs) <= 1e-12
                for j in range(i + 1, n):
                    anti = (gens[i] * gens[j]).coeffs + (gens[j] * gens[i]).coeffs
                    assert max_abs(anti) <= 1e-12
        cl2 = clifford_set(2)
        wsigma = weyl_bicharacter(2)
        w2 = twist_quantum_set(wsigma.group, wsigma)
        assert np.array_equal(cl2.mult.out, w2.mult.out)
        assert np.array_equal(cl2.mult.left, w2.mult.left)
        assert np.array_equal(cl2.mult.right, w2.mult.right)
        assert np.array_equal(cl2.mult.val, w2.mult.val)
        assert np.array_equal(dense_star(cl2), dense_star(w2))
        assert np.array_equal(cl2.unit_vec, w2.unit_vec)


def test_criterion_07_cube_spectra():
    with _Stopwatch("07 cube-like spectra"):
        for n in range(1, 11):
            group = AbelianGroup((2,) * n)
            lam_h = cayley_spectrum(group, hypercube_generators(n))
            lam_f = cayley_spectrum(group, folded_generators(n))
            lam_s = cayley_spectrum(group, squared_generators(n))
            degs = np.asarray([degree(mu) for mu in group.elements()])
            want_h = np.asarray([lambda_hypercube(n, d) for d in degs])
            want_f = np.asarray([lambda_folded(n, d) for d in degs])
            want_s = np.asarray([lambda_squared(n, d) for d in degs])
            assert np.abs(lam_h - want_h).max() <= 1e-9
            assert np.abs(lam_f - want_f).max() <= 1e-9
            assert np.abs(lam_s - want_s).max() <= 1e-9


def test_criterion_08_twist_invariance_suite():
    with _Stopwatch("08 twist invariance", budget=60.0):
        rng = np.random.default_rng(808)
        count = 0
        while count < 30:
            orders = GROUP_POOL[int(rng.integers(0, len(GROUP_POOL)))]
            group = AbelianGroup(orders)
            sigma = random_bicharacter(group, rng)
            gens = random_generating_multiset(group, rng, allow_repeats=False)
            count += 1
            classical = classical_cayley(group, gens)
            twisted = twisted_cayley(group, gens, sigma)
            inv_c = graph_report(classical).invariants()
            inv_t = graph_report(twisted).invariants()
            for key in inv_c:
                va, vb = inv_c[key], inv_t[key]
                if isinstance(va, bool) or va is None or isinstance(va, str):
                    assert va == vb, (key, orders, gens)
                else:
                    assert abs(va - vb) <= 1e-8, (key, orders, gens)
            a = twisted.adjacency
            scale = max(1.0, max_abs(a))
            assert max_abs(schur_product(twisted.set, a, a) - a) <= 1e-8 * scale
            assert max_abs(schur_star(twisted.set, a) - a) <= 1e-8 * scale


def test_criterion_09_folded_embedding():
    with _Stopwatch("09 folded embedding"):
        for n in range(1, 6):
            iota, hom = folded_embedding(n)
            assert hom.all_pass
            assert max(c.residual for c in hom.checks) <= 1e-12
            cube = cube_like_graph(n + 1, preset="hypercube")
            folded = cube_like_graph(n, preset="folded")
            quot = quotient_graph(cube, iota)
            assert max_abs(quot.adjacency - 2.0 * folded.adjacency) <= 1e-9
            e_big = np.vdot(cube.set.unit_vec, cube.adjacency @ cube.set.unit_vec)
            e_small = np.vdot(quot.set.unit_vec, quot.adjacency @ quot.set.unit_vec)
            assert abs(e_big - e_small) <= 1e-8 * abs(e_big)
            assert abs(e_big - (n + 1) * 2 ** (n + 1)) <= 1e-8


def test_criterion_10_halving():
    with _Stopwatch("10 halving"):
        for n_plus_1 in range(2, 8):
            report = halved_square_check(n_plus_1 - 1)
            assert report.all_pass, (n_plus_1, report.failed())


def test_criterion_11_quotient_examples():
    with _Stopwatch("11 quotient examples"):
        r3 = math.sqrt(3.0)
        a_x1 = 0.5 * np.array(
            [[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]],
            dtype=complex)
        a_x2 = 0.25 * np.array(
            [[3, r3, r3, 1], [r3, -3, 1, -r3], [r3, 1, -3, -r3], [1, -r3, -r3, 3]],
            dtype=complex)
        x = build_quantum_set([2])
        iota = diagonal_embedding(2)
        out1 = quotient_graph(QuantumGraph(x, a_x1), iota)
        assert max_abs(out1.adjacency - np.array([[1, 1], [1, 1]])) <= 1e-12
        out2 = quotient_graph(QuantumGraph(x, a_x2), iota)
        assert max_abs(out2.adjacency - 0.5 * np.array([[3, 1], [1, 3]])) <= 1e-12
        for a_x, out in ((a_x1, out1), (a_x2, out2)):
            e_x = np.vdot(x.unit_vec, a_x @ x.unit_vec)
            e_y = np.vdot(out.set.unit_vec, out.adjacency @ out.set.unit_vec)
            assert abs(e_x - 4) <= 1e-12 and abs(e_y - 4) <= 1e-12


def test_criterion_12_obstruction():
    with _Stopwatch("12 obstruction"):
        res = classical_obstruction(gell_mann_graph())
        assert isinstance(res, Certificate)
        assert res.residual > 1e-6
        assert {res.trace_x, res.trace_y} == {"A", "(A∘A)"}

        res = classical_obstruction(m2_partial_family(1, math.pi / 4))
        assert isinstance(res, Certificate)
        assert res.residual > 1e-6
        assert {res.trace_x, res.trace_y} == {"A", "I"}

        assert isinstance(classical_obstruction(anticommutative_square()), Inconclusive)

        # twisted Cayley graphs with N <= 64 never certify
        from qgraphs.weyl import rook_generators
        samples = []
        for n in (2, 3, 5, 8):
            sigma = weyl_bicharacter(n)
            samples.append(twisted_cayley(sigma.group, rook_generators(n), sigma))
        for n in (3, 4, 6):
            sigma = clifford_bicharacter(n)
            samples.append(twisted_cayley(sigma.group, hypercube_generators(n), sigma))
        rng = np.random.default_rng(1212)
        for _ in range(5):
            orders = GROUP_POOL[int(rng.integers(0, len(GROUP_POOL)))]
            group = AbelianGroup(orders)
            sigma = random_bicharacter(group, rng)
            gens = random_generating_multiset(group, rng, allow_repeats=False)
            samples.append(twisted_cayley(group, gens, sigma))
        for g in samples:
            assert isinstance(classical_obstruction(g), Inconclusive)


def _frobenius_law_residual(x, u, v):
    """Frobenius law applied to u (x) v, via dense contractions.

    Checks (m (x) id)(id (x) m^dag) = m^dag m = (id (x) m)(m^dag (x) id)
    evaluated on the pair, independently of the sparse verifier.
    """
    m = dense_mult(x)
    mdag = np.conj(m)  # mdag[b, r, s] = conj(m^b_{rs})
    t = np.einsum("brs,b->rs", mdag, v)  # m^dag v
    lhs1 = np.einsum("par,a,rs->ps", m, u, t)  # (m (x) id)(u (x) m^dag v)
    tu = np.einsum("bra,b->ra", mdag, u)  # m^dag u
    lhs2 = np.einsum("ra,pab,b->rp", tu, m, v)  # (id (x) m)(m^dag u (x) v)
    mv = np.einsum("pab,a,b->p", m, u, v)
    rhs = np.einsum("brs,b->rs", mdag, mv)  # m^dag m (u (x) v)
    return max(max_abs(lhs1 - rhs), max_abs(lhs2 - rhs))


def test_criterion_13_property_suites():
    with _Stopwatch("13 property suites"):
        sets = [("M_2", build_quantum_set([2])), ("M_3", build_quantum_set([3])),
                ("X_4", build_quantum_set([1, 1, 1, 1])), ("Cl_3", clifford_set(3))]
        rng = np.random.default_rng(1313)
        for label, x in sets:
            n = x.N
            f = dense_star(x)
            j = schur_unit(x)
            for _ in range(100):
                a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                c = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                scale = max(1.0, max_abs(a) * max_abs(b) * max(1.0, max_abs(c)))
                # rotation round trip
                assert max_abs((a @ f) @ np.conj(f) - a) <= 1e-9 * scale, label
                # Schur associativity and unit
                ab = schur_product(x, a, b)
                assert max_abs(schur_product(x, ab, c)
                               - schur_product(x, a, schur_product(x, b, c))) \
                    <= 1e-9 * scale, label
                assert max_abs(schur_product(x, a, j) - a) <= 1e-9 * scale
                assert max_abs(schur_product(x, j, a) - a) <= 1e-9 * scale
                # involutive antihomomorphism
                assert max_abs(schur_star(x, ab)
                               - schur_product(x, schur_star(x, b), schur_star(x, a))) \
                    <= 1e-9 * scale, label
                # snake identities on a random vector
                u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                assert max_abs((np.conj(f) @ f) @ u - u) <= 1e-9 * max(1.0, max_abs(u))
                assert max_abs((f @ np.conj(f)) @ u - u) <= 1e-9 * max(1.0, max_abs(u))
                # Frobenius law on a random pair
                v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                resid = _frobenius_law_residual(x, u, v)
                assert resid <= 1e-9 * max(1.0, max_abs(u) * max_abs(v)), label

"""Hypothesis property tests for the structural invariants."""

import math

import numpy as np
from conftest import diagonal_embedding, random_positive_element
from hypothesis import given, settings, strategies as st

from qgraphs import (
    AlgebraElement,
    build_quantum_set,
    is_positive_element,
    schur_product,
    schur_unit,
    twist_quantum_set,
    verify_frobenius,
)
from qgraphs.clifford import folded_embedding
from qgraphs.algebra import left_mult_matrix
from qgraphs.groups import AbelianGroup, Bicharacter
from qgraphs.kernels import max_abs, unit_root
from qgraphs.weyl import phi_isomorphism

block_lists = st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=5) \
    .filter(lambda bs: sum(n * n for n in bs) <= 64)


@settings(max_examples=25, deadline=None)
@given(block_lists)
def test_every_block_set_passes_frobenius(blocks):
    report = verify_frobenius(build_quantum_set(blocks), tol=1e-9)
    assert report.all_pass, (blocks, report.failed())


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from([(2,), (3,), (4,), (2, 2), (2, 3), (6,), (2, 2, 2), (4, 4)]),
    st.integers(min_value=0, max_value=10**6),
)
def test_every_valid_bicharacter_twists_to_a_frobenius_set(orders, seed):
    group = AbelianGroup(orders)
    rng = np.random.default_rng(seed)
    m = group.rank
    vals = np.ones((m, m), dtype=complex)
    for i in range(m):
        for j in range(m):
            d = math.gcd(group.orders[i], group.orders[j])
            vals[i, j] = unit_root(int(rng.integers(0, d)), d)
    sigma = Bicharacter(group, vals)
    x = twist_quantum_set(group, sigma)
    report = verify_frobenius(x, tol=1e-9)
    assert report.all_pass, (orders, report.failed())
    # bicharacter laws hold on the full table
    table = sigma.table()
    add = group.addition_table()
    idx = rng.integers(0, group.size, size=(8, 3))
    for a, b, c in idx:
        assert abs(table[add[a, b], c] - table[a, c] * table[b, c]) < 1e-12


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10**6),
       st.sampled_from([[2], [3], [1, 2], [1, 1, 1]]))
def test_schur_unit_property(seed, blocks):
    x = build_quantum_set(blocks)
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((x.N, x.N)) + 1j * rng.standard_normal((x.N, x.N))
    j = schur_unit(x)
    assert max_abs(schur_product(x, a, j) - a) < 1e-9 * max(1.0, max_abs(a))
    assert max_abs(schur_product(x, j, a) - a) < 1e-9 * max(1.0, max_abs(a))


def test_positivity_transports_along_embedding_adjoints():
    # for each library-built unital *-embedding iota, the adjoint iota^dag
    # maps positive elements of the codomain to positive elements
    embeddings = [
        diagonal_embedding(2),
        folded_embedding(2)[0],
        phi_isomorphism(3),  # twisted set -> M_3
    ]
    rng = np.random.default_rng(4242)
    for emb in embeddings:
        adj = emb.dagger()
        for _ in range(50):
            p = random_positive_element(emb.codomain, rng)
            assert is_positive_element(left_mult_matrix(p))
            image = AlgebraElement(adj.codomain, adj.matrix @ p.coeffs)
            assert is_positive_element(left_mult_matrix(image), tol=1e-8), emb.codomain.N

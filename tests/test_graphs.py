"""Rotation, Schur calculus, predicate battery, and the operator-space view.

Independent oracle used throughout: the materialised edge projection
multiplies blockwise like ordinary matrices, so for matrix-unit sets
``realign(A . B) == realign(A) @ realign(B)`` and Schur-star is blockwise
conjugate transpose.  The einsum-based Schur product is always compared
against that route.
"""

import numpy as np
import pytest
from conftest import dense_schur_product, dense_star

from qgraphs import (
    QuantumGraph,
    adjacency_to_projection,
    build_quantum_set,
    check_bimodule,
    graph_from_subspace,
    graph_report,
    projection_to_adjacency,
    quantum_edge,
    schur_product,
    schur_star,
    schur_unit,
    selfadjoint_basis,
    subspace_from_graph,
)
from qgraphs.catalog import IOTA_2, LAMBDA_8, SIGMA_1, SIGMA_2, SIGMA_3, anticommutative_square
from qgraphs.errors import InvalidInput
from qgraphs.graphs import EdgeProjection
from qgraphs.kernels import gram_schmidt, orthogonal_part

A_SQUARE = np.array(
    [[1, 0, 0, 1], [0, -1, 1, 0], [0, 1, -1, 0], [1, 0, 0, 1]], dtype=complex
)
AT_SQUARE = 0.5 * np.array(
    [[1, 0, 0, -1], [0, 1, 1, 0], [0, 1, 1, 0], [-1, 0, 0, 1]], dtype=complex
)
IT_M2 = 0.5 * np.array(
    [[1, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 1]], dtype=complex
)


def _random_op(x, rng):
    return rng.standard_normal((x.N, x.N)) + 1j * rng.standard_normal((x.N, x.N))


def _schur_via_projection(g_set, a, b):
    """Oracle: rotate, multiply the realigned blocks, rotate back."""
    pa = adjacency_to_projection(QuantumGraph(g_set, a)).blocks
    pb = adjacency_to_projection(QuantumGraph(g_set, b)).blocks
    prod = {key: pa[key] @ pb[key] for key in pa}
    return projection_to_adjacency(EdgeProjection(g_set, prod)).adjacency


# ---------------------------------------------------------------------------
# rotation
# ---------------------------------------------------------------------------


def test_square_example_displays():
    g = anticommutative_square()
    assert np.abs(g.adjacency - A_SQUARE).max() < 1e-12
    proj = adjacency_to_projection(g)
    assert np.abs(proj.blocks[(0, 0)] - AT_SQUARE).max() < 1e-12
    # identity rotates to the rank-one loop projection
    x = g.set
    ident = QuantumGraph(x, np.eye(4, dtype=complex))
    assert np.abs(adjacency_to_projection(ident).blocks[(0, 0)] - IT_M2).max() < 1e-12
    # and back
    back = projection_to_adjacency(EdgeProjection(x, {(0, 0): IT_M2}))
    assert np.abs(back.adjacency - np.eye(4)).max() < 1e-12
    # the square has no loops: projection product vanishes
    assert np.abs(AT_SQUARE @ IT_M2).max() < 1e-12


def test_zero_projection_rotates_to_zero():
    x = build_quantum_set([2])
    g = projection_to_adjacency(EdgeProjection(x, {(0, 0): np.zeros((4, 4))}))
    assert np.abs(g.adjacency).max() == 0.0


def test_classical_projection_blocks_are_entries():
    x = build_quantum_set([1, 1, 1])
    a = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex)
    proj = adjacency_to_projection(QuantumGraph(x, a))
    for i in range(3):
        for j in range(3):
            assert proj.blocks[(i, j)].shape == (1, 1)
            assert abs(proj.blocks[(i, j)][0, 0] - a[i, j]) < 1e-15


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_projection_block_leaving_the_float_range_is_refused_by_name():
    # block (1, 0) of [1, 2] is scaled by sqrt(2): 1.2e308 stays a float, 1.5e308 does not
    x = build_quantum_set([1, 2])
    blocks = {pair: np.zeros((x.blocks[pair[0]] * x.blocks[pair[1]],) * 2)
              for pair in [(0, 0), (0, 1), (1, 0), (1, 1)]}
    blocks[(1, 0)][1, 0] = -1.2e308
    assert np.isfinite(projection_to_adjacency(EdgeProjection(x, blocks)).adjacency).all()
    blocks[(1, 0)][1, 0] = -1.5e308
    with pytest.raises(InvalidInput, match=r"^projection block \(1,0\) times sqrt\(n_i n_j\) "
                                           r"= 1.41421 leaves the float range$"):
        projection_to_adjacency(EdgeProjection(x, blocks))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_schur_square_leaving_the_float_range_is_refused_by_name():
    # 1e150 squares to 1e300 in both calculi; 1e160 (M_2) and 1e300 (twisted Z_2^2) do not
    from qgraphs import is_quantum_graph
    from qgraphs.clifford import clifford_set

    m2, z22 = build_quantum_set([2]), clifford_set(2)
    for x, k, fits, leaves in ((m2, 3, 1e150, 1e160), (z22, 0, 1e150, 1e300)):
        a = np.zeros((4, 4), dtype=complex)
        a[0, k] = a[k, 0] = fits
        assert not is_quantum_graph(QuantumGraph(x, a)) and not graph_report(
            QuantumGraph(x, a)).is_graph
        a[0, k] = a[k, 0] = leaves
        for check in (is_quantum_graph, graph_report):
            with pytest.raises(InvalidInput, match=r"^the Schur product A \. A leaves the float "
                                                   r"range$"):
                check(QuantumGraph(x, a))


@pytest.mark.parametrize("blocks", [[2], [3], [1, 2], [1, 1, 1, 1]])
def test_rotation_round_trip(blocks):
    x = build_quantum_set(blocks)
    rng = np.random.default_rng(sum(blocks))
    for _ in range(5):
        a = _random_op(x, rng)
        g = QuantumGraph(x, a)
        assert np.abs(projection_to_adjacency(adjacency_to_projection(g)).adjacency
                      - a).max() < 1e-12


# ---------------------------------------------------------------------------
# Schur calculus
# ---------------------------------------------------------------------------


def test_schur_unit_and_identity():
    for blocks in ([2], [1, 2], [1, 1, 1]):
        x = build_quantum_set(blocks)
        eye = np.eye(x.N, dtype=complex)
        assert np.abs(schur_product(x, eye, eye) - eye).max() < 1e-12
        j = schur_unit(x)
        rng = np.random.default_rng(7)
        a = _random_op(x, rng)
        assert np.abs(schur_product(x, a, j) - a).max() < 1e-10
        assert np.abs(schur_product(x, j, a) - a).max() < 1e-10


def test_schur_matches_projection_product_oracle():
    for blocks in ([2], [1, 2]):
        x = build_quantum_set(blocks)
        rng = np.random.default_rng(13)
        for _ in range(5):
            a, b = _random_op(x, rng), _random_op(x, rng)
            got = schur_product(x, a, b)
            want = _schur_via_projection(x, a, b)
            assert np.abs(got - want).max() < 1e-10


def test_schur_star_matches_projection_dagger_oracle():
    for blocks in ([2], [1, 2]):
        x = build_quantum_set(blocks)
        rng = np.random.default_rng(14)
        a = _random_op(x, rng)
        got = adjacency_to_projection(QuantumGraph(x, schur_star(x, a))).blocks
        want = adjacency_to_projection(QuantumGraph(x, a)).blocks
        for key in got:
            assert np.abs(got[key] - want[key].conj().T).max() < 1e-10


def test_schur_accepts_operators_and_rejects_set_mismatch():
    from qgraphs import Operator

    x = build_quantum_set([2])
    y = build_quantum_set([1, 1, 1, 1])
    rng = np.random.default_rng(3)
    a = Operator(x, x, _random_op(x, rng))
    b = Operator(x, x, _random_op(x, rng))
    got = schur_product(x, a, b)
    want = schur_product(x, a.matrix, b.matrix)
    assert np.array_equal(got, want)
    with pytest.raises(InvalidInput):
        schur_product(x, a, Operator(y, y, np.eye(4)))


@pytest.mark.parametrize(
    "blocks",
    [[1, 1, 1, 1], [1, 2], [2, 3, 1], [4, 4, 4, 4], [2] * 16, [2, 1, 2, 3]],
    ids=["1+1+1+1", "1+2", "2+3+1", "4+4+4+4", "2x16", "2+1+2+3"],
)
def test_hadamard_fast_path_matches_generic(blocks):
    x = build_quantum_set(blocks)
    rng = np.random.default_rng(15)
    for _ in range(5):
        a, b = _random_op(x, rng), _random_op(x, rng)
        fast = schur_product(x, a, b)
        slow = dense_schur_product(x, a, b)
        assert np.abs(fast - slow).max() < 1e-10
        assert np.abs(fast - slow).max() <= 1e-12 * np.abs(slow).max()
        if all(n == 1 for n in blocks):
            # classical sets: bit-exact entrywise product
            assert np.abs(fast - a * b).max() == 0.0


def test_quantum_rook_16_reports_beyond_dense_limit():
    from qgraphs import quantum_rook

    rep = graph_report(quantum_rook(16))  # N = 256
    assert rep.quantum_edges == 30
    assert rep.regular_degree == 30.0
    assert rep.is_simple


def test_edge_spectrum_refuses_non_finite_adjacency():
    from qgraphs.graphs import edge_spectrum

    a = np.eye(4, dtype=complex)
    a[1, 2] = np.inf
    with pytest.raises(InvalidInput):
        edge_spectrum(QuantumGraph(build_quantum_set([2]), a))


def test_edge_spectrum_is_none_on_a_non_hermitian_realigned_block():
    from qgraphs.graphs import edge_spectrum

    rng = np.random.default_rng(4)
    g = QuantumGraph(build_quantum_set([2]),
                     rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    assert edge_spectrum(g) is None
    rep = graph_report(g)
    assert rep.is_multigraph is None and rep.quantum_edges is None


@pytest.mark.parametrize("entry, diagonal", [
    (-0.0, True), (complex(0, -0.0), True), (5e-324, False), (complex(0, 5e-324), False),
    (np.nan, False), (np.inf, False), (-np.inf, False), (1.0, False),
])
def test_exact_diagonality_of_off_diagonal_entries(entry, diagonal):
    from qgraphs.graphs import _is_exactly_diagonal

    a = np.diag(np.arange(1.0, 5.0)).astype(complex)
    a[0, 3] = entry
    assert _is_exactly_diagonal(a) == diagonal
    a[0, 0] = 0.0  # zeros on the diagonal do not change the verdict
    assert _is_exactly_diagonal(a) == diagonal


@pytest.mark.parametrize("orders", [(2,) * 6, (4, 2, 3), (16, 16), (5,)])
def test_twisted_edge_spectrum_is_the_fourier_transform_of_the_diagonal(orders):
    from qgraphs.groups import AbelianGroup, cayley_spectrum, twisted_cayley
    from qgraphs.graphs import edge_spectrum
    from conftest import random_bicharacter, reference_fourier_matrix

    rng = np.random.default_rng(len(orders))
    group = AbelianGroup(orders)
    gens = [tuple(int(v) for v in rng.integers(0, orders)) for _ in range(4)]
    gens += [tuple(-v for v in el) for el in gens]  # symmetric, so the spectrum is real
    g = twisted_cayley(group, gens, random_bicharacter(group, rng))
    fourier = reference_fourier_matrix(group)
    want = np.sort((fourier @ np.diagonal(g.adjacency) / group.size).real)
    assert np.abs(edge_spectrum(g) - want).max() < 1e-12
    assert np.array_equal(np.diagonal(g.adjacency), cayley_spectrum(group, gens))


def test_pauli_edges_schur_orthogonal():
    p1 = quantum_edge(2, SIGMA_1)
    p3 = quantum_edge(2, SIGMA_3)
    x = p1.set
    assert np.abs(schur_product(x, p1.adjacency, p3.adjacency)).max() < 1e-12


def test_schur_associative_and_star_antimultiplicative():
    x = build_quantum_set([2])
    rng = np.random.default_rng(23)
    for _ in range(10):
        a, b, c = (_random_op(x, rng) for _ in range(3))
        lhs = schur_product(x, schur_product(x, a, b), c)
        rhs = schur_product(x, a, schur_product(x, b, c))
        assert np.abs(lhs - rhs).max() < 1e-9
        anti = schur_star(x, schur_product(x, a, b))
        ref = schur_product(x, schur_star(x, b), schur_star(x, a))
        assert np.abs(anti - ref).max() < 1e-9


def test_schur_star_monomial_path_matches_dense():
    from qgraphs.clifford import clifford_set

    for x in (build_quantum_set([1, 2]), clifford_set(3)):
        rng = np.random.default_rng(x.N)
        a = _random_op(x, rng)
        fast = schur_star(x, a)
        f = dense_star(x)
        dense = f.T @ np.conj(a) @ np.conj(f)
        assert np.abs(fast - dense).max() < 1e-12


def test_schur_star_examples():
    x = build_quantum_set([2])
    eye = np.eye(4, dtype=complex)
    assert np.abs(schur_star(x, eye) - eye).max() < 1e-15
    xc = build_quantum_set([1, 1, 1])
    a = np.array([[0, 1, 0], [1, 0, 2], [0, 2, 0]], dtype=complex)
    assert np.abs(schur_star(xc, a) - a).max() < 1e-15
    p1 = quantum_edge(2, SIGMA_1).adjacency
    assert np.abs(schur_star(x, 1j * p1) + 1j * p1).max() < 1e-15


def test_undirectedness_transports_to_leg_swap():
    # for Schur-self-adjoint operators, realign(A^dag) is the leg swap of
    # realign(A); hence A = A^dag exactly when the edge element is
    # swap-invariant
    x = build_quantum_set([2])
    rng = np.random.default_rng(31)

    def swap(mat):
        return mat.reshape(2, 2, 2, 2).transpose(3, 2, 1, 0).reshape(4, 4)

    for _ in range(10):
        a = _random_op(x, rng)
        a = 0.5 * (a + schur_star(x, a))
        blocks = adjacency_to_projection(QuantumGraph(x, a)).blocks[(0, 0)]
        dag = adjacency_to_projection(QuantumGraph(x, a.conj().T)).blocks[(0, 0)]
        assert np.abs(dag - swap(blocks)).max() < 1e-12
        sym = 0.5 * (a + a.conj().T)
        sblocks = adjacency_to_projection(QuantumGraph(x, sym)).blocks[(0, 0)]
        assert np.abs(sblocks - swap(sblocks)).max() < 1e-12
        if np.abs(a - a.conj().T).max() > 1e-6:
            assert np.abs(blocks - swap(blocks)).max() > 1e-9


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def test_square_report():
    rep = graph_report(anticommutative_square())
    assert rep.is_simple and rep.is_undirected and rep.loop_status == "none"
    assert rep.vertices == 4
    assert abs(rep.edges - 8) < 1e-9
    assert rep.quantum_edges == 2
    assert abs(rep.regular_degree - 2) < 1e-9


def test_full_graph_report_on_m3():
    x = build_quantum_set([3])
    j = schur_unit(x)
    g = QuantumGraph(x, j - np.eye(9))
    rep = graph_report(g)
    assert rep.is_simple
    assert abs(rep.edges - 72) < 1e-9
    assert rep.quantum_edges == 8


def test_identity_and_unit_reports():
    x = build_quantum_set([1, 2])
    rep_i = graph_report(QuantumGraph(x, np.eye(x.N, dtype=complex)))
    assert rep_i.loop_status == "all"
    assert abs(rep_i.edges - x.N) < 1e-9
    rep_j = graph_report(QuantumGraph(x, schur_unit(x)))
    assert rep_j.loop_status == "all"
    assert abs(rep_j.edges - x.N**2) < 1e-9


def test_empty_graph_is_zero_regular():
    x = build_quantum_set([2])
    rep = graph_report(QuantumGraph(x, np.zeros((4, 4))))
    assert rep.is_graph and rep.is_simple
    assert rep.regular_degree == 0.0


def _twisted_graphs():
    """(label, graph) for a Cayley graph on every twisted set of the family, and perturbations.

    The perturbations keep the adjacency diagonal (scaled, one diagonal
    entry phased or raised, loops, a non-integral spectrum), except the last:
    an off-diagonal 1e-300 that sends the graph to the matrix calculus.  It
    is added on the sets with N <= 16 only, since the dense contraction
    costs N^4 per product and runs the same code at every N.
    """
    from conftest import random_generating_multiset, twisted_family
    from qgraphs.groups import cayley_spectrum

    rng = np.random.default_rng(14)
    for label, x in twisted_family():
        d = cayley_spectrum(x.group, random_generating_multiset(x.group, rng))
        k = int(rng.integers(0, x.N))
        phased, raised = d.copy(), d.copy()
        phased[k] *= 1j
        raised[k] += 1
        variants = {"cayley": np.diag(d), "x2": np.diag(2 * d), "phased": np.diag(phased),
                    "plus-I": np.diag(d + 1), "one-raised": np.diag(raised),
                    "non-integral": np.diag(0.5 * d + 0.25)}
        if x.N <= 16:
            variants["off-diagonal-1e-300"] = np.diag(d)
            variants["off-diagonal-1e-300"][0, x.N - 1] = 1e-300
        for name, a in variants.items():
            yield f"{label}-{name}", QuantumGraph(x, a)


def _bits(value):
    return None if value is None else np.asarray(value, dtype=complex).tobytes()


def _matrix_reference(g, monkeypatch):
    """(graph_report, is_quantum_graph) in the matrix Schur calculus on np.diag(d).

    The reference for the diagonal calculus: the choice is steered to the
    matrix calculus, whose adjacency is the N x N np.diag(d).  Its edge
    spectrum is :func:`edge_spectrum`'s: the matrix calculus reads the
    spectrum off realigned block pairs, and a group-indexed set has none.
    """
    from qgraphs import graphs

    spec = graphs.edge_spectrum(g, 1e-9)
    with monkeypatch.context() as m:
        m.setattr(graphs, "_finite_diagonal", lambda g: None)
        m.setattr(graphs, "_block_spectrum", lambda x, a, tol: spec)
        assert graphs._calculus(g).a.shape == (g.set.N, g.set.N)
        return graphs.graph_report(g, 1e-9), graphs.is_quantum_graph(g, 1e-9)


def test_diagonal_battery_matches_the_matrix_calculus(monkeypatch):
    # the matrix Schur calculus is the reference for the diagonal calculus
    from qgraphs import graphs

    seen = set()
    for label, g in _twisted_graphs():
        rep = graph_report(g)
        ref, ref_is_graph = _matrix_reference(g, monkeypatch)
        assert rep == ref, label
        assert _bits(rep.edges) == _bits(ref.edges), label
        assert _bits(rep.regular_degree) == _bits(ref.regular_degree), label
        assert graphs.is_quantum_graph(g) == ref_is_graph, label
        seen.add((rep.is_graph, rep.is_undirected, rep.loop_status, rep.is_multigraph))
    # the corpus reaches both verdicts of every test
    assert {s[0] for s in seen} == {True, False}
    assert {s[1] for s in seen} == {True, False}
    assert {s[2] for s in seen} == {"none", "all", "mixed-weighted"}
    assert {s[3] for s in seen} == {True, False, None}


def test_twisted_diagonal_report_makes_no_schur_product(monkeypatch):
    # the diagonal calculus forms no N x N array: the matrix Schur product
    # and star are never called
    from qgraphs import graphs
    from qgraphs.clifford import cube_like_graph, hypercube_generators

    g = cube_like_graph(6, hypercube_generators(6))
    want, _ = _matrix_reference(g, monkeypatch)

    def refuse(*args, **kwargs):
        raise AssertionError("matrix Schur calculus called on a twisted diagonal")

    for name in ("schur_product", "schur_star"):
        monkeypatch.setattr(graphs, name, refuse)
    assert graph_report(g) == want
    assert graphs.is_quantum_graph(g)
    assert graphs.edge_spectrum(g) is not None


def test_twisted_battery_transforms_the_diagonal_once(monkeypatch):
    # A . A is the square of the connection function the calculus already holds
    from qgraphs import graphs
    from qgraphs.clifford import cube_like_graph, hypercube_generators

    g = cube_like_graph(9, hypercube_generators(9))
    calls = []
    connection = graphs._connection

    def count(x, d):
        calls.append(d.size)
        return connection(x, d)

    monkeypatch.setattr(graphs, "_connection", count)
    for entry in (graph_report, graphs.is_quantum_graph):
        calls.clear()
        entry(g)
        assert calls == [g.set.N], entry.__name__


def _counted_calculus(monkeypatch):
    """Wrap the choice of Schur calculus; return the list of the calculi it gave."""
    from qgraphs import graphs, obstruction

    chosen = []
    calculus = graphs._calculus

    def count(g):
        chosen.append(calculus(g))
        return chosen[-1]

    monkeypatch.setattr(graphs, "_calculus", count)
    monkeypatch.setattr(obstruction, "_calculus", count)
    return chosen


@pytest.mark.parametrize("kind", ["block", "twisted-diagonal", "twisted-off-diagonal"])
def test_each_entry_point_chooses_the_calculus_once(kind, monkeypatch):
    from qgraphs import graphs, obstruction
    from qgraphs.clifford import cube_like_graph, hypercube_generators

    if kind == "block":
        g = quantum_edge(2, SIGMA_3)
    else:
        g = cube_like_graph(3, hypercube_generators(3))
        if kind == "twisted-off-diagonal":
            g = QuantumGraph(g.set, g.adjacency + 0.5 * np.eye(g.set.N)[::-1])
    chosen = _counted_calculus(monkeypatch)
    for entry in (graphs.graph_report, graphs.is_quantum_graph, graphs.edge_spectrum,
                  obstruction.schur_closure, obstruction.classical_obstruction):
        chosen.clear()
        entry(g)
        assert len(chosen) == 1, entry.__name__
        assert chosen[0].a.ndim == (1 if kind == "twisted-diagonal" else 2)


def test_battery_and_closure_share_the_calculus_when_eta_has_two_entries(monkeypatch):
    # J = eta eta^dag is not diagonal here, so the closure needs N x N
    # matrices; the battery must not choose N-vectors for the same graph
    import dataclasses

    from qgraphs.clifford import clifford_set
    from qgraphs.obstruction import schur_closure

    x = clifford_set(3)
    eta = np.zeros(x.N, dtype=complex)
    eta[:2] = np.sqrt(x.N / 2)
    y = dataclasses.replace(x, unit_vec=eta)
    g = QuantumGraph(y, np.diag(np.arange(y.N, dtype=complex)))
    chosen = _counted_calculus(monkeypatch)
    graph_report(g)
    members, _ = schur_closure(g)
    assert [c.a.ndim for c in chosen] == [2, 2]
    assert all(m.shape == (y.N, y.N) for _, m in members)


def _non_finite_cases():
    from qgraphs.clifford import cube_like_graph, hypercube_generators

    for label, g in [("block", QuantumGraph(build_quantum_set([1, 2]), np.eye(5))),
                     ("twisted-256", cube_like_graph(8, hypercube_generators(8)))]:
        off = g.adjacency.copy()
        off[0, 1] = np.nan
        diag = g.adjacency.copy()
        diag[1, 1] = np.inf
        yield pytest.param(QuantumGraph(g.set, off), id=f"{label}-nan-off-diagonal")
        yield pytest.param(QuantumGraph(g.set, diag), id=f"{label}-inf-on-diagonal")


@pytest.mark.parametrize("g", list(_non_finite_cases()))
def test_non_finite_adjacency_is_refused_before_any_arithmetic(g):
    import warnings

    from qgraphs import is_quantum_graph

    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy RuntimeWarning on the way
        for check in (graph_report, is_quantum_graph):
            with pytest.raises(InvalidInput, match="^adjacency has non-finite entries$"):
                check(g)


# ---------------------------------------------------------------------------
# quantum edges and subspaces
# ---------------------------------------------------------------------------


def test_quantum_edge_examples():
    p1 = quantum_edge(2, SIGMA_1)
    anti = np.zeros((4, 4), dtype=complex)
    for k in range(4):
        anti[k, 3 - k] = 1.0
    assert np.abs(p1.adjacency - anti).max() < 1e-12

    loop = quantum_edge(2, IOTA_2)
    assert np.abs(loop.adjacency - np.eye(4)).max() < 1e-12
    assert graph_report(loop).loop_status == "all"

    gm = quantum_edge(3, LAMBDA_8)
    rep = graph_report(gm)
    assert rep.is_simple and abs(rep.edges - 9) < 1e-9 and rep.quantum_edges == 1


def test_quantum_edge_loop_and_symmetry_criteria():
    rng = np.random.default_rng(2)
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    traceless = z - np.trace(z) / 2 * np.eye(2)
    rep = graph_report(quantum_edge(2, traceless))
    assert rep.loop_status == "none"
    assert not rep.is_undirected  # generic xi is not self-adjoint
    herm = z + z.conj().T
    rep2 = graph_report(quantum_edge(2, herm))
    assert rep2.is_undirected


def test_quantum_edge_rejects_zero():
    with pytest.raises(InvalidInput):
        quantum_edge(2, np.zeros((2, 2)))


def test_graph_from_subspace_examples():
    g = graph_from_subspace(2, [SIGMA_1, SIGMA_3])
    assert np.abs(g.adjacency - A_SQUARE).max() < 1e-12
    x = g.set
    full = graph_from_subspace(2, [SIGMA_1, SIGMA_2, SIGMA_3])
    assert np.abs(full.adjacency - (schur_unit(x) - np.eye(4))).max() < 1e-12
    empty = graph_from_subspace(2, [])
    assert np.abs(empty.adjacency).max() == 0.0


def test_graph_from_subspace_is_basis_independent():
    rng = np.random.default_rng(4)
    mix = rng.standard_normal((2, 2))
    b1 = mix[0, 0] * SIGMA_1 + mix[0, 1] * SIGMA_3
    b2 = mix[1, 0] * SIGMA_1 + mix[1, 1] * SIGMA_3
    g = graph_from_subspace(2, [b1, b2])
    assert np.abs(g.adjacency - A_SQUARE).max() < 1e-9


def test_graph_from_subspace_rejects_dependent_basis():
    with pytest.raises(InvalidInput):
        graph_from_subspace(2, [SIGMA_1, 2.0 * SIGMA_1])


def test_subspace_from_graph_round_trip():
    g = anticommutative_square()
    spaces = subspace_from_graph(g)
    mats = spaces[(0, 0)]
    assert len(mats) == 2
    ortho = gram_schmidt([SIGMA_1, SIGMA_3])
    for xi in mats:
        assert orthogonal_part(xi, ortho)[1] < 1e-9
    # realignment spectrum of a simple M_n graph is {0, 1} after scaling
    blocks = adjacency_to_projection(g).blocks[(0, 0)]
    lam = np.linalg.eigvalsh(blocks)
    assert np.all((np.abs(lam) < 1e-9) | (np.abs(lam - 1) < 1e-9))
    # rebuild the graph from the recovered subspace
    g2 = graph_from_subspace(2, mats)
    assert np.abs(g2.adjacency - g.adjacency).max() < 1e-9


def test_subspace_from_graph_rejects_non_graphs():
    x = build_quantum_set([2])
    rng = np.random.default_rng(1)
    with pytest.raises(InvalidInput):
        subspace_from_graph(QuantumGraph(x, _random_op(x, rng)))


def test_subspace_of_pure_loop_is_identity_span():
    loop = quantum_edge(3, np.eye(3))
    mats = subspace_from_graph(loop)[(0, 0)]
    assert len(mats) == 1
    assert orthogonal_part(mats[0], gram_schmidt([np.eye(3)]))[1] < 1e-9


def test_subspace_of_classical_graph():
    x = build_quantum_set([1, 1])
    a = np.array([[0, 1], [1, 0]], dtype=complex)
    spaces = subspace_from_graph(QuantumGraph(x, a))
    assert len(spaces[(0, 1)]) == 1 and len(spaces[(1, 0)]) == 1
    assert len(spaces[(0, 0)]) == 0 and len(spaces[(1, 1)]) == 0
    total = sum(len(v) for v in spaces.values())
    assert total == graph_report(QuantumGraph(x, a)).quantum_edges


def test_selfadjoint_basis_examples():
    out = selfadjoint_basis([SIGMA_1 + 1j * SIGMA_2, SIGMA_1 - 1j * SIGMA_2])
    assert len(out) == 2
    ortho = gram_schmidt([SIGMA_1, SIGMA_2])
    for xi in out:
        assert np.abs(xi - xi.conj().T).max() < 1e-12
        assert orthogonal_part(xi, ortho)[1] < 1e-9
    assert np.abs(selfadjoint_basis([SIGMA_3])[0] - SIGMA_3).max() < 1e-12
    out_i = selfadjoint_basis([1j * SIGMA_3])
    assert len(out_i) == 1 and np.abs(out_i[0] - out_i[0].conj().T).max() < 1e-12
    with pytest.raises(InvalidInput):
        selfadjoint_basis([SIGMA_1 + 1j * SIGMA_2])  # span not dagger-closed


def test_check_bimodule():
    x = build_quantum_set([1, 1])
    assert not check_bimodule(x, [np.ones((2, 2))])
    graded = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0]),
              np.array([[0, 1], [0, 0]], dtype=complex)]
    assert check_bimodule(x, graded)
    m2 = build_quantum_set([2])
    full = [m.astype(complex) for m in
            (np.eye(2), SIGMA_1, SIGMA_2, SIGMA_3)]
    assert check_bimodule(m2, full)

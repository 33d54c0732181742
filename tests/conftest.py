"""Shared helpers for sampling twisted Cayley instances, and reference implementations."""

import itertools
import math

import numpy as np

from qgraphs.groups import AbelianGroup, Bicharacter, make_bicharacter
from qgraphs.kernels import unit_root

# abelian groups of order <= 64 used by the randomized twist suites
GROUP_POOL = [
    (2,), (3,), (4,), (2, 2), (6,), (8,), (2, 4), (2, 2, 2), (3, 3),
    (12,), (2, 6), (4, 4), (2, 2, 3), (5, 5), (2, 2, 2, 2), (6, 6),
    (2, 2, 2, 2, 2), (7, 7), (2, 4, 8), (8, 8), (4, 4, 4), (2,) * 6,
]


def random_bicharacter(group: AbelianGroup, rng: np.random.Generator) -> Bicharacter:
    """A uniformly random unitary bicharacter (exponents modulo each gcd)."""
    import math

    m = group.rank
    vals = np.ones((m, m), dtype=complex)
    for i in range(m):
        for j in range(m):
            d = math.gcd(group.orders[i], group.orders[j])
            vals[i, j] = unit_root(int(rng.integers(0, d)), d)
    return make_bicharacter(group, vals)


def twisted_family():
    """Representative family of (label, twisted set) with N <= 64."""
    from qgraphs.clifford import clifford_set
    from qgraphs.groups import trivial_bicharacter, twist_quantum_set
    from qgraphs.weyl import weyl_bicharacter

    sets = []
    for n in range(2, 9):
        sigma = weyl_bicharacter(n)
        sets.append((f"weyl({n})", twist_quantum_set(sigma.group, sigma)))
    for n in range(1, 7):
        sets.append((f"clifford({n})", clifford_set(n)))
    rng = np.random.default_rng(2024)
    for orders in [(2, 4), (2, 2, 3), (6, 6), (2,) * 6, (8, 8), (4, 4, 4)]:
        group = AbelianGroup(orders)
        sigma = random_bicharacter(group, rng)
        sets.append((f"random{orders}", twist_quantum_set(group, sigma)))
        sets.append((f"trivial{orders}", twist_quantum_set(group, trivial_bicharacter(group))))
    return sets


def random_generating_multiset(group: AbelianGroup, rng: np.random.Generator,
                               allow_repeats: bool = True,
                               allow_zero: bool = True) -> list[tuple[int, ...]]:
    elements = list(group.elements())
    size = int(rng.integers(1, min(6, group.size) + 1))
    gens: list[tuple[int, ...]] = []
    while len(gens) < size:
        el = elements[int(rng.integers(0, len(elements)))]
        if not allow_zero and all(x == 0 for x in el):
            continue
        if not allow_repeats and el in gens:
            continue
        gens.append(el)
    if rng.random() < 0.5:
        # close under inversion so roughly half the samples are undirected
        closed = list(gens)
        for el in gens:
            neg = tuple((-x) % n for x, n in zip(el, group.orders))
            if neg not in closed or allow_repeats:
                if neg not in closed:
                    closed.append(neg)
        gens = closed
    return gens


def random_twist_instance(rng: np.random.Generator, allow_repeats: bool = True):
    orders = GROUP_POOL[int(rng.integers(0, len(GROUP_POOL)))]
    group = AbelianGroup(orders)
    sigma = random_bicharacter(group, rng)
    gens = random_generating_multiset(group, rng, allow_repeats=allow_repeats)
    return group, gens, sigma


def reference_elements(orders) -> list[tuple[int, ...]]:
    """The group's elements by their definition: residue tuples, row-major."""
    return list(itertools.product(*(range(n) for n in orders)))


def reference_fourier_matrix(group: AbelianGroup) -> np.ndarray:
    """F[alpha, mu] = tau_mu(alpha) = prod_i omega_i^(alpha_i mu_i), one cyclic factor at a time.

    Each factor's phases t multiply the product so far as ``f * t``: a
    complex product can round differently in its two operand orders.
    """
    c = np.asarray(reference_elements(group.orders)).reshape(group.size, group.rank)
    f = np.ones((group.size, group.size), dtype=complex)
    for k, n in enumerate(group.orders):
        roots = np.asarray([unit_root(j, n) for j in range(n)])
        f = f * roots[(c[:, None, k] * c[None, :, k]) % n]
    return f


# ---------------------------------------------------------------------------
# reference Frobenius battery: sums over sorted COO keys and dense matrices
# ---------------------------------------------------------------------------


def _join(ja, jb):
    """Index pairs (ia, ib) with ja[ia] == jb[ib]: ia ascending, ib stable per key."""
    order_b = np.argsort(jb, kind="stable")
    sb = jb[order_b]
    lo = np.searchsorted(sb, ja, side="left")
    count = np.searchsorted(sb, ja, side="right") - lo
    # pair p of index i takes the (p - first pair of i)-th b of its key run
    skip = np.repeat(lo - (np.cumsum(count) - count), count)
    return np.repeat(np.arange(ja.size), count), order_b[np.arange(skip.size) + skip]


def _coo_max_diff(keys1, vals1, keys2, vals2):
    """Max |entry| of the difference of two COO tensors over the key union."""
    keys = np.concatenate([keys1, keys2])
    vals = np.concatenate([vals1, -np.asarray(vals2)])
    if keys.size == 0:
        return 0.0
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    vals = vals[order]
    starts = np.concatenate([[0], np.flatnonzero(np.diff(keys)) + 1])
    return float(np.abs(np.add.reduceat(vals, starts)).max())


def reference_frobenius_residuals(x):
    """Every residual of ``verify_frobenius`` by the direct construction.

    Each tensor identity lists the terms of both sides under packed integer
    keys, sorts the union and sums each key; the star, unit and pairing
    checks build N x N matrices.  Memory is O(N^3) on group-indexed sets.
    """
    n = x.N
    out, lft, rgt, val = x.mult
    f = np.zeros((n, n), dtype=complex)
    f[np.arange(n), x.star_src] = x.star_phase
    res = {}

    def pack(*idx):
        key = np.zeros_like(idx[0])
        for i in idx:
            key = key * n + i
        return key

    ia, ib = _join(pack(lft, rgt), pack(lft, rgt))
    mm = np.zeros((n, n), dtype=complex)
    np.add.at(mm, (out[ia], out[ib]), val[ia] * np.conj(val[ib]))
    res["specialness_mmdag"] = float(np.abs(mm - np.eye(n)).max())

    ia, ib = _join(out, out)
    rhs_k = pack(lft[ib], rgt[ib], lft[ia], rgt[ia])
    rhs_v = val[ia] * np.conj(val[ib])
    ia, ib = _join(rgt, lft)
    res["frobenius_law_left"] = _coo_max_diff(
        pack(out[ia], rgt[ib], lft[ia], out[ib]), val[ia] * np.conj(val[ib]), rhs_k, rhs_v)
    res["frobenius_law_right"] = _coo_max_diff(
        pack(lft[ia], out[ib], out[ia], rgt[ib]), np.conj(val[ia]) * val[ib], rhs_k, rhs_v)

    res["snake_left"] = float(np.abs(f.conj() @ f - np.eye(n)).max())
    res["snake_right"] = float(np.abs(f @ f.conj() - np.eye(n)).max())

    rr, rc, rv = np.arange(n), x.star_src, x.star_phase
    mdag_k, mdag_v = pack(lft, rgt, out), np.conj(val)
    ia, ib = _join(lft, rc)
    res["comult_from_r_left"] = _coo_max_diff(
        pack(rr[ib], out[ia], rgt[ia]), val[ia] * rv[ib], mdag_k, mdag_v)
    res["mult_from_r_left"] = _coo_max_diff(
        pack(rgt[ia], rr[ib], out[ia]), np.conj(val[ia] * rv[ib]), pack(out, lft, rgt), val)
    ia, ib = _join(rgt, rr)
    res["comult_from_r_right"] = _coo_max_diff(
        pack(out[ia], rc[ib], lft[ia]), val[ia] * rv[ib], mdag_k, mdag_v)
    res["mult_from_r_right"] = _coo_max_diff(
        pack(lft[ia], out[ia], rc[ib]), np.conj(val[ia] * rv[ib]), pack(out, lft, rgt), val)

    for name, cols, other in (("unit_left", rgt, lft), ("unit_right", lft, rgt)):
        unit = np.zeros((n, n), dtype=complex)
        np.add.at(unit, (out, cols), val * x.unit_vec[other])
        res[name] = float(np.abs(unit - np.eye(n)).max())

    res["duality_symmetric"] = float(np.abs(f - f.T).max())
    res["star_involutive"] = res["snake_right"]

    ia, ib = _join(out, lft)
    al_k, al_v = pack(out[ib], lft[ia], rgt[ia], rgt[ib]), val[ia] * val[ib]
    ia, ib = _join(out, rgt)
    ar_k, ar_v = pack(out[ib], lft[ib], lft[ia], rgt[ia]), val[ia] * val[ib]
    res["associativity"] = _coo_max_diff(al_k, al_v, ar_k, ar_v)

    res["vertex_count"] = abs(np.vdot(x.unit_vec, x.unit_vec) - n)
    pair = np.zeros((n, n), dtype=complex)
    np.add.at(pair, (lft, rgt), val * np.conj(x.unit_vec[out]))
    res["pairing_from_counit"] = float(np.abs(pair - f.conj()).max())
    return res


# ---------------------------------------------------------------------------
# reference obstruction: the round-based closure and the full pair scan
# ---------------------------------------------------------------------------

#: the round cap of the round-based closure
REFERENCE_MAX_ROUNDS = 20


def reference_closure(g, max_dim=None):
    """(members, complete, schur, to_matrix, rounds) of the closure of {I, J, A}.

    Every round offers the dagger and star of every member and both products
    of every ordered pair of members, up to ``REFERENCE_MAX_ROUNDS`` rounds;
    ``rounds`` counts the rounds run.  Once the members span the whole space
    (N^2 matrices, or N diagonal vectors) no candidate can be independent, so
    the closure stops there, complete.
    """
    from qgraphs.errors import InvalidInput
    from qgraphs.graphs import (_diagonal_schur, _diagonal_star, _is_exactly_diagonal,
                                schur_product, schur_star, schur_unit)
    from qgraphs.obstruction import RANK_TOL

    x = g.set
    n2 = x.N * x.N
    if max_dim is None:
        max_dim = n2
    if not 1 <= max_dim <= n2:
        raise InvalidInput(f"max_dim must lie in 1..N^2 = {n2}, got {max_dim}")
    j, a = schur_unit(x), g.adjacency
    if x.group is not None and _is_exactly_diagonal(a) and _is_exactly_diagonal(j):
        seeds = [np.ones(x.N, dtype=complex), np.diag(j).copy(), np.diag(a).copy()]
        max_dim = min(max_dim, x.N)
        compose, schur, dagger, star, to_matrix = (
            np.multiply, lambda u, v: _diagonal_schur(x, u, v), np.conj,
            lambda u: _diagonal_star(x, u), np.diag)
    else:
        seeds = [np.eye(x.N, dtype=complex), j, a]
        compose, schur, dagger, star, to_matrix = (
            np.matmul, lambda u, v: schur_product(x, u, v), lambda u: u.conj().T,
            lambda u: schur_star(x, u), lambda u: u)

    members, ortho = [], []
    blocked = False
    full = seeds[0].size  # the dimension of the space: N^2 matrices or N diagonal vectors

    class Full(Exception):
        pass

    def try_add(trace, mat, floor=RANK_TOL):
        nonlocal blocked
        nrm = math.sqrt(abs(np.vdot(mat, mat).real))
        if nrm <= floor:
            return False
        unit = mat / nrm
        w = unit.copy()
        for b in ortho:
            w -= np.vdot(b, w) * b
        residual = math.sqrt(abs(np.vdot(w, w).real))
        if residual <= RANK_TOL:
            return False
        if len(members) >= max_dim:
            blocked = True
            return False
        members.append((trace, unit))
        ortho.append(w / residual)
        if len(members) == full:
            raise Full
        return True

    rounds = 0
    try:
        for trace, mat in zip("IJA", seeds):
            try_add(trace, mat, floor=0.0)
        for rounds in range(1, REFERENCE_MAX_ROUNDS + 1):
            grew = False
            snapshot = list(members)
            for trace, mat in snapshot:
                grew |= try_add(f"{trace}†", dagger(mat))
                grew |= try_add(f"{trace}*", star(mat))
            for (ta, ma), (tb, mb) in itertools.product(snapshot, snapshot):
                grew |= try_add(f"({ta}∘{tb})", compose(ma, mb))
                grew |= try_add(f"({ta}•{tb})", schur(ma, mb))
            if blocked or not grew:
                break
    except Full:
        return members, True, schur, to_matrix, rounds
    return members, not (blocked or grew), schur, to_matrix, rounds


def reference_scan(closure, threshold=1e-6):
    """The simplest Schur-noncommuting pair of a ``reference_closure`` result, every pair scanned."""
    from qgraphs.obstruction import Certificate, Inconclusive

    members, complete, schur, to_matrix, _ = closure
    best = None
    max_residual = 0.0
    for (ta, ma), (tb, mb) in itertools.combinations(members, 2):
        res = float(np.abs(schur(ma, mb) - schur(mb, ma)).max())
        max_residual = max(max_residual, res)
        if res <= threshold:
            continue
        key = (len(ta) + len(tb), -round(res, 9), ta, tb)
        if best is None or key < best[0]:
            best = (key, ma, mb, res)
    if best is not None:
        (_, _, ta, tb), ma, mb, res = best
        return Certificate(witness_x=to_matrix(ma), witness_y=to_matrix(mb), trace_x=ta,
                           trace_y=tb, residual=res, threshold=threshold)
    note = "closure is Schur-commutative; this does not certify classicality"
    if not complete:
        note = "closure truncated at max_dim; " + note
    return Inconclusive(note=note, closure_dim=len(members), max_residual=max_residual)


# ---------------------------------------------------------------------------
# closed forms and helpers that only the tests use
# ---------------------------------------------------------------------------


def dense_mult(x) -> np.ndarray:
    """The multiplication tensor of a quantum set as an (N, N, N) array m[out, left, right]."""
    m = np.zeros((x.N, x.N, x.N), dtype=complex)
    m[x.mult.out, x.mult.left, x.mult.right] = x.mult.val
    return m


def dense_schur_product(x, a, b) -> np.ndarray:
    """The Schur product m (A (x) B) m^dag as an einsum over :func:`dense_mult`."""
    m = dense_mult(x)
    t = np.einsum("prs,ru->pus", m, a)
    t = np.einsum("pus,sv->puv", t, b)
    return np.einsum("puv,quv->pq", t, np.conj(m))


def dense_star(x) -> np.ndarray:
    """The duality R of a quantum set as an (N, N) array; row k holds the coefficients of e_k^*."""
    f = np.zeros((x.N, x.N), dtype=complex)
    f[np.arange(x.N), x.star_src] = x.star_phase
    return f


def transported_duality(phi) -> np.ndarray:
    """The twisted duality tensor moved through phi: (U (x) U) R_breve."""
    u = phi.matrix
    return u @ dense_star(phi.domain) @ u.T


def transported_mult(phi) -> np.ndarray:
    """The twisted multiplication moved through phi, as an (N, N, N) tensor."""
    u = phi.matrix
    m = dense_mult(phi.domain)
    t = np.einsum("pk,kmn->pmn", u, m)
    t = np.einsum("pmn,qm->pqn", t, np.conj(u))
    return np.einsum("pqn,rn->pqr", t, np.conj(u))


def leg_phases(group: AbelianGroup, sigma: Bicharacter, legs: int) -> np.ndarray:
    """Multi-index phases sigma_i = prod_{a<b} sigma(g_{i_a}, g_{i_b}).

    Returned as a vector over row-major multi-indices of length ``legs``.
    """
    n = group.size
    if legs == 0:
        return np.ones(1, dtype=complex)
    table = group.addition_table()
    sig = sigma.table()
    phases = np.ones(n, dtype=complex)
    sums = np.arange(n, dtype=np.int64)
    for _ in range(legs - 1):
        phases = (phases[:, None] * sig[sums[:, None], np.arange(n)[None, :]]).ravel()
        sums = table[sums[:, None], np.arange(n)[None, :]].ravel()
    return phases


def twist_tensor(tensor: np.ndarray, out_legs: int, in_legs: int,
                 group: AbelianGroup, sigma: Bicharacter) -> np.ndarray:
    """Entrywise twist of a tensor with group-graded legs (the twist of graded morphisms).

    ``tensor`` is an (N^out_legs) x (N^in_legs) matrix over row-major
    multi-indices; the twisted tensor multiplies each entry by
    sigma_i conj(sigma_j) for output multi-index i and input multi-index j.
    """
    n = group.size
    t = np.asarray(tensor, dtype=complex)
    assert t.shape == (n ** out_legs, n ** in_legs)
    po = leg_phases(group, sigma, out_legs)
    pi = leg_phases(group, sigma, in_legs)
    return (po[:, None] * t) * np.conj(pi)[None, :]


def lambda_hypercube(n: int, d: int) -> float:
    """Eigenvalue of the n-cube at a character of degree d."""
    return float(n - 2 * d)


def lambda_folded(n: int, d: int) -> float:
    """Eigenvalue of the folded n-cube at a character of degree d."""
    return float(n + 1 - 4 * math.ceil(d / 2))


def rook_spectrum(n: int) -> np.ndarray:
    """lambda_{ab} = n d_{a0} + n d_{b0} - 2 for the rook's graph."""
    from qgraphs.groups import cayley_spectrum
    from qgraphs.weyl import rook_generators

    return cayley_spectrum(AbelianGroup((n, n)), rook_generators(n))


def random_positive_element(x_set, rng: np.random.Generator):
    """x* x for a random element x of C(X)."""
    from qgraphs.algebra import algebra_multiply, algebra_star, random_element

    x = random_element(x_set, rng)
    return algebra_multiply(algebra_star(x), x)


def projection_is_positive(g, tol: float = 1e-9) -> bool:
    """Whether the edge element of ``g`` is a positive element (weighted graph)."""
    from qgraphs.graphs import edge_spectrum
    from qgraphs.kernels import scale_of

    spec = edge_spectrum(g, tol=tol)
    assert spec is not None, "edge-element spectrum not available for this graph"
    return spec.size == 0 or bool(spec[0] >= -tol * scale_of(g.adjacency))

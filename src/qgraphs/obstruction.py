"""Schur-noncommutativity obstruction to quantum isomorphism with a
classical graph.

On a classical set the Schur product is the entrywise product, so the
morphism algebra of a classical graph is Schur-commutative; quantum
isomorphism transports the Schur product along with everything else built
from the multiplication.  Hence if two operators in a space the morphism
algebra must contain fail to Schur-commute, the graph cannot be quantum
isomorphic to any classical one.  We grow a conservative
under-approximation of that space from {I, J, A} and scan it for a
noncommuting pair; a Certificate is therefore sound, while Inconclusive
never claims classicality.

The closure is a semi-naive fixpoint (each round combines only what the
round before added with the rest) that stops once its span is final: at the
first candidate the ``max_dim`` cap refuses, and when the members span the
whole space.  The scan stops at the first combined trace length that holds
a witness.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .errors import InvalidInput
from .graphs import (QuantumGraph, _group_convolve, _is_exactly_diagonal, schur_product,
                     schur_star, schur_unit)
from .kernels import max_abs, orthogonal_part

__all__ = ["Certificate", "Inconclusive", "schur_closure", "classical_obstruction"]

#: span-growth threshold for closure stabilisation
RANK_TOL = 1e-8
#: residual above which a Schur commutator counts as a witness
DEFAULT_THRESHOLD = 1e-6


@dataclass
class Certificate:
    """A witnessed failure of Schur commutativity.

    ``witness_x``/``witness_y`` are unit-Frobenius-norm operators from the
    closure; ``trace_x``/``trace_y`` record how they were built from the
    seeds I, J, A.
    """

    witness_x: np.ndarray
    witness_y: np.ndarray
    trace_x: str
    trace_y: str
    residual: float
    threshold: float


@dataclass
class Inconclusive:
    """The scanned closure was Schur-commutative.

    Commutativity of an under-approximation proves nothing: the graph may
    or may not be quantum isomorphic to a classical one.
    """

    note: str
    closure_dim: int
    max_residual: float


def _closure(g: QuantumGraph, max_dim: Optional[int]) -> tuple[list, bool, Callable, Callable]:
    """(members, complete, schur, to_matrix): the closure of {I, J, A} in one
    representation, with that representation's Schur product and member ->
    operator map.  When A and J are diagonal on a group-indexed set the
    closure stays diagonal (composition is pointwise, the Schur product a
    convolution over the group) and members are diagonal vectors; otherwise
    they are N x N matrices.

    Each round offers the images of the members the round before added and
    their products with every member so far (an older pair only repeats a
    candidate in the span); diagonal products commute, so there each
    unordered pair is offered once.  The loop ends as soon as the members
    are final: at the cap's first refusal of an independent candidate, and
    when they span the whole space (N^2 matrices, N diagonal vectors).
    """
    x = g.set
    n2 = x.N * x.N
    if max_dim is None:
        max_dim = n2
    if not 1 <= max_dim <= n2:
        raise InvalidInput(f"max_dim must lie in 1..N^2 = {n2}, got {max_dim}")

    j, a = schur_unit(x), g.adjacency
    diagonal = x.group is not None and _is_exactly_diagonal(a) and _is_exactly_diagonal(j)
    if diagonal:
        neg = x.group.negation()
        # contiguous copies: vdot on a strided view rounds differently
        seeds = [np.ones(x.N, dtype=complex), np.diag(j).copy(), np.diag(a).copy()]
        max_dim = min(max_dim, x.N)
        compose, schur, dagger, star, to_matrix = (
            np.multiply, lambda u, v: _group_convolve(x, u, v), np.conj,
            lambda u: np.conj(u[neg]), np.diag)
    else:
        seeds = [np.eye(x.N, dtype=complex), j, a]
        compose, schur, dagger, star, to_matrix = (
            np.matmul, lambda u, v: schur_product(x, u, v), lambda u: u.conj().T,
            lambda u: schur_star(x, u), lambda u: u)

    members: list[tuple[str, np.ndarray]] = []
    ortho: list[np.ndarray] = []
    blocked = False

    def try_add(trace: str, mat: np.ndarray, floor: float = RANK_TOL) -> None:
        # closure members have unit norm, so a product or image of them this
        # small is rounding noise (e.g. I . A on a loopless graph), not a new
        # operator; seeds come at any scale and are refused only when zero
        nonlocal blocked
        nrm = math.sqrt(abs(np.vdot(mat, mat).real))
        if nrm <= floor:
            return
        unit = mat / nrm
        w, residual = orthogonal_part(unit, ortho)
        if residual <= RANK_TOL:
            return
        if len(members) >= max_dim:
            blocked = True  # an independent candidate was refused by the cap
            return
        members.append((trace, unit))
        ortho.append(w / residual)

    for trace, mat in zip("IJA", seeds):
        try_add(trace, mat, floor=0.0)

    full = x.N if diagonal else n2  # the dimension of the whole space

    def final() -> bool:
        # a refusal by the cap comes only when the member list is full; a
        # basis of the whole space leaves every further candidate a residual
        # of rounding size, far below RANK_TOL
        return blocked or len(members) == full

    def offers(snapshot: list, start: int):
        for trace, mat in snapshot[start:]:
            yield f"{trace}†", dagger(mat)
            yield f"{trace}*", star(mat)
        for i, (ta, ma) in enumerate(snapshot):
            for tb, mb in snapshot[start if i < start else i if diagonal else 0:]:
                yield f"({ta}∘{tb})", compose(ma, mb)
                yield f"({ta}•{tb})", schur(ma, mb)

    start = 0  # members[start:] were added by the previous round
    while start < len(members) and not final():
        snapshot = list(members)
        for trace, mat in offers(snapshot, start):
            try_add(trace, mat)
            if final():
                break
        start = len(snapshot)
    return members, not blocked, schur, to_matrix


def schur_closure(
    g: QuantumGraph, max_dim: Optional[int] = None
) -> tuple[list[tuple[str, np.ndarray]], bool]:
    """Grow the span of {I, J, A} closed under composition, Schur product,
    dagger and Schur star.

    Returns the list of (construction trace, unit-norm operator) for a
    linearly independent generating family, plus a completeness flag which
    is False when ``max_dim`` (1 to N^2) stopped the iteration early.  When
    A is diagonal on a group-indexed set the closure runs on diagonal
    vectors, and each Schur product is one convolution over the group, N^2
    multiply-adds through the addition table.  Each ordered pair of members
    is combined at most once, so a closure of dimension d makes at most d^2
    compositions and d^2 Schur products, d(d + 1)/2 of each on diagonal
    vectors, where both commute (twisted Q_9 / Q_10: N = 512 / 1024, d up
    to 10 / 11).  The iteration stops at the first candidate ``max_dim``
    refuses and once the members span the whole space, so a capped closure
    or the full algebra offers far fewer: the uncapped closure of a random
    graph on blocks [1, 3] (all N^2 = 100 operators) ends after 218
    candidates, where running every round to its end would offer 20,203.
    """
    members, complete, _, to_matrix = _closure(g, max_dim)
    return [(t, to_matrix(m)) for t, m in members], complete


def classical_obstruction(
    g: QuantumGraph, max_dim: Optional[int] = None
) -> Union[Certificate, Inconclusive]:
    """Scan the closure for a Schur-noncommuting pair.

    Any pair with residual above ``DEFAULT_THRESHOLD`` is a sound
    certificate, so among those the SIMPLEST pair is reported: minimal
    combined trace length, then maximal residual, then trace order.  This
    keeps witnesses human-readable (an operator that fails to Schur-commute
    with the identity or with its own square beats an equally valid but
    opaque combination) and is deterministic.  Pairs are scanned shortest
    first, up to the first length that holds a witness (Inconclusive scans
    all), in the closure's own representation; only witnesses become matrices.
    """
    members, complete, schur, to_matrix = _closure(g, max_dim)
    pairs = sorted(itertools.combinations(members, 2), key=lambda p: len(p[0][0]) + len(p[1][0]))
    best: Optional[tuple[tuple, np.ndarray, np.ndarray, float]] = None
    max_residual = 0.0
    for (ta, ma), (tb, mb) in pairs:
        length = len(ta) + len(tb)
        if best is not None and length > best[0][0]:
            break
        res = max_abs(schur(ma, mb) - schur(mb, ma))
        max_residual = max(max_residual, res)
        if res <= DEFAULT_THRESHOLD:
            continue
        # residuals compared at a 1e-9 grain so that genuine ties are
        # broken by trace order, not by the last floating-point ulp
        key = (length, -round(res, 9), ta, tb)
        if best is None or key < best[0]:
            best = (key, ma, mb, res)
    if best is not None:
        (_, _, ta, tb), ma, mb, res = best
        return Certificate(witness_x=to_matrix(ma), witness_y=to_matrix(mb), trace_x=ta,
                           trace_y=tb, residual=float(res), threshold=DEFAULT_THRESHOLD)
    note = "closure is Schur-commutative; this does not certify classicality"
    if not complete:
        note = "closure truncated at max_dim; " + note
    return Inconclusive(note=note, closure_dim=len(members), max_residual=float(max_residual))

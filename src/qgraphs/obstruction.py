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
whole space.  It runs in the one Schur calculus that
:func:`qgraphs.graphs._calculus` chooses for the graph, as the predicate
battery does: N-vectors when the set is group-indexed, A is exactly diagonal
and eta has at most one nonzero entry (so J is diagonal too), N x N matrices
otherwise.  On N-vectors the Schur product is a convolution over an abelian
group, which commutes, so a diagonal closure is not scanned;
:func:`classical_obstruction` tells the two forms apart by the members'
shape.  Otherwise the scan stops at the first combined trace length that
holds a witness.  Both entry points refuse non-finite adjacency entries
before any arithmetic.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import InvalidInput
from .graphs import QuantumGraph, _calculus, schur_product
from .kernels import max_abs, orthogonal_part

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


def schur_closure(
    g: QuantumGraph, max_dim: Optional[int] = None
) -> tuple[list[tuple[str, np.ndarray]], bool]:
    """Grow the span of {I, J, A} closed under composition, Schur product,
    dagger and Schur star.

    Returns the list of (construction trace, unit-norm operator) for a
    linearly independent generating family, plus a completeness flag which
    is False when ``max_dim`` (1 to N^2) stopped the iteration early.  The
    closure runs in the Schur calculus that :func:`qgraphs.graphs._calculus`
    chooses once for the graph, the one the predicate battery uses, and each
    member is returned as that calculus holds it.  When the set is
    group-indexed, A is exactly diagonal and eta has at most one nonzero
    entry (so J is diagonal too), that is the N-vector of its diagonal, with
    pointwise composition and a Schur product of one FFT of length N (each
    member's connection function is formed once and kept beside it), and no
    N x N array is formed (twisted Q_10, N = 1024: 0.04 s on one core, a
    ``tracemalloc`` peak of 0.78 MiB); otherwise it is an N x N matrix.  The
    span is one matrix of orthonormal rows, one per member.  Raises
    InvalidInput on non-finite adjacency entries.

    Each round offers the images of the members the round before added and
    their products with every member so far (an older pair only repeats a
    candidate in the span), so a closure of dimension d makes at most d^2
    compositions and d^2 Schur products, d(d + 1)/2 of each on diagonal
    vectors, where both commute.  The loop ends as soon as the members are
    final: at the cap's first refusal of an independent candidate, and when
    they span the whole space (N^2 matrices, N diagonal vectors).  So the
    uncapped closure of a random graph on blocks [1, 3] (all N^2 = 100
    operators) ends after 218 candidates, where running every round to its
    end would offer 20,203.
    """
    x = g.set
    n2 = x.N * x.N
    if max_dim is None:
        max_dim = n2
    if not 1 <= max_dim <= n2:
        raise InvalidInput(f"max_dim must lie in 1..N^2 = {n2}, got {max_dim}")

    c = _calculus(g)
    diagonal = c.a.ndim == 1
    full = c.a.size  # the dimension of the whole space: N^2 matrices or N diagonal vectors
    max_dim = min(max_dim, full)

    members: list[tuple[str, np.ndarray]] = []
    held: list[np.ndarray] = []  # each member as c.schur takes it (on diagonals, its f)
    span = np.zeros((0, full), dtype=complex)  # orthonormal rows, one per member
    blocked = False

    def try_add(trace: str, mat: np.ndarray, floor: float = RANK_TOL) -> None:
        # closure members have unit norm, so a product or image of them this
        # small is rounding noise (e.g. I . A on a loopless graph), not a new
        # operator; seeds come at any scale and are refused only when zero
        nonlocal blocked, span
        nrm = math.sqrt(abs(np.vdot(mat, mat).real))
        if nrm <= floor:
            return
        unit = mat / nrm
        w, residual = orthogonal_part(unit, span)
        if residual <= RANK_TOL:
            return
        if len(members) >= max_dim:
            blocked = True  # an independent candidate was refused by the cap
            return
        members.append((trace, unit))
        held.append(c.hold(unit))
        span = np.vstack([span, w.reshape(1, full) / residual])

    for trace, mat in zip("IJA", (c.eye(), c.unit(), c.a)):
        # the plain norm of a seed under- or overflows outside about 1e+-154 (to
        # NaN where the dot product forms inf - inf): there the seed is measured
        # against its largest entry first
        if not 0.0 < math.sqrt(abs(np.vdot(mat, mat).real)) < math.inf and max_abs(mat) > 0:
            mat = mat / max_abs(mat)
        try_add(trace, mat, floor=0.0)

    def final() -> bool:
        # a refusal by the cap comes only when the member list is full; a
        # basis of the whole space leaves every further candidate a residual
        # of rounding size, far below RANK_TOL
        return blocked or len(members) == full

    def offers(snapshot: list, start: int):
        for trace, mat, _ in snapshot[start:]:
            yield f"{trace}†", c.dagger(mat)
            yield f"{trace}*", c.star(mat)
        for i, (ta, ma, ha) in enumerate(snapshot):
            for tb, mb, hb in snapshot[start if i < start else i if diagonal else 0:]:
                yield f"({ta}∘{tb})", c.compose(ma, mb)
                yield f"({ta}•{tb})", c.schur(ha, hb)

    start = 0  # members[start:] were added by the previous round
    while start < len(members) and not final():
        snapshot = [(trace, mat, h) for (trace, mat), h in zip(members, held)]
        for trace, mat in offers(snapshot, start):
            try_add(trace, mat)
            if final():
                break
        start = len(snapshot)
    return members, not blocked


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
    all).  A diagonal closure, whose members :func:`schur_closure` returns as
    N-vectors, is not scanned: its Schur products are convolutions, which
    commute, so the result is Inconclusive with ``max_residual`` 0.0 and a
    note that says so.  Raises InvalidInput on non-finite adjacency entries.
    """
    members, complete = schur_closure(g, max_dim)
    diagonal = members[0][1].ndim == 1  # the seed I, as the closure holds it
    pairs = [] if diagonal else sorted(itertools.combinations(members, 2),
                                       key=lambda p: len(p[0][0]) + len(p[1][0]))
    best: Optional[tuple[tuple, np.ndarray, np.ndarray, float]] = None
    max_residual = 0.0
    for (ta, ma), (tb, mb) in pairs:
        length = len(ta) + len(tb)
        if best is not None and length > best[0][0]:
            break
        res = max_abs(schur_product(g.set, ma, mb) - schur_product(g.set, mb, ma))
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
        return Certificate(witness_x=ma, witness_y=mb, trace_x=ta, trace_y=tb,
                           residual=float(res), threshold=DEFAULT_THRESHOLD)
    note = (f"closure is {'diagonal on a group-indexed set, hence ' if diagonal else ''}"
            "Schur-commutative; this does not certify classicality")
    if not complete:
        note = "closure truncated at max_dim; " + note
    return Inconclusive(note=note, closure_dim=len(members), max_residual=float(max_residual))

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
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import InvalidInput
from .graphs import QuantumGraph, _group_convolve, schur_product, schur_star, schur_unit
from .kernels import max_abs, span_residual

__all__ = ["Certificate", "Inconclusive", "schur_closure", "classical_obstruction"]

#: span-growth threshold for closure stabilisation
RANK_TOL = 1e-8
#: residual above which a Schur commutator counts as a witness
DEFAULT_THRESHOLD = 1e-6
MAX_ROUNDS = 20


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


def _normalise(mat: np.ndarray, floor: float) -> Optional[np.ndarray]:
    nrm = math.sqrt(abs(np.vdot(mat, mat).real))
    if nrm <= floor:
        return None
    return mat / nrm


def _closure_work(x, seeds: list[tuple[str, np.ndarray]], max_dim: int,
                  compose, schur, dagger, star) -> tuple[list[tuple[str, np.ndarray]], bool]:
    named: list[tuple[str, np.ndarray]] = []
    ortho: list[np.ndarray] = []
    blocked = False

    def try_add(trace: str, mat: np.ndarray, floor: float = RANK_TOL) -> bool:
        # closure members have unit norm, so a product or image of them this
        # small is rounding noise (e.g. I . A on a loopless graph), not a new
        # operator; seeds come at any scale and are refused only when zero
        nonlocal blocked
        unit = _normalise(mat, floor)
        if unit is None:
            return False
        if ortho and span_residual(unit, ortho) <= RANK_TOL:
            return False
        if len(named) >= max_dim:
            blocked = True  # an independent candidate was refused by the cap
            return False
        named.append((trace, unit))
        w = unit.copy()
        for b in ortho:
            w -= np.vdot(b, w) * b
        ortho.append(w / math.sqrt(abs(np.vdot(w, w).real)))
        return True

    for trace, mat in seeds:
        try_add(trace, mat, floor=0.0)

    complete = True
    for _ in range(MAX_ROUNDS):
        grew = False
        snapshot = list(named)
        for trace, mat in snapshot:
            grew |= try_add(f"{trace}†", dagger(mat))
            grew |= try_add(f"{trace}*", star(mat))
        for (ta, ma), (tb, mb) in itertools.product(snapshot, snapshot):
            grew |= try_add(f"({ta}∘{tb})", compose(ma, mb))
            grew |= try_add(f"({ta}•{tb})", schur(ma, mb))
        if blocked:
            complete = False
            break
        if not grew:
            break
    else:
        complete = False
    return named, complete


def schur_closure(
    g: QuantumGraph, max_dim: Optional[int] = None
) -> tuple[list[tuple[str, np.ndarray]], bool]:
    """Grow the span of {I, J, A} closed under composition, Schur product,
    dagger and Schur star.

    Returns the list of (construction trace, unit-norm operator) for a
    linearly independent generating family, plus a completeness flag which
    is False when ``max_dim`` stopped the iteration early.  When all seeds
    are diagonal on a group-indexed set the whole closure stays diagonal
    (composition is pointwise, the Schur product is a convolution), so the
    iteration runs on diagonal vectors and scales to N = 1024.
    """
    x = g.set
    n2 = x.N * x.N
    if max_dim is None:
        max_dim = n2
    if max_dim > n2:
        raise InvalidInput(f"max_dim {max_dim} exceeds N^2 = {n2}")

    eye = np.eye(x.N, dtype=complex)
    j = schur_unit(x)
    a = g.adjacency

    diagonal_mode = (
        x.group is not None
        and not np.any(a - np.diag(np.diag(a)))
        and not np.any(j - np.diag(np.diag(j)))
    )
    if diagonal_mode:
        neg = x.group.negation()
        seeds = [("I", np.ones(x.N, dtype=complex)), ("J", np.diag(j).copy()),
                 ("A", np.diag(a).copy())]
        named, complete = _closure_work(
            x,
            seeds,
            min(max_dim, x.N),
            compose=lambda u, v: u * v,
            schur=lambda u, v: _group_convolve(x, u, v),
            dagger=np.conj,
            star=lambda u: np.conj(u[neg]),
        )
        return [(t, np.diag(v)) for t, v in named], complete

    return _closure_work(
        x,
        [("I", eye), ("J", j), ("A", a)],
        max_dim,
        compose=lambda u, v: u @ v,
        schur=lambda u, v: schur_product(x, u, v),
        dagger=lambda u: u.conj().T,
        star=lambda u: schur_star(x, u),
    )


def classical_obstruction(
    g: QuantumGraph,
    max_dim: Optional[int] = None,
    threshold: float = DEFAULT_THRESHOLD,
) -> Union[Certificate, Inconclusive]:
    """Scan the closure for a Schur-noncommuting pair.

    Any pair with residual above ``threshold`` is a sound certificate, so
    among those the SIMPLEST pair is reported: minimal combined trace
    length, then maximal residual, then trace order.  This keeps witnesses
    human-readable (an operator that fails to Schur-commute with the
    identity or with its own square beats an equally valid but opaque
    combination) and is deterministic.
    """
    x = g.set
    ops, complete = schur_closure(g, max_dim=max_dim)
    best: Optional[tuple[tuple, np.ndarray, np.ndarray]] = None
    max_residual = 0.0
    for i in range(len(ops)):
        for j in range(i + 1, len(ops)):
            ta, ma = ops[i]
            tb, mb = ops[j]
            comm = schur_product(x, ma, mb) - schur_product(x, mb, ma)
            res = max_abs(comm)
            max_residual = max(max_residual, res)
            if res <= threshold:
                continue
            # residuals compared at a 1e-9 grain so that genuine ties are
            # broken by trace order, not by the last floating-point ulp
            key = (len(ta) + len(tb), -round(res, 9), ta, tb)
            if best is None or key < best[0]:
                best = (key, ma, mb, res)
    if best is not None:
        (_, _, ta, tb), ma, mb, res = best
        return Certificate(
            witness_x=ma,
            witness_y=mb,
            trace_x=ta,
            trace_y=tb,
            residual=float(res),
            threshold=threshold,
        )
    note = "closure is Schur-commutative; this does not certify classicality"
    if not complete:
        note = "closure truncated at max_dim; " + note
    return Inconclusive(note=note, closure_dim=len(ops), max_residual=float(max_residual))

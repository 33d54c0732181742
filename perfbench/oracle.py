"""Output oracle for the benchmark, written with numpy only.

Every check recomputes what it needs from the generated inputs or from
first principles (Fourier transforms, realignment ranks, the matrix-unit
Schur product) and never imports ``qgraphs``, so a defect in the library
cannot hide behind the same defect in its checker.

``check(spec, text)`` returns None when ``text`` (one emitted JSON
document) satisfies ``spec`` and a one-line reason otherwise.
"""

from __future__ import annotations

import json
import math
from functools import lru_cache

import numpy as np

TOL = 1e-8
PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


class Mismatch(Exception):
    """An output that disagrees with the oracle."""


def _require(cond: bool, reason: str) -> None:
    if not cond:
        raise Mismatch(reason)


def matrix(value) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    _require(arr.ndim == 3 and arr.shape[2] == 2, "matrix is not a nested list of [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


@lru_cache(maxsize=64)
def _load_file(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _offsets(blocks) -> list[int]:
    out = [0]
    for n in blocks:
        out.append(out[-1] + n * n)
    return out


def unit_vector(blocks) -> np.ndarray:
    """eta in the orthonormal basis e_ab / sqrt(n): sqrt(n) on each diagonal slot."""
    off = _offsets(blocks)
    eta = np.zeros(off[-1], dtype=complex)
    for i, n in enumerate(blocks):
        eta[off[i] + np.arange(n) * (n + 1)] = math.sqrt(n)
    return eta


def realign(blocks, a: np.ndarray) -> dict:
    """Edge projection per ordered block pair: P_ij[(a,c),(b,d)] = A[(i,a,b),(j,c,d)] / sqrt(n_i n_j)."""
    off = _offsets(blocks)
    out = {}
    for i, ni in enumerate(blocks):
        for j, nj in enumerate(blocks):
            sub = a[off[i]:off[i + 1], off[j]:off[j + 1]].reshape(ni, ni, nj, nj)
            out[(i, j)] = sub.transpose(0, 2, 1, 3).reshape(ni * nj, ni * nj) / math.sqrt(ni * nj)
    return out


def quantum_edges(blocks, a: np.ndarray) -> int:
    """Total rank of the edge projection (eigenvalues above 1/2)."""
    total = 0
    for p in realign(blocks, a).values():
        total += int(np.sum(np.linalg.eigvalsh(0.5 * (p + p.conj().T)) > 0.5))
    return total


def multiplication_tensor(blocks) -> np.ndarray:
    """m[out, left, right] of M_n1 + ... in the basis e_ab / sqrt(n)."""
    off = _offsets(blocks)
    m = np.zeros((off[-1],) * 3, dtype=complex)
    for i, n in enumerate(blocks):
        idx = np.arange(n)
        a, b, d = np.meshgrid(idx, idx, idx, indexing="ij")
        m[off[i] + a * n + d, off[i] + a * n + b, off[i] + b * n + d] = 1.0 / math.sqrt(n)
    return m


def schur_product(blocks, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x . y = m (x (x) y) m^dag for a direct sum of matrix blocks."""
    m = multiplication_tensor(blocks)
    left = np.einsum("prs,ru,sv->puv", m, x, y, optimize=True)
    return np.einsum("puv,quv->pq", left, m.conj(), optimize=True)


def quantum_edge(n: int, xi: np.ndarray) -> np.ndarray:
    """Adjacency of the quantum edge of xi on M_n: n / Tr(xi^dag xi) * xi (x) conj(xi)."""
    return (n / np.trace(xi.conj().T @ xi).real) * np.kron(xi, np.conj(xi))


def m2_graph(m: int) -> np.ndarray:
    a = np.zeros((4, 4), dtype=complex)
    for sigma in PAULI[:m]:
        a += quantum_edge(2, sigma)
    return a


def rook_adjacency(n: int) -> np.ndarray:
    """A[(i,j),(k,l)] = d(i-j = k-l mod n) + n d_ijkl - 2 d_ik d_jl."""
    i, j, k, l = np.meshgrid(*(np.arange(n),) * 4, indexing="ij")
    a = ((i - j) % n == (k - l) % n).astype(float)
    a += n * ((i == j) & (j == k) & (k == l))
    a -= 2.0 * ((i == k) & (j == l))
    return a.reshape(n * n, n * n).astype(complex)


def cayley_spectrum(orders, gens) -> np.ndarray:
    """Eigenvalues sum_{s in S} tau_mu(-s): the FFT of the generator indicator."""
    indicator = np.zeros(tuple(orders))
    for s in gens:
        indicator[tuple(s)] += 1.0
    return np.fft.fftn(indicator).ravel()


def cayley_adjacency(orders, gens) -> np.ndarray:
    """Classical A[beta, alpha] = #{s in S : beta = alpha + s}, row-major elements."""
    n = int(np.prod(orders))
    coords = np.array(np.unravel_index(np.arange(n), tuple(orders))).T
    a = np.zeros((n, n))
    for s in gens:
        target = np.ravel_multi_index(((coords + np.asarray(s)) % np.asarray(orders)).T, tuple(orders))
        a[target, np.arange(n)] += 1.0
    return a


# ---------------------------------------------------------------------------
# report checks
# ---------------------------------------------------------------------------


def _graph_expectation(blocks, a: np.ndarray) -> dict:
    eta = unit_vector(blocks)
    edges = complex(np.vdot(eta, a @ eta))
    scale = max(1.0, float(np.abs(a).max()))
    return {
        "is_graph": True,
        "is_undirected": bool(np.abs(a - a.conj().T).max() <= 1e-9 * scale),
        "is_multigraph": True,
        "vertices": int(round(np.vdot(eta, eta).real)),
        "edges": [edges.real, edges.imag],
    }


def _compare_summary(summary: dict, expect: dict) -> None:
    for key, want in expect.items():
        _require(key in summary, f"report has no {key!r}")
        got = summary[key]
        if key == "edges":
            _require(isinstance(got, list) and len(got) == 2, "edges is not an [re, im] pair")
            diff = abs(complex(*got) - complex(*want))
            _require(diff <= TOL * max(1.0, abs(complex(*want))), f"edges {got} != {want}")
        elif isinstance(want, float):
            _require(isinstance(got, (int, float)) and abs(got - want) <= TOL * max(1.0, abs(want)),
                     f"{key} {got!r} != {want!r}")
        else:
            _require(got == want and type(got) is type(want), f"{key} {got!r} != {want!r}")


def _report(doc: dict) -> dict:
    _require(doc.get("kind") == "report", f"expected a report, got kind {doc.get('kind')!r}")
    _require(isinstance(doc.get("summary"), dict), "report has no summary")
    return doc["summary"]


def _check_graph_report(spec, doc) -> None:
    _compare_summary(_report(doc), spec["expect"])


def _check_block_graph_report(spec, doc) -> None:
    ref = _load_file(spec["ref"])
    blocks = ref["set"]["blocks"]
    expect = _graph_expectation(blocks, matrix(ref["adjacency"]))
    expect["quantum_edges"] = spec["quantum_edges"]
    _compare_summary(_report(doc), expect)


def _check_m2_report(spec, doc) -> None:
    a = m2_graph(spec["m"])
    expect = _graph_expectation([2], a)
    expect.update(quantum_edges=quantum_edges([2], a), is_simple=True, loop_status="none",
                  regular_degree=float(spec["m"]))
    _compare_summary(_report(doc), expect)


def _check_rook_report(spec, doc) -> None:
    n = spec["n"]
    a = rook_adjacency(n)
    expect = _graph_expectation([n], a)
    expect.update(quantum_edges=quantum_edges([n], a), is_simple=True, loop_status="none",
                  regular_degree=float(2 * (n - 1)))
    _compare_summary(_report(doc), expect)


def _check_m2_document(spec, doc) -> None:
    _require(doc.get("kind") == "quantum-graph", f"expected a quantum-graph, got {doc.get('kind')!r}")
    _require(doc.get("set") == {"blocks": [2]}, f"set {doc.get('set')} is not M_2")
    a = matrix(doc["adjacency"])
    _require(a.shape == (4, 4) and np.abs(a - m2_graph(spec["m"])).max() <= TOL,
             "adjacency differs from the M_2 catalog graph")


def _check_set_report(spec, doc) -> None:
    summary = _report(doc)
    checks = doc.get("checks") or []
    _require(len(checks) > 0, "set report lists no checks")
    failed = [c.get("name") for c in checks if c.get("passed") is not True]
    _require(not failed, f"axiom checks failed: {failed}")
    _require(summary.get("all_pass") is True, "all_pass is not true")


def _check_iso_report(spec, doc) -> None:
    got = _report(doc).get("isomorphism")
    _require(got is spec["isomorphism"], f"isomorphism {got!r} != {spec['isomorphism']!r}")


def _check_inconclusive(spec, doc) -> None:
    summary = _report(doc)
    _require(summary.get("outcome") == "inconclusive", f"outcome {summary.get('outcome')!r} is not inconclusive")


def _check_certificate(spec, doc) -> None:
    if doc.get("kind") == "report" and spec.get("allow_inconclusive"):
        _check_inconclusive(spec, doc)
        return
    _require(doc.get("kind") == "certificate", f"expected a certificate, got kind {doc.get('kind')!r}")
    w = doc["witnesses"]
    if spec.get("traces") is not None:
        got = sorted([w["trace_x"], w["trace_y"]])
        _require(got == sorted(spec["traces"]), f"witness traces {got} != {sorted(spec['traces'])}")
    x, y = matrix(w["x"]), matrix(w["y"])
    blocks = spec["blocks"]
    n = _offsets(blocks)[-1]
    _require(x.shape == (n, n) and y.shape == (n, n), "witness shape does not match the set")
    for name, mat in (("x", x), ("y", y)):
        _require(abs(np.linalg.norm(mat) - 1.0) <= 1e-9, f"witness {name} is not unit-norm")
    residual = float(np.abs(schur_product(blocks, x, y) - schur_product(blocks, y, x)).max())
    reported = float(doc["residual"])
    _require(abs(residual - reported) <= 1e-9 + 1e-6 * residual,
             f"recomputed residual {residual:.3e} != reported {reported:.3e}")
    _require(residual > float(doc["threshold"]), f"residual {residual:.3e} is below the threshold")


def _check_graph_document(spec, doc) -> None:
    _require(doc.get("kind") == "quantum-graph", f"expected a quantum-graph, got {doc.get('kind')!r}")
    ref = _load_file(spec["ref"])
    blocks = ref["set"]["blocks"]
    a = matrix(ref["adjacency"])
    keep = spec["keep"]
    if keep is not None:
        off = _offsets(blocks)
        slots = np.concatenate([np.arange(off[i], off[i + 1]) for i in keep])
        a = a[np.ix_(slots, slots)]
        blocks = [blocks[i] for i in keep]
    _require(doc.get("set") == {"blocks": blocks}, f"set {doc.get('set')} != blocks {blocks}")
    got = matrix(doc["adjacency"])
    _require(got.shape == a.shape, f"adjacency shape {got.shape} != {a.shape}")
    _require(np.abs(got - a).max() <= TOL * max(1.0, np.abs(a).max()), "adjacency differs from the reference")


def _check_projection_document(spec, doc) -> None:
    ref = _load_file(spec["ref"])
    want = {(i, j): matrix(p) for i, j, p in ref["projections"]}
    got = {(int(i), int(j)): matrix(p) for i, j, p in doc.get("projection", [])}
    _require(set(got) == set(want), "projection block pairs differ from the constructed ones")
    for key, p in want.items():
        _require(got[key].shape == p.shape and np.abs(got[key] - p).max() <= TOL,
                 f"projection block {key} differs from the constructed projection")


def _check_cayley_document(spec, doc) -> None:
    _require(doc.get("kind") == "quantum-graph", f"expected a quantum-graph, got {doc.get('kind')!r}")
    orders, gens = spec["orders"], spec["gens"]
    lam = cayley_spectrum(orders, gens)
    a = matrix(doc["adjacency"])
    n = lam.size
    _require(a.shape == (n, n), f"adjacency shape {a.shape} != ({n}, {n})")
    if spec["spectrum"]:
        got = np.asarray(doc["spectrum"], dtype=float)
        _require(got.shape == (n, 2), "spectrum is not N [re, im] pairs")
        _require(np.abs(got[:, 0] + 1j * got[:, 1] - lam).max() <= TOL * len(gens),
                 "spectrum differs from the FFT of the generator indicator")
        _require(np.array_equal(a, cayley_adjacency(orders, gens)), "classical adjacency differs")
    else:
        _require(doc["set"]["group"]["orders"] == list(orders), "twisted set has the wrong group")
        off_diagonal = a - np.diag(np.diag(a))
        _require(not np.any(off_diagonal), "twisted adjacency is not diagonal")
        _require(np.abs(np.diag(a) - lam).max() <= TOL * len(gens),
                 "twisted adjacency diagonal differs from the classical spectrum")


_CHECKS = {
    "graph_report": _check_graph_report,
    "block_graph_report": _check_block_graph_report,
    "m2_report": _check_m2_report,
    "rook_report": _check_rook_report,
    "m2_document": _check_m2_document,
    "set_report": _check_set_report,
    "iso_report": _check_iso_report,
    "inconclusive": _check_inconclusive,
    "certificate": _check_certificate,
    "graph_document": _check_graph_document,
    "projection_document": _check_projection_document,
    "cayley_document": _check_cayley_document,
}


def check(spec: dict, text: str):
    """None if ``text`` satisfies ``spec``, else a one-line reason."""
    try:
        doc = json.loads(text)
    except ValueError as exc:
        return f"output is not JSON: {exc}"
    if not isinstance(doc, dict):
        return "output is not a JSON object"
    try:
        _CHECKS[spec["kind"]](spec, doc)
    except Mismatch as exc:
        return str(exc)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"
    return None

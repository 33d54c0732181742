"""Span tracing around the public functions of each qgraphs module.

The benchmark's traced pass installs a :class:`Tracer`, which replaces each
target function at every module that binds it (``graphs.hermitian_eigs``
as well as ``kernels.hermitian_eigs``), so calls across modules are caught
however they are imported.  Names missing from the library are skipped:
a later change that deletes a function leaves its counters at zero.

Each call opens a span (name, start, end, parent, item id) on a stack.
A span's self time is its duration minus the durations of its child
spans.  Spans stay in memory until :meth:`Tracer.write_spans`.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

import numpy as np

# module -> functions (``Class.method`` for methods) whose calls become spans
TARGETS = {
    "kernels": ["hermitian_eigs", "span_residual"],
    "graphs": ["schur_product", "schur_star", "adjacency_to_projection",
               "projection_to_adjacency", "edge_spectrum", "graph_report"],
    "algebra": ["build_quantum_set", "verify_frobenius", "QuantumSet.dense_mult",
                "check_star_homomorphism"],
    "groups": ["twist_quantum_set", "twisted_cayley", "classical_cayley", "cayley_spectrum"],
    "weyl": ["quantum_rook", "phi_isomorphism"],
    "clifford": ["cube_like_graph"],
    "constructions": ["check_isomorphism", "induced_subgraph"],
    "documents": ["loads", "dumps", "graph_from_document", "graph_to_document"],
    # the diagonal closure's private convolution is a Schur product too
    "obstruction": ["schur_closure", "classical_obstruction", "_group_convolve_vec"],
    "cli": ["main"],
}

SCHUR = "graphs.schur_product"
CONVOLVE = "obstruction._group_convolve_vec"


def _exactly_diagonal(a) -> bool:
    a = np.asarray(a)
    return a.ndim == 2 and not np.any(a - np.diag(np.diag(a)))


def schur_path(x, a, b) -> str:
    """The Schur-product path the arguments select: hadamard, convolve or generic."""
    a = getattr(a, "matrix", a)
    b = getattr(b, "matrix", b)
    blocks = getattr(x, "blocks", None)
    if blocks is not None and all(n == 1 for n in blocks):
        return "hadamard"
    if getattr(x, "group", None) is not None and _exactly_diagonal(a) and _exactly_diagonal(b):
        return "convolve"
    return "generic"


class Tracer:
    def __init__(self) -> None:
        self.item = None
        self.spans: list[tuple] = []  # (name, start, end, parent index, item)
        self._stack: list[list] = []  # [span index, start, child seconds]
        self._originals: list[tuple] = []
        self.reset_stats()

    # -- statistics ---------------------------------------------------------

    def reset_stats(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.values: dict[str, float] = defaultdict(float)
        self.schur_calls = 0
        self.closure_schur_calls = 0

    def snapshot(self) -> dict:
        return {"calls": dict(self.calls), "self_ms": {k: v * 1e3 for k, v in self.self_s.items()},
                "values": dict(self.values)}

    # -- spans ----------------------------------------------------------------

    def _open(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append((name, 0.0, 0.0, parent, self.item))
        self._stack.append([len(self.spans) - 1, time.perf_counter(), 0.0])

    def _close(self, name: str) -> None:
        end = time.perf_counter()
        index, start, child = self._stack.pop()
        duration = end - start
        self.spans[index] = (name, start, end, self.spans[index][3], self.item)
        if self._stack:
            self._stack[-1][2] += duration
        self.calls[name] += 1
        self.self_s[name] += duration - child

    def _wrap(self, qualname: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = qualname
            if qualname == SCHUR:
                name = f"{SCHUR}.{schur_path(*args[:3])}"
                if name.endswith("generic"):
                    n = np.shape(getattr(args[1], "matrix", args[1]))[0]
                    tracer.values[f"{name}.gflop_computed"] += 24.0 * n ** 4 / 1e9
            if qualname in (SCHUR, CONVOLVE):
                tracer.schur_calls += 1
            elif qualname == "kernels.hermitian_eigs":
                key = "kernels.hermitian_eigs.n_max"
                tracer.values[key] = max(tracer.values[key], float(np.shape(args[0])[0]))
            elif qualname == "documents.loads":
                tracer.values["documents.loads.bytes"] += len(args[0])
            elif qualname == "obstruction.classical_obstruction":
                tracer.closure_schur_calls = 0
            schur_before = tracer.schur_calls
            tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(name)
            made = tracer.schur_calls - schur_before
            if qualname == "documents.dumps":
                tracer.values["documents.dumps.bytes"] += len(result)
            elif qualname == "obstruction.schur_closure":
                tracer.closure_schur_calls = made
                tracer.values["obstruction.schur_closure.closure_dim"] += len(result[0])
                tracer.values["obstruction.schur_closure.schur_calls"] += made
            elif qualname == "obstruction.classical_obstruction":
                # each scanned pair costs two Schur products outside the closure
                pairs = (made - tracer.closure_schur_calls) / 2
                tracer.values["obstruction.classical_obstruction.pairs"] += pairs
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target at every loaded ``qgraphs`` module that binds it."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "qgraphs" or name.startswith("qgraphs."))]
        for short, names in TARGETS.items():
            try:
                module = importlib.import_module(f"qgraphs.{short}")
            except ImportError:
                continue
            for name in names:
                owner, attr = module, name
                if "." in name:
                    cls, attr = name.split(".")
                    owner = getattr(module, cls, None)
                fn = getattr(owner, attr, None) if owner is not None else None
                if fn is None:
                    continue
                wrapper = self._wrap(f"{short}.{name}", fn)
                if owner is not module:
                    self._originals.append((owner, attr, fn))
                    setattr(owner, attr, wrapper)
                    continue
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            self._originals.append((mod, key, fn))
                            setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._originals):
            setattr(owner, attr, fn)
        self._originals.clear()

    def write_spans(self, path: str) -> None:
        """One JSON line per span: name, start and end in seconds, parent, item."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, item in self.spans:
                fh.write(json.dumps([name, round(start, 7), round(end, 7), parent, item]))
                fh.write("\n")

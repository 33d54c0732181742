"""Command-line front end.

All commands are composable filters: they read documents from files or
stdin (``-``), write a single JSON document to stdout with ``--json`` (a
short table otherwise), and exit 0 on success / passing checks, 1 when a
verification failed (the report is still emitted), 2 on input or usage
errors, and 3 with one ``error: internal error:`` line (no traceback) on
any other exception, so exit 1 always means a failed verification.
``--tol`` overrides the QG_TOL environment variable, which overrides the
default 1e-9; the value must be a finite positive number, else the command
exits 2.  Every check a command runs compares at that tolerance, and so
does the snapping of bicharacter values.  No check samples: ``set-check``
checks every identity, (ab)* = b*a* among them, on every basis pair or
triple, and accepts ``--seed`` only to ignore it.  ``catalog``'s presets
are named in one place, the ``_PRESETS`` table, which builds each from the
library's constructions and generator lists.

Each ``_cmd_*`` function maps the parsed arguments and the tolerance to a
``Result``: the document, a zero-argument callable that builds the table's
lines (called only without ``--json``), and the exit code.  ``main`` does
what is the same for every command: it resolves the tolerance before any
input is read, writes the subcommand's name as ``metadata.command``, prints
the document or the table, and maps exceptions to exit codes.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import textwrap
from typing import Callable, Optional

import numpy as np

from . import documents as docs
from .algebra import DEFAULT_TOL, Report, build_quantum_set, verify_frobenius
from .catalog import (
    anticommutative_square,
    gell_mann_graph,
    m2_graph,
    m2_partial_family,
)
from .clifford import (clifford_bicharacter, cube_like_graph, folded_generators,
                       hypercube_generators, squared_generators)
from .constructions import check_isomorphism, induced_subgraph, quotient_graph
from .errors import InvalidInput, ResourceLimit
from .graphs import (
    GraphReport,
    QuantumGraph,
    adjacency_to_projection,
    graph_report,
    projection_to_adjacency,
)
from .groups import (
    AbelianGroup,
    Bicharacter,
    cayley_spectrum,
    classical_cayley,
    twisted_cayley,
)
from .obstruction import Certificate, classical_obstruction
from .weyl import quantum_rook, weyl_bicharacter

#: what a command returns: (document, table lines built on demand, exit code)
Result = tuple[dict, Callable[[], list[str]], int]


def _resolve_tol(args: argparse.Namespace) -> float:
    """--tol, else QG_TOL, else DEFAULT_TOL; InvalidInput unless finite and positive."""
    if args.tol is not None:
        tol, source = args.tol, "--tol"
    else:
        env = os.environ.get("QG_TOL")
        if env is None:
            return DEFAULT_TOL
        try:
            tol, source = float(env), "QG_TOL"
        except ValueError:
            raise InvalidInput(f"QG_TOL is not a number: {env!r}") from None
    if not 0.0 < tol < math.inf:  # false for nan too
        raise InvalidInput(f"{source} must be a finite positive number, got {tol!r}")
    return tol


def _load(path: str) -> dict:
    if path == "-":
        return docs.loads(sys.stdin.read())
    with open(path, "r", encoding="utf-8") as fh:
        return docs.loads(fh.read())


def _load_graph(path: str, tol: float) -> QuantumGraph:
    return docs.graph_from_document(_load(path), tol=tol)


def _int(token: str, text: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise InvalidInput(f"{text!r}: {token.strip()!r} is not an integer") from None


def _parse_ints(text: str) -> list[int]:
    return [_int(tok, text) for tok in text.replace(";", ",").split(",") if tok.strip() != ""]


def _parse_elements(text: str, rank: int) -> list[tuple[int, ...]]:
    """Elements like "110;011" (one digit per factor) or "1,1,0;0,1,1"."""
    out = []
    for token in text.split(";"):
        token = token.strip()
        if not token:
            continue
        el = tuple(_int(t, text) for t in (token.split(",") if "," in token else token))
        if len(el) != rank:
            raise InvalidInput(f"element {token!r} has {len(el)} entries, expected {rank}")
        out.append(el)
    return out


def _report_result(report: Report | GraphReport, passed: bool) -> Result:
    """A report document; its table lists the summary, then each check."""
    doc = docs.report_to_document(report)

    def table() -> list[str]:
        summary = doc.get("summary", {})
        lines = [f"{key:>16}: {summary[key]}" for key in sorted(summary)]
        for check in doc.get("checks", []):
            status = "pass" if check["passed"] else "FAIL"
            lines.append(f"{status}  {check['name']:<24} residual={check['residual']:.3e}")
        return lines

    return doc, table, 0 if passed else 1


def _graph_result(g: QuantumGraph, tol: float, **metadata: str) -> Result:
    """A graph document; its table holds the counts of ``graph_report``."""
    doc = docs.graph_to_document(g, metadata=metadata)

    def table() -> list[str]:
        rep = graph_report(g, tol=tol)
        imag = f"+{rep.edges.imag:g}i" if abs(rep.edges.imag) > 1e-12 else ""
        lines = [f"set: {doc['set']}", f"vertices: {rep.vertices}",
                 f"edges: {rep.edges.real:g}{imag}"]
        if rep.quantum_edges is not None:
            lines.append(f"quantum edges: {rep.quantum_edges}")
        return lines + [f"simple: {rep.is_simple}"]

    return doc, table, 0


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------


def _weyl_values(group: AbelianGroup) -> np.ndarray:
    if group.rank != 2 or group.orders[0] != group.orders[1]:
        raise InvalidInput("the weyl preset needs a group Z_n x Z_n")
    return weyl_bicharacter(group.orders[0]).gen_values


#: --bichar preset -> its generator values on the given group
_BICHARS: dict[str, Callable[[AbelianGroup], np.ndarray]] = {
    "trivial": lambda group: np.ones((group.rank, group.rank)),
    "clifford": lambda group: clifford_bicharacter(group.rank).gen_values,
    "weyl": _weyl_values,
}

_N = (("n",),)

#: catalog preset -> (the groups of options it needs, checked in turn; builder(args))
_PRESETS = {
    "m2-empty": ((), lambda a: m2_graph(0)),
    "m2-edge": ((), lambda a: m2_graph(1)),
    "m2-two": ((), lambda a: m2_graph(2)),
    "m2-full": ((), lambda a: m2_graph(3)),
    "m2-partial": ((("m", "t"),), lambda a: m2_partial_family(a.m, a.t)),
    "anticommutative-square": ((), lambda a: anticommutative_square()),
    "gell-mann": ((), lambda a: gell_mann_graph()),
    "rook": (_N, lambda a: quantum_rook(a.n)),
    "hypercube": (_N, lambda a: cube_like_graph(a.n, hypercube_generators(a.n))),
    "folded": (_N, lambda a: cube_like_graph(a.n, folded_generators(a.n))),
    "squared": (_N, lambda a: cube_like_graph(a.n, squared_generators(a.n))),
    "cube": (_N + (("gens",),),
             lambda a: cube_like_graph(a.n, _parse_elements(a.gens, a.n))),
}


def _bicharacter_for(name: str, group: AbelianGroup, tol: float) -> Bicharacter:
    if name in _BICHARS:
        return Bicharacter(group, _BICHARS[name](group), tol)
    if name.lstrip().startswith("["):
        return docs.bicharacter_from_text(name, group, tol=tol)
    doc = _load(name)
    if doc.get("kind") == "bicharacter":
        return docs.bicharacter_from_document(doc, group, tol=tol)
    raise InvalidInput(
        f"--bichar must be {'|'.join(_BICHARS)}, an inline [[...]] matrix, or a "
        f"bicharacter document, got {name!r}"
    )


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_set_check(args: argparse.Namespace, tol: float) -> Result:
    if (args.file is None) == (args.blocks is None):
        raise InvalidInput("set-check needs exactly one of <file> or --blocks")
    if args.blocks is not None:
        x = build_quantum_set(_parse_ints(args.blocks))
    else:
        doc = _load(args.file)
        spec = doc.get("set") if "set" in doc else doc
        x = docs.set_from_spec(spec, tol=tol)
    report = verify_frobenius(x, tol=tol)
    return _report_result(report, report.all_pass)


def _cmd_graph_check(args: argparse.Namespace, tol: float) -> Result:
    rep = graph_report(_load_graph(args.file, tol), tol=tol)
    return _report_result(rep, rep.is_graph)


def _cmd_rotate(args: argparse.Namespace, tol: float) -> Result:
    doc = _load(args.file)
    if "adjacency" in doc:
        proj = adjacency_to_projection(docs.graph_from_document(doc, tol=tol))
        return (docs.projection_to_document(proj, metadata={"form": "projection"}),
                lambda: [f"projection blocks: {len(proj.blocks)}"], 0)
    if "projection" in doc:
        g = projection_to_adjacency(docs.projection_from_document(doc, tol=tol))
        return _graph_result(g, tol, form="adjacency")
    raise InvalidInput("rotate: document has neither 'adjacency' nor 'projection'")


def _cmd_cayley(args: argparse.Namespace, tol: float) -> Result:
    group = AbelianGroup(tuple(_parse_ints(args.orders)))
    gens = _parse_elements(args.gens, group.rank)
    result = _graph_result(classical_cayley(group, gens), tol,
                           orders=args.orders, gens=args.gens)
    if args.spectrum:
        result[0]["spectrum"] = cayley_spectrum(group, gens)
    return result


def _cmd_twist(args: argparse.Namespace, tol: float) -> Result:
    group = AbelianGroup(tuple(_parse_ints(args.orders)))
    gens = _parse_elements(args.gens, group.rank)
    g = twisted_cayley(group, gens, _bicharacter_for(args.bichar, group, tol))
    return _graph_result(g, tol, orders=args.orders, gens=args.gens, bichar=args.bichar)


def _cmd_catalog(args: argparse.Namespace, tol: float) -> Result:
    if args.preset not in _PRESETS:
        raise InvalidInput(f"unknown catalog preset {args.preset!r}")
    needs, build = _PRESETS[args.preset]
    for options in needs:
        if any(getattr(args, opt) is None for opt in options):
            missing = " and ".join(f"--{opt}" for opt in options)
            raise InvalidInput(f"catalog {args.preset} needs {missing}")
    return _graph_result(build(args), tol, preset=args.preset)


def _cmd_quotient(args: argparse.Namespace, tol: float) -> Result:
    g = _load_graph(args.graph, tol)
    op = docs.operator_from_document(_load(args.map), tol=tol)
    return _graph_result(quotient_graph(g, op, tol=tol), tol)


def _cmd_subgraph(args: argparse.Namespace, tol: float) -> Result:
    g = _load_graph(args.graph, tol)
    return _graph_result(induced_subgraph(g, _parse_ints(args.keep)), tol, keep=args.keep)


def _cmd_obstruct(args: argparse.Namespace, tol: float) -> Result:
    res = classical_obstruction(_load_graph(args.graph, tol), max_dim=args.max_dim)
    if isinstance(res, Certificate):
        table = [f"certificate: {res.trace_x} , {res.trace_y}",
                 f"residual: {res.residual:.6e}"]
    else:
        table = [f"inconclusive (closure dim {res.closure_dim}, "
                 f"max residual {res.max_residual:.3e})"]
    return docs.certificate_to_document(res), lambda: table, 0


def _cmd_iso_check(args: argparse.Namespace, tol: float) -> Result:
    g1, g2 = _load_graph(args.graph1, tol), _load_graph(args.graph2, tol)
    phi = docs.operator_from_document(_load(args.map), tol=tol)
    ok = check_isomorphism(phi, g1, g2, tol=tol)
    doc = docs.document("report", None, summary={"isomorphism": bool(ok)})
    return doc, lambda: [f"isomorphism: {ok}"], 0 if ok else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


class _SpaceWrapFormatter(argparse.HelpFormatter):
    """Wraps help text at spaces only, so a hyphenated preset name prints whole."""

    def _split_lines(self, text: str, width: int) -> list[str]:
        return textwrap.wrap(" ".join(text.split()), width, break_on_hyphens=False)


@functools.cache  # built once per process, however often main() runs
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qgraph",
        description="Construct, verify and deform quantum graphs over finite quantum sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, func: Callable[..., Result]) -> None:
        p.set_defaults(func=func)
        p.add_argument("--json", action="store_true", help="emit a JSON document")
        p.add_argument("--tol", type=float, default=None,
                       help="comparison tolerance, finite and positive (default: QG_TOL or 1e-9)")

    p = sub.add_parser("set-check", help="verify the Frobenius axioms of a quantum set")
    p.add_argument("file", nargs="?", help="a document with a 'set' entry, a bare set spec, or -")
    p.add_argument("--blocks", default=None, help="block sizes, e.g. 1,2,3")
    common(p, _cmd_set_check)
    p.add_argument("--seed", type=int, help="accepted and ignored: no check is randomized")

    p = sub.add_parser("graph-check", help="run the quantum-graph predicate battery")
    p.add_argument("file", help="quantum-graph document or -")
    common(p, _cmd_graph_check)

    p = sub.add_parser("rotate", help="rotate between adjacency and edge projection")
    p.add_argument("file", help="quantum-graph document or -")
    common(p, _cmd_rotate)

    p = sub.add_parser("cayley", help="classical Cayley graph of a finite abelian group")
    p.add_argument("--orders", required=True, help="cyclic factor orders, e.g. 2,2,2")
    p.add_argument("--gens", required=True, help="generators, e.g. 110;011")
    p.add_argument("--spectrum", action="store_true", help="include the eigenvalues")
    common(p, _cmd_cayley)

    p = sub.add_parser("twist", help="bicharacter twist of a Cayley graph")
    p.add_argument("--orders", required=True)
    p.add_argument("--gens", required=True)
    p.add_argument("--bichar", required=True,
                   help=" | ".join(_BICHARS) + " | inline [[...]] matrix of "
                        "generator values | <bicharacter document>")
    common(p, _cmd_twist)

    p = sub.add_parser("catalog", help="named example graphs", formatter_class=_SpaceWrapFormatter)
    p.add_argument("preset", help=" | ".join(_PRESETS))
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--t", type=float, default=None)
    p.add_argument("--gens", default=None)
    common(p, _cmd_catalog)

    p = sub.add_parser("quotient", help="quotient graph along an embedding")
    p.add_argument("graph")
    p.add_argument("map", help="operator document for the embedding")
    common(p, _cmd_quotient)

    p = sub.add_parser("subgraph", help="induced subgraph on a subset of blocks")
    p.add_argument("graph")
    p.add_argument("--keep", required=True, help="block indices, e.g. 0,2")
    common(p, _cmd_subgraph)

    p = sub.add_parser("obstruct", help="Schur-noncommutativity obstruction scan")
    p.add_argument("graph")
    p.add_argument("--max-dim", type=int, default=None)
    common(p, _cmd_obstruct)

    p = sub.add_parser("iso-check", help="verify a *-isomorphism between two graphs")
    p.add_argument("graph1")
    p.add_argument("graph2")
    p.add_argument("map")
    common(p, _cmd_iso_check)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        doc, table, code = args.func(args, _resolve_tol(args))
        doc["metadata"]["command"] = args.command
        if args.json:  # the whole text is never held; a write per piece is slow on a pipe
            pieces = docs.encode(doc)
            for k in range(0, len(pieces), 256):
                sys.stdout.write("".join(pieces[k:k + 256]))
            sys.stdout.write("\n")
        else:
            print("\n".join(table()))
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except (InvalidInput, ResourceLimit, docs.DocumentError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader left early; send the unwritten rest to devnull so that
        # the flush at shutdown does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: stdout was closed before the output was written", file=sys.stderr)
        return 2
    except OSError as exc:  # an input that cannot be read: missing, a directory, ...
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a fault of the program, not of the input or a check
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

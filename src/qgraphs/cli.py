"""Command-line front end.

All commands are composable filters: they read documents from files or
stdin (``-``), write a single JSON document to stdout with ``--json`` (a
short table otherwise), and exit 0 on success / passing checks, 1 when a
verification failed (the report is still emitted), 2 on input or usage
errors, and 3 with one ``error: internal error:`` line (no traceback) on
any other exception, so exit 1 always means a failed verification.
``--tol`` overrides the QG_TOL environment variable, which overrides the
default 1e-9.  ``set-check``, the only command with randomized checks,
takes ``--seed`` to fix their RNG.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import Callable, Optional

import numpy as np

from . import documents as docs
from .algebra import (
    DEFAULT_TOL,
    Check,
    algebra_multiply,
    algebra_star,
    build_quantum_set,
    random_element,
    verify_frobenius,
)
from .catalog import (
    anticommutative_square,
    gell_mann_graph,
    m2_graph,
    m2_partial_family,
)
from .clifford import clifford_bicharacter, cube_like_graph
from .constructions import check_isomorphism, induced_subgraph, quotient_graph
from .errors import InvalidInput, ResourceLimit
from .graphs import (
    QuantumGraph,
    adjacency_to_projection,
    graph_report,
    projection_to_adjacency,
)
from .groups import (
    AbelianGroup,
    cayley_spectrum,
    classical_cayley,
    make_bicharacter,
    trivial_bicharacter,
    twisted_cayley,
)
from .kernels import max_abs, scale_of
from .obstruction import Certificate, classical_obstruction
from .weyl import quantum_rook, weyl_bicharacter


def _resolve_tol(args: argparse.Namespace) -> float:
    if args.tol is not None:
        return args.tol
    env = os.environ.get("QG_TOL")
    if env is not None:
        try:
            return float(env)
        except ValueError:
            raise InvalidInput(f"QG_TOL is not a number: {env!r}") from None
    return DEFAULT_TOL


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load(path: str) -> dict:
    return docs.loads(_read_text(path))


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


def _emit(args: argparse.Namespace, doc: dict, table: Callable[[], list[str]]) -> None:
    """Print ``doc`` as JSON with --json, else the table, built only then."""
    if args.json:
        print(docs.dumps(doc))
    else:
        for line in table():
            print(line)


def _report_table(doc: dict) -> list[str]:
    lines = []
    summary = doc.get("summary", {})
    for key in sorted(summary):
        lines.append(f"{key:>16}: {summary[key]}")
    for check in doc.get("checks", []):
        status = "pass" if check["passed"] else "FAIL"
        lines.append(f"{status}  {check['name']:<24} residual={check['residual']:.3e}")
    return lines


def _graph_table(g: QuantumGraph, doc: dict) -> list[str]:
    rep = graph_report(g)
    lines = [f"set: {doc['set']}", f"vertices: {rep.vertices}",
             f"edges: {rep.edges.real:g}" + (f"+{rep.edges.imag:g}i" if abs(rep.edges.imag) > 1e-12 else "")]
    if rep.quantum_edges is not None:
        lines.append(f"quantum edges: {rep.quantum_edges}")
    lines.append(f"simple: {rep.is_simple}")
    return lines


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_set_check(args: argparse.Namespace) -> int:
    tol = _resolve_tol(args)
    if (args.file is None) == (args.blocks is None):
        raise InvalidInput("set-check needs exactly one of <file> or --blocks")
    if args.seed < 0:
        raise InvalidInput(f"--seed must be a non-negative integer, got {args.seed}")
    if args.blocks is not None:
        x = build_quantum_set(_parse_ints(args.blocks), tol=tol)
    else:
        doc = _load(args.file)
        spec = doc.get("set") if "set" in doc else doc
        x = docs.set_from_spec(spec, tol=tol)
    report = verify_frobenius(x, tol=tol)

    rng = np.random.default_rng(args.seed)
    worst_assoc = 0.0
    worst_star = 0.0
    for _ in range(5):
        a, b, c = (random_element(x, rng) for _ in range(3))
        scale = scale_of(a.coeffs, b.coeffs, c.coeffs) ** 3
        lhs = algebra_multiply(algebra_multiply(a, b), c).coeffs
        rhs = algebra_multiply(a, algebra_multiply(b, c)).coeffs
        worst_assoc = max(worst_assoc, max_abs(lhs - rhs) / scale)
        anti = algebra_star(algebra_multiply(a, b)).coeffs
        ref = algebra_multiply(algebra_star(b), algebra_star(a)).coeffs
        worst_star = max(worst_star, max_abs(anti - ref) / scale)
    report.checks.append(Check("random_associativity", worst_assoc <= tol, worst_assoc))
    report.checks.append(Check("random_star_antiautomorphism", worst_star <= tol, worst_star))

    doc = docs.report_to_document(report, metadata={"command": "set-check"})
    _emit(args, doc, lambda: _report_table(doc))
    return 0 if report.all_pass else 1


def _cmd_graph_check(args: argparse.Namespace) -> int:
    tol = _resolve_tol(args)
    g = docs.graph_from_document(_load(args.file), tol=tol)
    rep = graph_report(g, tol=tol)
    doc = docs.report_to_document(rep, metadata={"command": "graph-check"})
    _emit(args, doc, lambda: _report_table(doc))
    return 0 if rep.is_graph else 1


def _cmd_rotate(args: argparse.Namespace) -> int:
    tol = _resolve_tol(args)
    doc = _load(args.file)
    if "adjacency" in doc:
        g = docs.graph_from_document(doc, tol=tol)
        proj = adjacency_to_projection(g)
        out = docs.projection_to_document(proj, metadata={"command": "rotate",
                                                          "form": "projection"})
        _emit(args, out, lambda: [f"projection blocks: {len(proj.blocks)}"])
        return 0
    if "projection" in doc:
        g = projection_to_adjacency(docs.projection_from_document(doc, tol=tol))
        out = docs.graph_to_document(g, metadata={"command": "rotate", "form": "adjacency"})
        _emit(args, out, lambda: _graph_table(g, out))
        return 0
    raise InvalidInput("rotate: document has neither 'adjacency' nor 'projection'")


def _cmd_cayley(args: argparse.Namespace) -> int:
    tol = _resolve_tol(args)
    group = AbelianGroup(tuple(_parse_ints(args.orders)))
    gens = _parse_elements(args.gens, group.rank)
    g = classical_cayley(group, gens, tol=tol)
    meta = {"command": "cayley", "orders": args.orders, "gens": args.gens}
    doc = docs.graph_to_document(g, metadata=meta)
    if args.spectrum:
        doc["spectrum"] = cayley_spectrum(group, gens)
    _emit(args, doc, lambda: _graph_table(g, doc))
    return 0


def _bicharacter_for(args: argparse.Namespace, group: AbelianGroup):
    name = args.bichar
    if name == "trivial":
        return trivial_bicharacter(group)
    if name == "clifford":
        return make_bicharacter(group, clifford_bicharacter(group.rank).gen_values)
    if name == "weyl":
        if group.rank != 2 or group.orders[0] != group.orders[1]:
            raise InvalidInput("the weyl preset needs a group Z_n x Z_n")
        return make_bicharacter(group, weyl_bicharacter(group.orders[0]).gen_values)
    if name.lstrip().startswith("["):
        return docs.bicharacter_from_text(name, group)
    doc = _load(name)
    if doc.get("kind") == "bicharacter":
        return docs.bicharacter_from_document(doc, group)
    raise InvalidInput(
        "--bichar must be trivial|clifford|weyl, an inline [[...]] matrix, or a "
        f"bicharacter document, got {name!r}"
    )


def _cmd_twist(args: argparse.Namespace) -> int:
    tol = _resolve_tol(args)
    group = AbelianGroup(tuple(_parse_ints(args.orders)))
    gens = _parse_elements(args.gens, group.rank)
    sigma = _bicharacter_for(args, group)
    g = twisted_cayley(group, gens, sigma, tol=tol)
    meta = {"command": "twist", "orders": args.orders, "gens": args.gens,
            "bichar": args.bichar}
    doc = docs.graph_to_document(g, metadata=meta)
    _emit(args, doc, lambda: _graph_table(g, doc))
    return 0


def _cmd_catalog(args: argparse.Namespace) -> int:
    tol = _resolve_tol(args)
    preset = args.preset
    need_n = {"rook", "hypercube", "folded", "squared", "cube"}
    if preset in need_n and args.n is None:
        raise InvalidInput(f"catalog {preset} needs --n")
    if preset == "m2-empty":
        g = m2_graph(0, tol=tol)
    elif preset == "m2-edge":
        g = m2_graph(1, tol=tol)
    elif preset == "m2-two":
        g = m2_graph(2, tol=tol)
    elif preset == "m2-full":
        g = m2_graph(3, tol=tol)
    elif preset == "m2-partial":
        if args.m is None or args.t is None:
            raise InvalidInput("catalog m2-partial needs --m and --t")
        g = m2_partial_family(args.m, args.t, tol=tol)
    elif preset == "anticommutative-square":
        g = anticommutative_square(tol=tol)
    elif preset == "gell-mann":
        g = gell_mann_graph(tol=tol)
    elif preset == "rook":
        g = quantum_rook(args.n, tol=tol)
    elif preset in ("hypercube", "folded", "squared"):
        g = cube_like_graph(args.n, preset=preset, tol=tol)
    elif preset == "cube":
        if args.gens is None:
            raise InvalidInput("catalog cube needs --gens")
        gens = _parse_elements(args.gens, args.n)
        g = cube_like_graph(args.n, gens=gens, tol=tol)
    else:
        raise InvalidInput(f"unknown catalog preset {preset!r}")
    doc = docs.graph_to_document(g, metadata={"command": "catalog", "preset": preset})
    _emit(args, doc, lambda: _graph_table(g, doc))
    return 0


def _cmd_quotient(args: argparse.Namespace) -> int:
    tol = _resolve_tol(args)
    g = docs.graph_from_document(_load(args.graph), tol=tol)
    op = docs.operator_from_document(_load(args.map), tol=tol)
    out = quotient_graph(g, op, tol=tol)
    doc = docs.graph_to_document(out, metadata={"command": "quotient"})
    _emit(args, doc, lambda: _graph_table(out, doc))
    return 0


def _cmd_subgraph(args: argparse.Namespace) -> int:
    tol = _resolve_tol(args)
    g = docs.graph_from_document(_load(args.graph), tol=tol)
    keep = _parse_ints(args.keep)
    out = induced_subgraph(g, keep, tol=tol)
    doc = docs.graph_to_document(out, metadata={"command": "subgraph",
                                                "keep": args.keep})
    _emit(args, doc, lambda: _graph_table(out, doc))
    return 0


def _cmd_obstruct(args: argparse.Namespace) -> int:
    tol = _resolve_tol(args)
    g = docs.graph_from_document(_load(args.graph), tol=tol)
    res = classical_obstruction(g, max_dim=args.max_dim)
    doc = docs.certificate_to_document(res, metadata={"command": "obstruct"})
    if isinstance(res, Certificate):
        table = [f"certificate: {res.trace_x} , {res.trace_y}",
                 f"residual: {res.residual:.6e}"]
    else:
        table = [f"inconclusive (closure dim {res.closure_dim}, "
                 f"max residual {res.max_residual:.3e})"]
    _emit(args, doc, lambda: table)
    return 0


def _cmd_iso_check(args: argparse.Namespace) -> int:
    tol = _resolve_tol(args)
    g1 = docs.graph_from_document(_load(args.graph1), tol=tol)
    g2 = docs.graph_from_document(_load(args.graph2), tol=tol)
    phi = docs.operator_from_document(_load(args.map), tol=tol)
    ok = check_isomorphism(phi, g1, g2, tol=tol)
    doc = docs.document("report", {"command": "iso-check"}, summary={"isomorphism": bool(ok)})
    _emit(args, doc, lambda: [f"isomorphism: {ok}"])
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


@functools.cache  # built once per process, however often main() runs
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qgraph",
        description="Construct, verify and deform quantum graphs over finite quantum sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--json", action="store_true", help="emit a JSON document")
        p.add_argument("--tol", type=float, default=None,
                       help="comparison tolerance (default: QG_TOL or 1e-9)")

    p = sub.add_parser("set-check", help="verify the Frobenius axioms of a quantum set")
    p.add_argument("file", nargs="?", default=None, help="quantum-set document or -")
    p.add_argument("--blocks", default=None, help="block sizes, e.g. 1,2,3")
    common(p)
    p.add_argument("--seed", type=int, default=0, help="seed for the randomized checks")
    p.set_defaults(func=_cmd_set_check)

    p = sub.add_parser("graph-check", help="run the quantum-graph predicate battery")
    p.add_argument("file", help="quantum-graph document or -")
    common(p)
    p.set_defaults(func=_cmd_graph_check)

    p = sub.add_parser("rotate", help="rotate between adjacency and edge projection")
    p.add_argument("file", help="quantum-graph document or -")
    common(p)
    p.set_defaults(func=_cmd_rotate)

    p = sub.add_parser("cayley", help="classical Cayley graph of a finite abelian group")
    p.add_argument("--orders", required=True, help="cyclic factor orders, e.g. 2,2,2")
    p.add_argument("--gens", required=True, help="generators, e.g. 110;011")
    p.add_argument("--spectrum", action="store_true", help="include the eigenvalues")
    common(p)
    p.set_defaults(func=_cmd_cayley)

    p = sub.add_parser("twist", help="bicharacter twist of a Cayley graph")
    p.add_argument("--orders", required=True)
    p.add_argument("--gens", required=True)
    p.add_argument("--bichar", required=True,
                   help="trivial | clifford | weyl | inline [[...]] matrix of "
                        "generator values | <bicharacter document>")
    common(p)
    p.set_defaults(func=_cmd_twist)

    p = sub.add_parser("catalog", help="named example graphs")
    p.add_argument("preset", help="m2-empty|m2-edge|m2-two|m2-full|m2-partial|"
                                  "anticommutative-square|gell-mann|rook|hypercube|"
                                  "folded|squared|cube")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--t", type=float, default=None)
    p.add_argument("--gens", default=None)
    common(p)
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("quotient", help="quotient graph along an embedding")
    p.add_argument("graph")
    p.add_argument("map", help="operator document for the embedding")
    common(p)
    p.set_defaults(func=_cmd_quotient)

    p = sub.add_parser("subgraph", help="induced subgraph on a subset of blocks")
    p.add_argument("graph")
    p.add_argument("--keep", required=True, help="block indices, e.g. 0,2")
    common(p)
    p.set_defaults(func=_cmd_subgraph)

    p = sub.add_parser("obstruct", help="Schur-noncommutativity obstruction scan")
    p.add_argument("graph")
    p.add_argument("--max-dim", type=int, default=None)
    common(p)
    p.set_defaults(func=_cmd_obstruct)

    p = sub.add_parser("iso-check", help="verify a *-isomorphism between two graphs")
    p.add_argument("graph1")
    p.add_argument("graph2")
    p.add_argument("map")
    common(p)
    p.set_defaults(func=_cmd_iso_check)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
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

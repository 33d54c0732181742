"""In-process pass: run a workload's mix through ``qgraphs.cli.main(argv)``.

Usage: ``python3 perfbench/worker.py PLAN.json`` with ``src`` on PYTHONPATH.
This process is the only one in the benchmark that imports ``qgraphs``.
It runs the plan's warm-ups once, prints ``{"import_ms": ...}``, then
serves one request per stdin line, each answered by one JSON line:
``untraced <item>`` or ``traced <item>`` runs one item of the mix;
``stats`` returns the traced statistics gathered since the last ``stats``;
``end`` (or end of input) writes the spans of all traced runs to the plan's
``spans`` path and exits.  ``run.py`` runs each item here right after its
CLI pipeline, so both passes see the same machine.

Stage outputs are passed as files: a stage that reads ``-`` gets the path of
the previous stage's output (or of the item's input document) instead.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import time
import traceback

IMPORT_START = time.perf_counter()
import qgraphs.cli  # noqa: E402  (timed: this is the import every CLI process pays)

IMPORT_MS = (time.perf_counter() - IMPORT_START) * 1e3

from tracer import Tracer  # noqa: E402


def run_stage(argv: list[str], out_path: str):
    """(exit code or None, error line or None) of one in-process main() call."""
    err = io.StringIO()
    try:
        with open(out_path, "w", encoding="utf-8") as fh, \
                contextlib.redirect_stdout(fh), contextlib.redirect_stderr(err):
            code = qgraphs.cli.main(argv)
    except SystemExit as exc:
        return (exc.code if isinstance(exc.code, int) else 2), err.getvalue().strip()[-300:] or None
    except Exception:  # a traceback from the library: record it, keep the loop running
        return None, traceback.format_exc().strip().splitlines()[-1]
    return code, None


def run_item(item: dict, outdir: str, tracer=None) -> dict:
    if tracer is not None:
        tracer.item = item["id"]
    prev = item["stdin"]
    codes: list = []
    error = None
    start = time.perf_counter()
    for k, argv in enumerate(item["stages"]):
        out_path = os.path.join(outdir, f"{item['id']}.{k}.out")
        code, error = run_stage([prev if tok == "-" else tok for tok in argv], out_path)
        codes.append(code)
        prev = out_path
        if code != 0 and k < len(item["stages"]) - 1:
            break
    wall = time.perf_counter() - start
    with open(prev, "rb") as fh:
        digest = hashlib.sha1(fh.read()).hexdigest()
    return {"wall": wall, "codes": codes, "error": error, "digest": digest}


def main(argv: list[str]) -> int:
    with open(argv[0], encoding="utf-8") as fh:
        plan = json.load(fh)
    items = {item["id"]: item for item in plan["items"]}
    tracer = Tracer()
    for k, warmup in enumerate(plan["warmups"]):  # untimed, like the CLI warm-ups
        run_stage(warmup, os.path.join(plan["outdir"], f"warmup-{k}.out"))
    print(json.dumps({"import_ms": IMPORT_MS}), flush=True)
    for line in sys.stdin:
        request, _, item_id = line.strip().partition(" ")
        if request == "end":
            break
        if request == "stats":
            reply = tracer.snapshot()
            tracer.reset_stats()
        elif request == "traced":
            tracer.install()
            try:
                reply = run_item(items[item_id], plan["outdir"], tracer)
            finally:
                tracer.uninstall()
        else:
            reply = run_item(items[item_id], plan["outdir"])
        print(json.dumps(reply), flush=True)
    if tracer.spans and plan.get("spans"):
        tracer.write_spans(plan["spans"])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""qgraphs benchmark: CLI pipeline throughput and latency, plus a traced pass.

    python3 perfbench/run.py --workload blocks --seed 1 --seconds 55 --trace 0

Run from the root of a qgraphs checkout; the program is run from ``src``.
One client drives the ``qgraph`` CLI in a closed loop: each pipeline is one
or two ``python -m qgraphs`` processes joined by a pipe, timed from the
first process start to the last exit.  Right after each pipeline the same
argv runs through ``qgraphs.cli.main`` in one warm interpreter
(``worker.py``).  Every output is checked by ``oracle.py``, which does not
import qgraphs.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced in-process pass.  The last line of stdout is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  A full result
(environment, samples, failures) is written to ``.bench_out/``.
See README.md for the workloads and the metric map.
"""

from __future__ import annotations

import os

# every process of the run uses one BLAS thread; set before numpy loads
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import bisect  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracle  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 1
HOLDOUT_SEED = 1009
PIPELINE_TIMEOUT_S = 60.0
SETUP_REPEATS = 3
WORKER_TIMEOUT_S = 600.0
# whole rounds give at least this many pipelines, so that a median and a
# tail with 10 samples beyond it exist
MIN_SAMPLES = 21
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = [
    ("setup_s", "s"),
    ("startup_s", "s"),
    ("pipelines_per_s", "1/s"),
    ("pipeline_p50_s", "s"),
    ("pipeline_tail_s", "s"),
    ("inproc_ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
]

LAYER_FUNCTIONS = [
    "kernels.hermitian_eigs", "kernels.span_residual",
    "graphs.schur_product.hadamard", "graphs.schur_product.convolve",
    "graphs.schur_product.generic",
    "graphs.schur_star", "graphs.adjacency_to_projection", "graphs.projection_to_adjacency",
    "graphs.edge_spectrum", "graphs.graph_report",
    "algebra.build_quantum_set", "algebra.verify_frobenius", "algebra.QuantumSet.dense_mult",
    "algebra.check_star_homomorphism",
    "groups.twist_quantum_set", "groups.twisted_cayley", "groups.classical_cayley",
    "groups.cayley_spectrum",
    "weyl.quantum_rook", "weyl.phi_isomorphism", "clifford.cube_like_graph",
    "constructions.check_isomorphism", "constructions.induced_subgraph",
    "documents.loads", "documents.dumps", "documents.graph_from_document",
    "documents.graph_to_document",
]

# the calls the bypass predictions name, printed per part of the mix
BYPASS_CALLS = ("kernels.hermitian_eigs", "graphs.schur_product.generic")

PER_LAYER = (
    [(f"{f}.{stat}", unit) for f in LAYER_FUNCTIONS for stat, unit in (("calls", "count"), ("self_ms", "ms"))]
    + [
        ("kernels.hermitian_eigs.n_max", "count"),
        ("graphs.schur_product.generic.gflop_computed", "GFLOP"),
        ("documents.loads.bytes", "B"),
        ("documents.dumps.bytes", "B"),
        ("obstruction.schur_closure.self_ms", "ms"),
        ("obstruction.schur_closure.closure_dim", "count"),
        ("obstruction.schur_closure.schur_calls", "count"),
        ("obstruction.schur_closure.yield", "ratio"),
        ("obstruction.classical_obstruction.self_ms", "ms"),
        ("obstruction.classical_obstruction.pairs", "count"),
        ("cli.main.self_ms", "ms"),
        ("cli.import_ms", "ms"),
        ("cli.process_overhead_ms", "ms"),
        ("trace.overhead_fraction", "ratio"),
    ]
)


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def quartiles(values) -> list[float]:
    values = list(values)
    if len(values) < 2:
        return values * 3
    return statistics.quantiles(values, n=4)


def tail(values):
    """(value, percentile, samples beyond): the highest sample with >= 10 samples above it.

    Returns None for fewer than 11 samples.
    """
    xs = sorted(values)
    n = len(xs)
    for k in range(n - 11, -1, -1):
        at_or_below = bisect.bisect_right(xs, xs[k])
        if n - at_or_below >= 10:
            return xs[k], 100.0 * at_or_below / n, n - at_or_below
    return None


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def _git_commit(root: str) -> str:
    head_path = os.path.join(root, ".git", "HEAD")
    try:
        with open(head_path, encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(root, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy: no dict mode
        return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(root: str, child_env: dict) -> dict:
    return {
        "commit": _git_commit(root),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "numpy": np.__version__,
        "blas": _blas(),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "platform": platform.platform(),
        "threads": {k: child_env.get(k, "unset") for k in THREAD_VARS},
        "client": "one closed-loop client",
        "pipeline_timeout_s": PIPELINE_TIMEOUT_S,
    }


# ---------------------------------------------------------------------------
# CLI pipelines
# ---------------------------------------------------------------------------


@dataclass
class Pipeline:
    """Outcome of one CLI pipeline."""

    wall: float
    codes: list
    out: bytes
    stderr: list
    rss_mb: float
    timed_out: bool


def run_pipeline(stages, stdin_path, env, root, scratch) -> Pipeline:
    """Run ``python -m qgraphs`` stages joined by pipes; reap each with wait4."""
    procs: list[subprocess.Popen] = []
    errs = []
    timed_out = threading.Event()

    def kill_all():
        # os.kill, not Popen.kill: Popen.kill may reap the child before wait4 does
        timed_out.set()
        for p in procs:
            if p.returncode is None:
                try:
                    os.kill(p.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass

    stdin = open(stdin_path, "rb") if stdin_path else subprocess.DEVNULL
    timer = threading.Timer(PIPELINE_TIMEOUT_S, kill_all)
    try:
        start = time.perf_counter()
        prev = stdin
        for k, argv in enumerate(stages):
            err = tempfile.TemporaryFile(dir=scratch)
            errs.append(err)
            p = subprocess.Popen([sys.executable, "-m", "qgraphs", *argv], stdin=prev,
                                 stdout=subprocess.PIPE, stderr=err, env=env, cwd=root)
            if k > 0:
                prev.close()
            prev = p.stdout
            procs.append(p)
        timer.start()
        out = procs[-1].stdout.read()
        procs[-1].stdout.close()
        codes, rss = [], 0.0
        for p in procs:
            _, status, usage = os.wait4(p.pid, 0)
            p.returncode = os.waitstatus_to_exitcode(status)
            codes.append(p.returncode)
            rss = max(rss, usage.ru_maxrss / 1024.0)
        wall = time.perf_counter() - start
    finally:
        timer.cancel()
        if stdin_path:
            stdin.close()
        for p in procs:
            if p.returncode is None:
                p.kill()
                p.wait()
    stderr = []
    for err in errs:
        err.seek(0)
        stderr.append(err.read().decode("utf-8", "replace"))
        err.close()
    return Pipeline(wall, codes, out, stderr, rss, timed_out.is_set())


class Verdicts:
    """Failure accounting shared by every pass; oracle verdicts memoised by output digest."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self._memo: dict = {}

    def record(self, what: str, reason) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(f"{what}: {reason}")

    def oracle(self, spec: dict, data: bytes):
        key = (json.dumps(spec, sort_keys=True), hashlib.sha1(data).hexdigest())
        if key not in self._memo:
            self._memo[key] = oracle.check(spec, data.decode("utf-8", "replace"))
        return self._memo[key]


def pipeline_failure(item, run: Pipeline, verdicts: Verdicts):
    if run.timed_out:
        return f"timed out after {PIPELINE_TIMEOUT_S:.0f} s"
    for text in run.stderr:
        if "Traceback" in text:
            return "traceback: " + text.strip().splitlines()[-1]
    expected = [0] * (len(item.stages) - 1) + [item.code]
    if run.codes != expected:
        return f"exit codes {run.codes}, expected {expected}"
    return verdicts.oracle(item.check, run.out)


def cycle_seconds(walls: dict) -> float:
    """Time for one pass over the mix: the sum of per-item mean walls."""
    return sum(statistics.fmean(w) for w in walls.values())


def mix_median(walls: dict) -> float:
    """Lower median of the mix: each item weighs the same, whatever its sample count."""
    lcm = math.lcm(*(len(ws) for ws in walls.values()))
    total = lcm * len(walls)
    acc = 0
    for wall, weight in sorted((w, lcm // len(ws)) for ws in walls.values() for w in ws):
        acc += weight
        if 2 * acc >= total:
            return wall
    raise ValueError("no samples")


def mix_rate(walls: dict) -> float:
    """Pipelines per second over the mix, whichever item the time window cut at."""
    return len(walls) / cycle_seconds(walls)


# ---------------------------------------------------------------------------
# in-process worker
# ---------------------------------------------------------------------------


class Worker:
    """Client of ``worker.py``: one warm interpreter that runs items of the mix in-process."""

    def __init__(self, items, warmups, env, root, scratch, spans_path):
        self.outdir = os.path.join(scratch, "inproc")
        os.makedirs(self.outdir, exist_ok=True)
        plan = {
            "items": [{"id": i.id, "stages": i.stages, "stdin": i.stdin} for i in items],
            "warmups": warmups,
            "outdir": self.outdir,
            "spans": spans_path,
        }
        plan_path = os.path.join(scratch, "plan.json")
        with open(plan_path, "w", encoding="utf-8") as fh:
            json.dump(plan, fh)
        worker = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")
        self.stderr = tempfile.TemporaryFile(dir=scratch)
        self.proc = subprocess.Popen([sys.executable, worker, plan_path], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, stderr=self.stderr, env=env, cwd=root,
                                     text=True)
        self.import_ms = self._reply()["import_ms"]

    def _reply(self) -> dict:
        timer = threading.Timer(WORKER_TIMEOUT_S, self.proc.kill)
        timer.start()
        try:
            line = self.proc.stdout.readline()
        finally:
            timer.cancel()
        if not line:
            self.stderr.seek(0)
            tail_text = self.stderr.read().decode("utf-8", "replace").strip()[-500:]
            raise RuntimeError(f"in-process worker stopped: {tail_text}")
        return json.loads(line)

    def request(self, line: str) -> dict:
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()
        return self._reply()

    def close(self) -> None:
        try:
            if self.proc.poll() is None:
                self.proc.stdin.write("end\n")
                self.proc.stdin.close()
                self.proc.wait(timeout=WORKER_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired):
            pass
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self.stderr.close()


def check_inproc(items, runs: dict, outdir: str, verdicts: Verdicts, kind: str) -> dict:
    """Record every in-process run; check the last outputs of each stage with the oracle."""
    walls = {}
    for item in items:
        expected = [0] * (len(item.stages) - 1) + [item.code]
        reason = None
        for k, spec in sorted({**item.stage_checks, len(item.stages) - 1: item.check}.items()):
            path = os.path.join(outdir, f"{item.id}.{k}.out")
            if not os.path.exists(path):
                reason = f"stage {k} wrote no output"
                break
            with open(path, "rb") as fh:
                reason = verdicts.oracle(spec, fh.read())
            if reason is not None:
                reason = f"stage {k}: {reason}"
                break
        item_runs = runs[item.id]
        for run in item_runs:
            why = reason
            if run["error"] and run["codes"][-1] is None:
                why = f"exception: {run['error']}"
            elif run["codes"] != expected:
                why = f"exit codes {run['codes']}, expected {expected}"
            elif run["digest"] != item_runs[-1]["digest"]:
                why = "output differs between runs"
            verdicts.record(f"{kind} {item.id}", why)
        walls[item.id] = [run["wall"] for run in item_runs]
    return walls


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------


def setup(args, env, root, scratch, verdicts, rep: int):
    """Generate the seeded inputs and warm up each distinct command once.

    Returns the mix, the warm-up argvs (the worker repeats them in-process)
    and the seconds taken.
    """
    start = time.perf_counter()
    items = workloads.generate(args.workload, args.seed, os.path.join(scratch, f"inputs-{rep}"))
    commands = workloads.mix_commands(items)
    warmups = workloads.write_warmups(commands, os.path.join(scratch, f"warmup-{rep}"))
    for argv in warmups:
        run = run_pipeline([argv], None, env, root, scratch)
        failure = None if run.codes == [0] and not run.timed_out else f"exit codes {run.codes}"
        verdicts.record(f"warm-up {argv[0]}", failure)
    return items, warmups, time.perf_counter() - start


class Rounds:
    """Samples of the measured rounds."""

    def __init__(self, items, kinds):
        self.cli = {item.id: [] for item in items}
        self.inproc = {kind: {item.id: [] for item in items} for kind in kinds}
        self.traces: list[dict] = []
        self.startup: list[float] = []
        self.rss = 0.0


def measure(items, kinds, probes: bool, min_rounds: int, seconds: float, env, root, scratch,
            verdicts, worker):
    """Passes over the mix until ``seconds`` are used.

    Each item runs as a CLI pipeline and then, right after, once in the worker
    per kind (untraced, traced).  After ``min_rounds`` complete rounds, an
    item starts only while its mean time so far still fits, so a run may end
    within a round; the rates are built from per-item means and the median
    weighs every item the same, so that costs no bias.  A traced run starts
    a round only while the mean round time still fits, since its layer
    statistics are taken per complete round.
    With ``probes``, a startup probe precedes every item: process start
    times here are bimodal, so the median needs many samples.
    """
    out = Rounds(items, kinds)
    probe_spec = {"kind": "m2_document", "m": 0}
    traced = "traced" in kinds
    start = time.perf_counter()

    def fits(need: float) -> bool:
        return time.perf_counter() - start + need <= seconds

    item_times: dict[str, list[float]] = {item.id: [] for item in items}
    round_times: list[float] = []
    while len(round_times) < min_rounds or not traced or fits(statistics.fmean(round_times)):
        round_start = time.perf_counter()
        for item in items:
            if len(round_times) >= min_rounds and not fits(statistics.fmean(item_times[item.id])):
                return out
            item_start = time.perf_counter()
            if probes:
                run = run_pipeline([["catalog", "m2-empty", "--json"]], None, env, root, scratch)
                reason = None if run.codes == [0] else f"exit codes {run.codes}"
                verdicts.record("startup probe", reason or verdicts.oracle(probe_spec, run.out))
                out.startup.append(run.wall)
                out.rss = max(out.rss, run.rss_mb)
            run = run_pipeline(item.stages, item.stdin, env, root, scratch)
            verdicts.record(f"cli {item.id}", pipeline_failure(item, run, verdicts))
            out.cli[item.id].append(run.wall)
            out.rss = max(out.rss, run.rss_mb)
            for kind in kinds:
                out.inproc[kind][item.id].append(worker.request(f"{kind} {item.id}"))
            item_times[item.id].append(time.perf_counter() - item_start)
        if traced:
            out.traces.append(worker.request("stats"))
        round_times.append(time.perf_counter() - round_start)
    return out


def end_to_end(args, env, root, scratch, verdicts, samples) -> dict:
    setups = []
    for rep in range(SETUP_REPEATS):
        items, warmups, seconds = setup(args, env, root, scratch, verdicts, rep)
        setups.append(seconds)
    samples["setup_s"] = setups

    worker = Worker(items, warmups, env, root, scratch, None)
    try:
        min_rounds = -(-MIN_SAMPLES // len(items))
        rounds = measure(items, ["untraced"], True, min_rounds, args.seconds, env, root, scratch,
                         verdicts, worker)
    finally:
        worker.close()
    inproc = check_inproc(items, rounds.inproc["untraced"], worker.outdir, verdicts, "inproc")
    pipeline_walls = [w for ws in rounds.cli.values() for w in ws]
    # the tail's percentile depends on the sample count, so it is taken over
    # each group of min_rounds rounds (the same count in every run); the
    # median over the groups is reported
    groups = min(len(ws) for ws in rounds.cli.values()) // min_rounds
    tails = [tail([w for ws in rounds.cli.values() for w in ws[g * min_rounds:(g + 1) * min_rounds]])
             for g in range(groups)]
    tail_value = tails[0]
    samples.update(
        startup_s=rounds.startup,
        pipelines=pipeline_walls,
        inproc=[w for ws in inproc.values() for w in ws],
        tail={"percentile": tail_value[1], "beyond": tail_value[2],
              "samples": min_rounds * len(items), "groups": [t[0] for t in tails]},
        item_medians={i.id: [statistics.median(rounds.cli[i.id]), statistics.median(inproc[i.id])]
                      for i in items},
    )
    return {
        "setup_s": statistics.median(setups),
        "startup_s": statistics.median(rounds.startup),
        "pipelines_per_s": mix_rate(rounds.cli),
        "pipeline_p50_s": mix_median(rounds.cli),
        "pipeline_tail_s": statistics.median(t[0] for t in tails),
        "inproc_ops_per_s": mix_rate(inproc),
        "peak_rss_mb": rounds.rss,
    }


def per_layer(args, env, root, scratch, verdicts, samples, spans_path) -> dict:
    items, warmups, seconds = setup(args, env, root, scratch, verdicts, 0)
    samples["setup_s"] = [seconds]
    worker = Worker(items, warmups, env, root, scratch, spans_path)
    try:
        rounds = measure(items, ["untraced", "traced"], False, 1, args.seconds, env, root, scratch,
                         verdicts, worker)
    finally:
        worker.close()
    inproc = check_inproc(items, rounds.inproc["untraced"], worker.outdir, verdicts, "inproc")
    traced = check_inproc(items, rounds.inproc["traced"], worker.outdir, verdicts, "traced")
    samples.update(
        pipelines=[w for ws in rounds.cli.values() for w in ws],
        inproc=[w for ws in inproc.values() for w in ws],
        traced=[w for ws in traced.values() for w in ws],
        traced_cycles=len(rounds.traces),
        module_self_ms=module_self_ms(rounds.traces),
        parts=part_breakdown(items, traced, spans_path),
    )

    def mean(kind: str, key: str) -> float:
        return statistics.fmean(t[kind].get(key, 0.0) for t in rounds.traces)

    metrics = {}
    for name, _ in PER_LAYER:
        base, stat = name.rsplit(".", 1)
        metrics[name] = mean(stat, base) if stat in ("calls", "self_ms") else mean("values", name)
    # derived metrics
    schur_calls = metrics["obstruction.schur_closure.schur_calls"]
    metrics["obstruction.schur_closure.yield"] = (
        metrics["obstruction.schur_closure.closure_dim"] / schur_calls if schur_calls else 0.0)
    metrics["cli.import_ms"] = worker.import_ms
    inproc_cycle = cycle_seconds(inproc)
    metrics["cli.process_overhead_ms"] = (cycle_seconds(rounds.cli) - inproc_cycle) / len(items) * 1e3
    metrics["trace.overhead_fraction"] = cycle_seconds(traced) / inproc_cycle - 1.0
    return metrics


def part_breakdown(items, traced: dict, spans_path: str) -> dict:
    """Per part of the mix and per traced cycle: self time by module, calls by function.

    Built from the span file; each item's spans are divided by its number
    of traced runs.
    """
    if not os.path.exists(spans_path):
        return {}
    spans = []
    with open(spans_path, encoding="utf-8") as fh:
        for line in fh:
            name, start, end, parent, item = json.loads(line)
            spans.append((name, end - start, parent, item))
    child = [0.0] * len(spans)
    for _, duration, parent, _ in spans:
        if parent >= 0:
            child[parent] += duration
    part_of = {item.id: item.part for item in items}
    out = {item.part: {"self_ms": {}, "calls": {}} for item in items}
    for (name, duration, _, item), child_s in zip(spans, child):
        if item not in part_of:
            continue
        weight = 1.0 / len(traced[item])
        part = out[part_of[item]]
        module = name.split(".", 1)[0]
        part["self_ms"][module] = part["self_ms"].get(module, 0.0) + (duration - child_s) * 1e3 * weight
        part["calls"][name] = part["calls"].get(name, 0.0) + weight
    for part in out.values():
        part["self_ms"] = dict(sorted(part["self_ms"].items(), key=lambda kv: -kv[1]))
    return out


def module_self_ms(traces) -> dict:
    """Self time per library module, mean per traced cycle."""
    totals: dict[str, float] = {}
    for t in traces:
        for name, ms in t["self_ms"].items():
            module = name.split(".", 1)[0]
            totals[module] = totals.get(module, 0.0) + ms / len(traces)
    return dict(sorted(totals.items(), key=lambda kv: -kv[1]))


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def print_report(args, env_block, metrics, units, samples, verdicts) -> None:
    print(f"qgraphs benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    for key, value in env_block.items():
        print(f"  env {key}: {value}")
    fraction = verdicts.failed / max(1, verdicts.attempted)
    verdict = "correct" if verdicts.failed == 0 else "INCORRECT"
    print(f"oracle: {verdict}; {verdicts.attempted} attempted, {verdicts.failed} failed, "
          f"failed_fraction {fraction:.4f}")
    for reason in verdicts.reasons:
        print(f"  failure {reason}")

    def describe(values):
        q1, q2, q3 = quartiles(values)
        return f"n={len(values)} q1={q1:.4f} median={q2:.4f} q3={q3:.4f}"

    timings = {
        "setup_s": "setup_s", "startup_s": "startup_s", "pipelines_per_s": "pipelines",
        "pipeline_p50_s": "pipelines", "pipeline_tail_s": "pipelines",
        "inproc_ops_per_s": "inproc", "cli.process_overhead_ms": "pipelines",
        "trace.overhead_fraction": "traced",
    }
    print(f"{'metric':<46} {'value':>14}  unit")
    for name, value in metrics.items():
        line = f"{name:<46} {value:>14.6g}  {units[name]}"
        basis = timings.get(name)
        if basis in samples:
            line += f"   [{basis}: {describe(samples[basis])}]"
        if name == "pipeline_tail_s" and samples.get("tail"):
            t = samples["tail"]
            line += (f" tail: p{t['percentile']:.1f} of each {t['samples']}, {t['beyond']} beyond;"
                     f" median of {len(t['groups'])} groups")
        print(line)
    if "module_self_ms" in samples:
        print(f"self time by module, ms per traced cycle ({samples['traced_cycles']} cycles):")
        for module, ms in samples["module_self_ms"].items():
            print(f"  {module:<16} {ms:12.2f}")
        print("by part of the mix, per traced cycle:")
        for name, part in samples["parts"].items():
            calls = ", ".join(f"{f} {part['calls'].get(f, 0.0):.0f} calls" for f in BYPASS_CALLS)
            modules = ", ".join(f"{m} {ms:.1f}" for m, ms in part["self_ms"].items())
            print(f"  {name}: {calls}; self ms by module: {modules}")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"input seed (default {DEFAULT_SEED}; hold-out seed {HOLDOUT_SEED})")
    p.add_argument("--seconds", type=float, default=55.0, help="measurement time of one run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="0: end-to-end metrics; 1: per-layer metrics of a traced pass")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # on SIGTERM unwind through the finally blocks that stop child processes
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "qgraphs", "cli.py")):
        print(f"error: no qgraphs sources under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    env.pop("QG_TOL", None)
    out_root = os.path.join(root, ".bench_out")
    os.makedirs(out_root, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=out_root)
    verdicts = Verdicts()
    samples: dict = {}
    try:
        if args.trace:
            spans_path = os.path.join(out_root, f"spans-{args.workload}.jsonl")
            metrics = per_layer(args, env, root, scratch, verdicts, samples, spans_path)
            units = dict(PER_LAYER)
        else:
            metrics = end_to_end(args, env, root, scratch, verdicts, samples)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    env_block = environment(root, env)
    print_report(args, env_block, metrics, units, samples, verdicts)
    result = {
        "correct": verdicts.failed == 0,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    with open(os.path.join(out_root, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({**result, "environment": env_block, "samples": samples,
                   "failures": verdicts.reasons}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

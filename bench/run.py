#!/usr/bin/env python3
"""kkcliques benchmark.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 bench/run.py --repeat 10 --workload W [--seed FIRST] [--seconds S]

Run from the root of a checkout: the program is imported from ./src.  One run
builds the seeded op list and its independent references, then repeats the op
list (one pass) in a single closed loop with one caller until --seconds is used
up; between passes it times the workload's set-up in fresh interpreters, at
even times over the run.  Every output
is checked after its call returns; the checks are not timed.  The last line of
stdout is one JSON object with `correct`, `attempted`, `failed` and `metrics`:
the end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.

A traced run alternates untraced and traced passes.  Traced passes wrap each
layer's functions (tracer.py), end with a fixed probe that calls every layer
once, and give the per-layer numbers; the overhead is the median traced pass
time minus the median untraced one.  Spans go to .bench_out/trace-W.json.

--repeat runs N seeds in turn and prints, per end-to-end metric, the median,
the quartile spread as a share of the median, and the bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import cli_ops  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SRC = Path("src")
OUT = Path(".bench_out")
SETUP_SAMPLES = 15
MIN_PASSES = 2
CLI_TIMEOUT_S = 60.0
WORKLOAD_NAMES = ("closed_forms", "structures", "verification", "cli_process")

# The end-to-end metrics of the result line, as listed in BENCHMARK.json.
END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("ok_share", "share"), ("peak_rss_mb", "MB")]
# Printed in the summary only: on a shared host their run-to-run spread of
# pure-Python per-op times goes past any bound BENCHMARK.json may set.
SUMMARY_ONLY = [("latency_p50_ms", "ms"), ("latency_tail_ms", "ms")]
_LAYER_TIMES = ["cascade", "bounds", "bounds.irrational", "uniqueness", "families",
                "families.segment", "families.cliques", "families.io", "designs",
                "designs.recognize", "oracle", "oracle.sweep", "oracle.search",
                "oracle.canonical", "cli"]
PER_LAYER = (
    [(f"{layer}.calls", "count") for layer in tracer.LAYERS]
    + [("bounds.irrational.calls", "count"), ("oracle.canonical.calls", "count")]
    + [(f"{name}.self_s", "s") for name in _LAYER_TIMES]
    + [(f"{layer}.errors", "count") for layer in tracer.LAYERS]
    + [("internal_check_errors", "count"), ("cascade.max_call_ms", "ms"),
       ("oracle.sweep.families", "count"), ("oracle.sweep.checks", "count"),
       ("oracle.search.families_scanned", "count"), ("oracle.search.families_per_s", "1/s"),
       ("cli.startup_ms", "ms"), ("cli.parse_ms", "ms"), ("cli.dispatch_ms", "ms"),
       ("cli.render_ms", "ms"), ("trace.overhead_s", "s"), ("trace.overhead_share", "share"),
       ("trace.spans", "count")]
)
COUNTS = {name for name, unit in PER_LAYER if unit == "count"}


class Deadline(Exception):
    pass


def _alarm(signum, frame):
    raise Deadline()


def median(xs):
    return statistics.median(xs) if xs else 0.0


def trimmed_mean(xs) -> float:
    """Mean of the samples without their single largest and smallest (when
    there are at least four).  A shared host can switch between a fast and a
    slow speed many times a second; a mean weighs both in proportion, where a
    median of a few samples jumps between them."""
    xs = sorted(xs)
    if len(xs) >= 4:
        xs = xs[1:-1]
    return statistics.fmean(xs) if xs else 0.0


def measure_setup(workload: str) -> float:
    """Set-up seconds of the workload in one fresh interpreter."""
    p = subprocess.run([sys.executable, str(HERE / "child.py"), "setup", workload],
                       capture_output=True, text=True, timeout=120, check=True)
    return float(p.stdout.split()[-1])


class InProcess:
    """Runs a library workload's ops in this process under a per-op deadline."""

    def __init__(self, name: str, seed: int):
        self.wl = workloads.WORKLOADS[name]
        self.wl.setup()
        kinds = workloads.kinds_for(name)
        self.ops = self.wl.make_ops(seed)
        self.calls = [kinds[k].call for k, _, _ in self.ops]
        self.norms = [kinds[k].norm for k, _, _ in self.ops]
        self.args = [kinds[k].prep(a) for k, _, a in self.ops]
        self.expected = [kinds[k].ref(a) for k, _, a in self.ops]
        signal.signal(signal.SIGALRM, _alarm)
        # One untimed pass first: the allocator and the interpreter's caches
        # warm up here instead of in the first timed pass.
        for j in range(len(self.ops)):
            self.execute(j, None)
        # The references and prepared arguments live for the whole run; keep
        # them out of the collector's generations so the program's own
        # collections do not pay to traverse the benchmark's data.
        gc.collect()
        gc.freeze()

    def execute(self, j: int, tr: tracer.Tracer | None) -> tuple[float, str]:
        call, args = self.calls[j], self.args[j]
        idx = tr.open(tr.name_id("op." + self.ops[j][0])) if tr else None
        out, outcome = None, "ok"
        t0 = perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, self.wl.deadline_s)
            try:
                out = call(*args)
                t1 = perf_counter()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except Deadline:
            t1, outcome = perf_counter(), "deadline"
        except Exception as exc:  # the op failed; record how and go on
            t1, outcome = perf_counter(), f"raised:{type(exc).__name__}"
        if tr:
            tr.close(idx)
        if outcome == "ok":
            try:
                outcome = "ok" if self.norms[j](out) == self.expected[j] else "wrong"
            except (AttributeError, TypeError, ValueError):
                outcome = "wrong"
        return t1 - t0, outcome


PROBE_CLI_ARGS = (("cascade", "7", "3"), (0,), "cascade", "cascade", (7, 3))


class CliProcess:
    """Runs each op as a `python -m kkcliques.cli` subprocess, one at a time."""

    def __init__(self, ops: list):
        self.ops = ops
        self.startups: list[float] = []

    @classmethod
    def for_seed(cls, seed: int) -> "CliProcess":
        return cls(cli_ops.cli_ops(seed, cli_ops.write_recognize_files(OUT, seed)))

    def execute(self, j: int, tr: tracer.Tracer | None) -> tuple[float, str]:
        return self.run_cli(self.ops[j][2], tr)

    def run_cli(self, args: tuple, tr: tracer.Tracer | None) -> tuple[float, str]:
        spans_file = OUT / "cli-spans.json"
        if tr:
            cmd = [sys.executable, str(HERE / "child.py"), "cli", str(spans_file), *args[0]]
            idx = tr.open(tr.name_id("op.cli"))
        else:
            cmd = [sys.executable, "-m", "kkcliques.cli", *args[0]]
        t0 = perf_counter()
        try:
            p = subprocess.run(cmd, capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
            code, out, err = p.returncode, p.stdout, p.stderr
        except subprocess.TimeoutExpired:
            code, out, err = None, "", ""
        t1 = perf_counter()
        if tr:
            if spans_file.exists():
                rec = json.loads(spans_file.read_text())
                spans_file.unlink()
                tr.merge(rec["names"], rec["spans"], rec["tags"])
                self.startups.append(rec["startup_s"])
            tr.close(idx)
        return t1 - t0, cli_ops.classify(args, code, out, err)


def probe(tr: tracer.Tracer, cli: CliProcess) -> None:
    """One fixed call into every layer, so each per-layer metric is measured on
    every workload.  Runs only in traced passes and is not part of wall_s."""
    import kkcliques.bounds as B
    import kkcliques.cascade as C
    import kkcliques.designs as D
    import kkcliques.families as F
    import kkcliques.oracle as O
    import kkcliques.uniqueness as U
    idx = tr.open(tr.name_id("op.probe"))
    C.cascade_of(10**6, 5)
    B.edge_bound(12, 1, 2, 3, 3)
    B.edge_bound(10, 1, 3, 4, 5)
    U.is_jumping(10, 3, 2)
    H = F.colex_segment(20, 3)
    F.cliques(H, 4)
    F.from_text(F.to_text(H))
    D.recognize_packing_shadow(D.shadow_of_design(D.builtin_design("disjoint(2,4)"), 3), 1, 4)
    O.verify_kkt(4, 2)
    O.exhaustive_search(O.SearchSpec(4, 2, 3, m=3))
    tr.close(idx)
    cli.run_cli(PROBE_CLI_ARGS, tr)


def run_passes(runner, seconds: float, traced: bool, setup_of: str | None = None):
    """Repeat the op list until the time budget is spent.

    Returns per-op latencies of untraced passes, the number of op calls made,
    the count of each failed (op index, outcome), the pass times
    of both kinds, the per-layer metrics of each traced pass, the tracer,
    which keeps the spans of the first traced pass only to bound memory, and
    the set-up samples of workload `setup_of`.  Those are taken between
    passes at even times over the run, so that their median sees the host
    over the whole run and not in a few seconds at its start."""
    n = len(runner.ops)
    # Compact stores, so that the benchmark's own memory does not grow with
    # the number of passes and move peak_rss_mb.
    lat = [array("d") for _ in range(n)]
    failures: Counter = Counter()
    attempted = 0
    walls = {False: [], True: []}
    tr = tracer.Tracer() if traced else None
    layer_passes: list[dict[str, float]] = []
    cli = runner if isinstance(runner, CliProcess) else CliProcess([])
    setup: list[float] = []

    def setup_due() -> bool:
        return bool(setup_of) and len(setup) < SETUP_SAMPLES and \
            perf_counter() - start >= len(setup) * seconds / SETUP_SAMPLES

    start = perf_counter()
    elapsed_per_pass = []
    p = 0
    while True:
        while setup_due():
            setup.append(measure_setup(setup_of))
        gc.collect()
        t_pass = perf_counter()
        this_traced = traced and p % 2 == 1
        if this_traced:
            lo, tags_lo, before = len(tr.spans), len(tr.tags), len(cli.startups)
            uninstall = tracer.install(tr)
        wall = 0.0
        for j in range(n):
            dt, outcome = runner.execute(j, tr if this_traced else None)
            wall += dt
            attempted += 1
            if outcome != "ok":
                failures[j, outcome] += 1
            if not this_traced:
                lat[j].append(dt)
        walls[this_traced].append(wall)
        if this_traced:
            probe(tr, cli)
            uninstall()
            metrics = tracer.pass_metrics(tr.names, tr.spans[lo:], tr.tags[tags_lo:],
                                          cli.startups[before:])
            metrics["trace.spans"] = len(tr.spans) - lo
            layer_passes.append(metrics)
            if lo > 0:
                del tr.spans[lo:], tr.tags[tags_lo:]
        p += 1
        elapsed_per_pass.append(perf_counter() - t_pass)
        if p >= MIN_PASSES and perf_counter() - start + median(elapsed_per_pass) > seconds:
            break
    while setup_of and len(setup) < SETUP_SAMPLES:
        setup.append(measure_setup(setup_of))
    return lat, attempted, failures, walls, layer_passes, tr, setup


def summarize_failures(ops, failures):
    """Failed ops by (kind, band, outcome), each op counted once however many
    passes it failed in."""
    by: Counter = Counter()
    for j, outcome in failures:
        kind, band, _ = ops[j]
        by[kind, band, outcome] += 1
    return by


def end_to_end(name, setup_samples, lat, attempted, failed, walls):
    per_op = sorted(trimmed_mean(v) for v in lat if v)
    n = len(per_op)
    rank = max(0, n - 11)
    tail_pct = 100.0 * (n - 10) / n if n > 10 else 100.0
    usage = resource.RUSAGE_CHILDREN if name == "cli_process" else resource.RUSAGE_SELF
    metrics = {
        "setup_s": median(setup_samples),
        "wall_s": trimmed_mean(walls[False]),
        "latency_p50_ms": 1e3 * median(per_op),
        "latency_tail_ms": 1e3 * per_op[rank],
        "ok_share": 1.0 - failed / attempted,
        "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024.0,
    }
    notes = {
        "setup_s": f"median of {len(setup_samples)} fresh interpreters over the run",
        "wall_s": f"trimmed mean of {len(walls[False])} passes; {n / metrics['wall_s']:.1f} ops/s",
        "latency_p50_ms": f"median of {n} per-op latencies (trimmed means over passes)",
        "latency_tail_ms": f"p{tail_pct:.2f} of {n} per-op latencies, {sum(len(v) for v in lat)} samples",
        "ok_share": f"failed_share {failed / attempted:.6f} ({failed} of {attempted} ops)",
        "peak_rss_mb": "largest child" if name == "cli_process" else "this process",
    }
    return metrics, notes


def per_layer(per_pass, walls):
    metrics, unsteady = {}, []
    for name, _ in PER_LAYER:
        vals = [m.get(name, 0.0) for m in per_pass]
        if name in COUNTS and len(set(vals)) > 1:
            unsteady.append(name)
        metrics[name] = median(vals)
    untraced, traced = median(walls[False]), median(walls[True])
    metrics["trace.overhead_s"] = traced - untraced
    metrics["trace.overhead_share"] = (traced - untraced) / untraced if untraced else 0.0
    return metrics, unsteady


def run_one(args) -> int:
    name = args.workload
    src = str(SRC.resolve())
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = src + (os.pathsep + os.environ["PYTHONPATH"]
                                      if os.environ.get("PYTHONPATH") else "")
    OUT.mkdir(exist_ok=True)
    if name == "cli_process":
        import kkcliques  # noqa: F401  (the traced probe also calls the library in process)
        runner = CliProcess.for_seed(args.seed)
    else:
        runner = InProcess(name, args.seed)
    digest = workloads.ops_digest(runner.ops)
    lat, executed, failures, walls, layer_passes, tr, setup_samples = run_passes(
        runner, args.seconds, bool(args.trace), None if args.trace else name)
    deadline = f"per-op deadline {runner.wl.deadline_s:g} s" if isinstance(runner, InProcess) \
        else f"per-call timeout {CLI_TIMEOUT_S:g} s"
    missed = {j for j, o in failures if o == "deadline"}
    slowest = max((max(v) for j, v in enumerate(lat) if v and j not in missed), default=0.0)
    print(f"workload {name} seed {args.seed}: {len(runner.ops)} ops per pass, "
          f"{len(walls[False])} untraced + {len(walls[True])} traced passes, {deadline}, "
          f"{executed} op calls, slowest completed op {1e3 * slowest:.1f} ms, "
          f"op list sha256 {digest[:16]}")
    print("  pass times (s): untraced " + " ".join(f"{w:.3f}" for w in walls[False])
          + ("; traced " + " ".join(f"{w:.3f}" for w in walls[True]) if walls[True] else ""))

    by_op = summarize_failures(runner.ops, failures)
    unknown = 0
    for (kind, band, outcome), count in sorted(by_op.items()):
        why = workloads.known_defect(kind, band, outcome)
        unknown += 0 if why else count
        print(f"  failed {kind} [{band or '-'}] {outcome}: {count}"
              f"{'  (known defect: ' + why + ')' if why else '  (NOT a known defect)'}")
    # attempted and failed count the ops of the list, not their repeats: how
    # many passes fit in --seconds depends on the host's speed, and the counts
    # must not.  An op fails if it fails in any pass.
    attempted, failed = len(runner.ops), len({j for j, _ in failures})
    metrics, notes = end_to_end(name, setup_samples, lat, attempted, failed, walls)
    units = dict(END_TO_END + SUMMARY_ONLY)
    if args.trace:
        layer, unsteady = per_layer(layer_passes, walls)
        (OUT / f"trace-{name}.json").write_text(json.dumps(tr.dump()))
        for key in unsteady:
            print(f"  warning: count {key} differs between traced passes")
        metrics, units = layer, dict(PER_LAYER)
        for key, value in metrics.items():
            print(f"  {key:34s} {value:.6g} {units[key]}")
    else:
        for key, value in metrics.items():
            print(f"  {key:16s} {value:.6g} {units[key]}  ({notes[key]})")
        metrics = {key: metrics[key] for key, _ in END_TO_END}
    print(json.dumps({
        "correct": unknown == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def spread(values: list[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def repeat(args) -> int:
    """Run several seeds and report each end-to-end metric's spread against its bound."""
    spec = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]
    for name in args.workload.split(","):
        values: dict[str, list[float]] = {}
        for seed in range(args.seed, args.seed + args.repeat):
            p = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name,
                                "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                               capture_output=True, text=True, check=True)
            res = json.loads(p.stdout.strip().splitlines()[-1])
            print(f"{name} seed {seed}: correct={res['correct']} failed={res['failed']}/"
                  f"{res['attempted']} " + " ".join(f"{k}={v['value']:.5g}"
                                                    for k, v in res["metrics"].items()), flush=True)
            for k, v in res["metrics"].items():
                values.setdefault(k, []).append(v["value"])
        for k, vals in values.items():
            wide = spread(vals)
            verdict = "steady" if wide < bounds[k] / 3 else "WIDE"
            print(f"  {name} {k:16s} median {statistics.median(vals):.6g}  "
                  f"spread {wide:.4f}  bound {bounds[k]}  {verdict}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=0)
    args = ap.parse_args(argv)
    if not (SRC / "kkcliques" / "__init__.py").is_file():
        print("error: no src/kkcliques here; run from the root of a kkcliques checkout",
              file=sys.stderr)
        return 2
    if args.repeat:
        return repeat(args)
    if args.workload not in WORKLOAD_NAMES:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOAD_NAMES)}")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

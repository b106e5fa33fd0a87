"""The fskel benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

runs one workload (chain_kernel, reduce_nf, random_batch, cli_batch) in
this process: a closed loop with one caller, single-threaded, where the
next operation starts only when the previous one has ended.  Inputs come
from the seed alone (inputs.py); fskel receives only the parsed inputs.
Every answer is checked against an answer known independently of fskel.

Times are calibrated.  On a shared machine the same op runs up to 2x slower
for seconds to minutes at a time, with other tenants' load.  So a run takes
a fixed list of ops round and round until its time is up (every op at least
MIN_PASSES times), and times a fixed reference workload (calibrate.py, which
uses no fskel code) between every two ops.  Each try's time is scaled by
calibrate.NOMINAL_MS over the better of the reference times just before and
just after it, and an op's latency is its best scaled try: milliseconds at
the speed at which the reference takes NOMINAL_MS.  setup_s is the median of
several set-ups spread over the run, scaled by NOMINAL_MS over the best
reference time taken around them.

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics of BENCHMARK.json; with --trace 1 it holds the per-layer
metrics of a separate traced pass, timed from outside fskel.  Per-op
records and spans are written to .bench_out/ at the repository root.
--workload all runs every workload, each in a fresh process.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

import calibrate  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402

# Blocks of input generated per run; each pass runs all of them.  Every
# workload has at least 110 ops, so ten best times lie beyond p90.
BLOCKS = {"chain_kernel": 1, "reduce_nf": 1, "random_batch": 2, "cli_batch": 2}
# Blocks a traced run times, each op untraced and then traced.
TRACE_BLOCKS = {"chain_kernel": 1, "reduce_nf": 1, "random_batch": 2, "cli_batch": 1}
# Op kinds whose latency against n gives scaling_exp.
LADDER = {"chain_kernel": {"chain"}, "reduce_nf": {"poly"},
          "random_batch": {"subst", "expand"}, "cli_batch": {"tree"}}
# A run makes at least this many passes, however slow the machine.
MIN_PASSES = 2
# Set-ups timed before the first pass; one more follows every full pass.
FIRST_SETUPS = 3
# Reference timings on each side of a set-up.
SETUP_REFS = 2

END_TO_END = (("ops_per_s", "1/s"), ("latency_p50_ms", "ms"), ("latency_p90_ms", "ms"),
              ("ok_ratio", "ratio"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("scaling_exp", "slope"))

SPAN_METRICS = (
    "syntax.canonical_constraint", "syntax.canonical_type",
    "reduction.preserve", "reduction.to_neq", "reduction.step_neq",
    "reduction.transform_T", "reduction.from_neq",
    "typecheck.check_skeleton",
    "expansion.apply_subst", "expansion.apply_exp_skel", "expansion.soundness",
    "solve.solved", "solve.leq_f",
    "initial.initial_skeleton", "initial.derive_substitution",
    "surface.parse", "surface.print",
    "cli.check", "cli.initial", "cli.subst", "cli.expand", "cli.solve",
    "cli.reduce", "cli.erase_f", "cli.tree",
)
COUNT_METRICS = (
    "syntax.atoms_in", "syntax.items_out", "reduction.steps",
    "reduction.sz_before", "reduction.sz_after_T", "typecheck.nodes",
    "typecheck.rejects", "surface.chars",
)


def import_seconds() -> float:
    """Time to import fskel in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import fskel; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout)


class Log:
    """Per-op outcomes in flat arrays, so that the benchmark's own
    bookkeeping barely moves the process's peak RSS."""

    def __init__(self, ops):
        self.ops = ops
        self.index, self.ms, self.ok = array("l"), array("d"), array("b")
        # reference times just before and just after each try (0 if untimed)
        self.ref_before, self.ref_after = array("d"), array("d")
        self.errors: dict[int, str] = {}

    def add(self, op, dt: float, ok: bool, error) -> None:
        if error is not None:
            self.errors[len(self.ms)] = repr(error)
        self.index.append(op.index)
        self.ms.append(dt * 1000.0)
        self.ok.append(ok)
        self.ref_before.append(0.0)
        self.ref_after.append(0.0)

    def __len__(self) -> int:
        return len(self.ms)

    def rows(self):
        return ((self.ops[i], ms, bool(ok)) for i, ms, ok in zip(self.index, self.ms, self.ok))

    def best(self) -> list[tuple]:
        """(op, best scaled ms, every try correct) for each op that ran."""
        ms: dict[int, float] = {}
        ok: dict[int, bool] = {}
        for i, t, good, before, after in zip(self.index, self.ms, self.ok,
                                             self.ref_before, self.ref_after):
            t *= calibrate.NOMINAL_MS / min(before, after)
            ms[i] = min(t, ms.get(i, t))
            ok[i] = ok.get(i, True) and bool(good)
        return [(self.ops[i], ms[i], ok[i]) for i in sorted(ms)]

    def records(self) -> list[dict]:
        out = [{"op": op.index, "kind": op.kind, "n": op.n, "nodes": op.nodes,
                "atoms": op.atoms, "ms": ms, "ok": ok, "ref_ms": [before, after]}
               for (op, ms, ok), before, after
               in zip(self.rows(), self.ref_before, self.ref_after)]
        for i, error in self.errors.items():
            out[i]["error"] = error
        return out


def reference_ms() -> float:
    """Time one call of the reference workload, in ms."""
    t0 = time.perf_counter()
    if calibrate.reference() != calibrate.CHECKSUM:
        raise AssertionError("the reference workload gave a wrong checksum")
    return (time.perf_counter() - t0) * 1000.0


def run_op(op, tracer, log) -> float:
    """Time one op, then check its answer outside the timed region."""
    tracer.begin("op." + op.kind)
    t0 = time.perf_counter()
    try:
        result = op.run(tracer)
        error = None
    except Exception as e:  # an op that raises counts as failed
        result, error = None, e
    dt = time.perf_counter() - t0
    tracer.end()
    try:
        ok = error is None and op.check(result)
    except Exception as e:
        ok, error = False, e
    log.add(op, dt, ok, error)
    return dt


def measure(ops, seconds: float, min_passes: int, log, between) -> None:
    """Run the ops round and round in a fixed order until the deadline, and
    at least min_passes full passes; call between() after each full pass.
    Each try gets the reference times just before and after it."""
    deadline = time.perf_counter() + seconds
    before = reference_ms()
    tries = 0
    while tries < min_passes * len(ops) or time.perf_counter() < deadline:
        run_op(ops[tries % len(ops)], tracing.NullTracer(), log)
        after = reference_ms()
        log.ref_before[-1], log.ref_after[-1] = before, after
        before = after
        tries += 1
        if tries % len(ops) == 0:
            between()
            before = reference_ms()


def fit_slope(best, kinds) -> float:
    """Least-squares slope of log(median best latency) against log(n) over
    the size classes of the given op kinds."""
    by_n: dict[int, list[float]] = {}
    for op, ms, ok in best:
        if op.kind in kinds and ok:
            by_n.setdefault(op.n, []).append(ms)
    points = [(math.log(n), math.log(statistics.median(v))) for n, v in sorted(by_n.items())]
    if len(points) < 2:
        raise ValueError(f"scaling_exp needs two sizes of {sorted(kinds)}")
    mx = statistics.fmean(x for x, _ in points)
    my = statistics.fmean(y for _, y in points)
    sxx = sum((x - mx) ** 2 for x, _ in points)
    return sum((x - mx) * (y - my) for x, y in points) / sxx


def end_to_end(name, log, setup_s) -> dict:
    best = log.best()
    deciles = statistics.quantiles([ms for _, ms, _ in best], n=10)
    return {
        "ops_per_s": sum(ok for _, _, ok in best) / (sum(ms for _, ms, _ in best) / 1000.0),
        "latency_p50_ms": deciles[4],
        "latency_p90_ms": deciles[8],
        "ok_ratio": sum(log.ok) / len(log),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "scaling_exp": fit_slope(best, LADDER[name]),
    }


def per_layer(tracer, untraced_s, traced_s) -> dict:
    ms, calls, counts = tracer.self_ms(), tracer.calls(), tracer.counts
    out = {f"{name}_ms": ms.get(name, 0.0) for name in SPAN_METRICS}
    out.update({name: counts.get(name, 0) for name in COUNT_METRICS})
    out["typecheck.check_skeleton_calls"] = calls.get("typecheck.check_skeleton", 0)
    out["solve.leq_f_calls"] = calls.get("solve.leq_f", 0)
    decisions = counts.get("solve.decisions", 0)
    out["solve.yes_ratio"] = counts.get("solve.yes", 0) / decisions if decisions else 0.0
    out["trace.overhead_ratio"] = traced_s / untraced_s
    return out


def unit_of(metric: str) -> str:
    if metric.endswith("_ms"):
        return "ms"
    return "ratio" if metric.endswith("_ratio") else "count"


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 min_passes: int = MIN_PASSES) -> dict:
    specs = inputs.WORKLOADS[name](seed, BLOCKS[name])
    sys.path.insert(0, str(SRC))
    import workloads

    setups, setup_refs = [], []

    def set_up():
        """Import fskel in a fresh interpreter and parse every input text;
        a traced run only parses."""
        if trace:
            return workloads.SETUP[name](specs)
        setup_refs.extend(reference_ms() for _ in range(SETUP_REFS))
        import_s = import_seconds()
        t0 = time.perf_counter()
        blocks = workloads.SETUP[name](specs)
        setups.append(import_s + time.perf_counter() - t0)
        setup_refs.extend(reference_ms() for _ in range(SETUP_REFS))
        return blocks

    for _ in range(0 if trace else FIRST_SETUPS - 1):
        set_up()
    blocks = set_up()
    ops = [op for block in blocks for op in block]
    for i, op in enumerate(ops):
        op.index = i
    log = Log(ops)
    for op in sorted(blocks[0], key=lambda op: op.n)[:3]:
        run_op(op, tracing.NullTracer(), Log(ops))
    # Keep the collector from re-scanning the inputs on every full collection.
    gc.collect()
    gc.freeze()

    if not trace:
        # One more set-up after every full pass, so the median set-up time
        # samples the whole run; the inputs it parses are dropped at once.
        measure(ops, seconds, min_passes, log, set_up)
        setup_s = statistics.median(setups) * calibrate.NOMINAL_MS / min(setup_refs)
        metrics = end_to_end(name, log, setup_s)
        units = dict(END_TO_END)
        dump = {"records": log.records(), "setups_s": setups, "setup_refs_ms": setup_refs}
    else:
        # Each op runs untraced and traced back to back, in alternating order,
        # so neither a change in machine speed during the run nor the second
        # run's warmer caches favours one side of the overhead ratio.
        tracer = tracing.Tracer(workloads.HOOKS)
        untraced_s = traced_s = 0.0
        chosen = [op for block in blocks[:TRACE_BLOCKS[name]] for op in block]
        for i, op in enumerate(chosen):
            if i % 2:
                traced_s += run_op(op, tracer, log)
            untraced_s += run_op(op, tracing.NullTracer(), log)
            if not i % 2:
                traced_s += run_op(op, tracer, log)
        metrics = per_layer(tracer, untraced_s, traced_s)
        units = {m: unit_of(m) for m in metrics}
        dump = {"records": log.records(), "spans": tracer.spans, "counts": dict(tracer.counts)}
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(dump))
    failed = len(log) - sum(log.ok)
    return {
        "correct": failed == 0, "attempted": len(log), "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }


def report(name: str, result: dict) -> None:
    attempted, failed = result["attempted"], result["failed"]
    print(f"{name}: {attempted} tries, {failed} failed, failed_ratio {failed / attempted:.4g}")
    for metric, mv in result["metrics"].items():
        print(f"  {metric:34s} {mv['value']:.6g} {mv['unit']}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "fskel" / "__init__.py").is_file():
        print(f"error: no fskel sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    if args.workload == "all":
        results = {}
        for name in inputs.WORKLOADS:
            done = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, timeout=900)
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                return done.returncode
            results[name] = json.loads(done.stdout.strip().splitlines()[-1])
            report(name, results[name])
        print(json.dumps(results))
        return 0 if all(r["correct"] for r in results.values()) else 1
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    report(args.workload, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

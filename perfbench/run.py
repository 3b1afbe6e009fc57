"""Benchmark of the sfsampler package: one workload per invocation.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The package is imported from ./src.
`--workload all` (the default) runs every workload, each in its own process,
and ends with one JSON line whose metrics are named <workload>.<metric>. With
--trace 0 the run repeats whole rounds of the workload for about --seconds
and reports the end-to-end metrics (medians over rounds). With --trace 1 it
runs one untraced round, then traced rounds for about --seconds, then the
workload's main sampling call, with one more ensemble block of chains, at 1
and at 2 threads, and reports the per-layer metrics. The last line of
standard output is a JSON object with keys correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(ROOT, ".perfbench_runs")
SETUP_REPEATS = 5

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "chain_steps_per_s": "chain-steps/s",
                    "peak_rss_mb": "MB"}


def _import_workloads():
    for path in (SRC, HERE):
        if path not in sys.path:
            sys.path.insert(0, path)
    import workloads
    return workloads


def setup_probe(name, seed):
    """Time the import of the package and the building of one workload's inputs."""
    t0 = time.perf_counter()
    workloads = _import_workloads()
    plan = workloads.WORKLOADS[name].build(seed)
    json.dumps({k: v for k, v in plan.items() if k in ("compare", "convergence")})
    print(repr(time.perf_counter() - t0))
    return 0


def measure_setup(name, seed):
    """Median set-up time over fresh interpreters (imports are cached per process)."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", name,
             "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


class Runner:
    """Runs rounds of one workload and collects timings, failures and problems."""

    def __init__(self, workloads, name, seed, workdir, tiny=False):
        import sfsampler
        import tracing

        self.pkg, self.tracing = sfsampler, tracing
        self.wl = workloads.WORKLOADS[name]
        self.seed, self.workdir = seed, workdir
        self.plan = self.wl.build(seed, tiny=tiny)
        if hasattr(self.wl, "write_configs"):
            self.wl.write_configs(self.plan, workdir)
        self.attempted = self.failed = 0
        self.problems = []     # failed checks: the run is not correct
        self.errors = []       # failed operations: counted in `failed`
        self.first = None      # (digest, main samples) of the first round
        self.rounds = 0

    def round(self, tracer, on_done=None):
        """One round; returns its wall time and the sampler time seen by `tracer`."""
        outdir = os.path.join(self.workdir, f"round{self.rounds}")
        os.makedirs(outdir)
        out = {}
        steps = self.wl.steps(self.plan, outdir, out)
        tracer.clear()
        failed = 0
        t0 = time.perf_counter()
        for step in steps:
            try:
                step.fn()
            except Exception as exc:  # a failed operation is counted, the run goes on
                failed += len(step.ops)
                self.errors.append(f"step '{step.label}' failed: {type(exc).__name__}: {exc}")
        wall = time.perf_counter() - t0
        sampler_s = tracer.total(*self.tracing.SAMPLER_SPANS)
        self.attempted += sum(len(s.ops) for s in steps)
        self.failed += failed
        if not failed:
            self._verify(outdir, out)
        if on_done:
            on_done(steps, failed)
        shutil.rmtree(outdir)
        self.rounds += 1
        return wall, sampler_s

    def _verify(self, outdir, out):
        digest = self.wl.digest(outdir, out)
        if self.first is None:
            self.first = (digest, self.wl.main_samples(outdir, out).copy())
            self.problems += self.wl.check(self.plan, outdir, out)
        elif digest != self.first[0]:
            self.problems.append(f"round {self.rounds} output differs from round 0 (same inputs)")

    def untraced_round(self):
        tracer = self.tracing.Tracer()
        self.tracing.install_sampler_clock(tracer, self.pkg)
        try:
            return self.round(tracer)
        finally:
            tracer.restore()


def run_untraced(runner, seconds):
    """A warm-up round (checked), then measured rounds until about `seconds` have passed."""
    deadline = time.perf_counter() + seconds
    runner.untraced_round()
    walls, rates = [], []
    while True:
        t_start = time.perf_counter()
        wall, sampler_s = runner.untraced_round()
        walls.append(wall)
        rates.append(runner.plan["chain_steps"] / sampler_s if sampler_s > 0 else 0.0)
        # start another round only if it is expected to end by the deadline
        if time.perf_counter() + (time.perf_counter() - t_start) > deadline:
            break
    print("wall_s per measured round = " + " ".join(f"{w:.4f}" for w in walls))
    return {
        "wall_s": statistics.median(walls),
        "chain_steps_per_s": statistics.median(rates),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def expected_counts(steps):
    """Operations per kind ("verb", "sampler", "eval") that the workload lists."""
    counts = {}
    for step in steps:
        for op in step.ops:
            kind = op.split(":", 1)[0]
            counts[kind] = counts.get(kind, 0) + 1
    return counts


def traced_counts(tracing, tracer):
    return {
        "verb": len(tracer.named("cli.main")),
        "sampler": len(tracer.named(*tracing.SAMPLER_SPANS)),
        "eval": len(tracer.named("metrics.w2", "metrics.mode_weights", "metrics.moment_stats")),
    }


def run_traced(runner, seconds, trace_dir):
    """A warm-up round, then untraced and traced rounds in turn until the deadline."""
    tracing = runner.tracing
    deadline = time.perf_counter() + seconds
    runner.untraced_round()
    per_round, traced_walls, untraced_walls = [], [], []
    spans_path = os.path.join(trace_dir, f"spans-{runner.wl.name}-seed{runner.seed}.csv")
    tracer = tracing.Tracer()

    def collect(steps, failed):
        index = len(per_round)
        tracer.write_csv(spans_path, index, mode="w" if index == 0 else "a")
        per_round.append(tracing.layer_metrics(tracer, os.path.getsize))
        if failed:
            return
        got = traced_counts(tracing, tracer)
        for kind, n in expected_counts(steps).items():
            if got.get(kind, 0) != n:
                runner.problems.append(f"traced round {index}: {got.get(kind, 0)} {kind} ops, "
                                       f"workload lists {n}")
        steps_seen = per_round[-1]["samplers.chain_steps"]
        if steps_seen != runner.plan["chain_steps"]:
            runner.problems.append(f"traced round {index}: {steps_seen} chain-steps, "
                                   f"workload lists {runner.plan['chain_steps']}")

    while True:
        t_start = time.perf_counter()
        untraced_walls.append(runner.untraced_round()[0])
        tracing.install_layers(tracer, runner.pkg)
        try:
            traced_walls.append(runner.round(tracer, on_done=collect)[0])
        finally:
            tracer.restore()
        if time.perf_counter() + (time.perf_counter() - t_start) > deadline:
            break

    layers = {k: statistics.median(r[k] for r in per_round) for k in per_round[0]}
    layers.update(thread_check(runner))
    traced, untraced = statistics.median(traced_walls), statistics.median(untraced_walls)
    layers["trace.overhead_s"] = traced - untraced
    layers["trace.overhead_ratio"] = traced / untraced
    with open(os.path.join(trace_dir, f"layers-{runner.wl.name}-seed{runner.seed}.json"), "w") as fh:
        json.dump(layers, fh, indent=1, sort_keys=True)
    return layers


def thread_check(runner):
    """The main sampling call with one more block of chains at 1 and 2 threads.

    The rounds run one ensemble block; the extra block gives the second worker
    a block of its own. Chain i draws from its own stream, so the first n
    chains must reproduce the round's samples.
    """
    cfg, target, n, seed = runner.plan["main"]
    n_check = n + runner.pkg.samplers.ENSEMBLE_BLOCK
    out, times = {}, {}
    for threads in (1, 2):
        t0 = time.perf_counter()
        batch = runner.pkg.samplers.run_ensemble(cfg, target, n_check, seed, threads=threads)
        times[threads] = time.perf_counter() - t0
        out[threads] = batch.samples
    if out[1].tobytes() != out[2].tobytes():
        runner.problems.append("main sampling call: samples at 1 and 2 threads differ")
    if runner.first is not None and runner.first[1].tobytes() != out[1][:n].tobytes():
        runner.problems.append("main sampling call: samples differ from the workload round's")
    return {"samplers.threads1_s": times[1], "samplers.threads2_s": times[2],
            "samplers.thread_speedup": times[1] / times[2]}


def run_all(names, args):
    """Every workload in its own process: peak memory is a per-process figure."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600,
        )
        lines = proc.stdout.strip().splitlines()
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(lines[-1])
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            summary["metrics"][f"{name}.{key}"] = value
    print(json.dumps(summary))
    return 0


def layer_units():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "sfsampler", "__init__.py")):
        print(f"error: no sfsampler package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)
    workloads = _import_workloads()
    if args.workload == "all":
        return run_all(list(workloads.WORKLOADS), args)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload '{args.workload}' "
              f"(known: {', '.join(workloads.WORKLOADS)})", file=sys.stderr)
        return 2

    setup_s = None if args.trace else measure_setup(args.workload, args.seed)
    workdir = os.path.join(RUNS, f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    os.makedirs(workdir)
    try:
        runner = Runner(workloads, args.workload, args.seed, workdir)
        if args.trace:
            trace_dir = os.path.join(RUNS, "traces")
            os.makedirs(trace_dir, exist_ok=True)
            values = run_traced(runner, args.seconds, trace_dir)
            units = layer_units()
        else:
            values = {"setup_s": setup_s, **run_untraced(runner, args.seconds)}
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for error in runner.errors:
        print(f"OPERATION FAILED: {error}")
    for problem in runner.problems:
        print(f"CHECK FAILED: {problem}")
    for key, value in values.items():
        print(f"{key} = {value:.6g} {units[key]}")
    print(f"rounds = {runner.rounds}, attempted = {runner.attempted}, failed = {runner.failed}")
    result = {
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

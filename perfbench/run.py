"""Outside-in benchmark of the shapcent command line.

    python3 perfbench/run.py --workload distance --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 25

Run from the root of a source checkout. One workload runs in one fresh
process: it writes seeded inputs to a scratch directory, then repeats
rounds of the workload's jobs through `shapcent.cli.main(argv)` until
--seconds have passed, and checks every job's output. The last line of
standard output is one JSON object; with --trace 0 its metrics are the
end-to-end ones, with --trace 1 the per-layer ones from a traced run.
--all runs every workload, each in its own process, and prints a table.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads
from calibrate import NOMINAL_S, kernel_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"
# Fresh-interpreter imports before the first round; one more follows
# every round, so the samples spread over the run.
SETUP_FIRST = 3


def import_program():
    """Import shapcent.cli from this checkout's src/, and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import shapcent.cli as cli
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import shapcent from {SRC}: {exc}")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: shapcent was imported from {cli.__file__}, not {SRC}")
    return cli


def fresh_import_seconds() -> float:
    """Seconds from spawning a fresh interpreter until `import shapcent.cli`
    returns in it, read on the shared monotonic clock."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = "import shapcent.cli, time; print(repr(time.perf_counter()))"
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    if done.returncode != 0:
        sys.exit(f"perfbench: fresh import failed: {done.stderr.strip()}")
    return float(done.stdout) - t0


def tail_percentile(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    k = len(samples)
    if k < 11:
        return "no tail percentile (under 11 samples)"
    return f"p{100 * (k - 10) // k} = {sorted(samples)[k - 11]:.4f}"


@dataclass
class Execution:
    wall: float = 0.0  # seconds
    scaled: float = 0.0  # seconds at the host's nominal speed
    problem: str | None = None
    stdouts: list[str] = field(default_factory=list)


class Runner:
    """Times jobs and fresh imports between two calibration readings."""

    def __init__(self, cli, tracer=None):
        self.cli = cli
        self.tracer = tracer
        self.kernel = [kernel_seconds()]

    def _scale(self, runs: list[Execution]) -> list[Execution]:
        self.kernel.append(kernel_seconds())
        speed = NOMINAL_S / ((self.kernel[-2] + self.kernel[-1]) / 2)
        for run in runs:
            run.scaled = run.wall * speed
        return runs

    def setup(self) -> Execution:
        return self._scale([Execution(fresh_import_seconds())])[0]

    def execute(self, job, round_, times=1, job_id=None) -> list[Execution]:
        """Run the job's command lines `times` times in a row."""
        return self._scale([self._once(job, round_, job_id) for _ in range(times)])

    def _once(self, job, round_, job_id) -> Execution:
        gc.collect()
        run = Execution()
        start = time.perf_counter()
        for argv in job.calls(round_):
            out, err = io.StringIO(), io.StringIO()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    if job_id is None:
                        rc = self.cli.main(argv)
                    else:
                        rc = self.tracer.call(self.cli.main, argv)
            except Exception as exc:  # a crash is a failed job, not a failed run
                run.problem = f"raised {type(exc).__name__}: {exc}"
                break
            run.stdouts.append(out.getvalue())
            if rc != 0:
                run.problem = f"exit {rc}: {err.getvalue().strip()[-300:]}"
                break
        run.wall = time.perf_counter() - start
        return run


def run_workload(args) -> int:
    cli = import_program()
    print(f"# host: nproc={os.cpu_count()} affinity={len(os.sched_getaffinity(0))} "
          f"loadavg={' '.join(f'{x:.2f}' for x in os.getloadavg())}")
    SCRATCH.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH))
    try:
        wl = workloads.build(args.workload, args.seed, tmp)
        return measure(args, cli, wl)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def measure(args, cli, wl) -> int:
    tracer = None
    if args.trace:
        from spans import LAYER_METRICS, Tracer, job_metrics
        tracer = Tracer()
    runner = Runner(cli, tracer)
    plain = {job.slot: [] for job in wl.jobs}
    traced = {job.slot: [] for job in wl.jobs}
    layers = {job.slot: [] for job in wl.jobs}
    digests = {job.slot: [] for job in wl.jobs}  # (problem, digest) per execution

    def record(job, run):
        digest, problem = None, run.problem
        if problem is None:
            try:
                digest = job.read(run.stdouts)
            except (ValueError, OSError, StopIteration, IndexError) as exc:
                problem = f"unreadable output: {exc}"
        digests[job.slot].append((problem, digest))

    # Start another round while it is expected to end no more than half a
    # round past --seconds of job time, so runs last --seconds on average.
    setup = [] if tracer else [runner.setup() for _ in range(SETUP_FIRST)]
    busy = 0.0
    rounds = 0
    while rounds == 0 or busy + busy / rounds / 2 < args.seconds:
        round_start = time.perf_counter()
        rounds += 1
        if tracer is not None:
            tracer.clear()  # keep the spans of the last round only
        for job in wl.jobs:
            for run in runner.execute(job, rounds, job.repeat):
                plain[job.slot].append(run)
                record(job, run)
            for _ in range(job.repeat if tracer else 0):
                job_id = f"{job.slot}.{len(traced[job.slot])}"
                tracer.job = job_id
                tracer.install()
                try:
                    run = runner.execute(job, rounds, 1, job_id)[0]
                finally:
                    tracer.uninstall()
                    tracer.job = None
                traced[job.slot].append(run)
                record(job, run)
                layers[job.slot].append(job_metrics(tracer.spans, job_id))
        busy += time.perf_counter() - round_start
        if tracer is None:
            setup.append(runner.setup())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    attempted = failed = 0
    for job in wl.jobs:
        done = digests[job.slot]
        verdicts = iter(job.judge([d for p, d in done if p is None]))
        problems = [p if p is not None else next(verdicts) for p, _ in done]
        attempted += len(problems)
        bad = [p for p in problems if p is not None]
        failed += len(bad)
        for p in sorted(set(bad)):
            print(f"# FAIL {job.slot} ({job.label}): {p}")

    def median(runs, attr="scaled"):
        return statistics.median(getattr(r, attr) for r in runs)

    stats = wl.graph.stats()
    print("# input: " + " ".join(f"{k}={v:g}" for k, v in stats.items()))
    print(f"# rounds: {rounds}  fail_ratio: {failed / attempted:g} ({failed}/{attempted})")
    print(f"# calibration kernel: median {statistics.median(runner.kernel) * 1e3:.2f} ms, "
          f"nominal {NOMINAL_S * 1e3:.2f} ms, n = {len(runner.kernel)}")
    for job in wl.jobs:
        runs = plain[job.slot]
        print(f"# {job.slot}_s = {job.label}: median {median(runs):.4f} s scaled "
              f"({median(runs, 'wall'):.4f} s wall), "
              f"{tail_percentile([r.scaled for r in runs])}, n = {len(runs)}")
        for _, digest in digests[job.slot][:1]:
            if isinstance(digest, list):  # bench report: speedup is information only
                print("#   speedup (not gated): "
                      + ", ".join(f"{r['threshold']:g}: {r['speedup']:g}x" for r in digest))

    if tracer is None:
        print(f"# setup_s: median {median(setup):.4f} s scaled ({median(setup, 'wall'):.4f} s "
              f"wall), {tail_percentile([r.scaled for r in setup])}, n = {len(setup)}")
        metrics = {"setup_s": (median(setup), "s")}
        for job in wl.jobs:
            metrics[f"{job.slot}_s"] = (median(plain[job.slot]), "s")
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    else:
        if tracer.missing:
            print(f"# trace targets not found (reported as 0): {', '.join(tracer.missing)}")
        tracer.write(SCRATCH / f"spans-{wl.name}-{args.seed}.csv")
        metrics = {k: (v, unit_of(k)) for k, v in stats.items()}
        for job in wl.jobs:
            slot = job.slot
            untraced = median(plain[slot], "wall")
            metrics[f"{slot}.wall_s"] = (untraced, "s")
            metrics[f"{slot}.trace_overhead_s"] = (median(traced[slot], "wall") - untraced, "s")
            for name in LAYER_METRICS:
                value = statistics.median(m[name] for m in layers[slot])
                metrics[f"{slot}.{name}"] = (value, unit_of(name))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def unit_of(name: str) -> str:
    if name.endswith("perms_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    return "count"


def run_all(args) -> int:
    """Every workload in its own process; a table of the end-to-end metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    status = 0
    print(f"{'workload':<13} {'metric':<12} {'value':>12}  unit")
    for w in spec["workloads"]:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", w["name"], "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"{w['name']:<13} failed: {done.stderr.strip()[-300:]}")
            status = 1
            continue
        for line in lines[:-1]:
            if line.startswith(("# job", "# FAIL", "# rounds")):
                print(f"{w['name']:<13} {line[2:]}")
        result = json.loads(lines[-1])
        for name, m in result["metrics"].items():
            print(f"{w['name']:<13} {name:<12} {m['value']:>12.4f}  {m['unit']}")
        ratio = result["failed"] / result["attempted"]
        print(f"{w['name']:<13} {'fail_ratio':<12} {ratio:>12.4f}  ratio")
        status |= not result["correct"]
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--workload", choices=workloads.WORKLOADS)
    group.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of the qchain command line: end-to-end timings and a layer trace.

Usage, from the repository root:

    python3 perfbench/run.py --workload verify-grid --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50 --trace 1

Every timed repetition starts a fresh `python -m qchain.cli` process with
PYTHONPATH=src and --jobs 1, so the program's in-process caches start cold
each time, as they do for a user.  It runs at the same time as the same
command on a frozen copy of qchain 0.1.0 (reference/), both on one core, so
the two take turns every few milliseconds and meet the same host speed;
the main end-to-end figure is the median ratio of their CPU times.  The
host's speed drifts by a quarter over minutes, so times taken one after
the other spread between runs by more than a regression bound can allow.  Before timing, a small
seeded `verify --tamper` run is made as a negative control, and the first
run of a workload in a checkout is an untimed warm-up.  Every run's output
goes through the workload's correctness gate (workloads.py).

With --trace 1 one untraced run alone and one run through tracer.py
follow; the tracer records a span around each layer function, and
per-layer self times and counts are reported instead of the end-to-end
metrics.  With --workload all the workloads'
repetitions are interleaved and every metric is printed per workload.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer
from workloads import WORKLOADS, Outcome, Workload, gate, gate_tamper, pick_tamper

ROOT = Path(__file__).resolve().parent.parent
SOURCES = ROOT / "src" / "qchain" / "cli.py"
# qchain 0.1.0 as first benchmarked, never edited: the yardstick every
# repetition is timed against.
REFERENCE = Path(__file__).resolve().parent / "reference"
STATE = ROOT / ".perfbench_state"
CLI = [sys.executable, "-m", "qchain.cli"]
TRACER = [sys.executable, str(Path(tracer.__file__).resolve())]
CHILD_TIMEOUT_S = 150
SETUP_PER_REPEAT = 2
CALIBRATION_LOOP = 1_000_000
SAMPLED = ("cpu_s", "reference.cpu_s", "cpu_rel", "setup_s", "peak_rss_mb")
PER_L = {"extract_A", "linearity", "finite_size", "closed_forms"}


def child_env(sources: Path) -> dict:
    env = dict(os.environ)
    env.pop("QCHAIN_PRECISION_BITS", None)
    env["PYTHONPATH"] = str(sources)
    return env


@dataclass
class ChildRun:
    exit_code: int
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def run_children(jobs: list[tuple[list[str], Path]]) -> list[ChildRun]:
    """Run (command, PYTHONPATH) jobs at once to completion.

    Each one's CPU time and peak memory come from wait4.  The benchmark
    starts no other child meanwhile, so waiting for any child is safe.
    """
    with contextlib.ExitStack() as stack:
        files = [
            (stack.enter_context(tempfile.TemporaryFile(dir=ROOT)), stack.enter_context(tempfile.TemporaryFile(dir=ROOT)))
            for _ in jobs
        ]
        start = time.perf_counter()
        procs = []
        try:
            for (cmd, sources), (out, err) in zip(jobs, files):
                procs.append(subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(sources), cwd=ROOT))
                killer = threading.Timer(CHILD_TIMEOUT_S, procs[-1].kill)
                killer.start()
                stack.callback(killer.cancel)
            ended = {}
            while len(ended) < len(procs):
                pid, status, usage = os.wait4(-1, 0)
                ended[pid] = (time.perf_counter() - start, status, usage)
        except BaseException:
            for proc in procs:
                proc.kill()
                proc.wait()
            raise
        runs = []
        for proc, (out, err) in zip(procs, files):
            wall, status, usage = ended[proc.pid]
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            runs.append(
                ChildRun(
                    exit_code=proc.returncode,
                    stdout=out.read().decode("utf-8", "replace"),
                    stderr=err.read().decode("utf-8", "replace"),
                    wall_s=wall,
                    cpu_s=usage.ru_utime + usage.ru_stime,
                    peak_rss_mb=usage.ru_maxrss / 1024,
                )
            )
        return runs


def run_child(cmd: list[str], sources: Path = ROOT / "src") -> ChildRun:
    return run_children([(cmd, sources)])[0]


def calibrate() -> float:
    """Time a fixed pure-Python loop, to show the host's speed beside the runs."""
    start = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOP):
        total += i * i % 7
    return time.perf_counter() - start


@dataclass
class Bench:
    """Everything measured for one workload during one benchmark run."""

    workload: Workload
    seed: int
    outcome: Outcome = field(default_factory=lambda: Outcome(0, 0, []))
    # measured quantity -> its samples; calibration times are kept beside them
    samples: dict = field(default_factory=lambda: {m: [] for m in SAMPLED})
    calib: list[float] = field(default_factory=list)
    first_stdout: str = ""
    layers: dict = field(default_factory=dict)

    def check(self, run: ChildRun) -> None:
        result = gate(self.workload, run.exit_code, run.stdout)
        if run.exit_code != 0 and run.stderr.strip():
            result.problems.append(f"{self.workload.name}: stderr: {run.stderr.strip()[-300:]}")
        self.outcome += result

    def check_reference(self, run: ChildRun) -> None:
        """The reference must pass the same gate; if not, the yardstick is broken."""
        result = gate(self.workload, run.exit_code, run.stdout)
        if result.failed:
            raise RuntimeError(f"reference run failed: {result.problems} {run.stderr.strip()[-300:]}")

    def time_setup(self) -> float:
        """Wall time of a fresh `qchain <subcommand> --help`."""
        run = run_child(CLI + [self.workload.subcommand, "--help"])
        if run.exit_code != 0 or "usage:" not in run.stdout:
            self.outcome += Outcome.all_failed(1, f"{self.workload.subcommand} --help exited {run.exit_code}")
        return run.wall_s

    def prepare(self) -> None:
        """Untimed: bytecode compilation, the negative control and the warm-up runs."""
        self.time_setup()
        tamper = pick_tamper(self.workload, self.seed)
        run = run_child(CLI + tamper.argv())
        self.outcome += gate_tamper(tamper, run.exit_code, run.stdout)

        # Each repetition is a new process, so what a warm-up warms outlives
        # it only on disk (bytecode, page cache): one per checkout suffices.
        marker = STATE / f"warm-{self.workload.name}"
        if not marker.exists():
            self.check(run_child(CLI + self.workload.argv()))
            self.check_reference(run_child(CLI + self.workload.argv(), REFERENCE))
            STATE.mkdir(exist_ok=True)
            marker.touch()

    def repeat(self) -> None:
        """One timed pair, program and reference at once on one core, with
        the calibration loop and set-up timed beside it."""
        jobs = [(CLI + self.workload.argv(), ROOT / "src"), (CLI + self.workload.argv(), REFERENCE)]
        # The start order alternates, so neither side always starts first.
        flip = len(self.samples["cpu_s"]) % 2 == 1
        runs = run_children(jobs[::-1] if flip else jobs)
        run, ref = runs[::-1] if flip else runs
        self.check(run)
        self.check_reference(ref)
        if not self.samples["cpu_s"]:
            self.first_stdout = run.stdout
        self.samples["cpu_s"].append(run.cpu_s)
        self.samples["peak_rss_mb"].append(run.peak_rss_mb)
        self.samples["reference.cpu_s"].append(ref.cpu_s)
        self.samples["cpu_rel"].append(run.cpu_s / ref.cpu_s)
        self.calib.append(calibrate())
        # Set-up samples are spread over the run like the repetitions, so
        # host speed drift weighs on both alike.
        self.samples["setup_s"] += [self.time_setup() for _ in range(SETUP_PER_REPEAT)]

    def trace(self) -> None:
        """One untraced run alone, then one traced; their outputs must equal
        the first timed repetition's."""
        alone = run_child(CLI + self.workload.argv())
        self.check(alone)
        run = run_child(TRACER + self.workload.argv())
        if run.exit_code != 0:  # e.g. a traced function was renamed: stop loudly
            raise RuntimeError(f"tracer failed: {run.stderr.strip()[-500:]}")
        data = json.loads(run.stdout)
        result = gate(self.workload, data["exit"], data["stdout"])
        if not same_output(self.workload, data["stdout"], self.first_stdout):
            result = Outcome.all_failed(result.attempted, f"{self.workload.name}: traced output differs")
        self.outcome += result
        self.layers = layer_metrics(data["spans"], data["counters"], run.wall_s)
        self.layers["trace.overhead_s"] = run.wall_s - alone.wall_s
        self.layers["cli.wall_s"] = alone.wall_s
        self.layers["cli.cpu_s"] = alone.cpu_s
        self.layers["reference.cpu_s"] = statistics.median(self.samples["reference.cpu_s"])
        self.layers["host.calib_s"] = statistics.median(self.calib)

    def end_to_end(self) -> dict:
        return {m: statistics.median(self.samples[m]) for m in ("cpu_rel", "setup_s", "peak_rss_mb")}


def same_output(w: Workload, traced: str, untraced: str) -> bool:
    """compute must match byte for byte; verify must give the same verdict lines."""
    if w.subcommand == "compute":
        return traced == untraced
    return sorted(traced.splitlines()) == sorted(untraced.splitlines())


def layer_metric_names() -> list[str]:
    names = []
    for layer, functions in tracer.LAYERS.items():
        names.append(f"{layer}.self_s")
        for short in functions.values():
            names += [f"{layer}.{short}_s", f"{layer}.{short}.calls"]
    return names + [
        "roots.sweeps",
        "qoperator.builds",
        "energy.summary.cache_hits",
        "energy.per_L_s",
        "cli.other_s",
        "cli.wall_s",
        "cli.cpu_s",
        "reference.cpu_s",
        "trace.wall_s",
        "trace.overhead_s",
        "host.calib_s",
    ]


def unit_of(metric: str) -> str:
    if metric.endswith("_rel"):
        return "ratio"
    if metric.endswith("_s"):
        return "s"
    return "MB" if metric.endswith("_mb") else "count"


def layer_metrics(spans: list, counters: dict, wall: float) -> dict:
    """Self time and calls per function and layer; self times + cli.other_s = wall."""
    metrics = {name: 0 for name in layer_metric_names()}
    child_time = [0.0] * len(spans)
    for layer, short, start, end, parent, _, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    top_level = 0.0
    for index, (layer, short, start, end, parent, _, _) in enumerate(spans):
        own = end - start - child_time[index]
        metrics[f"{layer}.{short}_s"] += own
        metrics[f"{layer}.{short}.calls"] += 1
        metrics[f"{layer}.self_s"] += own
        if parent is None:
            top_level += end - start
        if short in PER_L and not _has_ancestor(spans, parent, PER_L):
            metrics["energy.per_L_s"] += end - start
    metrics["qoperator.builds"] = (
        metrics["qoperator.closed_form.calls"] + metrics["qoperator.linear_system.calls"]
    )
    metrics.update(counters)
    metrics["cli.other_s"] = wall - top_level
    metrics["trace.wall_s"] = wall
    return metrics


def _has_ancestor(spans: list, index: int | None, shorts: set) -> bool:
    while index is not None:
        if spans[index][1] in shorts:
            return True
        index = spans[index][4]
    return False


def environment() -> list[str]:
    import mpmath

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return [
        f"python {platform.python_version()}",
        f"mpmath {mpmath.__version__} backend {mpmath.libmp.BACKEND}",
        f"nproc {os.cpu_count()}",
        f"cpu {cpu}",
        f"commit {git_commit()}",
    ]


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        if ref_file.is_file():
            return ref_file.read_text().strip()
        return f"unknown ({ref[5:]} is packed)"
    return ref


def run(names: list[str], seed: int, seconds: float, trace: bool) -> dict:
    benches = [Bench(WORKLOADS[name], seed) for name in names]
    for bench in benches:
        bench.prepare()
    # Repetitions go round the workloads, so host drift falls on all alike.
    # A round starts only if it is expected to end within the time given.
    budget = seconds * len(benches)
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for bench in benches:
            bench.repeat()
        now = time.perf_counter()
        if now - start + (now - round_start) > budget:
            break
    if trace:
        for bench in benches:
            bench.trace()
    return report(benches, trace)


def report(benches: list[Bench], trace: bool) -> dict:
    """Print every metric by name and unit; return the result object."""
    for line in environment():
        print(f"# {line}")
    metrics = {}
    outcome = Outcome(0, 0, [])
    for bench in benches:
        name = bench.workload.name
        outcome += bench.outcome
        print(f"# {name}: python -m qchain.cli {' '.join(bench.workload.argv())}")
        done = bench.outcome
        print(
            f"{name} failed_share {done.failed / max(done.attempted, 1):.6f} share"
            f" ({done.failed} of {done.attempted} operations)"
        )
        for metric, samples in [*bench.samples.items(), ("host.calib_s", bench.calib)]:
            print(
                f"{name} {metric} {statistics.median(samples):.6f} {unit_of(metric)}"
                f" (median of {len(samples)}: {' '.join(f'{x:.3f}' for x in samples)})"
            )
        if trace:
            selected = {m: bench.layers[m] for m in layer_metric_names()}
            for metric, value in selected.items():
                if metric not in bench.samples and metric != "host.calib_s":  # printed above
                    print(f"{name} {metric} {value:.6g} {unit_of(metric)}")
        else:
            selected = bench.end_to_end()
        for metric, value in selected.items():
            key = f"{name}.{metric}" if len(benches) > 1 else metric
            metrics[key] = {"value": value, "unit": unit_of(metric)}
    for problem in outcome.problems:
        print(f"# problem: {problem}")
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not SOURCES.is_file():
        print(f"error: {SOURCES.relative_to(ROOT)} not found; run from a qchain checkout", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    # One core for everything this benchmark starts: the pairs share it.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    # On SIGTERM, unwind so that running children are killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    result = run(names, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of the tropmass verifier: one workload per run, one JSON result line.

Usage (from the root of a checkout)::

    python3 bench/run.py --workload charts --seed 1 --seconds 60 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` runs the workload once untraced, then again with span
recorders around every public ``tropmass`` function, and reports the
per-layer metrics.  The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it holds
the provenance and per-call details.  See README.md for the workloads and
the meaning of every metric.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

from spans import Tracer
from stats import geomean, kish_ess, median

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
LAYERS = ("cli", "sampler", "pencil", "lattice", "model", "measure", "basechange", "skeleton", "hybrid")
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60
THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class SetupError(RuntimeError):
    """The program under test cannot be imported or its inputs not built."""


def setup(name: str, seed: int):
    """Import tropmass from ``src/`` of this checkout and build the workload's inputs.

    This is what ``setup_s`` measures.
    """
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import tropmass
        import workloads
    except ImportError as e:
        raise SetupError(f"cannot import the program from {src}: {e}") from None
    if Path(tropmass.__file__).resolve().parent.parent != src.resolve():
        raise SetupError(f"tropmass was imported from {tropmass.__file__}, not from {src}")
    return workloads, workloads.build(name, seed, ROOT)


def probe_setup(name: str, seed: int) -> float:
    """Time `setup` in a fresh interpreter, so nothing is imported yet."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", name, "--seed", str(seed)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=PROBE_TIMEOUT_S, check=False)
    if out.returncode != 0:
        raise SetupError(f"set-up probe failed: {out.stderr.strip()[-500:]}")
    return float(out.stdout.strip().splitlines()[-1])


def git_commit() -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(seed: int) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "git_commit": git_commit(),
        "seed": seed,
    }


class Runner:
    """Runs a workload's operations, timing each call and checking its output."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failures: list[str] = []
        self.estimates: dict[str, list] = {}
        self.figures: dict[str, dict[str, float]] = {}
        self.times: dict[str, list[float]] = {}
        self.round_totals: list[float] = []
        self.first_round_rss_mb: float | None = None

    def call(self, op):
        """Call once; an operation that raises counts as attempted and failed."""
        self.attempted += 1
        try:
            return op.call()
        except Exception:
            self.failures.append(f"{op.name}: {traceback.format_exc(limit=3)}")
            return None

    def run_op(self, op) -> None:
        t0 = time.perf_counter()
        result = self.call(op)
        seconds = time.perf_counter() - t0
        if result is None:
            return
        reason = op.gate(result)
        if reason is not None:
            self.failures.append(f"{op.name}: {reason}")
        self.times.setdefault(op.name, []).append(seconds)
        if op.name not in self.estimates:  # outputs repeat: same inputs, same seed
            self.estimates[op.name] = op.estimates(result)
            if op.layer is not None:
                self.figures[op.name] = op.layer(result)

    def warm_up(self) -> None:
        """Small calls through the same code paths; too small to gate statistically."""
        for op in self.workload.warm_ops():
            self.call(op)

    def rounds(self, budget_s: float, min_rounds: int = 1) -> list[float]:
        """Repeat the workload's operations until the next round would pass the budget."""
        start = time.perf_counter()
        totals: list[float] = []
        while True:
            t0 = time.perf_counter()
            for op in self.workload.ops(len(self.round_totals) + len(totals) + 1):
                self.run_op(op)
            totals.append(time.perf_counter() - t0)
            if self.first_round_rss_mb is None:
                self.first_round_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if len(totals) >= min_rounds and time.perf_counter() - start + totals[-1] > budget_s:
                break
        self.round_totals.extend(totals)
        return totals

    def fastest_times(self) -> dict[str, float]:
        """Each call's fastest repeat (see README.md for why not the median)."""
        return {name: min(ts) for name, ts in self.times.items()}

    def layer_figures(self) -> dict[str, float]:
        """Figures of the outputs; each ``*.ess`` also per second of its call's fastest time."""
        times = self.fastest_times()
        out: dict[str, float] = {}
        for op_name, figures in self.figures.items():
            for key, value in figures.items():
                out[key] = value
                if key.endswith(".ess"):
                    out[key + "_per_s"] = value / times[op_name]
        return out


def annotators(workloads) -> dict:
    """Counts recorded at the span boundaries, keyed by span name."""

    def sample_pencil(args, kwargs, res):
        threads = kwargs.get("threads", 1)
        n = res.n_samples
        return {
            "tag": res.preset.split("_")[0] + (f"-x{threads}" if threads > 1 else ""),
            "samples": n,
            "ess": geomean(kish_ess(*e) for e in workloads.estimates_of(res)),
            "root_failures": res.n_failures,
            "kept": sum(p.n_points for p in res.patches),
            "proposals": 3 * n,
        }

    return {
        "sampler.sample_fiber_measure": lambda args, kwargs, res: {"samples": res.n_samples},
        "sampler.ks_statistic": lambda args, kwargs, res: {"points": len(args[0] if args else kwargs["values"])},
        "pencil.sample_pencil": sample_pencil,
    }


def span_figures(tracer: Tracer, rounds: int) -> dict[str, float]:
    """Per-round figures of every span: calls, busy and self time, counts, rates."""
    values: dict[str, float] = {}
    for name, st in tracer.stats.items():
        values[f"{name}.calls"] = st.calls / rounds
        values[f"{name}.busy_s"] = st.busy_s / rounds
        values[f"{name}.self_s"] = st.self_s / rounds
        for key, v in st.counts.items():
            values[f"{name}.{key}"] = v / rounds
        if name.startswith("pencil.sample_pencil.") and st.busy_s > 0:
            values[f"{name}.samples_per_s"] = st.counts["samples"] / st.busy_s
            values[f"{name}.ess_per_s"] = st.counts["ess"] / st.busy_s
        if name.startswith("cli.suite_"):
            values[f"cli.suite.{name[10:].replace('_', '-')}.busy_s"] = st.busy_s / rounds
    pen = tracer.stats.get("pencil.sample_pencil")
    if pen is not None:
        values["pencil.sample_pencil.kept_ratio"] = pen.counts["kept"] / pen.counts["proposals"]
    return values


def measure_end_to_end(args, workloads, workload, runner: Runner, start: float) -> dict[str, dict]:
    setup_times = [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    runner.rounds(args.seconds - (time.perf_counter() - start), workload.min_rounds)
    times = runner.fastest_times()
    return {
        "setup_s": {"value": median(setup_times), "unit": "s"},
        "wall_s": {"value": math.fsum(times.values()), "unit": "s"},
        "ess_per_s": {"value": workloads.ess_per_s(workload, runner.estimates, times), "unit": "1/s"},
        "peak_rss_mb": {"value": runner.first_round_rss_mb, "unit": "MB"},
    }


def measure_per_layer(args, workloads, workload, runner: Runner, start: float, spec: list[dict]) -> dict[str, dict]:
    runner.rounds(0.0)  # one untraced round
    untraced_total = runner.round_totals[-1]
    values: dict[str, float] = {}
    if hasattr(workload, "untraced_layer"):
        values.update(workload.untraced_layer(runner.fastest_times()))
    runner.times.clear()

    tracer = Tracer(annotators(workloads))
    tracer.install([importlib.import_module(f"tropmass.{m}") for m in LAYERS], "tropmass")
    try:
        traced = runner.rounds(args.seconds - (time.perf_counter() - start))
    finally:
        tracer.uninstall()
    values.update(span_figures(tracer, len(traced)))
    values.update(runner.layer_figures())
    values["trace.overhead_s"] = median(traced) - untraced_total
    return {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]} for m in spec}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    t0 = time.perf_counter()
    try:
        workloads, workload = setup(args.workload, args.seed)
    except (SetupError, ValueError) as e:
        print(f"bench: {e}", file=sys.stderr)
        return 2
    setup_s = time.perf_counter() - t0
    try:
        if args.setup_probe:
            print(repr(setup_s))
            return 0
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        runner = Runner(workload)
        start = time.perf_counter()
        runner.warm_up()
        try:
            if args.trace:
                metrics = measure_per_layer(args, workloads, workload, runner, start, spec["per_layer"])
            else:
                metrics = measure_end_to_end(args, workloads, workload, runner, start)
        except (SetupError, subprocess.TimeoutExpired) as e:
            print(f"bench: {e}", file=sys.stderr)
            return 2
    finally:
        workload.close()

    n_per_call = {op.name: op.n for op in workload.ops(1)}
    details = {
        "workload": args.workload,
        "trace": args.trace,
        "provenance": provenance(args.seed),
        "rounds": len(runner.round_totals),
        "ops": [
            {"name": name, "n": n_per_call.get(name), "calls": len(runner.times[name]), "fastest_s": t}
            for name, t in runner.fastest_times().items()
        ],
        "figures": runner.layer_figures(),
        "failures": runner.failures[:20],
    }
    print(json.dumps(details, sort_keys=True))
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

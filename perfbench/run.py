"""The platform benchmark: end-to-end metrics per workload, and a traced
per-layer split.

Usage (from the repository root)::

    python3 perfbench/run.py --workload plate-sweep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py                         # every workload, one table
    python3 perfbench/run.py --smoke --seconds 1     # tiny sizes, seconds

``--trace 0`` reports the end-to-end metrics (``setup_s``, ``run_s``,
``virtual_makespan_s``, ``peak_rss_mb``) from untraced runs.  ``--trace 1``
alternates untraced and traced runs and reports the per-layer metrics;
the traced run's spans go to ``perfbench/out/`` as Chrome Trace Event
JSON.  Every run's output is checked against a sequential reference and
its virtual results against the invocation's first run; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is non-zero when any check
failed.  See ``perfbench/README.md`` for the metric table.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform as host
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Seed used when ``--seed`` is not given; ``HELD_OUT_SEED`` is kept for
#: checking a claimed gain on inputs it was not developed on.
DEFAULT_SEED = 1
HELD_OUT_SEED = 2

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "virtual_makespan_s": "sim_s",
    "peak_rss_mb": "MB",
}


def _require_source() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC / 'repro'}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))


# --------------------------------------------------------------------- #
# Host measurements
# --------------------------------------------------------------------- #


def _status_kb(field: str, pid: str = "self") -> int:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith(field):
                return int(line.split()[1])
    raise RuntimeError(f"{field} missing from /proc/{pid}/status")


def _reset_peak_rss() -> None:
    # Writing 5 to clear_refs resets VmHWM to the current RSS (Linux >= 4.0).
    with open("/proc/self/clear_refs", "w") as fh:
        fh.write("5")


class WorkerPeakProbe:
    """Peak RSS of process-backend workers, reported over a pipe at exit.

    Wraps the rank program handed to ``SimCluster.run`` so that a forked
    worker writes its ``VmHWM`` when its rank returns; in-thread ranks
    (same pid) write nothing.
    """

    def __init__(self) -> None:
        from repro.mpi.runtime import SimCluster

        self._cls = SimCluster
        self._original = SimCluster.__dict__["run"]
        self._read, self._write = os.pipe()
        os.set_blocking(self._read, False)
        pid, write_fd, original = os.getpid(), self._write, self._original

        def run(cluster: Any, fn: Any, *args: Any, **kwargs: Any) -> Any:
            def rank_fn(*rank_args: Any) -> Any:
                try:
                    return fn(*rank_args)
                finally:
                    if os.getpid() != pid:
                        os.write(write_fd, f"{_status_kb('VmHWM:')}\n".encode())

            return original(cluster, rank_fn, *args, **kwargs)

        SimCluster.run = run

    def drain_kb(self) -> list[int]:
        chunks = []
        while True:
            try:
                chunk = os.read(self._read, 65536)
            except BlockingIOError:
                break
            if not chunk:
                break
            chunks.append(chunk)
        return [int(line) for line in b"".join(chunks).split()]

    def close(self) -> None:
        self._cls.run = self._original
        os.close(self._read)
        os.close(self._write)


def provenance(seed: int, smoke: bool) -> dict[str, Any]:
    import numpy

    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True,
                text=True,
                timeout=10,
            )
            commit = out.stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "cpus": len(os.sched_getaffinity(0)),
        "python": host.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "seed": seed,
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "smoke": smoke,
    }


# --------------------------------------------------------------------- #
# Checks
# --------------------------------------------------------------------- #


def signature(result: Any) -> tuple:
    """The virtual outcome that must repeat bit for bit across runs."""
    return (
        result.elapsed,
        result.iterations,
        result.quiesced_at,
        result.messages_delivered,
        result.barriers,
        result.inner_sweeps,
        len(result.migrations),
        result.sparse_geom_hits,
        result.sparse_geom_misses,
        tuple(p.total() for p in result.phases),
        result.versions,
    )


def hygiene(shm_before: set[str]) -> list[str]:
    """Process-backend leftovers: shared segments, /dev/shm files, workers."""
    import multiprocessing

    from repro.mpi.shm import leaked_segments

    problems = []
    leaks = leaked_segments()
    if leaks:
        problems.append(f"leaked shared segments: {leaks}")
    try:
        stray = sorted(set(os.listdir("/dev/shm")) - shm_before - set(leaks))
    except OSError:
        stray = []
    if stray:
        problems.append(f"/dev/shm leftovers: {stray}")
    alive = multiprocessing.active_children()
    if alive:
        problems.append(f"live workers after the run: {[p.name for p in alive]}")
    return problems


# --------------------------------------------------------------------- #
# Measurement
# --------------------------------------------------------------------- #


class Bench:
    """Runs one workload for a time budget and keeps every sample's outcome."""

    def __init__(self, name: str, seed: int, smoke: bool, out_dir: Path) -> None:
        from workloads import WORKLOADS

        self.workload = WORKLOADS[name](seed, smoke)
        self.seed = seed
        self.out_dir = out_dir
        try:
            self.shm_before = set(os.listdir("/dev/shm"))
        except OSError:
            self.shm_before = set()
        t0 = time.perf_counter()
        self.reference = self.workload.reference()
        self.reference_s = time.perf_counter() - t0
        self.probe = WorkerPeakProbe()
        self.first: tuple | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.untraced: list[dict[str, float]] = []
        self.setups: list[float] = []
        self.traced: list[dict[str, float]] = []
        self.traced_counts: list[tuple[int, ...]] = []
        self.tracer: Any = None

    def close(self) -> None:
        self.probe.close()

    def _verify(self, sample: Any, extra: list[str]) -> None:
        problems = list(extra) + self.workload.check(self.reference, sample.result)
        sig = signature(sample.result)
        if self.first is None:
            self.first = sig
        elif sig != self.first:
            problems.append("virtual results differ from the first run of this invocation")
        if self.workload.scheduler == "process":
            problems += hygiene(self.shm_before)
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"run {self.attempted}: {p}" for p in problems]

    def untraced_sample(self) -> None:
        gc.collect()
        self.probe.drain_kb()
        _reset_peak_rss()
        sample = self.workload.sample(setups=self.workload.setups)
        rss_kb = _status_kb("VmHWM:") + sum(self.probe.drain_kb())
        result = sample.result
        self.setups += sample.setup_s
        self.untraced.append(
            {
                "run_s": sample.run_s,
                "virtual_makespan_s": result.elapsed,
                "peak_rss_mb": rss_kb / 1024.0,
            }
        )
        self._verify(sample, [])

    def traced_sample(self) -> None:
        from spans import Tracer, install_layers, wrap_kernels

        gc.collect()
        tracer = Tracer(self.workload.name, len(self.traced), self.out_dir / "workers")
        install_layers(tracer)
        try:
            sample = self.workload.sample(
                wrap_kernel=lambda fns: wrap_kernels(tracer, fns), timed=tracer.timed
            )
        finally:
            tracer.unpatch()
        merged = tracer.merge_workers()
        extra = []
        if self.workload.scheduler == "process" and merged != self.workload.nparts:
            extra.append(f"merged {merged} worker span buffers, expected {self.workload.nparts}")
        counts = tuple(tracer.counts()[name] for name in _EXACT_COUNTS)
        if self.traced_counts and counts != self.traced_counts[0]:
            extra.append("counts differ between traced runs")
        self.traced_counts.append(counts)
        self.traced.append(layer_metrics(tracer, sample))
        self.tracer = tracer
        self._verify(sample, extra)

    def measure(self, seconds: float, trace: bool) -> None:
        start = time.perf_counter()
        samplers = (self.untraced_sample, self.traced_sample) if trace else (self.untraced_sample,)
        while True:
            t0 = time.perf_counter()
            for sampler in samplers:
                try:
                    sampler()
                except Exception as exc:  # a run that raises counts as failed
                    self.attempted += 1
                    self.failed += 1
                    self.problems.append(
                        f"run {self.attempted}: raised {type(exc).__name__}: {exc}"
                    )
            last = time.perf_counter() - t0
            if time.perf_counter() - start + last > seconds:
                break

    def end_to_end(self) -> dict[str, float]:
        values = {
            key: statistics.median(s[key] for s in self.untraced)
            for key in END_TO_END_UNITS
            if key != "setup_s"
        }
        values["setup_s"] = statistics.median(self.setups)
        return values


# --------------------------------------------------------------------- #
# Per-layer metrics (traced run)
# --------------------------------------------------------------------- #

#: Per-layer metric -> unit.  Counts repeat exactly; ``_s`` values are
#: wall self time summed over ranks; ``virt.*`` are simulated seconds.
LAYER_UNITS = {
    "graphs.build_s": "s",
    "partitioning.partition_s": "s",
    "partitioning.edge_cut": "count",
    "store.build_s": "s",
    "store.bulk_view_s": "s",
    "store.bulk_view_calls": "count",
    "store.scatter_s": "s",
    "store.commit_s": "s",
    "store.geom_hits": "count",
    "store.geom_misses": "count",
    "store.geom_hit_ratio": "ratio",
    "compute.sweep_self_s": "s",
    "compute.sweeps": "count",
    "compute.node_updates": "count",
    "compute.inner_sweeps": "count",
    "compute.versions": "count",
    "compute.useful_ratio": "ratio",
    "kernel.s": "s",
    "kernel.calls": "count",
    "platform.self_s": "s",
    "lb.balance_s": "s",
    "lb.migrations": "count",
    "mpi.messages": "count",
    "mpi.barriers": "count",
    "mpi.send_s": "s",
    "mpi.recv_s": "s",
    "mpi.probe_s": "s",
    "mpi.barrier_s": "s",
    "mpi.allreduce_s": "s",
    "sched.wait_s": "s",
    "sched.waits": "count",
    "ipc.pipe_requests": "count",
    "ipc.collective_s": "s",
    "ipc.ring_put_s": "s",
    "ipc.ring_puts": "count",
    "ipc.ring_full": "count",
    "virt.initialization_s": "sim_s",
    "virt.compute_s": "sim_s",
    "virt.computation_overhead_s": "sim_s",
    "virt.communication_overhead_s": "sim_s",
    "virt.communicate_s": "sim_s",
    "virt.load_balancing_s": "sim_s",
    "virt.rank_skew": "ratio",
    "trace.overhead": "ratio",
    "trace.run_s": "s",
    "trace.attributed_s": "s",
    "trace.unattributed_s": "s",
}


#: Wall self time of each ``_s`` layer metric: the span names it sums.
_SELF_TIME = {
    "graphs.build_s": ("graphs.build",),
    "partitioning.partition_s": ("partitioning.partition",),
    "store.build_s": ("store.build",),
    "store.bulk_view_s": ("store.bulk_view",),
    "store.scatter_s": ("store.scatter",),
    "store.commit_s": ("store.commit",),
    "compute.sweep_self_s": ("compute.sweep",),
    "kernel.s": ("kernel",),
    "platform.self_s": ("platform.run", "platform.rank"),
    "lb.balance_s": ("lb.balance",),
    "mpi.send_s": ("mpi.send",),
    "mpi.recv_s": ("mpi.recv",),
    "mpi.probe_s": ("mpi.probe",),
    "mpi.barrier_s": ("mpi.barrier",),
    "mpi.allreduce_s": ("mpi.allreduce",),
    "sched.wait_s": ("sched.wait",),
    "ipc.collective_s": ("ipc.collective",),
    "ipc.ring_put_s": ("ipc.ring_put",),
}

#: Tracer counts that repeat exactly run over run (ring backpressure and
#: pipe fallbacks depend on worker timing, so they are reported only).
_EXACT_COUNTS = (
    "kernel.calls",
    "compute.node_updates",
    "compute.sweeps",
    "store.bulk_view_calls",
    "sched.waits",
    "ipc.ring_puts",
)


def layer_metrics(tracer: Any, sample: Any) -> dict[str, float]:
    from spans import SETUP_SPANS, WAIT_SPANS

    self_time = tracer.self_times()
    counts = tracer.counts()
    result = sample.result
    phases = result.phases
    versions = sum(result.versions.values())
    updates = counts["compute.node_updates"]
    hits, misses = result.sparse_geom_hits, result.sparse_geom_misses
    busy = [p.compute + p.computation_overhead + p.communication_overhead for p in phases]
    attributed = sum(
        t for name, t in self_time.items() if name not in WAIT_SPANS + SETUP_SPANS
    )
    # Rank-seconds the run offered: one rank thread runs at a time on the
    # in-thread backends; every worker runs at once on the process backend.
    concurrency = len(phases) if sample.scheduler == "process" else 1
    metrics: dict[str, float] = {
        key: sum(self_time[name] for name in names) for key, names in _SELF_TIME.items()
    }
    metrics.update(
        {
            "partitioning.edge_cut": sample.edge_cut,
            "store.bulk_view_calls": counts["store.bulk_view_calls"],
            "store.geom_hits": hits,
            "store.geom_misses": misses,
            "store.geom_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "compute.sweeps": counts["compute.sweeps"],
            "compute.node_updates": updates,
            "compute.inner_sweeps": result.inner_sweeps,
            "compute.versions": versions,
            "compute.useful_ratio": versions / updates if updates else 0.0,
            "kernel.calls": counts["kernel.calls"],
            "lb.migrations": len(result.migrations),
            "mpi.messages": result.messages_delivered,
            "mpi.barriers": result.barriers,
            "sched.waits": counts["sched.waits"],
            "ipc.pipe_requests": counts["ipc.pipe_requests"],
            "ipc.ring_puts": counts["ipc.ring_puts"],
            "ipc.ring_full": counts["ipc.ring_full"],
            "virt.rank_skew": max(busy) / statistics.fmean(busy) if sum(busy) else 0.0,
            "trace.run_s": sample.run_s,
            "trace.attributed_s": attributed,
            "trace.unattributed_s": sample.run_s * concurrency - attributed,
        }
    )
    for phase in (
        "initialization",
        "compute",
        "computation_overhead",
        "communication_overhead",
        "communicate",
        "load_balancing",
    ):
        metrics[f"virt.{phase}_s"] = statistics.fmean(getattr(p, phase) for p in phases)
    return metrics


def per_layer(bench: Bench) -> dict[str, float]:
    """Medians over the traced runs (a count takes the lower median, an
    observed value; the exact ones repeat in every run anyway)."""
    out = {}
    for key, unit in LAYER_UNITS.items():
        if key == "trace.overhead":
            continue
        median = statistics.median_low if unit == "count" else statistics.median
        out[key] = median(s[key] for s in bench.traced)
    out["trace.overhead"] = out["trace.run_s"] / statistics.median(
        s["run_s"] for s in bench.untraced
    )
    return out


def write_trace_files(bench: Bench, layers: dict[str, float], stamp: dict[str, Any]) -> Path:
    bench.out_dir.mkdir(parents=True, exist_ok=True)
    base = bench.out_dir / f"{bench.workload.name}-seed{bench.seed}"
    trace_path = base.with_name(base.name + ".trace.json")
    trace_path.write_text(json.dumps(bench.tracer.chrome_trace()))
    summary = {
        "provenance": stamp,
        "traced_runs": len(bench.traced),
        "untraced_runs": len(bench.untraced),
        "layers": layers,
        "self_time_by_span": dict(bench.tracer.self_times()),
    }
    base.with_name(base.name + ".layers.json").write_text(json.dumps(summary, indent=2))
    return trace_path


# --------------------------------------------------------------------- #
# Entry point
# --------------------------------------------------------------------- #


def run_workload(name: str, args: argparse.Namespace, stamp: dict[str, Any]) -> dict[str, Any]:
    bench = Bench(name, args.seed, args.smoke, args.out)
    try:
        bench.measure(args.seconds, bool(args.trace))
    finally:
        bench.close()
    stamp = dict(stamp, workload=name, workload_meta=bench.workload.meta)
    if not bench.untraced or (args.trace and not bench.traced):
        for problem in bench.problems:
            print(f"# FAILED {name} {problem}")
        return {
            "correct": False,
            "attempted": bench.attempted,
            "failed": bench.failed,
            "metrics": {},
        }
    if args.trace:
        values = per_layer(bench)
        units = LAYER_UNITS
        trace_path = write_trace_files(bench, values, stamp)
        print(f"# chrome trace: {trace_path}")
    else:
        values = bench.end_to_end()
        units = END_TO_END_UNITS
    samples = {
        "untraced": len(bench.untraced),
        "traced": len(bench.traced),
        "setups": len(bench.setups),
    }
    stamp["samples"] = samples
    print(f"# provenance: {json.dumps(stamp, sort_keys=True)}")
    print(
        f"# {name}: reference {bench.reference_s:.2f} s outside the timed region;"
        f" fail_frac {bench.failed}/{bench.attempted}"
    )
    for key, unit in units.items():
        n = samples["traced" if args.trace else "setups" if key == "setup_s" else "untraced"]
        print(f"{name:<15} {key:<34} {values[key]:>16.6f} {unit:<6} (median of n={n})")
    for problem in bench.problems:
        print(f"# FAILED {name} {problem}")
    return {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {key: {"value": values[key], "unit": unit} for key, unit in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--seconds",
        type=float,
        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"],
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes for the self-test")
    parser.add_argument("--out", type=Path, default=HERE / "out")
    args = parser.parse_args(argv)
    _require_source()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    names = [args.workload] if args.workload else list(WORKLOADS)
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from {sorted(WORKLOADS)}")
    stamp = provenance(args.seed, args.smoke)
    reports = {name: run_workload(name, args, stamp) for name in names}
    if args.workload:
        final = reports[args.workload]
    else:
        final = {
            "correct": all(r["correct"] for r in reports.values()),
            "attempted": sum(r["attempted"] for r in reports.values()),
            "failed": sum(r["failed"] for r in reports.values()),
            "metrics": {
                f"{name}:{key}": metric
                for name, report in reports.items()
                for key, metric in report["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


def _stop_resource_tracker() -> None:
    """Stop and reap the resource tracker the process backend starts, so no
    process outlives the benchmark."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


if __name__ == "__main__":
    try:
        code = main()
    finally:
        _stop_resource_tracker()
    sys.exit(code)

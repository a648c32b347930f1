"""Layer-boundary tracing for the benchmark's traced run.

Nothing here touches ``src/``: :class:`Tracer` wraps public callables of
each layer (module globals and class attributes) for the duration of one
traced platform run and restores them afterwards.  Every wrapped call
records a span -- name, layer, start, end, parent, and the
``(workload, run, rank, superstep)`` id -- plus counts at the same
boundary.  Self time (duration minus the time child spans cover) is
summed per span name as the spans close, so the per-layer split needs no
post-processing.

Threads (the event scheduler's rank threads) keep their own span stack.
Process-backend workers inherit the wrappers at fork; each worker writes
its spans and totals to a JSON file when its rank function returns, and
the parent merges them after the run.  Wall time never feeds the
simulated clocks, so a traced run's virtual results equal the untraced
run's bit for bit.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable

#: Spans that are time spent waiting for other ranks (a rank parked while
#: another holds the baton; the driving thread while the ranks run).  They
#: are reported but never counted as attributed work.
WAIT_SPANS = ("sched.wait", "driver.wait")

#: Spans outside ``ICPlatform.run`` (the setup the benchmark times).
SETUP_SPANS = ("graphs.build", "partitioning.partition")

_clock = time.perf_counter


class _ThreadState:
    """One thread's (or one worker process's) span stack and totals."""

    __slots__ = ("rank", "superstep", "stack", "spans", "self_time", "counts", "ids")

    def __init__(self, rank: int, id_base: int) -> None:
        self.rank = rank
        self.superstep = 0
        # Open frames: [span_id, parent_id, layer, name, start, child_time].
        self.stack: list[list[Any]] = []
        # Closed spans: (id, parent, layer, name, start, end, rank, superstep).
        self.spans: list[tuple] = []
        self.self_time: Counter = Counter()
        self.counts: Counter = Counter()
        self.ids = iter(range(id_base + 1, id_base + 10**9))

    def open(self, layer: str, name: str, parent: int | None = None) -> list[Any]:
        if parent is None and self.stack:
            parent = self.stack[-1][0]
        frame = [next(self.ids), parent, layer, name, _clock(), 0.0]
        self.stack.append(frame)
        return frame

    def close(self, frame: list[Any], keep: bool = True) -> None:
        end = _clock()
        self.stack.pop()
        span_id, parent, layer, name, start, child = frame
        duration = end - start
        self.self_time[name] += duration - child
        if self.stack:
            self.stack[-1][5] += duration
        if keep:
            self.spans.append(
                (span_id, parent, layer, name, start, end, self.rank, self.superstep)
            )

    def to_dict(self) -> dict[str, Any]:
        return {
            "spans": self.spans,
            "self_time": dict(self.self_time),
            "counts": dict(self.counts),
        }


class Tracer:
    """Records spans around the calls the benchmark makes into each layer.

    Args:
        workload: Workload name stamped on every span id.
        run: Index of the traced run within the invocation.
        dump_dir: Directory where process-backend workers write their
            span buffers (created on demand, emptied by :meth:`merge`).
    """

    def __init__(self, workload: str, run: int, dump_dir: Path) -> None:
        self.workload = workload
        self.run = run
        self.dump_dir = dump_dir
        self.pid = os.getpid()
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------ #
    # Thread state
    # ------------------------------------------------------------------ #

    def _new_state(self, rank: int) -> _ThreadState:
        # Ids stay unique across threads and worker processes: each state
        # draws from its own block of a billion.
        with self._lock:
            state = _ThreadState(rank, (len(self._states) + 1 + 1000 * (rank + 1)) * 10**9)
            self._states.append(state)
        self._local.state = state
        return state

    def state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            return self._new_state(-1)

    # ------------------------------------------------------------------ #
    # Wrappers
    # ------------------------------------------------------------------ #

    def span(
        self,
        func: Callable[..., Any],
        layer: str,
        name: str,
        *,
        keep: bool = True,
        reentrant: bool = True,
        count: str | None = None,
        before: Callable[..., None] | None = None,
        after: Callable[..., None] | None = None,
    ) -> Callable[..., Any]:
        """Wrap ``func`` so each call records one span of ``layer``.

        Args:
            keep: Store the span record (``False`` only folds its time into
                the per-layer totals -- for per-node calls too numerous
                to keep).
            reentrant: Open a span even when the innermost open span is of
                the same layer (``False`` attributes a nested call, e.g. a
                barrier inside an allreduce, to the outer operation).
            count: Count name bumped once per call.
            before / after: Hooks ``before(state, args)`` and
                ``after(state, args, result)`` that update counts or the
                superstep at the boundary.
        """
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            state = tracer.state()
            if not reentrant and state.stack and state.stack[-1][2] == layer:
                return func(*args, **kwargs)
            if before is not None:
                before(state, args)
            if count is not None:
                state.counts[count] += 1
            frame = state.open(layer, name)
            try:
                result = func(*args, **kwargs)
            finally:
                state.close(frame, keep)
            if after is not None:
                after(state, args, result)
            return result

        traced.__wrapped__ = func
        return traced

    def timed(self, name: str, fn: Callable[[], Any]) -> Any:
        """Call ``fn`` inside a span ``name`` of the layer its prefix names."""
        return self.span(fn, name.split(".")[0], name)()

    def patch(self, owner: Any, attr: str, wrapper: Callable[[Any], Any]) -> None:
        """Replace ``owner.attr`` with ``wrapper(original)`` until :meth:`unpatch`."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper(original))

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    # Rank runners (threads and worker processes)
    # ------------------------------------------------------------------ #

    def wrap_rank_fn(self, fn: Callable[..., Any], parent: int | None) -> Callable[..., Any]:
        """Wrap the per-rank program handed to ``SimCluster.run``.

        Each rank gets a fresh state and a root-level ``platform.rank``
        span whose parent is the caller's ``driver.wait`` span.  In a
        forked worker the state inherited from the parent is discarded
        and the worker's own buffer is dumped when the rank returns.
        """
        tracer = self

        def rank_fn(comm: Any, *args: Any) -> Any:
            if os.getpid() != tracer.pid:
                with tracer._lock:
                    tracer._states = []
            state = tracer._new_state(comm.rank)
            frame = state.open("platform", "platform.rank", parent=parent)
            try:
                return fn(comm, *args)
            finally:
                state.close(frame)
                if os.getpid() != tracer.pid:
                    tracer._dump_worker(state)

        return rank_fn

    def _dump_worker(self, state: _ThreadState) -> None:
        self.dump_dir.mkdir(parents=True, exist_ok=True)
        path = self.dump_dir / f"worker-{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(state.to_dict()))
        tmp.rename(path)

    def merge_workers(self) -> int:
        """Fold every worker dump into this tracer; return how many merged."""
        if not self.dump_dir.is_dir():
            return 0
        merged = 0
        for path in sorted(self.dump_dir.glob("worker-*.json")):
            data = json.loads(path.read_text())
            path.unlink()
            state = _ThreadState(-1, 0)
            state.spans = [tuple(s) for s in data["spans"]]
            state.self_time.update(data["self_time"])
            state.counts.update(data["counts"])
            with self._lock:
                self._states.append(state)
            merged += 1
        for leftover in self.dump_dir.glob("*.tmp"):
            leftover.unlink()
        return merged

    # ------------------------------------------------------------------ #
    # Results
    # ------------------------------------------------------------------ #

    def spans(self) -> list[tuple]:
        return [span for state in self._states for span in state.spans]

    def self_times(self) -> Counter:
        total: Counter = Counter()
        for state in self._states:
            total.update(state.self_time)
        return total

    def counts(self) -> Counter:
        total: Counter = Counter()
        for state in self._states:
            total.update(state.counts)
        return total

    def chrome_trace(self) -> dict[str, Any]:
        """The spans as Chrome Trace Event JSON (complete ``X`` events).

        ``pid`` is the simulated rank (``-1`` for the driving thread),
        timestamps are microseconds from the first span.
        """
        spans = self.spans()
        origin = min((s[4] for s in spans), default=0.0)
        events = []
        for span_id, parent, layer, name, start, end, rank, superstep in spans:
            events.append(
                {
                    "name": name,
                    "cat": layer,
                    "ph": "X",
                    "ts": round((start - origin) * 1e6, 3),
                    "dur": round((end - start) * 1e6, 3),
                    "pid": rank,
                    "tid": rank,
                    "args": {
                        "id": span_id,
                        "parent": parent,
                        "workload": self.workload,
                        "run": self.run,
                        "rank": rank,
                        "superstep": superstep,
                    },
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}


def orphan_spans(spans: list[tuple]) -> list[tuple]:
    """Spans whose parent id names no recorded span (roots have ``None``)."""
    ids = {span[0] for span in spans}
    return [span for span in spans if span[1] is not None and span[1] not in ids]


# --------------------------------------------------------------------- #
# The layer map: which public callables the traced run wraps
# --------------------------------------------------------------------- #

_SWEEPS = (
    "sweep_basic",
    "sweep_basic_bulk",
    "sweep_basic_delta",
    "sweep_basic_delta_bulk",
    "sweep_overlapped",
    "sweep_overlapped_bulk",
    "sweep_overlapped_delta",
    "sweep_overlapped_delta_bulk",
    "sweep_hybrid",
    "sweep_hybrid_bulk",
)


def install_layers(tracer: Tracer) -> None:
    """Wrap one public boundary per layer; :meth:`Tracer.unpatch` undoes it."""
    from repro.core import platform as platform_mod
    from repro.core.nodestore import NodeStore
    from repro.core.platform import ICPlatform
    from repro.core.soastore import SoAStore
    from repro.mpi.communicator import Communicator
    from repro.mpi.message import RecvRequest
    from repro.mpi.runtime import SimCluster
    from repro.mpi.scheduler import EventScheduler
    from repro.mpi.shm import CollectiveBlock, ShadowRing

    span = tracer.span

    def set_superstep(state: _ThreadState, args: tuple) -> None:
        state.superstep = args[3].iteration

    # core.platform: the run (driving thread) and each rank's program.
    tracer.patch(ICPlatform, "run", lambda f: span(f, "platform", "platform.run"))

    def cluster_run(original: Callable[..., Any]) -> Callable[..., Any]:
        def run(cluster: Any, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
            state = tracer.state()
            frame = state.open("driver", "driver.wait")
            try:
                return original(cluster, tracer.wrap_rank_fn(fn, frame[0]), *args, **kwargs)
            finally:
                state.close(frame)
                state.counts["ipc.pipe_requests"] += cluster.pipe_requests

        return run

    tracer.patch(SimCluster, "run", cluster_run)

    # core.nodestore / core.soastore: construction and the bulk paths.
    for cls_name in ("NodeStore", "SoAStore"):
        tracer.patch(platform_mod, cls_name, lambda f: span(f, "store", "store.build"))
    tracer.patch(
        SoAStore,
        "bulk_view",
        lambda f: span(f, "store", "store.bulk_view", count="store.bulk_view_calls"),
    )
    tracer.patch(SoAStore, "scatter_pending", lambda f: span(f, "store", "store.scatter"))
    for cls in (NodeStore, SoAStore):
        tracer.patch(cls, "commit_owned", lambda f: span(f, "store", "store.commit"))

    # core.compute: every sweep pipeline the platform may select.
    for name in _SWEEPS:
        tracer.patch(
            platform_mod,
            name,
            lambda f: span(
                f, "compute", "compute.sweep", count="compute.sweeps", before=set_superstep
            ),
        )

    # core.loadbalance / core.migration.
    tracer.patch(platform_mod, "load_balance_phase", lambda f: span(f, "lb", "lb.balance"))

    # mpi.communicator: nested calls count toward the outer operation.
    for owner, attr, name in (
        (Communicator, "send", "mpi.send"),
        (Communicator, "isend", "mpi.send"),
        (Communicator, "recv", "mpi.recv"),
        (Communicator, "pending_sources", "mpi.probe"),
        (RecvRequest, "wait", "mpi.recv"),
        (Communicator, "barrier", "mpi.barrier"),
        (Communicator, "allreduce", "mpi.allreduce"),
    ):
        tracer.patch(owner, attr, lambda f, n=name: span(f, "mpi", n, reentrant=False))

    # mpi.scheduler: time a rank spends parked while others hold the baton.
    tracer.patch(
        EventScheduler, "wait", lambda f: span(f, "sched", "sched.wait", count="sched.waits")
    )

    # mpi.process / mpi.shm: collective rendezvous and halo rings.
    def ring_after(state: _ThreadState, args: tuple, result: Any) -> None:
        state.counts["ipc.ring_puts"] += 1
        if result is None:
            state.counts["ipc.ring_full"] += 1

    tracer.patch(CollectiveBlock, "exchange", lambda f: span(f, "ipc", "ipc.collective"))
    tracer.patch(ShadowRing, "try_put", lambda f: span(f, "ipc", "ipc.ring_put", after=ring_after))


def wrap_kernels(tracer: Tracer, fns: Any) -> Any:
    """Wrap the node function(s) handed to ``ICPlatform`` (and ``fn.bulk``)."""
    if not callable(fns):
        return tuple(wrap_kernels(tracer, fn) for fn in fns)

    def one_node(state: _ThreadState, args: tuple) -> None:
        state.counts["compute.node_updates"] += 1

    # Scalar calls come once per node: fold their time, keep no records.
    wrapped = tracer.span(
        fns, "kernel", "kernel", keep=False, count="kernel.calls", before=one_node
    )
    bulk = getattr(fns, "bulk", None)
    if bulk is not None:

        def nodes_in_view(state: _ThreadState, args: tuple) -> None:
            state.counts["compute.node_updates"] += len(args[0])

        wrapped_bulk = tracer.span(
            bulk, "kernel", "kernel", count="kernel.calls", before=nodes_in_view
        )
        wrapped_bulk.node_grain = bulk.node_grain
        wrapped.bulk = wrapped_bulk
    return wrapped

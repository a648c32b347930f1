"""The computation & communication phase (Figures 8 and 8a).

The platform invokes the user's *application node function* through a
pointer it maintains -- here, a plain callable.  For each owned node it
forms "a list with the current node's data as the head, followed by the
data of the neighbors" (:class:`NodeView`), calls the function, and stores
the returned value in ``most_recent_data``.  Updated peripheral data is
packed into per-destination communication buffers as the sweep proceeds, so
"by the time the computation routine returns, the communication buffers are
all set up".

One sweep engine, composed of three independent choices:

* **Frontier** -- which owned nodes a sweep recomputes.  *Dense* (no state:
  every node, every sweep -- the thesis's behaviour), *change-driven*
  (``--activation sparse``, :class:`DeltaState`: only nodes whose closed
  neighbourhood changed since their last evaluation; only changed
  peripheral values are packed; empty sends are elided and receivers
  discover the senders after a delivery-fence barrier), or *hybrid*
  (``--execution hybrid``, :class:`HybridState`: the same change-driven
  frontier split into a boundary part and an interior part).
* **Pipeline** -- Figure 8 (*basic*: internals, peripherals with packing,
  commit, then ``Isend`` everything and receive the shadows) or Figure 8a
  (*overlapped*: peripherals first, ``Isend``, internals computed while
  the transfers are in flight, then receive).  Hybrid execution has its own
  pipeline, GraphHP's two-phase superstep: a boundary phase like the
  change-driven sweep, then a local, message-free interior phase that runs
  between the ``Isend`` and the barrier.
* **Kernel** -- how values are computed and charged.  :class:`_ScalarKernel`
  calls the node function once per node (the reference);
  :class:`_BulkKernel` computes every node of a pass in one vectorized
  ``fn.bulk`` call over a struct-of-arrays store, then replays the scalar
  path's per-node charge sequence.

:func:`_sweep_bsp` drives the dense and change-driven frontiers through
either pipeline; :func:`_sweep_hybrid` drives the hybrid superstep.

**Charge-order contract.**  Every virtual-clock charge happens in the same
order, with the same amount, whatever the kernel or store, so clocks, phase
splits, per-node loads, traces and checkpoints are bit-identical across
them.  The receive side is part of that contract: the dense basic sweep
receives every shadow message, then enters the barrier (the appendix's
``MPI_Barrier`` in ``CommunicateShadows``), then unpacks; the dense
overlapped sweep posts its receives before computing the internals and
waits and unpacks one message at a time, with no barrier; the change-driven
basic sweep and the hybrid superstep fence delivery with the barrier, then
receive everything, then unpack; the change-driven overlapped sweep fences,
then receives and unpacks one message at a time.

**The ten sweep names.**  ``sweep_{basic,overlapped}{,_delta}{,_bulk}`` and
``sweep_hybrid{,_bulk}`` are one-line bindings of the two drivers.  They
remain because they are the public selection surface: the platform picks
one by name, callers such as tests pass them around, and tracing tools
wrap them individually.  All take ``(comm, store, node_fn, ctx, buffers)``
plus the frontier state for the change-driven and hybrid names.

The change-driven frontiers assume the node function is *pure per round*:
its return value depends only on the node's own and neighbours' values
(cost charges may vary freely).  A skipped node then provably recomputes to
its current value, so sparse results are value-identical to dense.  Hybrid
execution additionally requires the *algorithm* to be order-insensitive
(chaotic relaxation, e.g. Jacobi): interior nodes see newer-than-BSP
neighbour values, so the trajectory differs while the fixed point is
preserved.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Iterator

import numpy as np

from ..mpi.communicator import Communicator
from .buffers import CommBuffers
from .config import PlatformCosts
from .node import OwnNode
from .nodestore import NodeStore
from .soastore import SoAStore

__all__ = [
    "NodeView",
    "ComputeContext",
    "DeltaState",
    "HybridState",
    "NodeFn",
    "sweep_basic",
    "sweep_overlapped",
    "sweep_basic_delta",
    "sweep_overlapped_delta",
    "sweep_basic_bulk",
    "sweep_overlapped_bulk",
    "sweep_basic_delta_bulk",
    "sweep_overlapped_delta_bulk",
    "sweep_hybrid",
    "sweep_hybrid_bulk",
    "supports_bulk",
    "TAG_SHADOW",
    "TAG_SHADOW_DELTA",
]

#: Tag for shadow-exchange messages.
TAG_SHADOW = 1

#: Alternating tag pair for the delta shadow exchange.  The barrier between
#: sweeps bounds rank skew to one sweep, so two tags suffice to keep a fast
#: rank's next-sweep sends from matching a slow rank's current-sweep
#: ``pending_sources`` query.
TAG_SHADOW_DELTA = (5, 6)


@dataclass(frozen=True)
class NodeView:
    """The node+neighbours list handed to the application node function.

    Attributes:
        global_id: The node being computed.
        value: Its committed value (head of the list).
        neighbors: ``(neighbour_gid, committed value)`` pairs, in adjacency
            order.
        iteration: 1-based sweep number (the appendix's ``index``), which
            the dynamic-imbalance workload keys its grain schedule on.
        round: 0-based communication sub-round within the iteration
            (non-zero only for multi-round applications like the
            battlefield simulation).
    """

    global_id: int
    value: Any
    neighbors: tuple[tuple[int, Any], ...]
    iteration: int
    round: int = 0

    def neighbor_values(self) -> list[Any]:
        """Just the neighbour values, in adjacency order."""
        return [v for _, v in self.neighbors]


class ComputeContext:
    """Per-rank execution context passed to the node function.

    Carries the virtual-clock charging interface (:meth:`work` replaces the
    thesis's dummy grain loops) and the counters that let the platform split
    wall time into the *compute* vs *overhead* buckets of section 5.4.
    """

    def __init__(self, comm: Communicator, costs: PlatformCosts, num_nodes: int) -> None:
        self.comm = comm
        self.costs = costs
        self.num_nodes = num_nodes
        self.iteration = 0
        self.round = 0
        self.compute_time = 0.0
        self.comm_overhead_time = 0.0
        self.bookkeeping_time = 0.0
        #: Owned nodes whose committed value changed in the last sweep --
        #: the quiescence-termination count (set by every sweep variant).
        self.changed_last_sweep = 0
        #: Per-node compute seconds since the last reset -- measured node
        #: weights for load-aware repartitioning (window-scoped).
        self.node_compute: dict[int, float] = {}

    def reset_node_loads(self) -> None:
        """Start a new load-measurement window."""
        self.node_compute.clear()

    @property
    def rank(self) -> int:
        """This processor's rank."""
        return self.comm.rank

    @property
    def nprocs(self) -> int:
        """Number of processors."""
        return self.comm.size

    def work(self, seconds: float) -> None:
        """Charge application compute time (the node's grain).

        Accumulates the *charged* seconds -- a fault-injected slow window
        (:class:`~repro.mpi.faults.SlowWindow`) inflates them, so the load
        balancer sees the degraded rank as genuinely busier.
        """
        self.compute_time += self.comm.work(seconds)

    def _bookkeeping(self, seconds: float) -> None:
        """Charge platform bookkeeping (lands in computation overhead)."""
        self.bookkeeping_time += self.comm.work(seconds)

    def _comm_overhead(self, seconds: float) -> None:
        """Charge pack/unpack bookkeeping (lands in communication overhead)."""
        self.comm_overhead_time += self.comm.work(seconds)


NodeFn = Callable[[NodeView, ComputeContext], Any]


# --------------------------------------------------------------------- #
# Frontiers: change-driven (delta) and hybrid boundary/interior state
# --------------------------------------------------------------------- #


def _consume(frontiers: list[set[int] | None], round_idx: int) -> set[int] | None:
    """Take round ``round_idx``'s frontier (None = dense), leaving a fresh
    empty set to collect the changes the coming sweep produces."""
    active = frontiers[round_idx]
    frontiers[round_idx] = set()
    return active


def _capture(frontiers: list[set[int] | None]) -> list[list[int] | None]:
    return [sorted(d) if d is not None else None for d in frontiers]


def _restore(saved: list[list[int] | None]) -> list[set[int] | None]:
    return [set(d) if d is not None else None for d in saved]


class DeltaState:
    """Per-rank state of the change-driven execution mode.

    Holds one *dirty set* per communication round: the owned nodes whose
    own or neighbour value changed since the start of that round's last
    sweep.  ``None`` marks a round as *dense* -- every owned node computes
    (the first iteration, and after any ownership change: migration,
    repartition, shrink recovery, rollback to a version-less rebuild).

    Per-round sets (rather than a single frontier) keep multi-round
    applications like the battlefield simulation sound: round ``r``'s
    function may move a value even when round ``r-1``'s left it alone, so a
    node may only skip round ``r`` if nothing in its closed neighbourhood
    changed since its last *round-r* evaluation.

    ``parity`` indexes :data:`TAG_SHADOW_DELTA` and flips every sweep; it
    advances in lockstep on all ranks (sweeps are collective), so it is
    deliberately *not* checkpointed -- after a rollback the live value is
    still synchronized, while the dirty sets are restored from the
    checkpoint so the frontier does not resume empty.
    """

    #: Key of this state's payload in the platform's checkpoint extras.
    checkpoint_key = "delta"

    def __init__(self, rounds: int) -> None:
        self.rounds = rounds
        self.parity = 0
        self.reset_dense()

    def next_tag(self) -> int:
        """This sweep's exchange tag; flips the parity for the next one."""
        tag = TAG_SHADOW_DELTA[self.parity]
        self.parity ^= 1
        return tag

    def begin_sweep(self, round_idx: int) -> set[int] | None:
        """Consume round ``round_idx``'s active set (None = dense sweep)."""
        return _consume(self.dirty, round_idx)

    def _touch(self, store: NodeStore, gid: int) -> None:
        """Activate owned node ``gid`` in every round's frontier."""
        for dset in self.dirty:
            if dset is not None:
                dset.add(gid)

    def record_commit(self, store: NodeStore, changed: list[int], ctx: ComputeContext) -> None:
        """A committed owned value changed: it and its owned neighbours must
        recompute in every round."""
        cost = 0.0
        for gid in changed:
            self._touch(store, gid)
            neighbors = store.graph.neighbors(gid)
            for v in neighbors:
                if store.owns(v):
                    self._touch(store, v)
            cost += ctx.costs.list_item_cost * (1 + len(neighbors))
        if cost:
            ctx._bookkeeping(cost)

    def record_arrival(self, store: NodeStore, gid: int, ctx: ComputeContext) -> None:
        """A shadow value changed: its owned neighbours must recompute."""
        neighbors = store.graph.neighbors(gid)
        for v in neighbors:
            if store.owns(v):
                self._touch(store, v)
        ctx._bookkeeping(ctx.costs.list_item_cost * (1 + len(neighbors)))

    def reset_dense(self) -> None:
        """Fall back to dense sweeps for every round.

        Called after any event that changes ownership or rebuilds stores
        from bare values (migration, repartition, shrink recovery) -- a
        dense round is a safe superset of any frontier, and purity makes
        the extra evaluations value-neutral.
        """
        self.dirty: list[set[int] | None] = [None] * self.rounds

    def capture(self) -> dict[str, Any]:
        """Checkpoint payload: the dirty sets as deterministic lists."""
        return {"dirty": _capture(self.dirty)}

    def restore(self, state: dict[str, Any]) -> None:
        """Reinstate the frontier a checkpoint captured (rollback path)."""
        self.dirty = _restore(state["dirty"])


class HybridState(DeltaState):
    """Per-rank state of the hybrid (GraphHP-style) execution mode.

    The change-driven frontier *split by node class*: ``boundary[r]`` holds
    active peripheral nodes (computed once per superstep, in the globally
    synchronized boundary phase) and ``interior[r]`` holds active interior
    nodes (iterated locally to convergence inside the superstep).  ``None``
    marks a frontier dense.  Commits and arrivals are recorded exactly as
    in :class:`DeltaState`; only the routing differs -- a changed node
    activates its owned neighbours into whichever frontier their
    classification demands, so migration/repartition/shrink (which rebuild
    the classification) are handled by the same :meth:`reset_dense`
    fallback.  Every owned neighbour of a shadow is peripheral, so
    arrivals only ever grow the boundary frontier -- the invariant that
    lets the interior phase run before this superstep's messages are
    drained.

    ``parity`` flips once per *superstep* (not per inner sweep -- interior
    iteration is message-free, so the exchange tags stay lockstep across
    ranks with different inner-sweep counts) and is not checkpointed.  The
    cumulative ``inner_sweeps`` counter *is* checkpointed: it rides
    snapshots so a rollback replays to bit-identical telemetry.
    """

    checkpoint_key = "hybrid"

    def __init__(self, rounds: int, inner_cap: int) -> None:
        super().__init__(rounds)
        self.inner_cap = inner_cap
        #: Interior sweeps executed over the whole run (telemetry).
        self.inner_sweeps = 0

    def begin_sweep(self, round_idx: int) -> set[int] | None:
        """Consume round ``round_idx``'s boundary frontier (None = dense)."""
        return _consume(self.boundary, round_idx)

    def begin_interior(self, round_idx: int) -> set[int] | None:
        """Consume round ``round_idx``'s interior frontier (None = dense)."""
        return _consume(self.interior, round_idx)

    def _touch(self, store: NodeStore, gid: int) -> None:
        frontiers = self.boundary if gid in store.peripheral else self.interior
        for fset in frontiers:
            if fset is not None:
                fset.add(gid)

    def reset_dense(self) -> None:
        """Fall back to dense phases for every round (ownership changed)."""
        self.boundary: list[set[int] | None] = [None] * self.rounds
        self.interior: list[set[int] | None] = [None] * self.rounds

    def capture(self) -> dict[str, Any]:
        """Checkpoint payload: both frontiers plus the inner-sweep counter."""
        return {
            "boundary": _capture(self.boundary),
            "interior": _capture(self.interior),
            "inner_sweeps": self.inner_sweeps,
        }

    def restore(self, state: dict[str, Any]) -> None:
        """Reinstate the frontiers and counter a checkpoint captured."""
        self.boundary = _restore(state["boundary"])
        self.interior = _restore(state["interior"])
        self.inner_sweeps = state["inner_sweeps"]


def _select(nodes: dict[int, OwnNode], active: set[int] | None) -> list[OwnNode]:
    """The nodes of one class (a store's ``internal`` or ``peripheral`` map)
    to compute this sweep: all of them for a dense frontier, else the
    active ones in gid order."""
    if active is None:
        return list(nodes.values())
    return [nodes[g] for g in sorted(active) if g in nodes]


# --------------------------------------------------------------------- #
# Kernels: scalar reference and bulk (struct-of-arrays) replay
# --------------------------------------------------------------------- #


def _form_view(store: NodeStore, node: OwnNode, ctx: ComputeContext) -> NodeView:
    """Build the node+neighbours list, charging list-forming overhead."""
    costs = ctx.costs
    neighbors = []
    for v in node.neighboring_nodes:
        record = store.hash_table[v]
        neighbors.append((v, record.data))
    ctx._bookkeeping(
        costs.list_item_cost * (1 + len(neighbors))
        + costs.hash_lookup_cost * len(neighbors)
        # The appendix's SimulatorFunction linearly scans the global data
        # node list (which holds *all* graph nodes on every rank) to locate
        # the current node: an average of n/2 items touched per call.
        + costs.data_scan_item_cost * ctx.num_nodes / 2
    )
    return NodeView(
        global_id=node.global_id,
        value=node.data.data,
        neighbors=tuple(neighbors),
        iteration=ctx.iteration,
        round=ctx.round,
    )


def _compute_node(store: NodeStore, node: OwnNode, node_fn: NodeFn, ctx: ComputeContext) -> None:
    view = _form_view(store, node, ctx)
    before = ctx.compute_time
    node.data.most_recent_data = node_fn(view, ctx)
    spent = ctx.compute_time - before
    if spent:
        gid = node.global_id
        ctx.node_compute[gid] = ctx.node_compute.get(gid, 0.0) + spent


class _ScalarKernel:
    """The reference kernel: one node-function call per node, in order."""

    def __init__(self, store: NodeStore, node_fn: NodeFn, ctx: ComputeContext) -> None:
        self.store = store
        self.node_fn = node_fn
        self.ctx = ctx

    def prepare(
        self, internal: list[OwnNode], peripheral: list[OwnNode], key: str | None = None
    ) -> None:
        """Nothing to precompute: values are produced node by node."""

    def compute(self, nodes: list[OwnNode]) -> None:
        for node in nodes:
            _compute_node(self.store, node, self.node_fn, self.ctx)

    def each(self, nodes: list[OwnNode]) -> Iterator[tuple[OwnNode, Any]]:
        for node in nodes:
            _compute_node(self.store, node, self.node_fn, self.ctx)
            yield node, node.data.most_recent_data


# When the store is a SoAStore and the node function carries a *bulk
# kernel* (``fn.bulk``: a callable ``kernel(view) -> ndarray`` with a
# ``node_grain`` float attribute), the sweep computes every active node's
# value in one vectorized pass over a :class:`~repro.core.soastore.BulkView`
# -- then *replays* the scalar path's exact per-node charge sequence
# (bookkeeping, grain) through the communicator.  Every virtual-clock
# addition happens in the same order with the same amounts, so clocks,
# phase splits, per-node load measurements, and trace streams stay
# bit-identical to the object store's scalar sweeps -- even under
# slow-window fault scaling, which is a deterministic function of the
# clock at charge time.  The wall-clock win comes from eliminating the
# per-node view construction, hash lookups, and Python-level arithmetic.
#
# Bulk kernels must be pure (values from committed neighbour state only)
# and must cost exactly ``node_grain`` virtual seconds per node; functions
# with richer cost behaviour simply omit ``.bulk`` and take the scalar
# path, which is equally conformant on either store.


def supports_bulk(node_fns: tuple[NodeFn, ...] | list[NodeFn]) -> bool:
    """Whether every node function carries a bulk kernel."""
    return all(callable(getattr(fn, "bulk", None)) for fn in node_fns)


def _replay_node(
    node: OwnNode, grain: float, ctx: ComputeContext, book: dict[int, float]
) -> None:
    """Charge one node's scalar-path costs (no value computation)."""
    deg = len(node.neighboring_nodes)
    cost = book.get(deg)
    if cost is None:
        costs = ctx.costs
        cost = book[deg] = (
            costs.list_item_cost * (1 + deg)
            + costs.hash_lookup_cost * deg
            + costs.data_scan_item_cost * ctx.num_nodes / 2
        )
    ctx._bookkeeping(cost)
    before = ctx.compute_time
    ctx.work(grain)
    spent = ctx.compute_time - before
    if spent:
        gid = node.global_id
        ctx.node_compute[gid] = ctx.node_compute.get(gid, 0.0) + spent


def _replay_compute(
    nodes: list[OwnNode], grain: float, ctx: ComputeContext, book: dict[int, float]
) -> None:
    """Charge the scalar-path costs for ``nodes`` in sweep order.

    When no slow-window fault scaling can apply (``compute_scale`` would
    return 1.0 for every charge), the per-node sequence is plain float
    addition with no data-dependent factors, so it is inlined here against
    local accumulators -- the same additions in the same order as
    :func:`_replay_node`, minus six Python calls per node.  Slow windows
    make each charge a function of the clock at charge time, so that path
    falls back to the per-node replay.
    """
    if grain < 0:
        raise ValueError(f"cannot charge negative work: {grain}")
    faults = ctx.comm.faults
    if faults is not None and faults.plan.slow:
        for node in nodes:
            _replay_node(node, grain, ctx, book)
        return
    state = ctx.comm._state()
    clock = state.clock
    compute_time = ctx.compute_time
    bookkeeping_time = ctx.bookkeeping_time
    node_compute = ctx.node_compute
    costs = ctx.costs
    half_scan = costs.data_scan_item_cost * ctx.num_nodes / 2
    for node in nodes:
        deg = len(node.neighboring_nodes)
        cost = book.get(deg)
        if cost is None:
            cost = book[deg] = (
                costs.list_item_cost * (1 + deg)
                + costs.hash_lookup_cost * deg
                + half_scan
            )
        bookkeeping_time += cost
        clock += cost
        before = compute_time
        compute_time += grain
        clock += grain
        spent = compute_time - before
        if spent:
            gid = node.global_id
            node_compute[gid] = node_compute.get(gid, 0.0) + spent
    state.clock = clock
    ctx.compute_time = compute_time
    ctx.bookkeeping_time = bookkeeping_time


def _bulk_values(
    store: SoAStore,
    kernel: Any,
    ctx: ComputeContext,
    nodes: list[OwnNode] | None,
    key: str | None,
) -> list:
    """Run the kernel over ``nodes`` (None = all owned) and store results
    as pending values; returns them as exact Python objects, sweep order."""
    if nodes is None:
        positions = None
    elif nodes:
        pos = store.bulk_topology().pos
        positions = np.fromiter(
            (pos[node.global_id] for node in nodes), dtype=np.intp, count=len(nodes)
        )
    else:
        return []
    view = store.bulk_view(positions, ctx.iteration, ctx.round, key=key)
    return store.scatter_pending(positions, kernel(view))


class _BulkKernel:
    """One vectorized ``fn.bulk`` pass per sweep, then the charge replay."""

    def __init__(self, store: SoAStore, node_fn: NodeFn, ctx: ComputeContext) -> None:
        self.store = store
        self.kernel = node_fn.bulk
        self.grain = self.kernel.node_grain
        self.ctx = ctx
        #: Per-degree list-forming charge, memoized for the sweep.
        self.book: dict[int, float] = {}
        self._peripheral_values: list = []

    def prepare(
        self, internal: list[OwnNode], peripheral: list[OwnNode], key: str | None = None
    ) -> None:
        """Compute ``internal + peripheral`` in one pass.  A ``key`` names a
        dense pass over the whole owned set (memoized view geometry)."""
        nodes = None if key is not None else internal + peripheral
        values = _bulk_values(self.store, self.kernel, self.ctx, nodes, key)
        self._peripheral_values = values[len(internal):]

    def compute(self, nodes: list[OwnNode]) -> None:
        _replay_compute(nodes, self.grain, self.ctx, self.book)

    def each(self, nodes: list[OwnNode]) -> Iterator[tuple[OwnNode, Any]]:
        for node, value in zip(nodes, self._peripheral_values):
            _replay_node(node, self.grain, self.ctx, self.book)
            yield node, value


# --------------------------------------------------------------------- #
# Shared pack / commit / send / unpack steps
# --------------------------------------------------------------------- #


def _pack(
    node: OwnNode, value: Any, buffers: CommBuffers, ctx: ComputeContext, changed_only: bool
) -> None:
    """Pack a freshly computed peripheral value for every replica holder.

    Change-driven sweeps skip values equal to the committed one: receivers
    treat absent records as "shadow still current".
    """
    if changed_only and (value is None or value == node.data.data):
        return
    pack_cost = ctx.costs.pack_cost
    for proc in node.shadow_for_procs:
        buffers.pack(proc, node.global_id, value)
        ctx._comm_overhead(pack_cost)


def _commit(
    store: NodeStore, ctx: ComputeContext, computed: int, frontier: DeltaState | None
) -> int:
    """Commit pending values; returns how many changed.

    Only recomputed nodes carry a pending value, so only they pay the update
    charge (every owned node, on a dense sweep).
    """
    changed = store.commit_owned()
    ctx._bookkeeping(ctx.costs.update_cost * computed)
    if frontier is not None:
        frontier.record_commit(store, changed, ctx)
    return len(changed)


def _send_all(comm: Communicator, buffers: CommBuffers, tag: int) -> list[int]:
    """Isend every nonempty buffer; returns the peer list.

    Empty sends are never made (on dense sweeps the peer set is symmetric;
    change-driven sweeps save the alpha of unchanged halos).  Buffers are
    snapshotted into tuples: the in-process transport passes payloads by
    reference, and the next sweep's ``buffers.reset()`` would otherwise
    mutate a list the receiver has not drained yet.
    """
    peers = buffers.nonempty_procs()
    for q in peers:
        comm.isend(tuple(buffers.outgoing(q)), q, tag=tag, nbytes=buffers.nbytes(q))
    return peers


def _unpack(
    store: NodeStore, records: tuple, ctx: ComputeContext, frontier: DeltaState | None
) -> None:
    for gid, value in records:
        if store.update_shadow(gid, value) and frontier is not None:
            frontier.record_arrival(store, gid, ctx)
    # Per-record constant plus the appendix's linear scan of the global
    # data node list while locating each record's home.
    ctx._comm_overhead(
        len(records)
        * (ctx.costs.unpack_cost + ctx.costs.unpack_scan_item_cost * ctx.num_nodes / 2)
    )


def _receive_fenced(
    comm: Communicator, store: NodeStore, ctx: ComputeContext, frontier: DeltaState,
    tag: int, interleave: bool,
) -> None:
    """Change-driven receive: elided sends break receive symmetry, so the
    barrier doubles as the delivery fence -- every peer's sends of this
    sweep happen-before its barrier entry (sends are eagerly buffered), so
    afterwards the pending-sources query is deterministic -- and exactly
    the discovered senders are drained."""
    comm.barrier()
    sources = comm.pending_sources(tag)
    ctx._comm_overhead(ctx.costs.recv_setup_cost * len(sources))
    if interleave:
        for q in sources:
            _unpack(store, comm.recv(source=q, tag=tag), ctx, frontier)
        return
    received = [comm.recv(source=q, tag=tag) for q in sources]
    for records in received:
        _unpack(store, records, ctx, frontier)


# --------------------------------------------------------------------- #
# Drivers
# --------------------------------------------------------------------- #


def _sweep_bsp(
    comm: Communicator,
    store: NodeStore,
    node_fn: NodeFn,
    ctx: ComputeContext,
    buffers: CommBuffers,
    frontier: DeltaState | None = None,
    *,
    kernel_cls: type,
    overlap: bool,
) -> None:
    """One globally synchronous sweep: dense (``frontier=None``) or
    change-driven, through the Figure-8 or Figure-8a pipeline."""
    buffers.reset()
    kernel = kernel_cls(store, node_fn, ctx)
    if frontier is None:
        tag, key = TAG_SHADOW, "dense"
        internal, peripheral = list(store.internal.values()), list(store.peripheral.values())
    else:
        tag, key = frontier.next_tag(), None
        active = frontier.begin_sweep(ctx.round)
        internal, peripheral = _select(store.internal, active), _select(store.peripheral, active)
    kernel.prepare(internal, peripheral, key)

    # ---- ComputeOverNodes (+ dispatch, when overlapped) ----------------
    if not overlap:
        kernel.compute(internal)
    for node, value in kernel.each(peripheral):
        _pack(node, value, buffers, ctx, changed_only=frontier is not None)
    if overlap:
        peers = _send_all(comm, buffers, tag)
        if frontier is None:
            # Figure 8a: post the receives, then compute the internals
            # while the shadow messages are in flight.
            ctx._comm_overhead(ctx.costs.recv_setup_cost * len(peers))
            requests = [comm.irecv(source=q, tag=tag) for q in peers]
        kernel.compute(internal)
    ctx.changed_last_sweep = _commit(store, ctx, len(internal) + len(peripheral), frontier)
    if not overlap:
        peers = _send_all(comm, buffers, tag)

    # ---- CommunicateShadows --------------------------------------------
    if frontier is not None:
        _receive_fenced(comm, store, ctx, frontier, tag, interleave=overlap)
    elif overlap:
        for req in requests:
            _unpack(store, req.wait(), ctx, None)
    else:
        # Per-peer receive-buffer allocation + initialization (the appendix
        # mallocs a MAX_SIZE recvbuffer per neighbouring processor).
        ctx._comm_overhead(ctx.costs.recv_setup_cost * len(peers))
        received = [comm.recv(source=q, tag=tag) for q in peers]
        # The appendix's CommunicateShadows synchronizes all ranks between
        # the receive loop and the unpacking (its MPI_Barrier) -- one of the
        # per-iteration couplings the overlapped Figure-8a variant removes.
        comm.barrier()
        for records in received:
            _unpack(store, records, ctx, None)


def _sweep_hybrid(
    comm: Communicator,
    store: NodeStore,
    node_fn: NodeFn,
    ctx: ComputeContext,
    buffers: CommBuffers,
    hybrid: HybridState,
    *,
    kernel_cls: type,
) -> None:
    """One GraphHP-style two-phase superstep.

    Boundary phase: active peripherals compute, changed values pack, the
    (nonempty) delta buffers dispatch -- exactly the change-driven sweep
    restricted to the cut.  Interior phase: the interior frontier is
    iterated locally until it drains or ``inner_cap`` sweeps have run,
    each sweep committing and re-deriving the next frontier, with no
    communication at all.  Finally the barrier fences delivery and the
    discovered senders are drained; arrivals activate only boundary nodes,
    for the *next* superstep.

    Quiescence safety: ``changed_last_sweep`` counts boundary plus all
    interior commits.  Frontier entries are only ever created by a
    *changed* commit (counted here) or a *changed* arrival (counted at
    its sender's commit), so a global all-zero verdict implies every
    frontier on every rank is empty -- a capped-out interior frontier
    always has a nonzero change count backing it.
    """
    buffers.reset()
    kernel = kernel_cls(store, node_fn, ctx)
    tag = hybrid.next_tag()
    round_idx = ctx.round

    # ---- Boundary phase (globally synchronous, delta exchange) -------
    boundary = _select(store.peripheral, hybrid.begin_sweep(round_idx))
    kernel.prepare([], boundary)
    for node, value in kernel.each(boundary):
        _pack(node, value, buffers, ctx, changed_only=True)
    # Boundary changes land in the *unconsumed* interior frontier, feeding
    # this superstep's interior phase; interior commits below land in the
    # fresh boundary frontier, feeding the next superstep.
    changed = _commit(store, ctx, len(boundary), hybrid)
    _send_all(comm, buffers, tag)

    # ---- Interior phase (local, asynchronous, overlaps the exchange) --
    sweeps = 0
    while sweeps < hybrid.inner_cap:
        nodes = _select(store.internal, hybrid.begin_interior(round_idx))
        if not nodes:
            break
        sweeps += 1
        kernel.prepare(nodes, [])
        kernel.compute(nodes)
        changed += _commit(store, ctx, len(nodes), hybrid)
    hybrid.inner_sweeps += sweeps
    ctx.changed_last_sweep = changed

    # ---- Exchange completion -----------------------------------------
    _receive_fenced(comm, store, ctx, hybrid, tag, interleave=False)


# The ten public sweep names: one binding of a driver each (see the module
# docstring for why they remain).  The ``_delta`` names run change-driven
# because the caller passes them a DeltaState.
sweep_basic = partial(_sweep_bsp, kernel_cls=_ScalarKernel, overlap=False)
sweep_overlapped = partial(_sweep_bsp, kernel_cls=_ScalarKernel, overlap=True)
sweep_basic_delta = partial(_sweep_bsp, kernel_cls=_ScalarKernel, overlap=False)
sweep_overlapped_delta = partial(_sweep_bsp, kernel_cls=_ScalarKernel, overlap=True)
sweep_basic_bulk = partial(_sweep_bsp, kernel_cls=_BulkKernel, overlap=False)
sweep_overlapped_bulk = partial(_sweep_bsp, kernel_cls=_BulkKernel, overlap=True)
sweep_basic_delta_bulk = partial(_sweep_bsp, kernel_cls=_BulkKernel, overlap=False)
sweep_overlapped_delta_bulk = partial(_sweep_bsp, kernel_cls=_BulkKernel, overlap=True)
sweep_hybrid = partial(_sweep_hybrid, kernel_cls=_ScalarKernel)
sweep_hybrid_bulk = partial(_sweep_hybrid, kernel_cls=_BulkKernel)

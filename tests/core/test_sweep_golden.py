"""Cross-commit golden fingerprints of every sweep cell.

The store, activation, scheduler and hybrid conformance suites compare two
configurations *at the same commit*: a change that reorders a virtual-clock
charge in every kernel alike passes all of them.  This suite pins each cell
of the sweep engine -- store/kernel x frontier/pipeline x scenario -- to a
SHA-256 over a canonical JSON of everything the platform reports (values,
versions, clocks, phases, trace streams, counters).  Floats are serialized
with ``float.hex()``, so a one-ulp drift anywhere changes the digest.

The digests live in ``golden/sweep_fingerprints.json``.  Regenerate them
only for an intended, reviewed behaviour change::

    PYTHONPATH=src python -m tests.core.test_sweep_golden
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
from pathlib import Path
from typing import Any

import pytest

from repro.apps.average import make_average_fn
from repro.apps.diffusion import hot_edge_plate, make_jacobi_fn
from repro.core import ICPlatform, PlatformConfig
from repro.graphs import hex32
from repro.mpi import FaultPlan
from repro.partitioning import MetisLikePartitioner

GOLDEN = Path(__file__).parent / "golden" / "sweep_fingerprints.json"

#: Store x kernel: the object reference, the SoA store driving the scalar
#: node function through its array-backed proxies, and the SoA bulk kernel.
KERNELS = ("object", "soa-scalar", "soa-bulk")

#: Frontier x pipeline.  Every field is set explicitly so the environment
#: defaults (``REPRO_STORE``, ``REPRO_EXECUTION``) cannot shift a cell.
MODES = {
    "dense-basic": dict(execution="bsp", activation="dense", overlap_communication=False),
    "dense-overlapped": dict(execution="bsp", activation="dense", overlap_communication=True),
    "sparse-basic": dict(execution="bsp", activation="sparse", overlap_communication=False),
    "sparse-overlapped": dict(execution="bsp", activation="sparse", overlap_communication=True),
    "hybrid": dict(execution="hybrid", activation="dense", overlap_communication=False),
}

#: hex32 scenarios: (config overrides, fault spec).
SCENARIOS = {
    "none": (dict(iterations=8), None),
    "slow": (dict(iterations=8), "slow=1:3.0:0.002:0.1"),
    "rollback": (dict(iterations=8, checkpoint_period=3), "seed=3,crash=2@5"),
    "shrink": (
        dict(iterations=8, checkpoint_period=3, recovery_policy="shrink"),
        "seed=3,crash=2@5",
    ),
    "lb": (
        dict(iterations=12, dynamic_load_balancing=True, lb_period=4, lb_threshold=0.0),
        "slow=1:3.0",
    ),
}


def _strip_bulk(fn):
    """``fn`` without its bulk kernel: forces the scalar sweep on any store."""

    def scalar_fn(node, ctx):
        return fn(node, ctx)

    return scalar_fn


def _kernel(kernel: str, fn):
    store = "object" if kernel == "object" else "soa"
    return store, (_strip_bulk(fn) if kernel == "soa-scalar" else fn)


@functools.cache
def _hex_setup():
    graph = hex32()
    return graph, MetisLikePartitioner(seed=0).partition(graph, 4)


@functools.cache
def _plate_setup():
    graph, boundary, init = hot_edge_plate(8, 8)
    return graph, boundary, init, MetisLikePartitioner(seed=0).partition(graph, 4)


def run_hex_cell(kernel: str, mode: str, scenario: str):
    overrides, faults = SCENARIOS[scenario]
    store, node_fn = _kernel(kernel, make_average_fn(1e-4))
    graph, partition = _hex_setup()
    config = PlatformConfig(track_trace=True, store=store, **MODES[mode], **overrides)
    return ICPlatform(graph, node_fn, config=config).run(
        partition,
        faults=FaultPlan.parse(faults) if faults else None,
        scheduler="event",
        deadlock_timeout=10.0,
    )


def run_plate_cell(kernel: str, mode: str):
    graph, boundary, init, partition = _plate_setup()
    store, node_fn = _kernel(kernel, make_jacobi_fn(boundary, quantize=4))
    config = PlatformConfig(
        iterations=200, converge="quiescence", track_trace=True, store=store,
        **MODES[mode],
    )
    return ICPlatform(graph, node_fn, init_value=init, config=config).run(
        partition, scheduler="event", deadlock_timeout=10.0
    )


def canonical(obj: Any) -> Any:
    """A JSON-ready, order-stable rendering with exact floats."""
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, float):
        return obj.hex()
    if dataclasses.is_dataclass(obj):
        return {
            "__type__": type(obj).__name__,
            **{f.name: canonical(getattr(obj, f.name)) for f in dataclasses.fields(obj)},
        }
    if isinstance(obj, dict):
        return [[canonical(k), canonical(v)] for k, v in sorted(obj.items())]
    if isinstance(obj, (list, tuple)):
        return [canonical(item) for item in obj]
    raise TypeError(f"no canonical form for {type(obj).__name__}")


def fingerprint(result) -> str:
    """SHA-256 over everything a :class:`PlatformResult` reports."""
    report = {
        "values": result.values,
        "versions": result.versions,
        "elapsed": result.elapsed,
        "iterations": result.iterations,
        "phases": [p.as_dict() for p in result.phases],
        "records": result.trace.records,
        "reconfigurations": result.trace.reconfigurations,
        "integrity": result.trace.integrity,
        "quiescence": result.trace.quiescence,
        "final_assignment": result.final_assignment,
        "migrations": result.migrations,
        "repartitions": result.repartitions,
        "recoveries": result.recoveries,
        "checkpoints": result.checkpoints,
        "dead_ranks": result.dead_ranks,
        "repairs": result.repairs,
        "quiesced_at": result.quiesced_at,
        "messages_delivered": result.messages_delivered,
        "barriers": result.barriers,
        "inner_sweeps": result.inner_sweeps,
        "sparse_geom_hits": result.sparse_geom_hits,
        "sparse_geom_misses": result.sparse_geom_misses,
        "fault_report": result.fault_report,
    }
    text = json.dumps(canonical(report), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def cells() -> dict[str, Any]:
    """Cell id -> zero-argument runner, in a fixed order."""
    out = {}
    for kernel in KERNELS:
        for mode in MODES:
            for scenario in SCENARIOS:
                out[f"hex32/{kernel}/{mode}/{scenario}"] = (
                    lambda k=kernel, m=mode, s=scenario: run_hex_cell(k, m, s)
                )
            out[f"plate8/{kernel}/{mode}/quiescence"] = (
                lambda k=kernel, m=mode: run_plate_cell(k, m)
            )
    return out


CELLS = cells()


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_cell(golden):
    assert sorted(golden) == sorted(CELLS)


@pytest.mark.parametrize("cell", list(CELLS))
def test_cell_matches_golden(cell, golden):
    assert fingerprint(CELLS[cell]()) == golden[cell]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    digests = {cell: fingerprint(run()) for cell, run in CELLS.items()}
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} fingerprints to {GOLDEN}")

"""Self-test of the benchmark at smoke size.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
from spans import orphan_spans  # noqa: E402
from workloads import WORKLOADS, plate_init  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _invoke(capsys, tmp_path: Path, workload: str, trace: int) -> tuple[int, list[str], dict]:
    code = run.main(
        [
            "--workload", workload,
            "--seed", "3",
            "--seconds", "0.1",
            "--trace", str(trace),
            "--smoke",
            "--out", str(tmp_path),
        ]
    )
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


def test_benchmark_json_matches_the_runner():
    assert list(BENCHMARK["paths"]) == ["perfbench"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.LAYER_UNITS
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_schema(capsys, tmp_path, workload, trace):
    code, lines, result = _invoke(capsys, tmp_path, workload, trace)
    assert code == 0, "\n".join(lines)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1 + trace
    units = run.LAYER_UNITS if trace else run.END_TO_END_UNITS
    assert {k: m["unit"] for k, m in result["metrics"].items()} == units
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    # Every metric is printed by name with its unit and sample count.
    table = [line for line in lines if line.startswith(workload)]
    for name, unit in units.items():
        assert any(f" {name} " in line and f" {unit} " in line and "n=" in line for line in table)
    assert any(line.startswith("# provenance:") and '"cpus"' in line for line in lines)
    if trace:
        events = json.loads((tmp_path / f"{workload}-seed3.trace.json").read_text())["traceEvents"]
        spans = [(e["args"]["id"], e["args"]["parent"]) for e in events]
        assert spans and not orphan_spans(spans)
        assert all(
            {"workload", "run", "rank", "superstep"} <= set(e["args"]) for e in events
        )
        assert not list((tmp_path / "workers").glob("*"))


def test_traced_counts_match_untraced(tmp_path):
    bench = run.Bench("plate-hybrid", 3, True, tmp_path)
    try:
        bench.untraced_sample()
        bench.traced_sample()
        bench.traced_sample()
    finally:
        bench.close()
    assert bench.failed == 0, bench.problems
    layers = run.per_layer(bench)
    assert layers["compute.node_updates"] > 0 and layers["trace.overhead"] > 0
    assert layers["mpi.barriers"] > 0 and layers["compute.inner_sweeps"] > 0


def test_seed_drives_inputs():
    assert plate_init(8, 1) == plate_init(8, 1)
    assert plate_init(8, 1) != plate_init(8, 2)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    proc = subprocess.run(
        BENCHMARK["command"]
        + ["--workload", "plate-sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

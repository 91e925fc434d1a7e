"""Tests of the benchmark itself, at toy size.

Run from the repository root with ``python3 -m pytest perfbench -q``.
Each workload runs untraced and traced through ``run.py`` exactly as the
benchmark command does (fresh child interpreters), and the correctness
checks are shown to fire on corrupted results.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import ledger  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_bench(*args, cwd=ROOT, env=None):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=170,
    )


def test_metric_names_units_and_coverage():
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    for m in metrics:
        assert NAME.match(m["name"]), m["name"]
        assert UNIT.match(m["unit"]), m["unit"]
        assert m["better"] in ("higher", "lower")
    for m in SPEC["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)
    # the traced run fills every per-layer metric BENCHMARK.json names
    assert set(ledger.zero_metrics()) == {m["name"] for m in SPEC["per_layer"]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_toy_run(workload, trace):
    # the calling shell's engine switch must not reach the measured program
    env = {**os.environ, "REPRO_FAST": "1"}
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--scale", "toy", env=env)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    doc = json.loads(lines[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["failed"] == 0
    assert doc["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {n: m["unit"] for n, m in doc["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    for entry in doc["metrics"].values():
        assert isinstance(entry["value"], (int, float))
        assert math.isfinite(entry["value"])
    assert any("host: cpus=" in line for line in lines)
    if workload == "serve-warm" and not trace:
        assert any("threads pinned to CPU" in line for line in lines)
    if trace:
        assert any(line.strip().startswith("reconcile:") for line in lines)
        m = {n: e["value"] for n, e in doc["metrics"].items()}
        assert m["ledger.e2e_cpu_s"] > 0 and m["ledger.layer_cpu_s"] > 0
        # the parallel call pays dispatch, pickling and worker start-up on
        # top of the layers' serial work: the remainder is a share in [0, 1)
        if workload != "serve-warm":
            assert 0 <= m["ledger.unaccounted_share"] < 1
            assert m["sweep.unaccounted_cpu_s"] >= 0
            # the obs and uq layers are measured in this run too
            assert m["obs.events"] > 0 and m["obs.orphans"] == 0
            assert m["uq.sample_s"] > 0 and m["uq.run_points_per_s"] > 0
            assert any(line.strip().startswith("uq study:") for line in lines)
    else:
        assert all(e["value"] > 0 for e in doc["metrics"].values())


def test_digest_check_fires_on_corrupted_digest():
    failures = workloads.Failures()
    workloads.check_digest("fig7-sweep", "paper", 0, "0" * 64, failures)
    assert failures.messages and failures.count(26) == 26
    clean = workloads.Failures()
    workloads.check_digest(
        "fig7-sweep", "paper", 0, workloads.PINNED_DIGESTS["fig7-sweep"], clean
    )
    assert clean.count(26) == 0


def test_known_answer_check_fires_on_a_wrong_answer():
    point, expected = workloads.KNOWN_ANSWERS["fig7-sweep"]
    failures = workloads.Failures()
    workloads.check_known_answer("fig7-sweep", "paper", lambda p: "0" * 64,
                                 failures)
    assert failures.count(26) == 26
    row = workloads.rebuild_point(point, workloads.MEIKO_CS2, workloads.COST_MODEL)
    assert workloads.point_digest(dict(row.__dict__)) == expected


def test_row_checks_fire_on_corrupted_rows():
    points = workloads.expand_grid(120, [30, 40, 60], ["diagonal"], seeds=[5])
    rows = [
        workloads.rebuild_point(p, workloads.MEIKO_CS2, workloads.COST_MODEL)
        for p in points
    ]
    clean = workloads.Failures()
    workloads.check_rows(points, rows, clean)
    workloads.spot_check(points, rows, workloads.MEIKO_CS2,
                         workloads.COST_MODEL, 5, clean)
    assert clean.count(len(points)) == 0
    # a value one µs off: only the public-call rebuild can tell
    shifted = [
        workloads.PointSummary(
            **{**r.__dict__, "pred_standard_total": r.pred_standard_total + 1}
        )
        for r in rows
    ]
    failures = workloads.Failures()
    workloads.spot_check(points, shifted, workloads.MEIKO_CS2,
                         workloads.COST_MODEL, 5, failures)
    assert failures.count(len(points)) >= 1
    # a lost measurement on a measured point
    missing = list(rows)
    missing[2] = workloads.PointSummary(**{**rows[2].__dict__, "measured_comm": None})
    failures = workloads.Failures()
    workloads.check_rows(points, missing, failures)
    assert failures.count(len(points)) == 1


def test_reconcile_fails_when_layers_exceed_the_call():
    spans = ledger.Ledger()
    with spans.span("core.standard"):
        sum(i * i for i in range(200_000))
    layer_cpu = spans.cpu("core.standard")
    metrics, clean = {}, workloads.Failures()
    assert ledger.reconcile(spans, metrics, 2 * layer_cpu, clean) > 0
    assert clean.count(1) == 0 and 0 < metrics["ledger.unaccounted_share"] < 1
    failures = workloads.Failures()
    assert ledger.reconcile(spans, metrics, layer_cpu / 2, failures) < 0
    assert failures.count(26) == 26
    # a summed span inside another summed span counts its CPU twice
    nested = ledger.Ledger()
    with nested.span("machine.emulate"):
        with nested.span("core.standard"):
            pass
    failures = workloads.Failures()
    ledger.reconcile(nested, metrics, 1.0, failures)
    assert failures.count(26) == 26


def test_sweep_check_fires_on_a_lost_progress_report(tmp_path):
    wl = workloads.Fig7Sweep("toy", 2, tmp_path)
    wl.setup()
    wl.points = wl.points[-4:]
    outcome = wl.run(0.0)
    assert len(outcome.latencies_s) == 4
    assert wl.check(outcome).count(4) == 0
    wl.completed.pop()
    assert wl.check(outcome).count(4) == 4


def test_serve_check_fires_on_a_corrupted_reply(tmp_path):
    wl = workloads.ServeWarm("toy", 1, tmp_path)
    try:
        wl.setup()
        outcome = wl.run(0.3)
        assert wl.check(outcome).count(outcome.items) == 0
        key, digest, tier, latency = wl.replies[0]
        wl.replies[0] = (key, "f" * 64, tier, latency)
        failures = wl.check(outcome)
        assert failures.count(outcome.items) == 1
    finally:
        wl.close()


def test_fails_without_the_program(tmp_path):
    """In a tree with only BENCHMARK.json and perfbench/, the run must fail."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "fig7-sweep", "--seed", "0", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()

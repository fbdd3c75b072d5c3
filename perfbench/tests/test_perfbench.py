"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/tests

Workloads run here at small sizes, without the committed reference (its
centroids and digests are for the full sizes), so these tests check the
harness: gates pass, metric names match BENCHMARK.json, spans nest.
"""

from __future__ import annotations

import json
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

assert run.bootstrap(), "physedit sources not found next to perfbench/"

import compare  # noqa: E402
import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def small(monkeypatch):
    """Shrink every workload to about a second of work."""
    monkeypatch.setattr(workloads.Scenes, "FRAMES",
                        {name: 2 for name in workloads.Scenes.FRAMES})
    monkeypatch.setattr(workloads.Zoo, "CUBE", (0.1, 6))
    monkeypatch.setattr(workloads.Zoo, "FRAMES", 2)
    monkeypatch.setattr(workloads.RigidPad, "FRAMES", 2)
    monkeypatch.setattr(workloads.Render, "N_FRAMES", 3)
    monkeypatch.setattr(workloads.Analyze, "N_HALF", 12)
    monkeypatch.setattr(run, "SETUP_REPS", 2)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("traced", [False, True])
def test_workload_runs_checked_and_reports_declared_metrics(
        small, tmp_path, name, traced):
    metrics, gate, record, spans = run.measure(name, 5, 0.0, traced,
                                               tmp_path, None)
    assert gate.attempted > 0
    assert gate.failed == 0, gate.failures
    declared = SPEC["per_layer" if traced else "end_to_end"]
    assert set(metrics) == {m["name"] for m in declared}
    if traced:
        assert record["traced_wall_s"]["n"] >= 1
    else:
        assert all(metrics[k] > 0 for k in metrics)


LAYERS = {
    "scenes": {"cli.main", "engine.build_state", "engine.simulate",
               "engine.step", "constitutive.batch_constitutive",
               "engine.stable_dt", "materials.wave_speeds", "schedule.apply",
               "engine.object_events", "trajectory.export",
               "raster.rasterize_frame", "raster.write_pgm",
               "fill.fill_field", "fill.fill_interior",
               "fill.inherit_properties", "fieldio.write_field",
               "fieldio.read_field", "materials.validate_field"},
    "render": {"trajectory.export", "trajectory.verify", "trajectory.read",
               "raster.rasterize_frame", "raster.write_pgm",
               "fill.fill_field", "fieldio.write_field",
               "fieldio.read_field"},
}


@pytest.mark.parametrize("name", sorted(LAYERS))
def test_spans_nest_and_self_times_are_non_negative(small, tmp_path, name):
    _, _, _, spans = run.measure(name, 1, 0.0, True, tmp_path, None)
    assert LAYERS[name] <= {s.name for s in spans}
    for i, s in enumerate(spans):
        assert s.start <= s.end
        if s.parent >= 0:
            parent = spans[s.parent]
            assert s.parent < i
            assert parent.start <= s.start and s.end <= parent.end
        else:
            # the correctness gate runs untraced: only set-ups and timed
            # operations are roots
            assert s.name in ("bench.setup", "bench.unit")
    assert min(tracing.self_times(spans)) >= 0.0


def test_gate_calls_are_not_counted_as_program_time(small, tmp_path):
    """simulate never reads its trajectory back; only the gate does."""
    metrics, gate, _, _ = run.measure("zoo", 1, 0.0, True, tmp_path, None)
    assert gate.attempted > 0 and gate.failed == 0
    assert metrics["trajectory.verify_s"] == 0.0
    assert metrics["trajectory.read_s"] == 0.0
    assert metrics["trajectory.export_s"] > 0.0


def test_analyze_spans_cover_losses_and_conditioning(small, tmp_path):
    _, _, _, spans = run.measure("analyze", 1, 0.0, True, tmp_path, None)
    names = {s.name for s in spans}
    assert {"losses.total_loss", "losses.gradcheck_task",
            "losses.gradcheck_smoothness", "losses.gradcheck_contrastive",
            "losses.gradcheck_assignment", "losses.smoothness_loss",
            "conditioning.soft_assign"} <= names


def test_scaled_timer_scales_by_probes_sampled_during_the_call():
    # a host where the probe takes half its reference time is twice as
    # fast, so scaled times are twice the measured ones
    timer = hostspeed.ScaledTimer(lambda: hostspeed.REFERENCE_S / 2)
    before = signal.getsignal(signal.SIGALRM)
    result, own, scaled = timer(sum, [1, 2])
    assert result == 3
    assert scaled == pytest.approx(2.0 * own)
    _, own, scaled = timer(time.sleep, 0.25)
    count, mean = timer.probes[-1]
    assert count >= 5  # before, after, and every 50 ms during the call
    assert mean == hostspeed.REFERENCE_S / 2
    assert own == pytest.approx(0.25, abs=0.05)
    assert scaled == pytest.approx(2.0 * own)
    assert signal.getsignal(signal.SIGALRM) is before
    assert hostspeed.Probe()() > 0.0


def test_tracer_restores_every_wrapped_attribute():
    before = [getattr(owner, attr) for owner, attr, _, _ in tracing.TARGETS]
    with tracing.Tracer():
        assert all(getattr(owner, attr) is not fn for (owner, attr, _, _), fn
                   in zip(tracing.TARGETS, before))
    assert [getattr(owner, attr) for owner, attr, _, _
            in tracing.TARGETS] == before


def test_seed_changes_inputs_not_work(tmp_path):
    zoo = workloads.Zoo()
    a = zoo.setup(1, tmp_path / "a")["scenes"]["zoo"][0]
    b = zoo.setup(2, tmp_path / "b")["scenes"]["zoo"][0]
    c = zoo.setup(1, tmp_path / "c")["scenes"]["zoo"][0]
    field_a = (a / "elastic.mfield").read_bytes()
    assert field_a == (c / "elastic.mfield").read_bytes()
    assert field_a != (b / "elastic.mfield").read_bytes()
    assert len(field_a) == len((b / "elastic.mfield").read_bytes())


def test_benchmark_json_follows_its_format():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    assert 1 <= SPEC["run_seconds"] <= 60
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    seen = set()
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
        assert name.match(w["name"]) and w["name"] not in seen
        seen.add(w["name"])
    bounds = {}
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
        bounds[m["name"]] = m["bound"]
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert name.match(m["name"]) and m["name"] not in seen
        assert unit.match(m["unit"]) and m["better"] in ("higher", "lower")
        seen.add(m["name"])
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_declared_metrics_last(tmp_path, trace):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py",
         "--workload", "render", "--seed", "2", "--seconds", "0",
         "--trace", trace, "--out-dir", str(tmp_path)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"],
                    "unit": m["unit"]} for m in declared}
    record = json.loads(
        (tmp_path / f"render-seed2-trace{trace}.json").read_text())
    assert record["provenance"]["seed"] == 2
    assert record["provenance"]["nproc"] >= 1


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "zoo", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def _record(directory, workload, seed, wall, failed=0):
    directory.mkdir(exist_ok=True)
    metrics = {m["name"]: {"value": wall, "unit": m["unit"]}
               for m in SPEC["end_to_end"]}
    (directory / f"{workload}-seed{seed}-trace0.json").write_text(json.dumps(
        {"workload": workload, "provenance": {"seed": seed},
         "attempted": 100, "failed": failed, "metrics": metrics}))


def test_compare_verdicts(tmp_path):
    for seed in range(10):
        _record(tmp_path / "parent", "zoo", seed, 10.0 + 0.01 * seed)
        _record(tmp_path / "fast", "zoo", seed, 8.0 + 0.01 * seed)
        _record(tmp_path / "slow", "zoo", seed, 13.0 + 0.01 * seed)
        _record(tmp_path / "noisy", "zoo", seed, 10.0 + 5.0 * (seed % 2))
        _record(tmp_path / "broken", "zoo", seed, 8.0 + 0.01 * seed,
                failed=int(seed == 3))
    fast = compare.compare(tmp_path / "parent", tmp_path / "fast", SPEC)
    assert fast["zoo"]["wall_s"]["verdict"] == "gain"
    assert fast["zoo"]["wall_s"]["win_share"] == 1.0
    slow = compare.compare(tmp_path / "parent", tmp_path / "slow", SPEC)
    assert slow["zoo"]["wall_s"]["verdict"] == "regression"
    same = compare.compare(tmp_path / "parent", tmp_path / "parent", SPEC)
    assert same["zoo"]["wall_s"]["verdict"] == "unchanged"
    noisy = compare.compare(tmp_path / "parent", tmp_path / "noisy", SPEC)
    assert noisy["zoo"]["wall_s"]["verdict"] in ("unresolved", "regression")
    assert noisy["zoo"]["wall_s"]["spread"] > 0.25
    # faster, but one check failed where the parent failed none
    broken = compare.compare(tmp_path / "parent", tmp_path / "broken", SPEC)
    assert broken["zoo"]["wall_s"]["verdict"] == "failed"
    assert broken["zoo"]["wall_s"]["failed_frac"] == {"parent": 0.0,
                                                      "change": 0.001}

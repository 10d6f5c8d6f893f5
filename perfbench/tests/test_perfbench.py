"""Tests of the benchmark itself: generators, checks, tracer, and a tiny run."""

from __future__ import annotations

import json
import re
import shutil
import sqlite3
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY = 0.02


def build(name: str, base: Path, seed: int):
    (base / "in").mkdir(parents=True)
    (base / "out").mkdir()
    return WORKLOADS[name].build(base / "in", base / "out", seed, TINY)


def file_contents(directory: Path) -> dict[str, object]:
    """Every generated file by relative path; databases by their SQL dump."""
    out: dict[str, object] = {}
    for path in sorted(directory.rglob("*")):
        if path.suffix == ".sqlite":
            with sqlite3.connect(path) as conn:
                out[str(path.relative_to(directory))] = list(conn.iterdump())
            conn.close()
        elif path.is_file():
            out[str(path.relative_to(directory))] = path.read_bytes()
    return out


def run_cli(inputs) -> None:
    from sqlcalib.cli import main

    assert main(inputs.argv) == 0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_generators_are_deterministic_per_seed(name, tmp_path):
    a = build(name, tmp_path / "a", 5)
    b = build(name, tmp_path / "b", 5)
    c = build(name, tmp_path / "c", 6)
    assert a.stats == b.stats and a.expected_labels == b.expected_labels
    assert file_contents(tmp_path / "a" / "in") == file_contents(tmp_path / "b" / "in")
    assert file_contents(tmp_path / "a" / "in") != file_contents(tmp_path / "c" / "in")


def test_checker_rejects_tampered_output(tmp_path):
    inputs = build("cv_compare", tmp_path, 3)
    run_cli(inputs)
    assert checks.check_content("cv_compare", inputs) == []
    first = checks.output_digests(inputs)
    assert checks.check_recorded(first, first) == []

    report_csv = tmp_path / "out" / "report.csv"
    report_csv.write_text(report_csv.read_text().replace("isotonic", "isotonix", 1))
    tampered = checks.output_digests(inputs)
    assert checks.check_repeat(first, tampered) == ["report.csv differs from the first run"]
    assert len(checks.check_recorded(first, tampered)) == 1

    report_json = tmp_path / "out" / "report.json"
    obj = json.loads(report_json.read_text())
    obj["mean"]["bs_i"] += 1e-9
    report_json.write_text(json.dumps(obj))
    assert any("bs_i" in p for p in checks.check_content("cv_compare", inputs))


def test_checker_rejects_flipped_label(tmp_path):
    inputs = build("label_exec", tmp_path, 3)
    run_cli(inputs)
    assert checks.check_content("label_exec", inputs) == []
    labeled = Path(inputs.outputs[0])
    rows = [json.loads(line) for line in labeled.read_text().splitlines()]
    rows[0]["label"] = 1 - rows[0]["label"]
    labeled.write_text("".join(json.dumps(r) + "\n" for r in rows))
    problems = checks.check_content("label_exec", inputs)
    assert len(problems) == 1 and "constructed answer" in problems[0]


def test_process_check_allows_warnings_but_not_tracebacks():
    warning = "calibrate.py:180: RuntimeWarning: Platt fit stopped at iteration cap\n"
    assert checks.check_process(0, warning) == []
    assert checks.check_process(0, "Traceback (most recent call last):\n  boom\n")
    assert checks.check_process(1, "error: bad input\n")


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


def test_self_time_is_parent_minus_its_children():
    clock = FakeClock()
    fake = types.ModuleType("fake_layers")

    def inner():
        clock.now += 3.0

    def outer():
        clock.now += 1.0
        fake.inner()
        clock.now += 2.0
        fake.inner()
        clock.now += 1.0

    fake.inner, fake.outer = inner, outer
    sys.modules["fake_layers"] = fake
    try:
        t = tracer.Tracer("r1", clock=clock)
        targets = (
            tracer.Target("fake_layers:outer", "protocol.outer", span=True),
            tracer.Target("fake_layers:inner", "calibrate.inner", span=True),
            tracer.Target("fake_layers:gone", "metrics.gone"),
        )
        missing, restore = tracer.install(t, targets)
        clock.now += 0.5  # untraced work before the top-level call
        fake.outer()
        restore()
    finally:
        del sys.modules["fake_layers"]

    assert missing == ["fake_layers:gone"]
    assert fake.outer is outer
    assert t.stats["protocol.outer"][:3] == [1, 10.0, 4.0]
    assert t.stats["calibrate.inner"][:3] == [2, 6.0, 6.0]
    assert t.top_s == 10.0
    parents = {s["name"]: s["parent"] for s in t.spans}
    assert parents == {"protocol.outer": None, "calibrate.inner": 0}
    assert all(s["run"] == "r1" for s in t.spans)

    metrics = tracer.layer_metrics(t, wall_s=11.0, missing=["sqlcalib.metrics:ece"])
    assert metrics["protocol.self_s"] == 4.0 and metrics["calibrate.self_s"] == 6.0
    assert metrics["cli.self_s"] == 1.0
    assert "metrics.ece_s" not in metrics and "metrics.auc_s" in metrics
    assert run.check_self_times(metrics) == []
    assert run.check_self_times({**metrics, "cli.self_s": 2.0})


def test_benchmark_json_matches_the_contract():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]) for m in metrics)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_of_every_workload(trace, tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    for name in WORKLOADS:
        result = run.run_workload(name, 3, 0.0, trace, tmp_path / "work", scale=TINY, min_samples=1)
        assert result["correct"], name
        assert result["failed"] == 0 and result["attempted"] >= 2
        assert set(result["metrics"]) == want
    assert not (tmp_path / "work").exists()  # generated inputs and outputs are removed


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "run.py"), "--workload", "cv_compare",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""

"""sqlcalib benchmark: seeded workloads through the real CLI, checked outputs.

    python3 perfbench/run.py --workload cv_compare --seed 7 --seconds 26 --trace 0

Run from anywhere; the package under test is the ``src/`` next to this
directory. Inputs are generated from ``--seed`` into a scratch directory
under ``.perfbench_work/`` at the repository root, which is removed again.

``--trace 0`` times CLI runs, each in a fresh interpreter, and prints the
end-to-end metrics, with wall time relative to a fixed reference task
(see REFERENCE). ``--trace 1`` alternates untraced CLI runs with runs
traced in-process (see tracer.py) and prints the per-layer metrics. Either
way a human-readable table goes to stderr and the last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}. The exit
code is 1 when any output check failed and 2 when the package is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from checks import check_content, check_process, check_recorded, check_repeat, output_digests
from workloads import WORKLOADS, Inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 1  # the seed whose output digests are recorded in digests.json
MIN_SAMPLES = 3  # timed runs per benchmark run, even past --seconds
CHILD_TIMEOUT_S = 60.0

# A fixed task for a fresh interpreter: start-up, numpy import, JSON and
# Python objects, as in a CLI run, but no sqlcalib code. It is timed after
# every CLI run, and wall_rel divides by its median. On a shared
# machine the CPU speed drifts by 15-30% over minutes, which moves both alike,
# while any change to the program still shows in full.
REFERENCE = """\
import json, numpy
rows = [{"id": f"r{i}", "p": [round(j / 997, 6) for j in range(60)]} for i in range(1200)]
for _ in range(3):
    rows = json.loads(json.dumps(rows))
numpy.sort(numpy.array([r["p"] for r in rows]).ravel())
"""

# Printed with the end-to-end metrics but not part of the result object:
# absolute times drift with the machine (see REFERENCE).
ABSOLUTE_UNITS = {"wall_s": "s", "records_per_s": "1/s", "cpu_s": "s", "ref_s": "s"}


@dataclass
class Sample:
    """One child process, timed from spawn to exit."""

    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int
    stderr: str


def spawn(cmd: list[str], env: dict[str, str], log_dir: Path) -> Sample:
    """Run one child to completion. Peak RSS comes from that child's own
    rusage (os.wait4), not RUSAGE_CHILDREN, which keeps the maximum over
    every child so far. A child still running after CHILD_TIMEOUT_S is killed."""
    err_path = log_dir / "stderr.txt"
    with open(os.devnull, "wb") as devnull, err_path.open("wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, stdout=devnull, stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss * 1024 / 1e6,  # ru_maxrss is in KiB on Linux
        returncode=proc.returncode,
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
    )


@dataclass
class Session:
    """One workload's generated inputs, child environment and check state."""

    workload: str
    inputs: Inputs
    env: dict[str, str]
    log_dir: Path
    recorded: dict[str, str]
    first: dict[str, str] | None = None
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def _checked(self, sample: Sample, extra: list[str] = ()) -> Sample:
        problems = check_process(sample.returncode, sample.stderr) + list(extra)
        digests = output_digests(self.inputs)
        if self.first is None:
            problems += check_content(self.workload, self.inputs) + check_recorded(self.recorded, digests)
            self.first = digests
        else:
            problems += check_repeat(self.first, digests)
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return sample

    def _clear_outputs(self) -> None:
        for p in self.inputs.outputs:
            Path(p).unlink(missing_ok=True)

    def cli(self) -> Sample:
        self._clear_outputs()
        cmd = [sys.executable, "-m", "sqlcalib.cli", *self.inputs.argv]
        return self._checked(spawn(cmd, self.env, self.log_dir))

    def traced(self, run_id: str) -> tuple[Sample, dict]:
        self._clear_outputs()
        trace_path = self.log_dir / "trace.json"
        trace_path.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "tracer.py"), "--out", str(trace_path),
               "--run-id", run_id, "--", *self.inputs.argv]
        sample = spawn(cmd, self.env, self.log_dir)
        try:
            trace = json.loads(trace_path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            return self._checked(sample, [f"no trace written: {exc}"]), {}
        return self._checked(sample, check_self_times(trace["metrics"])), trace

    def probe(self, code: str) -> float:
        """Spawn-to-exit time of a fresh interpreter running `code`."""
        sample = spawn([sys.executable, "-c", code], self.env, self.log_dir)
        self.attempted += 1
        if sample.returncode != 0:
            self.failed += 1
            self.problems.append(f"probe {code.splitlines()[0]!r} failed: {sample.stderr[-200:]}")
        return sample.wall_s


def check_self_times(metrics: dict[str, float]) -> list[str]:
    """Layer self times plus cli.self_s must add up to the traced wall."""
    parts = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    wall = metrics["trace.wall_s"]
    if abs(parts - wall) > 1e-6 * max(1.0, wall):
        return [f"self times add up to {parts!r}, traced wall is {wall!r}"]
    return []


def timed_loop(seconds: float, min_samples: int, step) -> int:
    """Call step() until the next call would end past `seconds`, at least
    min_samples times. Returns the number of calls."""
    start = time.perf_counter()
    n = 0
    while True:
        step()
        n += 1
        elapsed = time.perf_counter() - start
        if n >= min_samples and elapsed + elapsed / n > seconds:
            return n


def measure_end_to_end(session: Session, seconds: float, min_samples: int) -> tuple[dict, dict]:
    samples: list[Sample] = []
    setups: list[float] = []
    refs: list[float] = []

    def step() -> None:
        samples.append(session.cli())
        setups.append(session.probe("import sqlcalib.cli"))
        refs.append(session.probe(REFERENCE))

    session.cli()  # warm-up: fills the page cache and bytecode cache; not timed
    timed_loop(seconds, min_samples, step)
    wall = statistics.median(s.wall_s for s in samples)
    ref = statistics.median(refs)
    values = {
        "wall_rel": wall / ref,
        "cpu_per_wall": statistics.median(s.cpu_s / s.wall_s for s in samples),
        "peak_rss_mb": statistics.median(s.peak_rss_mb for s in samples),
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "records_per_s": session.inputs.n_items / wall,
        "cpu_s": statistics.median(s.cpu_s for s in samples),
        "ref_s": ref,
    }
    print("  wall_s samples: " + " ".join(f"{s.wall_s:.3f}" for s in samples), file=sys.stderr)
    return values, dict.fromkeys(values, len(samples))


def measure_layers(session: Session, seconds: float, seed: int) -> tuple[dict, dict]:
    plain: list[float] = []
    traced: list[tuple[float, dict]] = []

    def step() -> None:
        plain.append(session.cli().wall_s)
        sample, trace = session.traced(f"{session.workload}-{seed}-{len(traced)}")
        if trace:
            traced.append((sample.wall_s, trace))

    session.cli()  # warm-up, as for the end-to-end run
    timed_loop(seconds, 1, step)  # a traced pair costs two runs; one is enough
    if not traced:
        return {}, {}
    # Report the run with the median traced wall as a whole, so that its
    # self times still add up to its wall.
    traced.sort(key=lambda t: t[1]["metrics"]["trace.wall_s"])
    trace = traced[(len(traced) - 1) // 2][1]
    for site in trace["missing"]:
        print(f"note: trace target {site} is missing; its metrics are absent", file=sys.stderr)
    values = dict(trace["metrics"])
    values["trace.overhead_share"] = (
        statistics.median(w for w, _ in traced) / statistics.median(plain) - 1.0
    )
    return values, dict.fromkeys(values, len(traced))


def load_recorded(workload: str, seed: int, scale: float) -> dict[str, str]:
    if seed != DEFAULT_SEED or scale != 1.0:
        return {}
    recorded = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
    return recorded["workloads"].get(workload, {})


def run_workload(name: str, seed: int, seconds: float, trace: bool, work_root: Path,
                 scale: float = 1.0, min_samples: int = MIN_SAMPLES) -> dict:
    """Generate, measure and check one workload; returns the result object."""
    work = work_root / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        for sub in ("in", "out", "log"):
            (work / sub).mkdir(parents=True)
        inputs = WORKLOADS[name].build(work / "in", work / "out", seed, scale)
        print(f"workload {name} (seed {seed}): {WORKLOADS[name].why}", file=sys.stderr)
        print("  inputs: " + ", ".join(f"{k}={v}" for k, v in inputs.stats.items()), file=sys.stderr)
        # No seed from the environment; bytecode is cached as an install would.
        env = {k: v for k, v in os.environ.items()
               if k not in ("SQLCALIB_SEED", "PYTHONDONTWRITEBYTECODE")}
        env["PYTHONPATH"] = str(ROOT / "src")
        session = Session(name, inputs, env, work / "log", load_recorded(name, seed, scale))
        if trace:
            values, counts = measure_layers(session, seconds, seed)
        else:
            values, counts = measure_end_to_end(session, seconds, min_samples)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()  # only succeeds once no other run is using it
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    print_table(session, values, {**ABSOLUTE_UNITS, **units}, counts)
    return {
        "correct": not session.problems,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items() if k in units},
    }


def print_table(session: Session, values: dict, units: dict, counts: dict) -> None:
    err = sys.stderr
    for key, value in values.items():
        print(f"  {key:32s} {value:14.6g} {units[key]:6s} n={counts[key]}", file=err)
    share = session.failed / max(session.attempted, 1)
    print(f"  {'failed_ops_share':32s} {share:14.6g} {'ratio':6s} "
          f"({session.failed} of {session.attempted} runs)", file=err)
    for problem in dict.fromkeys(session.problems):
        print(f"  FAILED CHECK: {problem}", file=err)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="sqlcalib benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=26.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still stops its child and removes its files.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "sqlcalib" / "cli.py").is_file():
        print(f"error: no sqlcalib package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    correct = True
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), ROOT / ".perfbench_work")
        if args.workload == "all":
            result = {"workload": name, **result}
        print(json.dumps(result), flush=True)
        correct = correct and result["correct"]
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

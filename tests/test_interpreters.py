"""The numpy-free commands write the same bytes under every installed CPython.

`validate`, `score` (every method) and `label` run on small seeded inputs
under each other CPython 3.11 or later that can be started, and their
stdout, stderr and output files are compared byte for byte with a run under
the interpreter running the tests. Candidates are the `python3*` programs
on PATH and, when the running interpreter sits in a pyenv-style `versions`
directory, its siblings there. The test skips when no other interpreter is
found.
"""

import json
import os
import random
import shutil
import sqlite3
import subprocess
import sys
from pathlib import Path

import pytest

import sqlcalib
from sqlcalib.scoring import SCORE_METHODS

# Runs `sqlcalib.cli.main` on each argv in turn, from the source tree given
# first, and exits with the largest exit code; -I keeps the environment and
# user site packages out, -B the candidate's bytecode out of the source tree.
RUNNER = """
import json, sys
sys.path.insert(0, sys.argv[1])
from sqlcalib.cli import main
sys.exit(max([main(argv) for argv in json.loads(sys.argv[2])]))
"""
COMMANDS = [
    ["validate", "--input", "predictions.jsonl"],
    *(["score", "--input", "predictions.jsonl", "--method", method, "--out", f"{method}.jsonl"]
      for method in SCORE_METHODS),
    ["label", "--pairs", "pairs.jsonl", "--db-root", "dbs", "--out", "labeled.jsonl"],
]
QUERIES = [
    ("SELECT a, b FROM t", "SELECT b, a FROM t"),
    ("SELECT a FROM t ORDER BY a", "SELECT a FROM t ORDER BY a DESC"),
    ("SELECT avg(b) FROM t", "SELECT sum(b) / count(b) FROM t"),
    ("SELECT c, count(*) FROM t GROUP BY c",
     "SELECT c, count(*) FROM t GROUP BY c ORDER BY c DESC"),
    ("SELECT 1.5 * a FROM t", "SELECT a * 1.5 FROM t"),
    ("SELECT a FROM t WHERE b > 0.5", "SELECT a FROM t WHERE b >= 0.5"),
    ("SELECT max(b) FROM t", "SELEC max(b) FROM t"),
    ("SELECT c FROM t", "SELECT DISTINCT c FROM t"),
]


def _version(executable):
    """The `sys.version` of a CPython 3.11 or later that starts, else None."""
    probe = "import sys; print(sys.implementation.name, sys.version_info >= (3, 11), sys.version)"
    try:
        done = subprocess.run([executable, "-I", "-c", probe], capture_output=True, text=True,
                              timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    name, recent, version = (done.stdout.split(" ", 2) + ["", "", ""])[:3]
    ok = done.returncode == 0 and name == "cpython" and recent == "True"
    return version.strip() if ok else None


def _candidates():
    """One executable per CPython build other than the running one."""
    paths = [Path(d) / name for d in os.get_exec_path()
             for name in ("python3", *(f"python3.{minor}" for minor in range(11, 20)))]
    versions = Path(sys.executable).parents[2]
    if versions.name == "versions":
        paths += sorted(versions.glob("*/bin/python3"))
    found = {sys.version: sys.executable}
    for path in paths:
        if path.is_file() and os.access(path, os.X_OK):
            version = _version(str(path))
            if version is not None:
                found.setdefault(version, str(path))
    del found[sys.version]
    return sorted(found.items())


def _write_inputs(root):
    rng = random.Random(8)
    lines = []
    for i in range(200):
        obj = {"id": i if i % 11 == 0 else f"p{i:03d}", "schema_id": f"db{i % 7}",
               "label": rng.randrange(2)}
        if i % 5:
            obj["token_probs"] = [rng.uniform(0.01, 1.0) for _ in range(rng.randint(1, 60))]
            if i % 13 == 0:
                obj["token_probs"].append(1)
        if i % 3:
            obj["self_check_bool"] = {"p_true": rng.random(), "p_false": rng.uniform(1e-9, 1.0)}
        if i % 4 == 0:
            obj["verbalized_prob"] = rng.random()
        if i % 2:
            obj["alternatives"] = [{"score": rng.random(), "equivalent": rng.random() < 0.5}
                                   for _ in range(rng.randint(0, 3))]
        lines.append(json.dumps(obj) + "\n")
    (root / "predictions.jsonl").write_text("".join(lines), encoding="utf-8")

    for schema in ("shop", "zoo"):
        (root / "dbs" / schema).mkdir(parents=True)
        with sqlite3.connect(root / "dbs" / schema / f"{schema}.sqlite") as conn:
            conn.execute("CREATE TABLE t (a INTEGER, b REAL, c TEXT)")
            conn.executemany("INSERT INTO t VALUES (?, ?, ?)",
                             [(rng.randrange(20), rng.random(), rng.choice("xyz"))
                              for _ in range(40)])
        conn.close()
    pairs = [{"id": f"q{i:02d}", "schema_id": ("shop", "zoo")[i % 2], "gold_sql": gold,
              "pred_sql": pred, "token_probs": [rng.random()]}
             for i, (gold, pred) in enumerate(QUERIES * 3)]
    (root / "pairs.jsonl").write_text("".join(json.dumps(p) + "\n" for p in pairs),
                                      encoding="utf-8")


def _run(executable, inputs, directory):
    """Stdout, stderr and every written file of the commands under `executable`."""
    shutil.copytree(inputs, directory)
    source = str(Path(sqlcalib.__file__).parents[1])
    done = subprocess.run([executable, "-I", "-B", "-c", RUNNER, source, json.dumps(COMMANDS)],
                          cwd=directory, capture_output=True, timeout=300)
    files = {path.name: path.read_bytes() for path in sorted(directory.glob("*.jsonl"))}
    return done.returncode, done.stdout, done.stderr, files


def test_numpy_free_commands_write_the_same_bytes_under_every_cpython(tmp_path):
    candidates = _candidates()
    if not candidates:
        pytest.skip("no other CPython 3.11 or later can be started")
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    _write_inputs(inputs)
    expected = _run(sys.executable, inputs, tmp_path / "current")
    assert expected[0] == 0, expected[2].decode()
    assert len(expected[3]) == len(SCORE_METHODS) + 3  # inputs, scores and labels
    for i, (version, executable) in enumerate(candidates):
        assert _run(executable, inputs, tmp_path / f"other{i}") == expected, (version, executable)

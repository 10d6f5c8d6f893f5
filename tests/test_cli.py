import csv
import itertools
import json
import os
import random
import sqlite3
import subprocess
import sys
import time
import tracemalloc
import warnings
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import sqlcalib
from sqlcalib import protocol, records
from sqlcalib.cli import build_parser, main
from sqlcalib.execmatch import _OUTCOMES, SQLiteExecutor, label_record
from sqlcalib.records import PredictionRecord, load_dataset, make_dataset, write_dataset
from sqlcalib.scoring import SCORE_METHODS, score_dataset, score_file


def run(*args):
    return main([str(a) for a in args])


@pytest.fixture
def synthetic(tmp_path):
    data = tmp_path / "data.jsonl"
    assert run("simulate", "--n", 400, "--map", "identity", "--seed", 3, "--out", data) == 0
    return data


class TestStartup:
    def test_validate_score_and_label_never_import_numpy(self, tmp_path):
        data = tmp_path / "data.jsonl"
        data.write_text(json.dumps({"id": "a", "schema_id": "s", "label": 1,
                                    "token_probs": [0.9, 0.5]}) + "\n")
        (tmp_path / "dbs" / "s").mkdir(parents=True)
        conn = sqlite3.connect(tmp_path / "dbs" / "s" / "s.sqlite")
        conn.executescript("CREATE TABLE t (v INTEGER); INSERT INTO t VALUES (1), (2);")
        conn.commit()
        conn.close()
        pairs = tmp_path / "pairs.jsonl"
        pairs.write_text(json.dumps({"id": "p", "schema_id": "s", "gold_sql": "SELECT v FROM t",
                                     "pred_sql": "SELECT v FROM t ORDER BY v DESC"}) + "\n")
        script = (
            "import sys\n"
            "from sqlcalib.cli import main\n"
            f"assert main(['validate', '--input', {str(data)!r}]) == 0\n"
            f"assert main(['score', '--input', {str(data)!r}, '--method', 'prod',"
            f" '--out', {str(tmp_path / 'scored.jsonl')!r}]) == 0\n"
            f"assert main(['label', '--pairs', {str(pairs)!r}, '--db-root', {str(tmp_path / 'dbs')!r},"
            f" '--out', {str(tmp_path / 'labeled.jsonl')!r}]) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n"
        )
        src = str(Path(sqlcalib.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"
        assert json.loads((tmp_path / "labeled.jsonl").read_text())["label"] == 1

    @pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs /proc")
    def test_evaluate_runs_on_one_thread(self, synthetic, tmp_path):
        script = (
            "import os\n"
            "from sqlcalib.cli import main\n"
            f"assert main(['evaluate', '--input', {str(synthetic)!r}, '--seed', '1',"
            f" '--out-dir', {str(tmp_path / 'out')!r}]) == 0\n"
            "print(len(os.listdir('/proc/self/task')))\n"
        )
        src = str(Path(sqlcalib.__file__).resolve().parents[1])
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        proc = subprocess.run([sys.executable, "-c", script], env={**env, "PYTHONPATH": src},
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "1"

    def test_every_exported_name_resolves_to_its_submodule_object(self):
        assert len(sqlcalib.__all__) == len(set(sqlcalib.__all__)) == 58
        for name in sqlcalib.__all__:
            value = getattr(sqlcalib, name)
            module = sys.modules[value.__module__]
            assert module.__name__.startswith("sqlcalib.")
            assert getattr(module, name) is value

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            sqlcalib.no_such_name
        with pytest.raises(ImportError):
            from sqlcalib import no_such_name  # noqa: F401

    def test_simulate_map_choices_are_the_protocol_maps(self):
        simulate = build_parser()._subparsers._group_actions[0].choices["simulate"]
        choices = next(a.choices for a in simulate._actions if a.dest == "map")
        assert list(choices) == sorted(protocol.TRUE_MAPS)


class TestSimulateValidate:
    def test_simulate_writes_loadable_dataset(self, synthetic):
        ds = load_dataset(synthetic)
        assert len(ds.records) == 400

    def test_validate_prints_summary(self, synthetic, capsys):
        assert run("validate", "--input", synthetic) == 0
        out = capsys.readouterr().out
        assert "records: 400" in out
        assert "schemas: 10" in out

    def validate(self, path, capsys):
        capsys.readouterr()
        assert run("validate", "--input", path) == 0
        return capsys.readouterr().out.splitlines()

    def test_validate_counts_records_schemas_and_pct(self, tmp_path, capsys):
        records = [
            PredictionRecord(id=f"r{i}", schema_id=f"s{i % 3}", label=label)
            for i, label in enumerate([1, 0, 1, 0])
        ]
        write_dataset(make_dataset(records, "t"), tmp_path / "data.jsonl")
        assert self.validate(tmp_path / "data.jsonl", capsys) == [
            "records: 4", "schemas: 3", "pct_correct: 50.0"]

    def test_validate_all_correct(self, tmp_path, capsys):
        records = [PredictionRecord(id=f"r{i}", schema_id="s", label=1) for i in range(7)]
        write_dataset(make_dataset(records, "t"), tmp_path / "data.jsonl")
        assert self.validate(tmp_path / "data.jsonl", capsys)[2] == "pct_correct: 100.0"

    def test_validate_matches_file_line_count(self, tmp_path, capsys):
        path = tmp_path / "data.jsonl"
        path.write_text("".join(
            json.dumps({"id": f"q{i}", "schema_id": f"db{i % 11}", "label": 1,
                        "token_probs": [0.9, 0.8]}) + "\n" for i in range(1034)))
        assert self.validate(path, capsys)[:2] == ["records: 1034", "schemas: 11"]

    @pytest.mark.parametrize("command", [
        ["validate"],
        ["score", "--method", "prod", "--out", "scored.jsonl"],
        ["evaluate", "--seed", "1", "--out-dir", "out"],
    ])
    def test_schema_id_null_is_not_the_string_none(self, tmp_path, capsys, command):
        data = tmp_path / "data.jsonl"
        data.write_text("".join(
            json.dumps({"id": rid, "schema_id": schema_id, "label": 1, "token_probs": [0.5]})
            + "\n" for rid, schema_id in [("a", "None"), ("b", None)]))
        command = [str(tmp_path / c) if c in ("scored.jsonl", "out") else c for c in command]
        assert run(*command, "--input", data) == 1
        assert capsys.readouterr().err == (
            f"error: {data}:2: record 'b': field 'schema_id': must be a string or a number\n")
        assert not (tmp_path / "scored.jsonl").exists() and not (tmp_path / "out").exists()

    def test_validate_bad_file_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"id": "a", "schema_id": "s", "label": 2}\n')
        assert run("validate", "--input", bad) == 1
        assert "label" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["validate"],
        ["score", "--method", "variant_alt", "--out", "scored.jsonl"],
    ])
    def test_non_finite_alternative_score_names_file_line(self, tmp_path, capsys, command):
        bad = tmp_path / "bad.jsonl"
        rows = [
            {"id": "a", "schema_id": "s", "label": 1, "token_probs": [0.9],
             "alternatives": [{"score": 0.5, "equivalent": False}]},
            {"id": "b", "schema_id": "s", "label": 0, "token_probs": [0.4],
             "alternatives": [{"score": float("inf"), "equivalent": False}]},
        ]
        bad.write_text("".join(json.dumps(r) + "\n" for r in rows))
        command = [tmp_path / c if c.endswith(".jsonl") else c for c in command]
        assert run(*command, "--input", bad) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}:2: record 'b': field 'alternatives': ")
        assert "Traceback" not in err
        assert not (tmp_path / "scored.jsonl").exists()

    @pytest.mark.parametrize("alternative,message", [
        ({"score": 1.5, "equivalent": False}, "score 1.5 outside [0, 1]"),
        ({"score": 0.5, "equivalent": "false"}, "equivalent must be true or false"),
    ])
    @pytest.mark.parametrize("command", [
        ["validate"],
        ["score", "--method", "variant_alt", "--out", "scored.jsonl"],
        ["evaluate", "--method", "variant_alt", "--seed", "1", "--out-dir", "out"],
    ])
    def test_bad_alternative_names_file_line(self, tmp_path, capsys, command, alternative,
                                             message):
        bad = tmp_path / "bad.jsonl"
        rows = [
            {"id": "a", "schema_id": "s", "label": 1, "token_probs": [0.9],
             "alternatives": [{"score": 0.5, "equivalent": False}]},
            {"id": "b", "schema_id": "s", "label": 0, "token_probs": [0.4],
             "alternatives": [alternative]},
        ]
        bad.write_text("".join(json.dumps(r) + "\n" for r in rows))
        command = [str(tmp_path / c) if c in ("scored.jsonl", "out") else c for c in command]
        assert run(*command, "--input", bad) == 1
        assert capsys.readouterr().err == (
            f"error: {bad}:2: record 'b': field 'alternatives': {message}\n"
        )
        assert not (tmp_path / "scored.jsonl").exists()
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", [
        ["validate", "--input"],
        ["label", "--db-root", "dbs", "--out", "out.jsonl", "--pairs"],
        ["calibrate", "--kind", "platt", "--out", "out.jsonl", "--scored"],
    ])
    def test_line_that_is_not_utf8_names_file_line(self, tmp_path, capsys, command):
        bad = tmp_path / "bad.jsonl"
        row = {"id": "a", "schema_id": "s", "label": 1, "method": "prod", "raw_score": 0.5,
               "gold_sql": "SELECT 1", "pred_sql": "SELECT 1"}
        bad.write_bytes(json.dumps(row).encode() + b"\n\xff\xfe\n")
        command = [str(tmp_path / c) if c in ("dbs", "out.jsonl") else c for c in command]
        assert run(*command, bad) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}:2: not UTF-8: ")
        assert "Traceback" not in err
        assert not (tmp_path / "out.jsonl").exists()

    @pytest.mark.parametrize("schemas", [0, -3])
    def test_simulate_needs_a_schema(self, tmp_path, capsys, schemas):
        out = tmp_path / "x.jsonl"
        assert run("simulate", "--n", 10, "--seed", 1, "--schemas", schemas, "--out", out) == 1
        assert capsys.readouterr().err == f"error: need n_schemas >= 1, got {schemas}\n"
        assert not out.exists()

    def test_seed_required(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("SQLCALIB_SEED", raising=False)
        with pytest.raises(SystemExit) as exc:
            run("simulate", "--n", 10, "--out", tmp_path / "x.jsonl")
        assert exc.value.code == 2

    def test_seed_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SQLCALIB_SEED", "3")
        out = tmp_path / "env.jsonl"
        assert run("simulate", "--n", 50, "--out", out) == 0
        explicit = tmp_path / "explicit.jsonl"
        assert run("simulate", "--n", 50, "--seed", 3, "--out", explicit) == 0
        assert out.read_bytes() == explicit.read_bytes()


class TestScoreCalibrate:
    def test_score_writes_scored_records(self, synthetic, tmp_path, capsys):
        out = tmp_path / "scored.jsonl"
        assert run("score", "--input", synthetic, "--out", out, "--method", "prod") == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 400
        first = json.loads(lines[0])
        assert set(first) == {"id", "schema_id", "method", "raw_score", "label"}

    def test_score_reports_skips(self, tmp_path, capsys):
        data = tmp_path / "mixed.jsonl"
        rows = [
            {"id": "a", "schema_id": "s", "label": 1, "token_probs": [0.9]},
            {"id": "b", "schema_id": "s", "label": 0},
        ]
        data.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        out = tmp_path / "scored.jsonl"
        assert run("score", "--input", data, "--out", out, "--method", "prod") == 0
        err = capsys.readouterr().err
        assert "scored 1 records, skipped 1" in err
        assert "skip missing token_probs: 1 records, first b" in err

    def test_score_prints_one_skip_line_per_reason(self, tmp_path, capsys):
        data = tmp_path / "mixed.jsonl"
        alts = [{"score": 0.2, "equivalent": False}]
        rows = [
            {"id": "a", "schema_id": "s", "label": 1, "token_probs": [0.9], "alternatives": alts},
            {"id": "b", "schema_id": "s", "label": 0},
            {"id": "c", "schema_id": "s", "label": 0, "alternatives": alts},
            {"id": "d", "schema_id": "s", "label": 1},
            {"id": "e", "schema_id": "s", "label": 1, "alternatives": alts},
        ]
        data.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        out = tmp_path / "scored.jsonl"
        assert run("score", "--input", data, "--out", out, "--method", "variant_alt") == 0
        skips = [line for line in capsys.readouterr().err.splitlines() if line.startswith("skip")]
        assert skips == ["skip missing alternatives: 2 records, first b",
                         "skip missing token_probs: 2 records, first c"]

    def test_calibrate_round_trip(self, synthetic, tmp_path):
        scored = tmp_path / "scored.jsonl"
        run("score", "--input", synthetic, "--out", scored, "--method", "prod")
        cal = tmp_path / "cal.json"
        assert run("calibrate", "--scored", scored, "--kind", "isotonic", "--out", cal) == 0
        obj = json.loads(cal.read_text())
        assert obj["kind"] == "isotonic"
        assert run("calibrate", "--scored", scored, "--kind", "platt", "--out", cal) == 0
        assert json.loads(cal.read_text())["kind"] == "platt"


    @pytest.mark.parametrize("field,value", [
        ("label", 1.7),
        ("label", True),
        ("label", 1.0),
        ("label", None),
        pytest.param("raw_score", 10**400, id="raw_score-too-large-for-a-float"),
        ("raw_score", "high"),
        ("raw_score", "0.5"),
    ])
    def test_scored_file_follows_the_record_rules(self, tmp_path, capsys, field, value):
        scored = tmp_path / "scored.jsonl"
        rows = [
            {"id": "a", "schema_id": "s", "method": "prod", "raw_score": 0.2, "label": 0},
            {"id": "b", "schema_id": "s", "method": "prod", "raw_score": 0.7, "label": 1},
        ]
        rows[1][field] = value
        scored.write_text("".join(json.dumps(r) + "\n" for r in rows))
        out = tmp_path / "cal.json"
        assert run("calibrate", "--scored", scored, "--kind", "isotonic", "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {scored}:2: record 'b': field {field!r}: ")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("drop", ["schema_id", "method", "raw_score", "label"])
    def test_scored_file_missing_field_names_it(self, tmp_path, capsys, drop):
        scored = tmp_path / "scored.jsonl"
        row = {"id": "a", "schema_id": "s", "method": "prod", "raw_score": 0.2, "label": 0}
        del row[drop]
        scored.write_text(json.dumps(row) + "\n")
        assert run("calibrate", "--scored", scored, "--kind", "platt",
                   "--out", tmp_path / "cal.json") == 1
        assert capsys.readouterr().err == (
            f"error: {scored}:1: record 'a': field {drop!r}: missing required field\n"
        )

    def test_scored_file_duplicate_id_rejected(self, tmp_path, capsys):
        scored = tmp_path / "scored.jsonl"
        row = {"id": "a", "schema_id": "s", "method": "prod", "raw_score": 0.2, "label": 0}
        scored.write_text(json.dumps(row) + "\n" + json.dumps({**row, "label": 1}) + "\n")
        out = tmp_path / "cal.json"
        assert run("calibrate", "--scored", scored, "--kind", "platt", "--out", out) == 1
        assert capsys.readouterr().err == f"error: {scored}:2: duplicate record id 'a'\n"
        assert not out.exists()


class TestEvaluate:
    def test_min_bin_count_above_a_fold_test_split_names_the_fold(self, synthetic, tmp_path,
                                                                   capsys):
        # 10 schemas of 40 records over k=5 folds: every test split holds 320
        out = tmp_path / "out"
        assert run("evaluate", "--input", synthetic, "--binning", "monotonic",
                   "--min-bin-count", 350, "--seed", 1, "--out-dir", out) == 1
        assert capsys.readouterr().err == (
            "error: fold 0: test split has 320 records, below min_bin_count 350\n")
        assert not out.exists()

    def test_writes_report_and_thresholds(self, synthetic, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code = run(
            "evaluate", "--input", synthetic, "--method", "prod", "--calibrator", "isotonic",
            "--binning", "uniform", "--k", 5, "--seed", 7, "--out-dir", out_dir,
        )
        assert code == 0
        assert (out_dir / "report.csv").exists()
        assert (out_dir / "thresholds.csv").exists()

    def test_byte_identical_across_runs(self, synthetic, tmp_path):
        dirs = [tmp_path / "r1", tmp_path / "r2"]
        for d in dirs:
            assert run("evaluate", "--input", synthetic, "--method", "prod",
                       "--seed", 7, "--out-dir", d) == 0
        assert (dirs[0] / "report.csv").read_bytes() == (dirs[1] / "report.csv").read_bytes()
        assert (dirs[0] / "thresholds.csv").read_bytes() == (dirs[1] / "thresholds.csv").read_bytes()

    def test_single_schema_dataset_exits_1(self, tmp_path, capsys):
        data = tmp_path / "one.jsonl"
        rows = [
            {"id": f"r{i}", "schema_id": "only", "label": i % 2, "token_probs": [0.5]}
            for i in range(20)
        ]
        data.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        assert run("evaluate", "--input", data, "--seed", 1, "--out-dir", tmp_path / "o") == 1
        assert "need ≥ k schemas" in capsys.readouterr().err

    def test_no_partial_outputs_on_failure(self, tmp_path):
        data = tmp_path / "one.jsonl"
        rows = [{"id": "r0", "schema_id": "only", "label": 1, "token_probs": [0.5]}]
        data.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        out_dir = tmp_path / "never"
        assert run("evaluate", "--input", data, "--seed", 1, "--out-dir", out_dir) == 1
        assert not out_dir.exists()

    def test_end_to_end_ece_bound(self, tmp_path):
        data = tmp_path / "big.jsonl"
        assert run("simulate", "--n", 10000, "--map", "identity", "--seed", 3, "--out", data) == 0
        out_dir = tmp_path / "out"
        assert run("evaluate", "--input", data, "--method", "prod", "--calibrator", "isotonic",
                   "--binning", "uniform", "--k", 5, "--seed", 3, "--out-dir", out_dir) == 0
        with (out_dir / "report.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        mean_row = next(r for r in rows if r["fold"] == "mean" and r["calibrator"] == "isotonic")
        assert float(mean_row["ece_cal"]) <= 0.02

    def test_compare_table(self, synthetic, tmp_path):
        out_dir = tmp_path / "cmp"
        assert run("evaluate", "--input", synthetic, "--method", "prod", "--seed", 5,
                   "--out-dir", out_dir, "--compare") == 0
        with (out_dir / "compare.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert [r["method"] for r in rows] == ["prod", "geo", "min", "avg"]
        assert all(set(r) == {"method", "bs_i", "auc", "ece_p", "ece_i"} for r in rows)

    @pytest.mark.parametrize("minimum", [1, 0])
    def test_schema_level_needs_two_records_per_schema(self, tmp_path, capsys, minimum):
        data = tmp_path / "small.jsonl"
        assert run("simulate", "--n", 30, "--schemas", 20, "--seed", 1, "--out", data) == 0
        capsys.readouterr()
        out_dir = tmp_path / "sl"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run("evaluate", "--input", data, "--scope", "schema_level",
                       "--min-schema-records", minimum, "--seed", 1, "--out-dir", out_dir)
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: min_schema_records must be >= 2, got {minimum}\n"
        )
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not out_dir.exists()

    @pytest.mark.parametrize("flag, field", [("--bins", "n_bins"), ("--min-bin-count", "min_bin_count")])
    @pytest.mark.parametrize("binning", ["uniform", "monotonic"])
    def test_bin_settings_below_1_rejected_before_any_read(self, tmp_path, capsys, flag, field,
                                                          binning):
        out_dir = tmp_path / "out"
        # the input does not exist: the check comes before any read
        code = run("evaluate", "--input", tmp_path / "missing.jsonl", "--binning", binning,
                   flag, 0, "--seed", 1, "--out-dir", out_dir)
        assert code == 1
        assert capsys.readouterr().err == f"error: {field} must be >= 1, got 0\n"
        assert not out_dir.exists()

    def test_schema_level_skips_schemas_below_min_bin_count(self, tmp_path, capsys):
        # schemas 00-04 hold 21 records (17 evaluated), schemas 05-09 hold 20 (16 evaluated)
        data = tmp_path / "uneven.jsonl"
        assert run("simulate", "--n", 205, "--schemas", 10, "--seed", 1, "--out", data) == 0
        capsys.readouterr()
        out_dir = tmp_path / "sl"
        assert run("evaluate", "--input", data, "--scope", "schema_level", "--binning", "monotonic",
                   "--min-bin-count", 17, "--seed", 1, "--out-dir", out_dir) == 0
        err = capsys.readouterr().err
        for s in range(5, 10):
            assert f"skip schema schema-{s:02d}: only 16 evaluation records, need min_bin_count 17" in err
        with (out_dir / "schemas.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert [r["schema"] for r in rows] == [f"schema-{s:02d}" for s in range(5)] + ["micro"]

    def test_compare_with_schema_level_is_a_usage_error(self, tmp_path):
        out_dir = tmp_path / "sl"
        with pytest.raises(SystemExit) as exc:
            # the input does not exist: the usage check comes before any read
            run("evaluate", "--input", tmp_path / "missing.jsonl", "--scope", "schema_level",
                "--compare", "--seed", 2, "--out-dir", out_dir)
        assert exc.value.code == 2
        assert not out_dir.exists()

    def test_schema_level_scope(self, synthetic, tmp_path):
        out_dir = tmp_path / "sl"
        assert run("evaluate", "--input", synthetic, "--scope", "schema_level",
                   "--seed", 2, "--out-dir", out_dir) == 0
        with (out_dir / "schemas.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert rows[-1]["schema"] == "micro"
        assert len(rows) == 11  # 10 schemas + micro
        with (out_dir / "thresholds.csv").open() as fh:
            trows = list(csv.DictReader(fh))
        assert all(r["scope"] == "schema_level" for r in trows)

    def test_bins_above_the_scored_records_exit_1_before_any_bin(self, synthetic, tmp_path,
                                                                capsys):
        out_dir = tmp_path / "out"
        capsys.readouterr()
        start = time.perf_counter()
        code = run("evaluate", "--input", synthetic, "--bins", 80000, "--seed", 1,
                   "--out-dir", out_dir)
        elapsed = time.perf_counter() - start
        assert code == 1
        assert capsys.readouterr().err == (
            "error: --bins 80000 exceeds the 400 records scored with method prod\n")
        assert elapsed < 0.5  # building 80,000 bins per split took 3.4 s
        assert not out_dir.exists()

    @pytest.mark.parametrize("n, argv", [
        (8, ("--k", 2)),
        (9, ("--scope", "schema_level", "--min-schema-records", 2)),
    ], ids=["schema_disjoint", "schema_level"])
    def test_bins_bound_holds_under_uniform_binning_only(self, tmp_path, capsys, n, argv):
        # monotonic binning never reads --bins, so its default 10 may exceed the records
        data = tmp_path / "data.jsonl"
        assert run("simulate", "--n", n, "--schemas", 2, "--seed", 3, "--out", data) == 0
        evaluate = ("evaluate", "--input", data, *argv, "--seed", 1, "--out-dir")
        assert run(*evaluate, tmp_path / "monotonic", "--binning", "monotonic") == 0
        capsys.readouterr()
        assert run(*evaluate, tmp_path / "uniform") == 1
        assert capsys.readouterr().err == (
            f"error: --bins 10 exceeds the {n} records scored with method prod\n")
        assert not (tmp_path / "uniform").exists()

    def test_prints_the_records_each_method_skipped(self, tmp_path, capsys):
        # every third record lacks token_probs: each pooling method skips 20 of 60
        data = tmp_path / "data.jsonl"
        rows = []
        for i in range(60):
            row = {"id": f"r{i:02d}", "schema_id": f"s{i % 10}", "label": i % 2,
                   "self_check_bool": {"p_true": 0.2 + 0.01 * i, "p_false": 0.5}}
            if i % 3:
                row["token_probs"] = [0.3 + 0.01 * i]
            rows.append(json.dumps(row))
        data.write_text("\n".join(rows) + "\n")
        assert run("evaluate", "--input", data, "--method", "self_check_bool", "--compare",
                   "--seed", 1, "--out-dir", tmp_path / "out") == 0
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if line.startswith("method ")] == [
            f"method {method}: skipped 20 records" for method in ("prod", "geo", "min", "avg")]

    def test_degenerate_tuning_split_is_a_note(self, tmp_path, capsys):
        # schema s0 is all correct, so the fold that tunes on it alone holds one class
        data = tmp_path / "data.jsonl"
        rows = [{"id": f"r{i:02d}", "schema_id": f"s{i % 5}",
                 "label": 1 if i % 5 == 0 else i // 5 % 2, "token_probs": [0.2 + 0.01 * i]}
                for i in range(60)]
        data.write_text("\n".join(map(json.dumps, rows)) + "\n")
        fold = protocol._assign_folds(Counter(r["schema_id"] for r in rows), 5, 1)["s0"]
        out_dir = tmp_path / "out"
        assert run("evaluate", "--input", data, "--seed", 1, "--out-dir", out_dir) == 0
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if line.startswith("note: ")] == [
            f"note: fold {fold}: degenerate tuning split (Platt reduces to a constant map)"]
        report = json.loads((out_dir / "report.json").read_text())
        assert [f["degenerate_tune"] for f in report["folds"]] == [f == fold for f in range(5)]

    @staticmethod
    def _variant_rows(path):
        """10 schemas of 20 records whose variant scores are negative for every
        odd record, so every evaluated split holds a score below 0."""
        rows = [{"id": f"r{i:03d}", "schema_id": f"s{i // 20}",
                 "label": int((i % 2 == 0) != (i % 5 == 0)),
                 "token_probs": [0.3 + 0.03 * (i * 7 % 20)],
                 "alternatives": [{"score": 0.95 if i % 2 else 0.1, "equivalent": False}]}
                for i in range(200)]
        path.write_text("\n".join(map(json.dumps, rows)) + "\n")

    def test_variant_scores_below_0_leave_ece_raw_empty(self, tmp_path):
        data = tmp_path / "data.jsonl"
        self._variant_rows(data)
        out_dir = tmp_path / "out"
        assert run("evaluate", "--input", data, "--method", "variant_alt", "--seed", 1,
                   "--out-dir", out_dir) == 0
        with (out_dir / "report.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 * (5 + 2)  # both calibrators, 5 folds, mean and std
        assert {r["ece_raw"] for r in rows} == {""}
        assert all(r["ece_cal"] for r in rows)
        report = json.loads((out_dir / "report.json").read_text())
        assert [f["metrics"]["ece_raw"] for f in report["folds"]] == [None] * 5
        for agg in (report["mean"], report["std"]):
            assert "ece_raw" not in agg and "ece_i" in agg

    def test_variant_scores_below_0_leave_schema_level_ece_raw_empty(self, tmp_path):
        data = tmp_path / "data.jsonl"
        self._variant_rows(data)
        out_dir = tmp_path / "out"
        assert run("evaluate", "--input", data, "--method", "variant_alt", "--scope",
                   "schema_level", "--seed", 1, "--out-dir", out_dir) == 0
        with (out_dir / "schemas.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 10 + 1  # every schema and micro
        assert {r["ece_raw"] for r in rows} == {""}
        assert all(r["ece_i"] for r in rows)

    def test_compare_checks_every_bins_bound_before_any_evaluation(self, tmp_path, capsys,
                                                                    monkeypatch):
        # 200 records with self_check_bool, 100 of them with token_probs: --bins 150
        # passes for the primary method and fails for every pooling method
        data = tmp_path / "data.jsonl"
        rows = []
        for i in range(200):
            row = {"id": f"r{i}", "schema_id": f"s{i % 10}", "label": i % 2,
                   "self_check_bool": {"p_true": 0.2 + 0.003 * i, "p_false": 0.5}}
            if i % 2:
                row["token_probs"] = [0.9, 0.5 + 0.002 * i]
            rows.append(json.dumps(row))
        data.write_text("\n".join(rows) + "\n")

        def refuse(*args, **kwargs):
            raise AssertionError("cross_validate ran before every --bins bound was checked")

        from sqlcalib import cli

        monkeypatch.setattr(cli, "cross_validate", refuse, raising=False)
        out_dir = tmp_path / "out"
        capsys.readouterr()
        assert run("evaluate", "--input", data, "--method", "self_check_bool", "--compare",
                   "--bins", 150, "--seed", 1, "--out-dir", out_dir) == 1
        assert capsys.readouterr().err.splitlines()[-1] == (
            "error: --bins 150 exceeds the 100 records scored with method prod")
        assert not out_dir.exists()


def full_records(path, n, n_tokens=None, seed=0):
    """`n` records over ten schemas with every field; `n_tokens` per record,
    or between 1 and 40."""
    rng = random.Random(seed)
    with path.open("w", encoding="utf-8") as fh:
        for i in range(n):
            probs = [round(rng.uniform(0.05, 1.0), 6) for _ in range(n_tokens or rng.randint(1, 40))]
            fh.write(json.dumps({
                "id": f"r{i:05d}", "schema_id": f"s{i % 10}", "label": rng.randint(0, 1),
                "question": f"q{i}", "token_probs": probs,
                "self_check_bool": {"p_true": rng.random(), "p_false": rng.random() + 0.01},
                "verbalized_prob": rng.random(),
                "alternatives": [{"score": rng.random(), "equivalent": rng.random() < 0.3}
                                 for _ in range(rng.randint(0, 3))],
                "difficulty": "easy",
            }) + "\n")
    return path


class TestScoreFromTheLine:
    def test_score_and_evaluate_build_no_record(self, tmp_path, monkeypatch):
        data = full_records(tmp_path / "data.jsonl", 300)
        runs = {
            "prod": ["score", "--method", "prod", "--out", "{out}/scored.jsonl"],
            "variant_alt": ["score", "--method", "variant_alt", "--out", "{out}/scored.jsonl"],
            "compare": ["evaluate", "--method", "self_check_bool", "--compare", "--seed", 1,
                        "--out-dir", "{out}"],
            "schema_level": ["evaluate", "--scope", "schema_level", "--binning", "monotonic",
                             "--seed", 1, "--out-dir", "{out}"],
        }

        def outputs(tag):
            for name, argv in runs.items():
                out = tmp_path / tag / name
                out.mkdir(parents=True)
                assert run(argv[0], "--input", data,
                           *(str(a).format(out=out) for a in argv[1:])) == 0
            return {str(f.relative_to(tmp_path / tag)): f.read_bytes()
                    for f in sorted((tmp_path / tag).rglob("*")) if f.is_file()}

        plain = outputs("plain")

        def refuse(self):
            raise AssertionError("a PredictionRecord was built")

        monkeypatch.setattr(records.PredictionRecord, "__post_init__", refuse)
        with pytest.raises(AssertionError, match="was built"):
            load_dataset(data)
        assert outputs("patched") == plain
        assert run("validate", "--input", data) == 0
        assert len(plain) == 2 + 4 + 2

    @pytest.mark.parametrize("methods", [("prod",), SCORE_METHODS])
    def test_one_pass_scores_every_method_as_score_dataset(self, tmp_path, methods):
        data = full_records(tmp_path / "data.jsonl", 200, seed=1)
        with data.open("a", encoding="utf-8") as fh:  # a record only the pooling methods score
            fh.write(json.dumps({"id": "bare", "schema_id": "s", "label": 0, "token_probs": [0.5]}))
        dataset = load_dataset(data)
        assert score_file(data, methods) == {m: score_dataset(dataset, m) for m in methods}

    def test_peak_memory_does_not_grow_with_token_count(self, tmp_path):
        inputs = {n_tokens: full_records(tmp_path / f"data{n_tokens}.jsonl", 2000, n_tokens)
                  for n_tokens in (10, 200)}
        for command in (["score", "--method", "prod", "--out", tmp_path / "scored.jsonl"],
                        ["validate"]):
            # a first run, untraced, so that neither traced run pays for a first call
            assert run(*command, "--input", full_records(tmp_path / "warm.jsonl", 5)) == 0
            peaks = {}
            for n_tokens, data in inputs.items():
                tracemalloc.start()
                try:
                    assert run(*command, "--input", data) == 0
                    peaks[n_tokens] = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            # Loading every record first peaked 5 times as high with 200 tokens
            # per record as with 10 (2.8 and 14.8 MB for score); one pass holds
            # no token list past its line, so the peak stays nearly flat.
            assert peaks[200] < 1.25 * peaks[10], (command[0], peaks)


class TestReportCommand:
    def test_writes_csv_and_svg(self, synthetic, tmp_path):
        scored = tmp_path / "scored.jsonl"
        cal = tmp_path / "cal.json"
        run("score", "--input", synthetic, "--out", scored, "--method", "prod")
        run("calibrate", "--scored", scored, "--kind", "isotonic", "--out", cal)
        out_csv, out_svg = tmp_path / "rel.csv", tmp_path / "rel.svg"
        assert run("report", "--scored", scored, "--calibrator", cal, "--label", "prod",
                   "--out-csv", out_csv, "--out-svg", out_svg) == 0
        assert out_csv.read_text().startswith("label,bin_lo,bin_hi,mean_conf,accuracy,count")
        assert out_svg.read_text().startswith("<svg")

    def test_bins_above_the_scored_records_exit_1(self, synthetic, tmp_path, capsys):
        scored = tmp_path / "scored.jsonl"
        cal = tmp_path / "cal.json"
        run("score", "--input", synthetic, "--out", scored, "--method", "prod")
        run("calibrate", "--scored", scored, "--kind", "isotonic", "--out", cal)
        capsys.readouterr()
        out_csv = tmp_path / "rel.csv"
        assert run("report", "--scored", scored, "--calibrator", cal, "--bins", 401,
                   "--out-csv", out_csv) == 1
        assert capsys.readouterr().err == f"error: --bins 401 exceeds the 400 records in {scored}\n"
        assert not out_csv.exists()
        assert run("report", "--scored", scored, "--calibrator", cal, "--bins", 400,
                   "--out-csv", out_csv) == 0

    def test_bins_bound_holds_under_uniform_binning_only(self, tmp_path, capsys):
        data, scored, cal = tmp_path / "data.jsonl", tmp_path / "scored.jsonl", tmp_path / "cal.json"
        run("simulate", "--n", 8, "--schemas", 2, "--seed", 3, "--out", data)
        run("score", "--input", data, "--out", scored, "--method", "prod")
        run("calibrate", "--scored", scored, "--kind", "isotonic", "--out", cal)
        report = ("report", "--scored", scored, "--calibrator", cal, "--out-csv")
        assert run(*report, tmp_path / "monotonic.csv", "--binning", "monotonic") == 0
        capsys.readouterr()
        assert run(*report, tmp_path / "uniform.csv") == 1
        assert capsys.readouterr().err == f"error: --bins 10 exceeds the 8 records in {scored}\n"
        assert not (tmp_path / "uniform.csv").exists()

    @pytest.mark.parametrize("text", [
        '{"kind": "platt"}',
        '[1, 2]',
        '{"kind": "platt", "t": Infinity, "b": 0.0}',
        '{"kind": "isotonic", "knots": [[0.8, 0.2], [0.2, 0.9]]}',
        '{"kind": "isotonic", "knots": [[0.2, NaN], [0.8, 0.9]]}',
        '{"kind": "isotonic", "knots": [[0.2, 0.1], [0.8, 1.5]]}',
        '{"kind": "isotonic", "knots": []}',
        '{"kind": "isotonic", "mode": "bogus", "knots": [[0.2, 0.1], [0.8, 0.9]]}',
        'not json',
        '{"kind": "platt", "t": "1.5", "b": 0.0}',
    ], ids=["platt-without-t-b", "not-an-object", "infinite-t", "descending-x", "nan-y",
            "y-above-1", "no-knots", "unknown-mode", "not-json", "string-t"])
    def test_bad_calibrator_file_exits_1(self, synthetic, tmp_path, capsys, text):
        scored = tmp_path / "scored.jsonl"
        run("score", "--input", synthetic, "--out", scored, "--method", "prod")
        cal = tmp_path / "cal.json"
        cal.write_text(text)
        capsys.readouterr()
        out_csv = tmp_path / "rel.csv"
        assert run("report", "--scored", scored, "--calibrator", cal, "--out-csv", out_csv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cal}: ")
        assert "Traceback" not in err
        assert not out_csv.exists()


class TestLabelCommand:
    @pytest.fixture
    def db_root(self, tmp_path):
        root = tmp_path / "dbs"
        (root / "concerts").mkdir(parents=True)
        conn = sqlite3.connect(root / "concerts" / "concerts.sqlite")
        conn.executescript(
            """
            CREATE TABLE singer (name TEXT, age INTEGER);
            INSERT INTO singer VALUES ('Ava', 30), ('Ben', 25);
            """
        )
        conn.commit()
        conn.close()
        return root

    def test_labels_pairs_into_records(self, db_root, tmp_path, capsys):
        pairs = tmp_path / "pairs.jsonl"
        rows = [
            {"id": "q1", "schema_id": "concerts", "gold_sql": "SELECT name FROM singer",
             "pred_sql": "SELECT name FROM singer ORDER BY name", "token_probs": [0.9, 0.8]},
            {"id": "q2", "schema_id": "concerts", "gold_sql": "SELECT name FROM singer",
             "pred_sql": "SELECT age FROM singer", "token_probs": [0.4]},
            {"id": "q3", "schema_id": "concerts", "gold_sql": "SELECT name FROM singer",
             "pred_sql": "SELEC nope", "token_probs": [0.2]},
        ]
        pairs.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        out = tmp_path / "labeled.jsonl"
        assert run("label", "--pairs", pairs, "--db-root", db_root, "--out", out) == 0
        ds = load_dataset(out)
        labels = {r.id: r.label for r in ds.records}
        assert labels == {"q1": 1, "q2": 0, "q3": 0}
        assert ds.records[0].token_probs == (0.9, 0.8)
        assert capsys.readouterr().err.splitlines()[-1] == (
            "outcomes: matched 1, mismatched 1, pred error 1, pred timeout 0, "
            "shape or row-cap reject 0, match timeout 0")

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    def test_timeout_must_be_positive_and_finite(self, db_root, tmp_path, capsys, value):
        # NaN or infinity would disable the deadline; zero or less would time out every query
        pairs = tmp_path / "pairs.jsonl"
        pairs.write_text(json.dumps({"id": "q1", "schema_id": "concerts",
                                     "gold_sql": "SELECT name FROM singer",
                                     "pred_sql": "SELECT age FROM singer"}) + "\n")
        out = tmp_path / "labeled.jsonl"
        with pytest.raises(SystemExit) as exc:
            run("label", "--pairs", pairs, "--db-root", db_root, "--out", out, "--timeout", value)
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1].endswith(
            f"argument --timeout: must be a positive finite number, got {value!r}")
        assert not out.exists()

    @pytest.mark.parametrize("fail_after", [None, 2])
    def test_closes_every_connection(self, db_root, tmp_path, monkeypatch, fail_after):
        (db_root / "empty").mkdir()
        sqlite3.connect(db_root / "empty" / "empty.sqlite").close()
        pairs = tmp_path / "pairs.jsonl"
        schemas_and_preds = [("concerts", "SELECT 1"), ("empty", "SELECT 2"),
                             ("concerts", "SELECT 2"), ("empty", "SELECT 1")]
        rows = [{"id": f"q{i}", "schema_id": schema, "gold_sql": "SELECT 1", "pred_sql": pred}
                for i, (schema, pred) in enumerate(schemas_and_preds)]
        pairs.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        opened = []
        connect = sqlite3.connect

        def is_closed(conn):
            try:
                conn.total_changes
            except sqlite3.ProgrammingError:
                return True
            return False

        def connect_one_at_a_time(*args, **kwargs):
            assert all(map(is_closed, opened)), "a connection opened while another was open"
            opened.append(connect(*args, **kwargs))
            return opened[-1]

        monkeypatch.setattr(sqlite3, "connect", connect_one_at_a_time)
        if fail_after is not None:  # labeling stops with an exception after some pairs
            from sqlcalib import cli
            label_record = cli.label_record

            def failing(*args, **kwargs):
                if len(opened) == fail_after:
                    raise RuntimeError("stop")
                return label_record(*args, **kwargs)

            monkeypatch.setattr(cli, "label_record", failing)
            with pytest.raises(RuntimeError):
                run("label", "--pairs", pairs, "--db-root", db_root, "--out", tmp_path / "x.jsonl")
        else:
            assert run("label", "--pairs", pairs, "--db-root", db_root,
                       "--out", tmp_path / "x.jsonl") == 0
        assert len(opened) == 2  # one per database, reused by its second pair
        assert all(map(is_closed, opened))

    def test_one_executor_per_database(self, db_root, tmp_path, monkeypatch):
        # a dirty gold reopens its connection, but never its executor
        (db_root / "empty").mkdir()
        sqlite3.connect(db_root / "empty" / "empty.sqlite").close()
        pairs = tmp_path / "pairs.jsonl"
        golds = ["PRAGMA table_info(singer)", "SELECT 1", "SELECT random()"]
        rows = [{"id": f"q{i}", "schema_id": schema, "gold_sql": gold, "pred_sql": "SELECT 1"}
                for i, (schema, gold) in enumerate(itertools.product(["empty", "concerts"] * 2,
                                                                      golds))]
        pairs.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        from sqlcalib import cli

        built = []

        def counted(database, **kwargs):
            built.append(Path(database).parent.name)
            return SQLiteExecutor(database, **kwargs)

        monkeypatch.setattr(cli, "SQLiteExecutor", counted)
        assert run("label", "--pairs", pairs, "--db-root", db_root,
                   "--out", tmp_path / "x.jsonl") == 0
        assert built == ["concerts", "empty"]

    def test_match_search_past_the_timeout_labels_0(self, tmp_path, capsys):
        # 7 free bits plus their parity, and the same bits with the negated parity:
        # every projection short of all 8 columns agrees, so without a deadline
        # the search tries all 8! column orders, which takes seconds
        root = tmp_path / "dbs"
        (root / "parity").mkdir(parents=True)
        bits = [list(row) for row in itertools.product((0, 1), repeat=7)]
        cols = ", ".join(f"c{j}" for j in range(8))
        conn = sqlite3.connect(root / "parity" / "parity.sqlite")
        for name, flip in (("a", 0), ("b", 1)):
            conn.execute(f"CREATE TABLE {name} ({cols})")
            conn.executemany(f"INSERT INTO {name} VALUES ({', '.join('?' * 8)})",
                             [row + [(sum(row) + flip) % 2] for row in bits])
        conn.commit()
        conn.close()
        pairs = tmp_path / "pairs.jsonl"
        pairs.write_text(json.dumps({"id": "p", "schema_id": "parity", "gold_sql": "SELECT * FROM a",
                                     "pred_sql": "SELECT * FROM b"}) + "\n")
        out = tmp_path / "labeled.jsonl"
        start = time.perf_counter()
        assert run("label", "--pairs", pairs, "--db-root", root, "--out", out, "--timeout", 0.5) == 0
        assert time.perf_counter() - start < 2.0
        assert json.loads(out.read_text())["label"] == 0
        assert capsys.readouterr().err.splitlines()[-1] == (
            "outcomes: matched 0, mismatched 0, pred error 0, pred timeout 0, "
            "shape or row-cap reject 0, match timeout 1")

    def test_gold_failure_exits_1(self, db_root, tmp_path, capsys):
        pairs = tmp_path / "pairs.jsonl"
        pairs.write_text(json.dumps({
            "id": "q1", "schema_id": "concerts",
            "gold_sql": "SELECT bogus FROM singer", "pred_sql": "SELECT name FROM singer",
        }) + "\n")
        assert run("label", "--pairs", pairs, "--db-root", db_root,
                   "--out", tmp_path / "x.jsonl") == 1
        assert "gold query failed" in capsys.readouterr().err

    def test_every_gold_failure_is_named_and_nothing_written(self, db_root, tmp_path, capsys):
        pairs = tmp_path / "pairs.jsonl"
        rows = [
            {"id": "q1", "schema_id": "concerts", "gold_sql": "SELECT bogus FROM singer",
             "pred_sql": "SELECT name FROM singer"},
            {"id": "q2", "schema_id": "concerts", "gold_sql": "SELECT name FROM singer",
             "pred_sql": "SELECT name FROM singer"},
            {"id": "q3", "schema_id": "concerts", "gold_sql": "SELECT nope FROM singer",
             "pred_sql": "SELECT name FROM singer"},
        ]
        pairs.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        out = tmp_path / "labeled.jsonl"
        assert run("label", "--pairs", pairs, "--db-root", db_root, "--out", out) == 1
        assert capsys.readouterr().err == (
            f"error: {pairs}: gold query failed: 'q1': no such column: bogus; "
            "'q3': no such column: nope\n"
        )
        assert not out.exists()

    def label_rows(self, db_root, tmp_path, capsys, rows):
        """Exit code, stderr lines and the labels by id of `label` on `rows`."""
        pairs = tmp_path / "pairs.jsonl"
        pairs.write_text("\n".join(json.dumps({"schema_id": "concerts", **r}) for r in rows) + "\n")
        out = tmp_path / "labeled.jsonl"
        capsys.readouterr()
        code = run("label", "--pairs", pairs, "--db-root", db_root, "--out", out)
        labels = None
        if code == 0:
            labels = {r["id"]: r["label"] for r in map(json.loads, out.read_text().splitlines())}
        return code, capsys.readouterr().err.splitlines(), labels

    def test_gold_runs_once_per_database_and_query(self, db_root, tmp_path, capsys):
        names, ages = "SELECT name FROM singer", "SELECT age FROM singer"
        rows = [
            {"id": "q1", "gold_sql": names, "pred_sql": names},
            {"id": "q2", "gold_sql": ages, "pred_sql": "SELECT age FROM singer ORDER BY age"},
            {"id": "q3", "gold_sql": names, "pred_sql": "SELECT name FROM singer WHERE age > 26"},
            {"id": "q4", "gold_sql": ages, "pred_sql": ages},
            {"id": "q5", "gold_sql": names, "pred_sql": "SELECT upper(name) FROM singer"},
        ]
        code, err, labels = self.label_rows(db_root, tmp_path, capsys, rows)
        assert code == 0
        assert list(labels.items()) == [("q1", 1), ("q2", 1), ("q3", 0), ("q4", 1), ("q5", 0)]
        assert err[-2:] == [
            "gold executions: 2 for 5 pairs; 2 predictions identical to gold not run",
            "outcomes: matched 3, mismatched 1, pred error 0, pred timeout 0, "
            "shape or row-cap reject 1, match timeout 0",
        ]

    @pytest.mark.parametrize("gold", ["SELECT random()", "SELECT CURRENT_TIMESTAMP",
                                      "SELECT date('now')"])
    def test_volatile_gold_runs_once_per_pair(self, db_root, tmp_path, capsys, gold):
        rows = [{"id": f"q{i}", "gold_sql": gold, "pred_sql": pred}
                for i, pred in enumerate([gold, "SELECT 1", gold])]
        code, err, _ = self.label_rows(db_root, tmp_path, capsys, rows)
        assert code == 0
        assert err[-2] == "gold executions: 3 for 3 pairs; 0 predictions identical to gold not run"

    def test_volatile_text_run_first_as_a_prediction_is_not_shared(self, db_root, tmp_path,
                                                                      capsys):
        # "SELECT 1" sorts first, so its prediction prepares "SELECT random()" before
        # any gold does; each gold run is then judged on its own
        rows = [
            {"id": "q1", "gold_sql": "SELECT random()", "pred_sql": "SELECT random()"},
            {"id": "q2", "gold_sql": "SELECT 1", "pred_sql": "SELECT random()"},
            {"id": "q3", "gold_sql": "SELECT random()", "pred_sql": "SELECT random()"},
        ]
        code, err, labels = self.label_rows(db_root, tmp_path, capsys, rows)
        assert code == 0
        assert labels == {"q1": 0, "q2": 0, "q3": 0}
        assert err[-2] == "gold executions: 3 for 3 pairs; 0 predictions identical to gold not run"

    @pytest.mark.parametrize("gold", ["PRAGMA table_info(singer)",
                                      "SELECT value FROM json_each('[1, 2]')"])
    def test_dirty_gold_runs_once_per_pair(self, db_root, tmp_path, capsys, gold):
        rows = [{"id": f"q{i}", "gold_sql": gold, "pred_sql": gold} for i in range(3)]
        code, err, labels = self.label_rows(db_root, tmp_path, capsys, rows)
        assert code == 0
        assert labels == {"q0": 1, "q1": 1, "q2": 1}
        assert err[-2] == "gold executions: 3 for 3 pairs; 0 predictions identical to gold not run"

    def test_shared_gold_failure_names_its_pairs_in_file_order(self, db_root, tmp_path, capsys):
        bogus, nope, names = ("SELECT bogus FROM singer", "SELECT nope FROM singer",
                              "SELECT name FROM singer")
        rows = [
            {"id": "q1", "gold_sql": bogus, "pred_sql": names},
            {"id": "q2", "gold_sql": nope, "pred_sql": names},
            {"id": "q3", "gold_sql": names, "pred_sql": names},
            {"id": "q4", "gold_sql": bogus, "pred_sql": bogus},
            {"id": "q5", "gold_sql": bogus, "pred_sql": names},
        ]
        code, err, _ = self.label_rows(db_root, tmp_path, capsys, rows)
        assert code == 1
        assert err == [
            f"error: {tmp_path / 'pairs.jsonl'}: gold query failed: 'q1': no such column: bogus; "
            "'q2': no such column: nope; 'q4': no such column: bogus; "
            "'q5': no such column: bogus"
        ]
        assert not (tmp_path / "labeled.jsonl").exists()

    PROPERTY_GOLDS = ("SELECT name FROM singer", "SELECT name, age FROM singer",
                      "SELECT count(*) FROM singer", "SELECT age FROM singer WHERE age > 26",
                      "SELECT value FROM json_each('[1, 2]')")
    PROPERTY_PREDS = PROPERTY_GOLDS + (
        "SELECT age, name FROM singer ORDER BY age", "SELECT name FROM singer ORDER BY name DESC",
        "SELEC nope", "SELECT age FROM singer", "SELECT 2", "PRAGMA table_info(singer)",
        "CREATE TEMP TABLE singer AS SELECT 'Zed' AS name",
    )

    @given(pairs=st.lists(st.tuples(st.sampled_from(["concerts", "tour"]),
                                    st.sampled_from(PROPERTY_GOLDS),
                                    st.sampled_from(PROPERTY_PREDS)), min_size=1, max_size=12))
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_labels_equal_per_pair_labeling_on_fresh_executors(self, db_root, tmp_path, capsys,
                                                                pairs):
        tour = db_root / "tour" / "tour.sqlite"
        if not tour.exists():
            tour.parent.mkdir()
            with sqlite3.connect(tour) as conn:
                conn.executescript("CREATE TABLE singer (name TEXT, age INTEGER);"
                                   "INSERT INTO singer VALUES ('Cy', 41), ('Di', 19), ('Cy', 41);")
            conn.close()
        rows = [{"id": f"q{i}", "schema_id": schema, "gold_sql": gold, "pred_sql": pred}
                for i, (schema, gold, pred) in enumerate(pairs)]
        code, err, labels = self.label_rows(db_root, tmp_path, capsys, rows)
        assert code == 0
        want, want_outcomes = {}, Counter()
        for row in rows:
            executor = SQLiteExecutor(db_root / row["schema_id"] / f"{row['schema_id']}.sqlite")
            want[row["id"]] = label_record(row["gold_sql"], row["pred_sql"], executor,
                                           outcomes=want_outcomes)
            executor.close()
        assert list(labels.items()) == list(want.items())
        assert err[-1] == "outcomes: " + ", ".join(f"{name} {want_outcomes[name]}"
                                                   for name in _OUTCOMES)

    def test_every_missing_database_is_named_before_any_sql(self, db_root, tmp_path, capsys):
        pairs = tmp_path / "pairs.jsonl"
        rows = [
            # a gold query that fails: reaching it would report "gold query failed"
            {"id": "q1", "schema_id": "concerts", "gold_sql": "SELECT bogus FROM singer",
             "pred_sql": "SELECT name FROM singer"},
            {"id": "q2", "schema_id": "zz", "gold_sql": "SELECT 1", "pred_sql": "SELECT 1"},
            {"id": "q3", "schema_id": "yy", "gold_sql": "SELECT 1", "pred_sql": "SELECT 1"},
        ]
        pairs.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        out = tmp_path / "labeled.jsonl"
        assert run("label", "--pairs", pairs, "--db-root", db_root, "--out", out) == 1
        assert capsys.readouterr().err == (
            f"error: {pairs}: database file not found: 'q2': {db_root / 'zz' / 'zz.sqlite'}; "
            f"'q3': {db_root / 'yy' / 'yy.sqlite'}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("field,value", [
        ("verbalized_prob", "high"),
        ("self_check_bool", [0.1, 0.2]),
        ("self_check_bool", {"p_true": float("inf"), "p_false": 0.1}),
        ("token_probs", [[0.5]]),
        ("alternatives", [{"score": float("inf"), "equivalent": True}]),
        ("pred_sql", 5),
        ("db_path", 7),
    ])
    def test_invalid_pair_field_exits_1_before_any_sql(self, db_root, tmp_path, capsys,
                                                          field, value):
        pairs = tmp_path / "pairs.jsonl"
        rows = [
            # a gold query that fails: reaching it would report "gold query failed"
            {"id": "q1", "schema_id": "concerts", "gold_sql": "SELECT bogus FROM singer",
             "pred_sql": "SELECT name FROM singer"},
            {"id": "q2", "schema_id": "concerts", "gold_sql": "SELECT name FROM singer",
             "pred_sql": "SELECT name FROM singer", field: value},
        ]
        pairs.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        out = tmp_path / "labeled.jsonl"
        assert run("label", "--pairs", pairs, "--db-root", db_root, "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {pairs}:2: ")
        assert "Traceback" not in err
        assert not out.exists()

    def test_duplicate_id_names_the_pair_line_before_any_sql(self, db_root, tmp_path, capsys):
        pairs = tmp_path / "pairs.jsonl"
        rows = [
            {"id": "q1", "schema_id": "concerts", "gold_sql": "SELECT bogus FROM singer",
             "pred_sql": "SELECT name FROM singer"},
            {"id": "q1", "schema_id": "concerts", "gold_sql": "SELECT name FROM singer",
             "pred_sql": "SELECT name FROM singer"},
        ]
        pairs.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        out = tmp_path / "labeled.jsonl"
        assert run("label", "--pairs", pairs, "--db-root", db_root, "--out", out) == 1
        assert capsys.readouterr().err == f"error: {pairs}:2: duplicate record id 'q1'\n"
        assert not out.exists()

    def test_absolute_db_path_ignores_db_root(self, db_root, tmp_path):
        pairs = tmp_path / "pairs.jsonl"
        pairs.write_text(json.dumps({
            "id": "q1", "schema_id": "other", "gold_sql": "SELECT name FROM singer",
            "pred_sql": "SELECT name FROM singer",
            "db_path": str(db_root / "concerts" / "concerts.sqlite"),
        }) + "\n")
        out = tmp_path / "labeled.jsonl"
        absent = tmp_path / "absent"
        assert run("label", "--pairs", pairs, "--db-root", absent, "--out", out) == 0
        assert json.loads(out.read_text())["label"] == 1

    def test_carried_numbers_are_normalized_like_load(self, db_root, tmp_path):
        pairs = tmp_path / "pairs.jsonl"
        pairs.write_text(json.dumps({
            "id": "q1", "schema_id": "concerts", "gold_sql": "SELECT name FROM singer",
            "pred_sql": "SELECT name FROM singer", "verbalized_prob": 1,
        }) + "\n")
        out = tmp_path / "labeled.jsonl"
        assert run("label", "--pairs", pairs, "--db-root", db_root, "--out", out) == 0
        assert json.loads(out.read_text())["verbalized_prob"] == 1.0
        assert '"verbalized_prob": 1.0' in out.read_text()

"""Golden outputs: the exact bytes every CLI output file holds for fixed inputs.

Seeded `simulate` data goes through `evaluate` under both calibration scopes
(schema-disjoint with `--compare`, schema-disjoint with monotonic bins and
Platt thresholds, and schema-level); a seeded file of skewed schema sizes
goes through schema-level `evaluate` with monotonic bins, Platt thresholds
and `--min-bin-count 3`; a seeded file of two schemas, one all label 1 and
one all label 0, with `alternatives` on every record, goes through `evaluate
--method variant_alt` under both scopes (`--k 2` for schema-disjoint), so its
tables hold empty `ece_raw` cells (variant scores leave [0, 1]) and NaN AUCs
(every test split, and every schema's evaluation split, holds one class);
`prod` scores of a smaller second
`simulate` seed go through `calibrate` with both kinds, and the saved
calibrators through `report` with both binnings on the first input's scores
(some of which lie outside the fitted knot range); and a small SQLite fixture goes through `label`. Each output file's SHA-256 is compared with a recorded constant, so
a refactor that claims identical outputs is held to it byte for byte. A
change that means to alter an output updates its constant and says why.
"""

import hashlib
import json
import sqlite3

import numpy as np
import pytest

from sqlcalib.cli import main

EVALUATE_RUNS = {
    "compare": ["--compare"],
    "monotonic_platt": ["--binning", "monotonic", "--calibrator", "platt"],
    "schema_level": ["--scope", "schema_level"],
}

# Schema-level runs on skewed schema sizes, 2 to 150 records: with
# --min-schema-records 3 the 2-record schemas are skipped for size and the
# 3-record ones (1 tuning, 2 evaluation records) for --min-bin-count 3;
# 8- to 12-record schemas tune on 2 records; the schemas in SINGLE_CLASS
# hold one label class, so their evaluation splits do too.
SKEWED_SIZES = (2, 2, 3, 3, 4, 5, 6, 8, 9, 10, 11, 12, 13, 14, 16, 17, 19, 22, 25, 29, 33,
                40, 47, 57, 64, 80, 96, 110, 128, 150)
SINGLE_CLASS = {5: 1, 9: 0, 17: 1, 47: 0}  # index into SKEWED_SIZES -> the one label
SKEWED_FLAGS = ["--scope", "schema_level", "--binning", "monotonic", "--calibrator", "platt",
                "--min-bin-count", "3", "--min-schema-records", "3"]

# Two 12-record schemas, one label class each, scored by the variant rule.
SINGLE_CLASS_SCHEMAS = {"dbA": 1, "dbB": 0}
VARIANT_RUNS = {
    "variant_disjoint": ["--method", "variant_alt", "--k", "2"],
    "variant_schema_level": ["--method", "variant_alt", "--scope", "schema_level"],
}

CALIBRATOR_KINDS = ("platt", "isotonic")
REPORT_BINNINGS = {
    "uniform": ["--binning", "uniform"],
    "monotonic": ["--binning", "monotonic", "--min-bin-count", "5"],
}

GOLDEN = {
    ("simulate", "data.jsonl"):
        "b74e24c38096e4deef0af11212d6c3968e8b4a93cd7eb8857e452992b984c3db",
    ("compare", "report.csv"):
        "eb5cd69f9771a4d8f5407ee3d3e01f868dc705710a32cc8c71f226eca4f29345",
    ("compare", "report.json"):
        "ee6e9e8fbc3005f3764c82b0b5d0164faf9149468e0aeb554ad61694da1eafb6",
    ("compare", "thresholds.csv"):
        "4f586a64ee60b092e58f650fd55410ad6bcfc27e076027e3b0c65035c59629de",
    ("compare", "compare.csv"):
        "760b745a14ee28bcbdae14863d3eaad94cac4016a72cf1b981ac99d073199635",
    ("monotonic_platt", "report.csv"):
        "5cd93d165b2781009aedf63117f0844a98a201262a8112cd7f531ad90b51b226",
    ("monotonic_platt", "report.json"):
        "9b759b515113e88c514c10bf4ee06a1907df950cf5e4576189b398ffc64e8554",
    ("monotonic_platt", "thresholds.csv"):
        "2e578168cafb2ca5f52e649e82e49614f00b623ae07700c0fa4c4d428f68154c",
    ("schema_level", "schemas.csv"):
        "188b13fa2232273fa72b10ac699a9ec804f9a867d8c02a752de6eaf0d88f1cf0",
    ("schema_level", "thresholds.csv"):
        "3b2922a7752c8ebda710fafef875e0abe236b24fc83cb392034687cc7d220b72",
    ("calibrate", "isotonic.json"):
        "7dc5cd4e9a882f8ea1504164b39423e2b59f4e8b5126403b4422737da4b61e77",
    ("calibrate", "platt.json"):
        "65278d83615ef65b1a5d2b4101c3ca33491c5e23be63dd3dfb9b0de42bd67051",
    ("report", "isotonic_monotonic.csv"):
        "695e2c20e0faebd99375a051f48fcb7708f6b036590d09cb5294bee3e14d3e7a",
    ("report", "isotonic_monotonic.svg"):
        "917cc5f5026d42be68b73e1b8c72178eb21bf9c71360c8f1973bcbe7e5d9bdf3",
    ("report", "isotonic_uniform.csv"):
        "1f46edac7ae32ae2fb7ee7d313a4d846b59491ab1b1f4ff2ead86d83e9353a7f",
    ("report", "isotonic_uniform.svg"):
        "8ede632a42b2316504d91531d58394feb8a84ec19efbee7af56c67528aec79e0",
    ("report", "platt_monotonic.csv"):
        "113708ee4be0c7aad9b51e27d1af22e86d47295c287b97e896466df6fe5a93ea",
    ("report", "platt_monotonic.svg"):
        "6120ac34b3ff030bcd76ce740d7a443e27806f60d9383f70870d471bd83b7efc",
    ("report", "platt_uniform.csv"):
        "786b0ca3e9869540b158353d3f128be21d45b115b11644246dc106c3d753152d",
    ("report", "platt_uniform.svg"):
        "007db3b070124390627105c512719eeaf8b764ea5867c392395be243bd129646",
    ("label", "labeled.jsonl"):
        "d2017ca9ca960961bbe1185b63cff04f731d7baec728a704f83dac5f6582de09",
    ("skewed", "data.jsonl"):
        "22b3ffa5d66c4ab23fff4a002c5fa5177145840128ea26429fe886e6fcc9ba0c",
    ("schema_level_skewed", "schemas.csv"):
        "b67c4820aa216cebcad5c2d1422733e0bea36aa5b9773752eb907e3c501035cf",
    ("schema_level_skewed", "thresholds.csv"):
        "d8fa8bd20588447859d85908e31cdea77cc5d4f81d63ce16afbb22927f8118e0",
    ("variant", "data.jsonl"):
        "8e397e776425ca65477cb7c5267ddde8754d2a31c2356f501252b4c6b3690111",
    ("variant_disjoint", "report.csv"):
        "708fd538769b6cb5c060e7cfb301b36df5330b84cfe67be8d83aaeba8d8a36c4",
    ("variant_disjoint", "report.json"):
        "704ca04a9946b4f68acea8ad95a5ab48f0bb37578b761161fa644564d52d1bc4",
    ("variant_disjoint", "thresholds.csv"):
        "70c51a39b733f00406bee7857b13a047254892befe39a64d201c6af337a797be",
    ("variant_schema_level", "schemas.csv"):
        "1df3a99b3fa07a01f1886d71290e65361de8e28bedfead3eabd8b6af5b825f96",
    ("variant_schema_level", "thresholds.csv"):
        "d98090535ca5437d5a35808c2e8114972005c58ebd6640ae681516a46e1422ae",
}

PAIRS = [
    {"id": "q1", "schema_id": "concerts", "gold_sql": "SELECT name FROM singer",
     "pred_sql": "SELECT name FROM singer ORDER BY age", "question": "Singer names?",
     "token_probs": [0.9, 0.8, 0.75], "self_check_bool": {"p_true": 0.7, "p_false": 0.2},
     "verbalized_prob": 0.85, "model": "m-1"},
    {"id": "q2", "schema_id": "concerts", "gold_sql": "SELECT name, age FROM singer",
     "pred_sql": "SELECT age, name FROM singer", "token_probs": [0.6],
     "alternatives": [{"score": 0.4, "equivalent": False}, {"score": 0.2, "equivalent": True}]},
    {"id": "q3", "schema_id": "concerts", "gold_sql": "SELECT count(*) FROM singer",
     "pred_sql": "SELECT count(*) FROM singer WHERE age > 26", "label": 1,
     "db_path": "concerts/concerts.sqlite", "token_probs": [0.5, 0.45]},
    {"id": "q4", "schema_id": "concerts", "gold_sql": "SELECT avg(age) FROM singer",
     "pred_sql": "SELEC avg(age) FROM singer", "question": "Mean age?",
     "self_check_bool": {"p_true": 0.1, "p_false": 0.8}, "tags": ["agg", "avg"]},
    {"id": "q5", "schema_id": "concerts", "gold_sql": "SELECT 1.5 * age FROM singer",
     "pred_sql": "SELECT age * 1.5 FROM singer", "verbalized_prob": 0.5},
]


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_variant(path):
    """12 records of each SINGLE_CLASS_SCHEMAS schema, labeled by it, with two
    token probabilities and two alternatives each, in a seeded shuffled order."""
    rng = np.random.Generator(np.random.PCG64(30))
    rows = []
    for schema_id, label in SINGLE_CLASS_SCHEMAS.items():
        for i in range(12):
            probs = np.round(rng.uniform(0.3, 1.0, size=2), 4).tolist()
            alts = [{"score": round(float(x), 4), "equivalent": bool(e)}
                    for x, e in zip(rng.uniform(0.0, 1.0, size=2), rng.random(2) < 0.3)]
            rows.append({"id": f"{schema_id}-{i:02d}", "schema_id": schema_id, "label": label,
                         "token_probs": probs, "alternatives": alts})
    path.write_text("".join(json.dumps(rows[i]) + "\n" for i in rng.permutation(len(rows))),
                    encoding="utf-8")


def _write_skewed(path):
    """Records of the SKEWED_SIZES schemas, in a seeded shuffled order, with
    two token probabilities each and labels drawn at the pooled score."""
    rng = np.random.Generator(np.random.PCG64(29))
    rows = []
    for s, size in enumerate(SKEWED_SIZES):
        probs = np.round(rng.uniform(0.3, 1.0, size=(size, 2)), 4)
        labels = (rng.random(size) < probs.prod(axis=1)).astype(int)
        if s in SINGLE_CLASS:
            labels[:] = SINGLE_CLASS[s]
        rows += [{"id": f"q{s:02d}-{i:03d}", "schema_id": f"db{s:02d}", "label": int(label),
                  "token_probs": p.tolist()} for i, (p, label) in enumerate(zip(probs, labels))]
    path.write_text("".join(json.dumps(rows[i]) + "\n" for i in rng.permutation(len(rows))),
                    encoding="utf-8")


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Run every command once; map (run, file name) to the written file."""
    root = tmp_path_factory.mktemp("golden")
    data = root / "data.jsonl"
    assert main(["simulate", "--n", "1200", "--map", "logistic", "--seed", "11",
                 "--schemas", "12", "--out", str(data)]) == 0
    for run, flags in EVALUATE_RUNS.items():
        assert main(["evaluate", "--input", str(data), "--seed", "7",
                     "--out-dir", str(root / run), *flags]) == 0
    (root / "skewed").mkdir()
    skewed = root / "skewed" / "data.jsonl"
    _write_skewed(skewed)
    assert main(["evaluate", "--input", str(skewed), "--seed", "3",
                 "--out-dir", str(root / "schema_level_skewed"), *SKEWED_FLAGS]) == 0
    (root / "variant").mkdir()
    variant = root / "variant" / "data.jsonl"
    _write_variant(variant)
    for run, flags in VARIANT_RUNS.items():
        assert main(["evaluate", "--input", str(variant), "--seed", "5",
                     "--out-dir", str(root / run), *flags]) == 0

    db_dir = root / "dbs" / "concerts"
    db_dir.mkdir(parents=True)
    conn = sqlite3.connect(db_dir / "concerts.sqlite")
    conn.executescript(
        """
        CREATE TABLE singer (name TEXT, age INTEGER);
        INSERT INTO singer VALUES ('Ava', 30), ('Ben', 25), ('Cy', 41);
        """
    )
    conn.commit()
    conn.close()
    pairs = root / "pairs.jsonl"
    pairs.write_text("".join(json.dumps(p) + "\n" for p in PAIRS), encoding="utf-8")
    label_dir = root / "label"
    label_dir.mkdir()
    assert main(["label", "--pairs", str(pairs), "--db-root", str(root / "dbs"),
                 "--out", str(label_dir / "labeled.jsonl")]) == 0

    tune = root / "tune.jsonl"
    assert main(["simulate", "--n", "400", "--map", "logistic", "--seed", "12",
                 "--schemas", "4", "--out", str(tune)]) == 0
    scored_tune, scored = root / "scored_tune.jsonl", root / "scored.jsonl"
    assert main(["score", "--input", str(tune), "--method", "prod", "--out", str(scored_tune)]) == 0
    assert main(["score", "--input", str(data), "--method", "prod", "--out", str(scored)]) == 0
    (root / "calibrate").mkdir()
    (root / "report").mkdir()
    for kind in CALIBRATOR_KINDS:
        calibrator = root / "calibrate" / f"{kind}.json"
        assert main(["calibrate", "--scored", str(scored_tune), "--kind", kind,
                     "--out", str(calibrator)]) == 0
        for binning, flags in REPORT_BINNINGS.items():
            stem = root / "report" / f"{kind}_{binning}"
            assert main(["report", "--scored", str(scored), "--calibrator",
                         str(calibrator), "--label", kind, "--out-csv", f"{stem}.csv",
                         "--out-svg", f"{stem}.svg", *flags]) == 0

    files = {("simulate", "data.jsonl"): data}
    for run in (*EVALUATE_RUNS, "skewed", "schema_level_skewed", "variant", *VARIANT_RUNS,
                "calibrate", "report", "label"):
        for path in (root / run).iterdir():
            files[(run, path.name)] = path
    return files


def test_every_output_file_is_pinned(outputs):
    assert set(outputs) == set(GOLDEN)


@pytest.mark.parametrize("key", sorted(GOLDEN), ids=lambda k: "/".join(k))
def test_output_bytes_match_golden_digest(outputs, key):
    assert _sha256(outputs[key]) == GOLDEN[key]

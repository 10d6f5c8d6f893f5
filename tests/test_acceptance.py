"""Acceptance suite: one test per criterion, each printing a PASS line.

Expected values come from independent oracles (exhaustive enumeration,
pairwise counting, finite differences, seeded sampling) computed inside the
tests, or from hand-computed fixtures frozen below.
"""

import sqlite3
import time
from fractions import Fraction

import numpy as np
import pytest

from oracles import (
    auc_pair_counting,
    brute_isotonic_fit,
    brute_monotone_partition,
    central_difference_gradient,
    tables_equal_exhaustive,
)
from sqlcalib.binning import monotonic_bins, uniform_bins
from sqlcalib.calibrate import (
    PlattCalibrator,
    apply_isotonic,
    apply_platt,
    fit_isotonic,
    fit_platt,
    platt_gradient,
    platt_log_likelihood,
    smooth_targets,
)
from sqlcalib.cli import main as cli_main
from sqlcalib.execmatch import ResultTable, SQLiteExecutor, label_record, tables_equal
from sqlcalib.metrics import auc, ece, prf_at_threshold
from sqlcalib.protocol import ProtocolConfig, cross_validate, generate_synthetic
from sqlcalib.scoring import ScoredColumns, pool_avg, pool_geo, pool_min, pool_prod, score_dataset


def _rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


def test_01_isotonic_matches_exhaustive_monotone_fit():
    start = time.monotonic()
    rng = _rng(101)
    for _ in range(500):
        n = int(rng.integers(1, 13))
        scores = rng.random(n).tolist()
        labels = rng.integers(0, 2, n).tolist()
        cal = fit_isotonic(scores, labels)
        fitted = np.array([apply_isotonic(cal, x) for x in scores])
        sse = float(((np.asarray(labels, dtype=float) - fitted) ** 2).sum())
        oracle_sse, oracle_fit = brute_isotonic_fit(scores, labels)
        assert abs(sse - oracle_sse) <= 1e-9
        assert np.allclose(fitted, oracle_fit, atol=1e-9)
    elapsed = time.monotonic() - start
    assert elapsed <= 10.0
    print(f"PASS criterion 1: isotonic fit equals exhaustive optimum on 500 instances "
          f"({elapsed:.1f}s)")


def test_02_platt_recovery_and_gradient_checks():
    start = time.monotonic()
    rng = _rng(2)
    n = 5000
    r = rng.random(n)
    a = (rng.random(n) < 1.0 / (1.0 + np.exp(-(2.0 * r - 1.0)))).astype(int)
    cal = fit_platt(r, a)
    assert abs(cal.t - 2.0) <= 0.15
    assert abs(cal.b - (-1.0)) <= 0.15

    targets = smooth_targets(a)
    gt, gb = platt_gradient(cal.t, cal.b, r, targets)
    assert float(np.hypot(gt, gb)) <= 1e-6

    fn = lambda t, b: platt_log_likelihood(t, b, r, targets)  # noqa: E731
    for t, b in [(0.0, 0.0), (1.0, 0.5), (-1.0, 0.2), (cal.t, cal.b)]:
        at, ab = platt_gradient(t, b, r, targets)
        ft, fb = central_difference_gradient(fn, t, b, step=1e-5)
        assert abs(at - ft) <= 1e-4 * max(1.0, abs(at), abs(ft))
        assert abs(ab - fb) <= 1e-4 * max(1.0, abs(ab), abs(fb))
    elapsed = time.monotonic() - start
    assert elapsed <= 2.0
    print(f"PASS criterion 2: Platt recovery within ±0.15 of (2, -1), gradient checks hold "
          f"({elapsed:.2f}s)")


def test_03_ece_sanity_on_calibrated_data():
    start = time.monotonic()
    for seed in range(10):
        rng = _rng(seed)
        confs = rng.random(10000)
        labels = (rng.random(10000) < confs).astype(int)
        partition = uniform_bins(confs.tolist(), labels.tolist(), 10)
        assert ece(confs.tolist(), labels.tolist(), partition) <= 0.02
    elapsed = time.monotonic() - start
    assert elapsed <= 2.0
    print(f"PASS criterion 3: ECE <= 0.02 on calibrated data for 10 seeds ({elapsed:.2f}s)")


def test_04_auc_exactness_and_platt_invariance():
    rng = _rng(17)
    for trial in range(100):
        n = int(rng.integers(2, 201))
        labels = rng.integers(0, 2, n)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        if trial % 3 == 0:
            scores = rng.integers(0, 5, n) / 4.0  # heavy ties
        else:
            scores = rng.random(n)
        assert auc(scores.tolist(), labels.tolist()) == auc_pair_counting(scores, labels)

        cal = PlattCalibrator(t=1.5 + float(rng.random()), b=float(rng.random()) - 0.5)
        mapped = [apply_platt(cal, x) for x in scores]
        assert auc(mapped, labels.tolist()) == auc(scores.tolist(), labels.tolist())
    print("PASS criterion 4: AUC matches pairwise counting exactly and is Platt-invariant")


def test_05_pooling_inequality_chain():
    rng = _rng(55)
    for _ in range(10_000):
        n = int(rng.integers(1, 41))
        probs = (rng.random(n) * (1.0 - 1e-9) + 1e-9).tolist()
        p, m = pool_prod(probs), pool_min(probs)
        g, a = pool_geo(probs), pool_avg(probs)
        assert p <= m <= g <= a
    for pool in (pool_prod, pool_geo, pool_min, pool_avg):
        for value in (1e-9, 0.25, 0.5, 0.999, 1.0):
            assert pool([value]) == value
    print("PASS criterion 5: prod <= min <= geo <= avg on 10^4 lists, single-token identity")


def test_06_monotonic_binning_matches_exhaustive_optimum():
    rng = _rng(66)
    for _ in range(200):
        n = int(rng.integers(1, 13))
        confs = rng.random(n).tolist()
        labels = rng.integers(0, 2, n).tolist()
        partition = monotonic_bins(confs, labels)
        accs = [b.accuracy for b in partition.bins]
        assert all(x <= y for x, y in zip(accs, accs[1:]))
        oracle_obj, oracle_bins = brute_monotone_partition(confs, labels)
        assert abs(partition.objective() - oracle_obj) <= 1e-9
        assert [(b.count, b.accuracy) for b in partition.bins] == [
            (c, pytest.approx(acc, abs=1e-12)) for c, acc in oracle_bins
        ]
    print("PASS criterion 6: monotonic partition equals exhaustive optimum on 200 instances")


def test_07_protocol_integrity(tmp_path):
    ds = generate_synthetic(800, "identity", seed=7, n_schemas=10)
    scored = score_dataset(ds, "prod").scored
    cfg = ProtocolConfig(k=5, seed=7)

    from sqlcalib.protocol import _assign_folds

    counts = {}
    for schema_id in scored.schema_ids:
        counts[schema_id] = counts.get(schema_id, 0) + 1
    mapping = _assign_folds(counts, cfg.k, cfg.seed)
    for f in range(cfg.k):
        tune_schemas = {s for s, fold in mapping.items() if fold == f}
        test_schemas = {s for s, fold in mapping.items() if fold != f}
        assert not (tune_schemas & test_schemas)

    report = cross_validate(scored, cfg)
    tested = {}
    for f in range(cfg.k):
        for rid, schema_id in zip(scored.ids, scored.schema_ids):
            if mapping[schema_id] != f:
                tested[rid] = tested.get(rid, 0) + 1
    assert set(tested.values()) == {cfg.k - 1}
    assert sum(fm.n_test for fm in report.folds) == len(scored) * (cfg.k - 1)

    data = tmp_path / "data.jsonl"
    cli_main(["simulate", "--n", "400", "--map", "identity", "--seed", "7", "--out", str(data)])
    outputs = []
    for name in ("run1", "run2"):
        out_dir = tmp_path / name
        code = cli_main(["evaluate", "--input", str(data), "--method", "prod",
                         "--seed", "7", "--out-dir", str(out_dir)])
        assert code == 0
        outputs.append((out_dir / "report.csv").read_bytes()
                       + (out_dir / "thresholds.csv").read_bytes())
    assert outputs[0] == outputs[1]
    print("PASS criterion 7: schema disjointness, k-1 test coverage, byte-identical reports")


# 20-record fixture: confidence/label pairs with hand-computed P/R/F1 at the
# threshold grid. Positives: 11. Predicted-positive counts: 4/7/10/14.
_PRF_FIXTURE = [
    (0.95, 1), (0.92, 1), (0.91, 0), (0.90, 1),
    (0.89, 1), (0.87, 0), (0.85, 1),
    (0.84, 1), (0.82, 0), (0.80, 1),
    (0.78, 0), (0.75, 1), (0.72, 0), (0.70, 1),
    (0.60, 1), (0.50, 0), (0.40, 1), (0.30, 0), (0.20, 0), (0.10, 0),
]
_PRF_EXPECTED = {
    0.90: (Fraction(3, 4), Fraction(3, 11), Fraction(2, 5)),
    0.85: (Fraction(5, 7), Fraction(5, 11), Fraction(5, 9)),
    0.80: (Fraction(7, 10), Fraction(7, 11), Fraction(2, 3)),
    0.70: (Fraction(9, 14), Fraction(9, 11), Fraction(18, 25)),
}


def test_08_threshold_metrics():
    confs = [c for c, _ in _PRF_FIXTURE]
    labels = [l for _, l in _PRF_FIXTURE]
    for tau, (p, r, f1) in _PRF_EXPECTED.items():
        tm = prf_at_threshold(confs, labels, tau)
        assert tm.precision == pytest.approx(float(p), abs=1e-12)
        assert tm.recall == pytest.approx(float(r), abs=1e-12)
        assert tm.f1 == pytest.approx(float(f1), abs=1e-12)

    rng = _rng(88)
    for _ in range(50):
        n = int(rng.integers(1, 60))
        confs = rng.random(n).tolist()
        labels = rng.integers(0, 2, n).tolist()
        taus = sorted(rng.random(8).tolist())
        recalls = [prf_at_threshold(confs, labels, t).recall for t in taus]
        assert all(x >= y for x, y in zip(recalls, recalls[1:]))
    print("PASS criterion 8: P/R/F1 match hand-computed fixture, recall monotone in tau")


def test_09_execution_matching(tmp_path):
    rng = _rng(99)
    values = ["x", "y", "z", None, 1, 2, 2.5]
    for trial in range(500):
        k = int(rng.integers(1, 6))
        n = int(rng.integers(0, 9))
        rows_a = [[values[rng.integers(0, len(values))] for _ in range(k)] for _ in range(n)]
        if trial % 2 == 0:
            perm = rng.permutation(k)
            rows_b = [[row[j] for j in perm] for row in rows_a]
            rows_b = [rows_b[i] for i in rng.permutation(n)]
        else:
            rows_b = [[values[rng.integers(0, len(values))] for _ in range(k)] for _ in range(n)]
        a = ResultTable.from_rows(rows_a, n_cols=k)
        b = ResultTable.from_rows(rows_b, n_cols=k)
        result = tables_equal(a, b)
        assert result == tables_equal_exhaustive(a, b)
        if trial % 2 == 0:
            assert result  # shuffles of identical tables always match

    db = tmp_path / "t.sqlite"
    conn = sqlite3.connect(db)
    conn.executescript("CREATE TABLE t (a INTEGER); INSERT INTO t VALUES (1), (2);")
    conn.commit()
    conn.close()
    executor = SQLiteExecutor(db)
    assert label_record("SELECT a FROM t", "SELECT bogus FROM missing", executor) == 0
    print("PASS criterion 9: table matching agrees with exhaustive oracle on 500 pairs, "
          "failing prediction labels 0")


def test_10_end_to_end_separable_and_independent():
    scored = []
    i = 0
    for s in range(6):
        for label in (0, 1) * 5:
            scored.append((f"r{i:03d}", f"s{s}", float(label), label))
            i += 1
    ids, schema_ids, raw_scores, labels = zip(*scored)
    separable = cross_validate(ScoredColumns(ids, schema_ids, "prod", raw_scores, labels),
                               ProtocolConfig(seed=10))
    assert separable.mean["auc"] == 1.0
    assert separable.mean["bs_i"] <= 0.01

    ds = generate_synthetic(5000, "half", seed=11)
    independent = cross_validate(score_dataset(ds, "prod").scored, ProtocolConfig(seed=11))
    assert 0.47 <= independent.mean["auc"] <= 0.53
    print("PASS criterion 10: separable case AUC=1.0, BS-I<=0.01; "
          f"independent case AUC={independent.mean['auc']:.3f}")

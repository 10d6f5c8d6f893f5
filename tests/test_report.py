import csv
from dataclasses import asdict, fields, replace

import pytest

from sqlcalib.binning import monotonic_bins, uniform_bins
from sqlcalib.protocol import (
    EvaluationReport,
    ProtocolConfig,
    cross_validate,
    generate_synthetic,
)
from sqlcalib.report import (
    ReliabilitySeries,
    reliability_series,
    render_reliability,
    write_compare_csv,
    write_report_csv,
    write_report_json,
    write_reliability_csv,
    write_thresholds_csv,
)
from sqlcalib.scoring import score_dataset


def _series():
    confs = [0.15, 0.18, 0.52, 0.55, 0.91, 0.95, 0.99]
    labels = [0, 0, 1, 0, 1, 1, 1]
    return reliability_series(uniform_bins(confs, labels, 10), "prod+isotonic")


class TestSeries:
    def test_one_point_per_nonempty_bin(self):
        series = _series()
        assert len(series.points) == 3
        assert all(p.count > 0 for p in series.points)
        confs = [p.mean_conf for p in series.points]
        assert confs == sorted(confs)

    def test_single_bin_partition(self):
        series = reliability_series(monotonic_bins([0.4, 0.5], [1, 1]), "x")
        assert len(series.points) == 1

    def test_diagonal_when_perfectly_calibrated(self):
        confs = [0.25] * 4 + [0.75] * 4
        labels = [1, 0, 0, 0, 1, 1, 1, 0]
        series = reliability_series(uniform_bins(confs, labels, 2), "cal")
        for p in series.points:
            assert p.accuracy == pytest.approx(p.mean_conf)

    def test_counts_carried_through(self):
        series = _series()
        assert sum(p.count for p in series.points) == 7


def _assert_rows_equal_bins(rows, series):
    """Every CSV row reads back == the label and Bin fields it was written from."""
    assert len(rows) == len(series.points)
    for row, b in zip(rows, series.points):
        label, lo, hi, mean_conf, accuracy, count = row
        assert label == series.label
        assert [float(lo), float(hi), float(mean_conf), float(accuracy)] == [
            b.lo, b.hi, b.mean_conf, b.accuracy
        ]
        assert int(count) == b.count


class TestCsv:
    def test_round_trip_identical(self, tmp_path):
        series = _series()
        path = tmp_path / "rel.csv"
        write_reliability_csv([series], path)
        with path.open(newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["label", "bin_lo", "bin_hi", "mean_conf", "accuracy", "count"]
        _assert_rows_equal_bins(rows, series)

    def test_multiple_series(self, tmp_path):
        s1 = _series()
        s2 = ReliabilitySeries(label="other", points=s1.points)
        path = tmp_path / "rel.csv"
        write_reliability_csv([s1, s2], path)
        with path.open(newline="") as fh:
            _, *rows = csv.reader(fh)
        n = len(s1.points)
        _assert_rows_equal_bins(rows[:n], s1)
        _assert_rows_equal_bins(rows[n:], s2)


class TestSvg:
    def test_renders_and_embeds_exact_values(self, tmp_path):
        series = _series()
        out = render_reliability([series], tmp_path / "rel.svg")
        text = out.read_text()
        assert text.startswith("<svg")
        for p in series.points:
            assert f'cx="{p.mean_conf!r}"' in text
            assert f'cy="{p.accuracy!r}"' in text

    def test_byte_stable(self, tmp_path):
        series = _series()
        a = render_reliability([series], tmp_path / "a.svg").read_bytes()
        b = render_reliability([series], tmp_path / "b.svg").read_bytes()
        assert a == b

    def test_label_reads_back_from_the_parsed_svg(self, tmp_path):
        from xml.etree import ElementTree

        label = 'a<b & "c" > d'
        out = render_reliability([replace(_series(), label=label)], tmp_path / "rel.svg")
        texts = [t.text for t in ElementTree.parse(out).iter("{http://www.w3.org/2000/svg}text")]
        assert label in texts

    def test_empty_series_list_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no reliability series"):
            render_reliability([], tmp_path / "x.svg")

    def test_unwritable_path(self, tmp_path):
        with pytest.raises(OSError):
            render_reliability([_series()], tmp_path / "missing" / "x.svg")


@pytest.fixture(scope="module")
def report():
    ds = generate_synthetic(600, "identity", seed=21)
    return cross_validate(score_dataset(ds, "prod").scored, ProtocolConfig(seed=21))


class TestEvaluationCsv:

    def test_report_csv_shape(self, tmp_path, report):
        path = tmp_path / "report.csv"
        write_report_csv(report, path, dataset_name="synthetic")
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "dataset,method,calibrator,binning,fold,bs,auc,ece_raw,ece_cal"
        # 5 folds x 2 calibrators + mean/std x 2 calibrators
        assert len(lines) == 1 + 10 + 4
        assert any(",mean," in line for line in lines)
        assert any(",std," in line for line in lines)

    def test_fold_rows_name_their_own_binning(self, tmp_path, report):
        # built by hand: fold metrics under monotonic bins, the config under uniform
        folds = tuple(replace(fm, metrics=replace(fm.metrics, binning_mode="monotonic"))
                      for fm in report.folds)
        path = tmp_path / "report.csv"
        write_report_csv(replace(report, folds=folds), path)
        with path.open() as fh:
            binnings = {(r["fold"], r["binning"]) for r in csv.DictReader(fh)}
        assert binnings == {*((str(f), "monotonic") for f in range(5)),
                            ("mean", "uniform"), ("std", "uniform")}

    def test_report_csv_deterministic(self, tmp_path, report):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_report_csv(report, a)
        write_report_csv(report, b)
        assert a.read_bytes() == b.read_bytes()

    def test_thresholds_csv(self, tmp_path, report):
        path = tmp_path / "thr.csv"
        write_thresholds_csv([("schema_disjoint", report.prf_mean)], path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "scope,threshold,precision,recall,f1"
        assert len(lines) == 1 + len(report.prf_mean)
        assert all(line.startswith("schema_disjoint,") for line in lines[1:])

    def test_compare_csv(self, tmp_path, report):
        path = tmp_path / "cmp.csv"
        write_compare_csv({"prod": report, "geo": report}, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "method,bs_i,auc,ece_p,ece_i"
        assert [line.split(",")[0] for line in lines[1:]] == ["prod", "geo"]

    def test_report_json(self, tmp_path, report):
        import json

        path = tmp_path / "report.json"
        write_report_json(report, path, dataset_name="synthetic")
        obj = json.loads(path.read_text())
        assert obj["method"] == "prod"
        assert len(obj["folds"]) == 5
        assert obj["mean"]["auc"] == report.mean["auc"]
        assert obj["folds"][0]["metrics"]["prf"][0]["threshold"] == 0.9
        # the whole report, dumped by asdict, plus the dataset's name
        assert obj.keys() == {"dataset"} | {f.name for f in fields(EvaluationReport)}
        assert obj["config"] == json.loads(json.dumps(asdict(report.config)))
        assert len(obj["config"]) == len(fields(ProtocolConfig)) == 9
        assert [f["metrics"]["binning_mode"] for f in obj["folds"]] == ["uniform"] * 5
        assert obj["prf_std"] == [asdict(tm) for tm in report.prf_std]

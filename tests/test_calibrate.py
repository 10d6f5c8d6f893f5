import json
import math
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    brute_isotonic_fit,
    central_difference_gradient,
    isotonic_reference,
    platt_reference,
)
from sqlcalib import calibrate
from sqlcalib.binning import monotonic_bins
from sqlcalib.calibrate import (
    IsotonicCalibrator,
    PlattCalibrator,
    apply_isotonic,
    apply_platt,
    fit_isotonic,
    fit_platt,
    load_calibrator,
    platt_gradient,
    platt_log_likelihood,
    save_calibrator,
    smooth_targets,
)


def _pairs(scores):
    return st.lists(
        st.tuples(scores, st.integers(min_value=0, max_value=1)), min_size=1, max_size=12
    )


def _columns(pairs):
    """The raw score and label columns of (raw, label) pairs."""
    return [p[0] for p in pairs], [p[1] for p in pairs]


pairs_strategy = st.one_of(
    _pairs(st.floats(min_value=0, max_value=1)),
    # tie-heavy: every score is one of a few values
    st.lists(st.floats(min_value=-1, max_value=1), min_size=1, max_size=3).flatmap(
        lambda values: _pairs(st.sampled_from(values))
    ),
    # the variant_alt range of raw scores
    _pairs(st.floats(min_value=-1, max_value=1)),
)


def _rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


class TestPlatt:
    def test_apply_identity_point(self):
        assert apply_platt(PlattCalibrator(1.0, 0.0), 0.0) == 0.5

    def test_apply_sigma_zero(self):
        assert apply_platt(PlattCalibrator(2.0, -1.0), 0.5) == 0.5

    def test_constant_map(self):
        cal = PlattCalibrator(0.0, 0.0)
        for raw in (-5.0, 0.0, 0.3, 12.0):
            assert apply_platt(cal, raw) == 0.5

    def test_apply_stays_in_unit_interval_and_increases(self):
        # range chosen to keep the sigmoid away from float saturation
        cal = PlattCalibrator(3.0, -1.5)
        values = [apply_platt(cal, x) for x in np.linspace(-8, 8, 81)]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert all(a < b for a, b in zip(values, values[1:]))
        assert all(0.0 <= apply_platt(cal, x) <= 1.0 for x in (-1e6, 1e6))

    def test_gradient_zero_at_independence(self):
        # labels independent of score at base rate 1/2: the smoothed
        # log-likelihood gradient vanishes at (0, 0) analytically...
        rng = _rng(3)
        r = rng.random(10000)
        a = np.concatenate([np.ones(5000, dtype=int), np.zeros(5000, dtype=int)])
        g = smooth_targets(a)
        # E[(target - 0.5) * r] = 0 and E[target - 0.5] = 0 up to sampling noise
        gt, gb = platt_gradient(0.0, 0.0, r, g)
        assert abs(gb) < 1e-12  # exact: mean target is 1/2 by construction
        assert abs(gt) < 0.01
        # ...and the fit lands next to (0, 0)
        cal = fit_platt(r, a)
        assert abs(cal.t) <= 0.05
        assert abs(cal.b) <= 0.05

    def test_recovers_known_parameters(self):
        rng = _rng(2)
        r = rng.random(5000)
        a = (rng.random(5000) < 1 / (1 + np.exp(-(2 * r - 1)))).astype(int)
        cal = fit_platt(r, a)
        assert cal.t == pytest.approx(2.0, abs=0.15)
        assert cal.b == pytest.approx(-1.0, abs=0.15)

    def test_single_class_stays_finite(self):
        raw = [0.1, 0.4, 0.6, 0.9]
        cal = fit_platt(raw, [1] * len(raw))
        assert math.isfinite(cal.t) and math.isfinite(cal.b)
        outputs = {apply_platt(cal, x) for x in raw}
        assert all(0.0 < v < 1.0 for v in outputs)

    def test_separable_data_stays_finite(self):
        cal = fit_platt([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1])
        assert math.isfinite(cal.t) and math.isfinite(cal.b)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="at least 1 record"):
            fit_platt([], [])

    def test_non_finite_scores_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            fit_platt([float("nan"), 0.5], [0, 1])

    def test_gradient_matches_finite_differences(self):
        rng = _rng(8)
        r = rng.random(500)
        a = (rng.random(500) < r).astype(int)
        g = smooth_targets(a)
        fn = lambda t, b: platt_log_likelihood(t, b, r, g)  # noqa: E731
        for t, b in [(0.0, 0.0), (1.0, 0.5), (-2.0, 1.0), (3.0, -1.5)]:
            at, ab = platt_gradient(t, b, r, g)
            ft, fb = central_difference_gradient(fn, t, b, step=1e-5)
            assert abs(at - ft) <= 1e-4 * max(1.0, abs(at), abs(ft))
            assert abs(ab - fb) <= 1e-4 * max(1.0, abs(ab), abs(fb))

    def test_fit_is_input_order_insensitive(self):
        rng = _rng(14)
        r = rng.random(400)
        a = (rng.random(400) < r).astype(int)
        assert fit_platt(r, a) == fit_platt(r[::-1], a[::-1])
        assert fit_isotonic(r, a) == fit_isotonic(r[::-1], a[::-1])

    def test_gradient_small_at_returned_fit(self):
        rng = _rng(5)
        r = rng.random(2000)
        a = (rng.random(2000) < 0.3 + 0.4 * r).astype(int)
        cal = fit_platt(r, a)
        gt, gb = platt_gradient(cal.t, cal.b, r, smooth_targets(a))
        assert abs(gt) <= 1e-6 and abs(gb) <= 1e-6


    def test_iteration_cap_warns_once(self, monkeypatch):
        rng = _rng(5)
        r = rng.uniform(size=200)
        a = (rng.uniform(size=200) < r).astype(int)

        def cap_warnings():
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                fit_platt(r, a)
            return [w.category for w in caught if "iteration cap" in str(w.message)]

        assert cap_warnings() == []
        monkeypatch.setattr(calibrate, "MAX_ITER", 1)
        assert cap_warnings() == [RuntimeWarning]


class TestIsotonic:
    def test_worked_example(self):
        cal = fit_isotonic([0.1, 0.2, 0.3], [0, 1, 0])
        assert [apply_isotonic(cal, x) for x in (0.1, 0.2, 0.3)] == [0.0, 0.5, 0.5]

    def test_already_monotone_is_identity(self):
        raw, labels = [0.1, 0.2, 0.3, 0.4], [0, 0, 1, 1]
        cal = fit_isotonic(raw, labels)
        assert [apply_isotonic(cal, x) for x in raw] == labels

    def test_two_point_violation_pools_to_half(self):
        cal = fit_isotonic([0.2, 0.7], [1, 0])
        assert apply_isotonic(cal, 0.2) == 0.5
        assert apply_isotonic(cal, 0.7) == 0.5

    def test_single_pair(self):
        cal = fit_isotonic([0.4], [1])
        assert apply_isotonic(cal, 0.0) == 1.0
        assert apply_isotonic(cal, 0.9) == 1.0

    def test_interpolation_midpoint(self):
        cal = IsotonicCalibrator(knots=((0.2, 0.0), (0.6, 1.0)))
        assert apply_isotonic(cal, 0.4) == pytest.approx(0.5, rel=1e-12)

    def test_interpolation_stays_at_or_below_the_next_knot(self):
        # frac rounds to 1.0 at 0.0, and 1/9 + 1.0 * (2/3 - 1/9) to one ulp above 2/3
        cal = IsotonicCalibrator(knots=((-1.0, 1 / 9), (5.182699520162494e-251, 2 / 3), (1.0, 2 / 3)))
        assert apply_isotonic(cal, 0.0) == apply_isotonic(cal, 0.25) == 2 / 3

    def test_clamping_outside_knots(self):
        cal = IsotonicCalibrator(knots=((0.2, 0.1), (0.6, 0.9)))
        assert apply_isotonic(cal, 0.0) == 0.1
        assert apply_isotonic(cal, 1.0) == 0.9

    def test_knot_value_returned_exactly(self):
        cal = IsotonicCalibrator(knots=((0.2, 0.1), (0.5, 0.4), (0.6, 0.9)))
        for x, y in cal.knots:
            assert apply_isotonic(cal, x) == y

    def test_tied_scores_merge_before_pooling(self):
        cal = fit_isotonic([0.5, 0.5, 0.9], [1, 0, 1])
        assert apply_isotonic(cal, 0.5) == 0.5
        assert apply_isotonic(cal, 0.9) == 1.0

    @given(pairs_strategy)
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force(self, pairs):
        scores, labels = _columns(pairs)
        cal = fit_isotonic(scores, labels)
        fitted = np.array([apply_isotonic(cal, x) for x in scores])
        sse = float(((np.asarray(labels, dtype=float) - fitted) ** 2).sum())
        oracle_sse, oracle_fit = brute_isotonic_fit(scores, labels)
        assert sse == pytest.approx(oracle_sse, abs=1e-9)
        assert np.allclose(fitted, oracle_fit, atol=1e-9)

    @given(pairs_strategy)
    @settings(max_examples=200, deadline=None)
    def test_invariants(self, pairs):
        scores, labels = _columns(pairs)
        cal = fit_isotonic(scores, labels)
        values = [y for _, y in cal.knots]
        xs = [x for x, _ in cal.knots]
        assert all(a < b for a, b in zip(xs, xs[1:]))
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert all(min(labels) <= v <= max(labels) for v in values)
        # block means preserve the label total
        fitted_sum = sum(apply_isotonic(cal, x) for x, _ in pairs)
        assert fitted_sum == pytest.approx(sum(labels), abs=1e-9)

    @given(pairs_strategy, st.floats(min_value=-0.5, max_value=1.5))
    @settings(max_examples=200, deadline=None)
    def test_apply_monotone_and_bounded(self, pairs, x):
        cal = fit_isotonic(*_columns(pairs))
        y = apply_isotonic(cal, x)
        assert 0.0 <= y <= 1.0
        assert apply_isotonic(cal, x) <= apply_isotonic(cal, min(x + 0.25, 2.0))

    @given(pairs_strategy)
    @settings(max_examples=200, deadline=None)
    def test_knots_are_the_edges_of_monotonic_bins(self, pairs):
        # one pooling pass: each monotonic bin (no min-count merge) is one block
        scores, labels = _columns(pairs)
        expected = []
        for b in monotonic_bins(scores, labels).bins:
            expected.append((b.lo, b.accuracy))
            if b.hi != b.lo:
                expected.append((b.hi, b.accuracy))
        assert fit_isotonic(scores, labels).knots == tuple(expected)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            fit_isotonic([float("inf")], [1])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fit_isotonic([], [])


class TestOutOfUnitRawScores:
    def test_zero_raw_from_underflowed_products_accepted(self):
        cal = fit_isotonic([0.0, 0.5, 0.9], [0, 1, 1])
        assert apply_isotonic(cal, 0.0) == 0.0
        platt = fit_platt([0.0, 0.5, 0.9, 0.2], [0, 1, 1, 0])
        assert 0.0 < apply_platt(platt, 0.0) < 1.0

    def test_variant_range_raw_scores_accepted(self):
        raws, labels = [-0.8, -0.2, 0.1, 0.7], [0, 0, 1, 1]
        iso = fit_isotonic(raws, labels)
        platt = fit_platt(raws, labels)
        for raw in raws:
            assert 0.0 <= apply_isotonic(iso, raw) <= 1.0
            assert 0.0 <= apply_platt(platt, raw) <= 1.0


class TestFitColumns:
    """Both fitters take a raw score column and a label column."""

    @given(st.floats(allow_nan=False, allow_infinity=False), st.integers(0, 1))
    @settings(max_examples=300)
    def test_one_record_fits_the_constant_map_at_the_smoothed_target(self, raw, label):
        g = float(smooth_targets([label])[0])
        assert fit_platt([raw], [label]) == PlattCalibrator(0.0, math.log(g / (1.0 - g)))

    @pytest.mark.parametrize("fit", [fit_platt, fit_isotonic])
    def test_lists_and_arrays_fit_alike(self, fit):
        rng = _rng(6)
        r = rng.random(300)
        a = (rng.random(300) < r).astype(int)
        assert fit(r, a) == fit(r.tolist(), a.tolist())

    @pytest.mark.parametrize("fit", [fit_platt, fit_isotonic])
    @pytest.mark.parametrize("raw, labels, message", [
        ([0.2, 0.7], [1], "length mismatch"),
        ([], [], "at least 1 record"),
        ([0.2, float("nan")], [0, 1], "non-finite raw score"),
        ([0.2, 0.7], [0, 2], "labels must be 0 or 1"),
    ])
    def test_bad_columns_rejected(self, fit, raw, labels, message):
        with pytest.raises(ValueError, match=message):
            fit(raw, labels)


@st.composite
def isotonic_cases(draw):
    """A knot set (one knot or more, flat runs likely) and raw scores on the
    knots, between them and outside their range."""
    xs = sorted(draw(st.sets(st.floats(-2, 2), min_size=1, max_size=8)))
    value = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(0, 1))
    ys = sorted(draw(st.lists(value, min_size=len(xs), max_size=len(xs))))
    raws = draw(st.lists(st.one_of(st.sampled_from(xs), st.floats(-3, 3)), min_size=1, max_size=20))
    return IsotonicCalibrator(knots=tuple(zip(xs, ys))), raws


class TestArrayApply:
    """One array call maps every element to exactly the float the
    per-record reference formula gives; a scalar gives a float."""

    @given(isotonic_cases())
    @settings(max_examples=300)
    def test_isotonic_matches_scalar_reference_bitwise(self, case):
        cal, raws = case
        expected = [isotonic_reference(cal.knots, r) for r in raws]
        out = apply_isotonic(cal, np.array(raws))
        assert isinstance(out, np.ndarray) and out.shape == (len(raws),)
        assert out.tolist() == expected
        scalars = [apply_isotonic(cal, r) for r in raws]
        assert all(type(v) is float for v in scalars)
        assert scalars == expected

    @given(
        st.floats(-200, 200),
        st.floats(-400, 400),
        st.lists(st.floats(-2, 2), min_size=1, max_size=20),
    )
    @settings(max_examples=300)
    def test_platt_matches_scalar_reference_bitwise(self, t, b, raws):
        cal = PlattCalibrator(t=t, b=b)
        expected = [platt_reference(t, b, r) for r in raws]
        out = apply_platt(cal, np.array(raws))
        assert isinstance(out, np.ndarray) and out.shape == (len(raws),)
        assert out.tolist() == expected
        scalars = [apply_platt(cal, r) for r in raws]
        assert all(type(v) is float for v in scalars)
        assert scalars == expected

    def test_empty_array_maps_to_empty_array(self):
        iso = IsotonicCalibrator(knots=((0.2, 0.1), (0.8, 0.9)))
        assert apply_isotonic(iso, np.array([])).shape == (0,)
        assert apply_platt(PlattCalibrator(1.0, 0.0), np.array([])).shape == (0,)

    @pytest.mark.parametrize("raw", [math.nan, math.inf, -math.inf, np.array([0.5, math.nan])])
    @pytest.mark.parametrize("cal", [
        PlattCalibrator(1.0, 0.0),
        PlattCalibrator(0.0, 0.5),  # the constant map of a degenerate split: 0 * inf is NaN
        IsotonicCalibrator(knots=((0.2, 0.1), (0.8, 0.9))),
    ])
    def test_non_finite_raw_score_rejected_as_the_fit_rejects_it(self, cal, raw):
        apply = apply_platt if isinstance(cal, PlattCalibrator) else apply_isotonic
        with pytest.raises(ValueError, match="non-finite raw score"):
            apply(cal, raw)

    @pytest.mark.parametrize("raw", [0.5, np.array([0.5])])
    def test_empty_calibrator_rejected(self, raw):
        with pytest.raises(ValueError, match="empty isotonic calibrator"):
            apply_isotonic(IsotonicCalibrator(knots=()), raw)


class TestSerialization:
    def test_platt_round_trip(self, tmp_path):
        cal = PlattCalibrator(t=2.25, b=-1.125)
        path = tmp_path / "platt.json"
        save_calibrator(cal, path)
        assert load_calibrator(path) == cal
        assert json.loads(path.read_text()).keys() == {"kind"} | {f.name for f in fields(cal)}

    def test_isotonic_round_trip(self, tmp_path):
        cal = fit_isotonic([0.1, 0.5, 0.9, 0.3], [0, 1, 1, 0])
        path = tmp_path / "iso.json"
        save_calibrator(cal, path)
        assert load_calibrator(path) == cal
        obj = json.loads(path.read_text())
        assert obj.keys() == {"kind"} | {f.name for f in fields(cal)}
        path.write_text(json.dumps({**obj, "mode": "interpolate"}))  # as files once held it
        assert load_calibrator(path) == cal

    def test_isotonic_mode_may_be_absent_but_not_step(self, tmp_path):
        path = tmp_path / "iso.json"
        path.write_text('{"kind": "isotonic", "knots": [[0.2, 0.1], [0.8, 0.9]]}')
        assert load_calibrator(path) == IsotonicCalibrator(knots=((0.2, 0.1), (0.8, 0.9)))
        path.write_text('{"kind": "isotonic", "mode": "step", "knots": [[0.2, 0.1], [0.8, 0.9]]}')
        with pytest.raises(ValueError) as err:
            load_calibrator(path)
        assert str(err.value) == (
            f"{path}: record 'isotonic': field 'mode': must be 'interpolate', got 'step'")

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"kind": "spline"}', encoding="utf-8")
        with pytest.raises(ValueError, match="unknown calibrator kind"):
            load_calibrator(path)

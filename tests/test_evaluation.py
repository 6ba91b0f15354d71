import itertools

import numpy as np
import pytest

from bp_reference import exact_map_chain, exact_map_grid_small, pixel_volume
from stereo_bp import (
    INVALID,
    DisparityMap,
    SmoothnessParams,
    bad_pixel_rate,
    labeling_energy,
    make_stereogram,
)


def _dm(arr):
    return DisparityMap(np.asarray(arr, dtype=np.int32))


class TestBadPixelRate:
    def test_identity_scores_zero(self):
        dm = _dm([[1, 2], [3, 4]])
        report = bad_pixel_rate(dm, dm)
        assert report.bad_pixel_rate == 0.0
        assert report.evaluated_count == 4 and report.excluded_count == 0

    def test_half_bad(self):
        report = bad_pixel_rate(_dm([[3, 5]]), _dm([[3, 3]]), threshold=1.0)
        assert report.bad_pixel_rate == 0.5
        assert report.mean_abs_error == pytest.approx(1.0)

    def test_invalid_truth_and_border_excluded(self):
        truth = _dm([[-1, 2, 2, 2]])
        result = _dm([[9, 9, 2, 2]])
        report = bad_pixel_rate(result, truth, threshold=1.0, border=2)
        # column 0 is INVALID, columns 0-1 are border: only x=2,3 scored
        assert report.evaluated_count == 2 and report.excluded_count == 2
        assert report.bad_pixel_rate == 0.0

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            h, w = rng.integers(1, 8, size=2)
            result = rng.integers(0, 10, size=(h, w)).astype(np.int32)
            truth = rng.integers(-1, 10, size=(h, w)).astype(np.int32)
            border = int(rng.integers(0, w))
            thr = float(rng.uniform(0.5, 2.5))
            bad = total = 0
            err_sum = 0.0
            for y in range(h):
                for x in range(w):
                    if truth[y, x] == -1 or x < border:
                        continue
                    total += 1
                    err = abs(int(result[y, x]) - int(truth[y, x]))
                    err_sum += err
                    if err > thr:
                        bad += 1
            if total == 0:
                with pytest.raises(ValueError, match="nothing to score"):
                    bad_pixel_rate(_dm(result), _dm(truth), thr, border)
                continue
            report = bad_pixel_rate(_dm(result), _dm(truth), thr, border)
            assert report.evaluated_count == total
            assert report.bad_pixel_rate == pytest.approx(bad / total)
            assert report.mean_abs_error == pytest.approx(err_sum / total)

    def test_symmetric_without_exclusions(self):
        rng = np.random.default_rng(32)
        a = _dm(rng.integers(0, 6, size=(5, 5)))
        b = _dm(rng.integers(0, 6, size=(5, 5)))
        assert (
            bad_pixel_rate(a, b).bad_pixel_rate == bad_pixel_rate(b, a).bad_pixel_rate
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="2x1.*3x1"):
            bad_pixel_rate(_dm([[0, 0]]), _dm([[0, 0, 0]]))

    def test_border_covering_the_width_scores_nothing(self):
        dm = _dm([[1, 2, 3]])
        with pytest.raises(ValueError, match="nothing to score"):
            bad_pixel_rate(dm, dm, border=3)
        assert bad_pixel_rate(dm, dm, border=2).evaluated_count == 1

    def test_all_invalid_truth_scores_nothing(self):
        with pytest.raises(ValueError, match="nothing to score"):
            bad_pixel_rate(_dm([[1, 2]]), _dm([[INVALID, INVALID]]))

    def test_csv_line(self):
        dm = _dm([[1]])
        assert bad_pixel_rate(dm, dm).csv_line() == "0.000000,1.0,1,0,0.000000"


class TestExactMapChain:
    def test_single_node(self):
        labels, energy = exact_map_chain([[2.0, 0.0, 1.0]], SmoothnessParams())
        assert labels.tolist() == [1] and energy == 0.0

    def test_two_node_hand_enumeration(self):
        # energies: {0,0}=10, {0,1}=1, {1,0}=21, {1,1}=10 -> {0,1}
        costs = [[0.0, 10.0], [10.0, 0.0]]
        labels, energy = exact_map_chain(costs, SmoothnessParams(1.0, 1.0))
        assert labels.tolist() == [0, 1] and energy == pytest.approx(1.0)

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(33)
        p = SmoothnessParams(0.9, 1.8)
        for _ in range(15):
            n = int(rng.integers(1, 11))
            levels = int(rng.integers(1, 5))
            costs = rng.uniform(0, 5, size=(n, levels))
            best_e = np.inf
            best_l = None
            for labels in itertools.product(range(levels), repeat=n):
                e = sum(costs[i, labels[i]] for i in range(n)) + sum(
                    min(p.slope * abs(labels[i] - labels[i + 1]), p.truncation)
                    for i in range(n - 1)
                )
                if e < best_e:
                    best_e, best_l = e, labels
            got_l, got_e = exact_map_chain(costs, p)
            assert got_e == pytest.approx(best_e, abs=1e-9)
            assert tuple(got_l) == best_l

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError):
            exact_map_chain(np.empty((0, 3)), SmoothnessParams())


class TestExactMapGridSmall:
    def test_single_pixel(self):
        vol = pixel_volume(np.array([[[0.7, 0.1, 0.4]]]))
        labels, energy = exact_map_grid_small(vol, SmoothnessParams())
        assert labels.tolist() == [[1]] and energy == pytest.approx(0.1)

    def test_symmetric_costs_pick_all_zero(self):
        vol = pixel_volume(np.full((2, 2, 2), 0.25))
        labels, energy = exact_map_grid_small(vol, SmoothnessParams())
        assert labels.tolist() == [[0, 0], [0, 0]]
        assert energy == pytest.approx(1.0)

    def test_optimum_is_a_lower_bound(self):
        rng = np.random.default_rng(34)
        p = SmoothnessParams()
        vol = pixel_volume(rng.uniform(0, 1, size=(2, 3, 3)))
        _, opt = exact_map_grid_small(vol, p)
        labels = rng.integers(0, 3, size=(2, 3)).astype(np.int32)
        assert opt <= labeling_energy(vol, DisparityMap(labels), p) + 1e-12

    def test_guard_rejects_large_instances(self):
        vol = pixel_volume(np.zeros((5, 5, 4)))
        with pytest.raises(ValueError):
            exact_map_grid_small(vol, SmoothnessParams())


class TestMakeStereogram:
    def test_deterministic(self):
        a = make_stereogram(32, 24, 3, 7)
        b = make_stereogram(32, 24, 3, 7)
        for x, y in zip(a[:2], b[:2]):
            assert np.array_equal(x.samples, y.samples)
        assert np.array_equal(a[2].labels, b[2].labels)

    def test_zero_shift(self):
        left, right, truth = make_stereogram(16, 16, 0, 1)
        assert np.array_equal(left.samples, right.samples)
        assert np.all(truth.labels == 0)

    def test_truth_marks_central_rectangle(self):
        _, _, truth = make_stereogram(40, 40, 5, 2)
        assert np.all(truth.labels[10:30, 10:30] == 5)
        mask = np.zeros((40, 40), dtype=bool)
        mask[10:30, 10:30] = True
        assert np.all(truth.labels[~mask] == 0)

    def test_rectangle_rows_shifted(self):
        left, right, _ = make_stereogram(40, 40, 5, 3)
        assert np.array_equal(right.samples[20, 5:25], left.samples[20, 10:30])

    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_narrow_widths_at_zero_shift(self, width):
        left, right, truth = make_stereogram(width, 3, 0, 1)
        assert np.array_equal(left.samples, right.samples)
        assert truth.labels.shape == (3, width) and np.all(truth.labels == 0)

    def test_width_five_at_shift_one(self):
        # the rectangle is columns [1, 3) of rows [2, 6)
        left, right, truth = make_stereogram(5, 8, 1, 4)
        want = left.samples.copy()
        want[2:6, 0:2] = left.samples[2:6, 1:3]
        assert np.array_equal(right.samples, want)
        assert truth.labels[2:6, 1:3].tolist() == [[1, 1]] * 4
        assert truth.labels.sum() == 8

    def test_height_one_keeps_the_rectangle(self):
        # the rectangle is columns [2, 6) of the one row
        left, right, truth = make_stereogram(8, 1, 1, 0)
        want = left.samples.copy()
        want[0, 1:5] = left.samples[0, 2:6]
        assert np.array_equal(right.samples, want)
        assert truth.labels.tolist() == [[0, 0, 1, 1, 1, 1, 0, 0]]

    def test_invalid_geometry(self):
        with pytest.raises(ValueError, match=r"must be in \[0, width/4\)"):
            make_stereogram(16, 16, 4, 0)

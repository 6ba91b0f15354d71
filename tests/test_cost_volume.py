import numpy as np
import pytest

from stereo_bp import (
    CostVolume,
    GrayImage,
    NccParams,
    build_cost_volume,
    downsample_volume,
    ncc_score,
)


def _ncc_direct(a, b):
    """Independent oracle: plain double-loop evaluation of the formula."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    am, bm = a.mean(), b.mean()
    num = sden_a = sden_b = 0.0
    for i in range(a.shape[0]):
        for j in range(a.shape[1]):
            num += (a[i, j] - am) * (b[i, j] - bm)
            sden_a += (a[i, j] - am) ** 2
            sden_b += (b[i, j] - bm) ** 2
    den = (sden_a * sden_b) ** 0.5
    return 0.0 if den == 0 else num / den


def _image(arr):
    return GrayImage(np.asarray(arr, dtype=np.uint8))


class TestNccScore:
    def test_identical_windows(self):
        img = _image(np.arange(25).reshape(5, 5))
        assert ncc_score(img, img, 2, 2, 0, 2) == pytest.approx(1.0)

    def test_anticorrelated_windows(self):
        a = np.arange(9).reshape(3, 3) + 10
        b = 2 * a.mean() - a  # negation around the mean
        left = _image(np.pad(a, 1))
        right = _image(np.pad(b.astype(int), 1))
        assert ncc_score(left, right, 2, 2, 0, 1) == pytest.approx(-1.0)

    def test_zero_variance_scores_zero(self):
        left = _image([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        right = _image(np.full((3, 3), 42))
        assert ncc_score(left, right, 1, 1, 0, 1) == 0.0

    def test_matches_direct_summation_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            a = rng.integers(0, 256, size=(3, 3))
            b = rng.integers(0, 256, size=(3, 3))
            left = _image(np.pad(a, 1))
            right = _image(np.pad(b, 1))
            got = ncc_score(left, right, 2, 2, 0, 1)
            assert got == pytest.approx(_ncc_direct(a, b), abs=1e-12)

    def test_affine_intensity_invariance(self):
        rng = np.random.default_rng(4)
        a = rng.uniform(0, 100, size=(5, 5))
        b = rng.uniform(0, 100, size=(5, 5))

        def score(x, y):
            xm, ym = x - x.mean(), y - y.mean()
            return (xm * ym).sum() / np.sqrt((xm**2).sum() * (ym**2).sum())

        base = score(a, b)
        assert abs(score(3.0 * a + 17.0, b) - base) < 1e-9
        assert abs(score(a, 0.25 * b + 90.0) - base) < 1e-9
        assert -1.0 <= base <= 1.0

    def test_out_of_bounds_window(self):
        img = _image(np.zeros((4, 4)))
        with pytest.raises(IndexError):
            ncc_score(img, img, 0, 0, 0, 1)


class TestBuildCostVolume:
    def test_zero_shift_pair_prefers_d0(self):
        rng = np.random.default_rng(5)
        img = _image(rng.integers(0, 256, size=(10, 10)))
        vol = build_cost_volume(img, img, 4, NccParams(window_radius=2))
        inner = vol.costs[4, 6]
        assert inner[0] == pytest.approx(0.0, abs=1e-12)
        assert inner[0] == inner.min()

    def test_truncation(self):
        # ncc = -1 with lambda 1, tau 1.5 -> cost truncated from 2 to 1.5
        a = np.arange(9).reshape(3, 3) + 10
        b = (2 * a.mean() - a).astype(int)
        left = _image(np.pad(a, 1))
        right = _image(np.pad(b, 1))
        p = NccParams(window_radius=1, data_weight=1.0, data_truncation=1.5)
        vol = build_cost_volume(left, right, 1, p)
        assert vol.costs[2, 2, 0] == pytest.approx(1.5)

    def test_matches_per_element_oracle(self):
        rng = np.random.default_rng(6)
        left = _image(rng.integers(0, 256, size=(16, 16)))
        right = _image(rng.integers(0, 256, size=(16, 16)))
        p = NccParams(window_radius=2, data_weight=1.3, data_truncation=1.8)
        vol = build_cost_volume(left, right, 5, p)
        r = p.window_radius
        for y in range(16):
            for x in range(16):
                for d in range(5):
                    inside = (
                        r <= y < 16 - r and r <= x < 16 - r and x - d >= r
                    )
                    if inside:
                        want = min(
                            p.data_weight * (1 - ncc_score(left, right, x, y, d, r)),
                            p.data_truncation,
                        )
                    else:
                        want = p.data_truncation
                    assert vol.costs[y, x, d] == pytest.approx(want, abs=1e-9)

    def test_costs_bounded_by_truncation(self):
        rng = np.random.default_rng(7)
        left = _image(rng.integers(0, 256, size=(12, 9)))
        right = _image(rng.integers(0, 256, size=(12, 9)))
        p = NccParams(data_truncation=0.7)
        vol = build_cost_volume(left, right, 3, p)
        assert vol.costs.min() >= 0
        assert vol.costs.max() <= 0.7 + 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            build_cost_volume(
                _image(np.zeros((4, 4))), _image(np.zeros((4, 5))), 2, NccParams()
            )


class TestDownsampleVolume:
    def test_block_sum(self):
        costs = np.zeros((2, 2, 2))
        costs[:, :, 1] = [[1, 2], [3, 4]]
        coarse = downsample_volume(CostVolume(costs, 10.0))
        assert coarse.costs.shape == (1, 1, 2)
        assert coarse.costs[0, 0].tolist() == [0.0, 10.0]

    def test_single_pixel_unchanged(self):
        vol = CostVolume(np.array([[[0.5, 0.25]]]), 1.0)
        coarse = downsample_volume(vol)
        assert np.array_equal(coarse.costs, vol.costs)

    def test_odd_dimensions_match_double_loop_oracle(self):
        rng = np.random.default_rng(9)
        vol = CostVolume(rng.uniform(0, 1, size=(7, 5, 3)), 1.0)
        coarse = downsample_volume(vol)
        assert coarse.costs.shape == (4, 3, 3)
        for cy in range(4):
            for cx in range(3):
                for d in range(3):
                    want = sum(
                        vol.costs[y, x, d]
                        for y in range(2 * cy, min(2 * cy + 2, 7))
                        for x in range(2 * cx, min(2 * cx + 2, 5))
                    )
                    assert coarse.costs[cy, cx, d] == pytest.approx(want)

    def test_cost_mass_preserved_per_disparity(self):
        rng = np.random.default_rng(10)
        vol = CostVolume(rng.uniform(0, 1, size=(9, 13, 4)), 1.0)
        coarse = downsample_volume(vol)
        assert np.allclose(
            coarse.costs.sum(axis=(0, 1)), vol.costs.sum(axis=(0, 1))
        )

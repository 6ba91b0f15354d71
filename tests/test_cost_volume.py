from decimal import Decimal, localcontext

import numpy as np
import pytest

from bp_reference import ncc_score, pixel_costs, pixel_volume
from stereo_bp import CostVolume, GrayImage, NccParams, build_cost_volume
from stereo_bp.cost_volume import downsample_volume


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
        inner = pixel_costs(vol)[4, 6]
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
        assert vol.costs[0, 2, 2] == pytest.approx(1.5)

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
                    assert vol.costs[d, y, x] == pytest.approx(want, abs=1e-9)

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

    def test_costs_are_float32_and_label_major(self):
        rng = np.random.default_rng(8)
        img = _image(rng.integers(0, 256, size=(9, 11)))
        vol = build_cost_volume(img, img, 3, NccParams())
        assert vol.costs.dtype == np.float32
        assert vol.costs.shape == (3, 9, 11)
        assert vol.costs.flags.c_contiguous


def _decimal_costs(left, right, levels, params):
    """Exact oracle: integer window sums, then NCC and the truncated cost in
    60-digit decimal arithmetic. Returns the (H, W, L) costs and a mask of
    the costs that must come out exact: off-window, flat and NCC = +-1."""
    a = left.samples.astype(np.int64)
    b = right.samples.astype(np.int64)
    h, w = a.shape
    r = params.window_radius
    k2 = (2 * r + 1) ** 2
    lam, tau = Decimal(params.data_weight), Decimal(params.data_truncation)
    want = np.full((h, w, levels), tau, dtype=object)
    exact = np.ones((h, w, levels), dtype=bool)
    with localcontext() as ctx:
        ctx.prec = 60
        for y, x, d in np.ndindex(h, w, levels):
            if not (r <= y < h - r and r + d <= x < w - r):
                continue
            lw = a[y - r : y + r + 1, x - r : x + r + 1]
            rw = b[y - r : y + r + 1, x - d - r : x - d + r + 1]
            sl, sr = int(lw.sum()), int(rw.sum())
            num = k2 * int((lw * rw).sum()) - sl * sr
            var = (k2 * int((lw * lw).sum()) - sl * sl) * (k2 * int((rw * rw).sum()) - sr * sr)
            ncc = Decimal(num) / Decimal(var).sqrt() if var else Decimal(0)
            want[y, x, d] = min(lam * (1 - ncc), tau)
            exact[y, x, d] = var == 0 or num * num == var
    return want, exact


def _shifted(img, shift):
    """img moved left by `shift` columns, its right edge refilled with noise."""
    out = np.roll(img, -shift, axis=1)
    out[:, -shift:] = np.random.default_rng(shift).integers(0, 256, (img.shape[0], shift))
    return out


def _scenes():
    rng = np.random.default_rng(21)
    blocks = np.kron(rng.integers(0, 4, (3, 4)) * 85, np.ones((5, 5), dtype=np.int64))
    columns = np.tile(rng.integers(0, 256, 18), (11, 1))
    noise = rng.integers(0, 256, (12, 16))
    # at r = 7, k^2 * sum(l * r) of all-255 windows is 225^2 * 255^2 > 2^31:
    # the int64 path
    saturated = rng.choice([0, 255], (17, 24))
    saturated[:, :17] = 255
    # at r = 10 a half-255 window's variance, up to 21^4 * 255^2 / 4, itself
    # passes 2^31, so int32 arithmetic would give wrong costs
    halves = rng.choice([0, 255], (23, 30))
    return {
        "flat": (blocks, _shifted(blocks, 2), 4, 1),
        "columns": (columns, _shifted(columns, 3), 5, 1),
        "gain-0.7": (noise, np.round(0.7 * _shifted(noise, 2)), 4, 2),
        "saturated-r7": (saturated, np.where(rng.random((17, 24)) < 0.8, _shifted(saturated, 1), 0), 3, 7),
        "saturated-r10": (halves, _shifted(halves, 1), 3, 10),
    }


class TestDecimalOracle:
    @pytest.mark.parametrize("name", sorted(_scenes()))
    @pytest.mark.parametrize("weight, truncation", [(1.3, 1.8), (0.7, 1.5), (2.0, 0.9)])
    def test_costs_within_one_ulp(self, name, weight, truncation):
        left, right, levels, radius = _scenes()[name]
        left, right = _image(left), _image(right)
        p = NccParams(window_radius=radius, data_weight=weight, data_truncation=truncation)
        got = pixel_costs(build_cost_volume(left, right, levels, p))
        want, exact = _decimal_costs(left, right, levels, p)
        assert exact.any() and not exact.all()
        for idx in np.ndindex(got.shape):
            target = np.float32(float(want[idx]))  # the correctly rounded cost
            if exact[idx]:
                assert got[idx] == target, idx
            else:
                assert abs(Decimal(float(got[idx])) - want[idx]) <= Decimal(
                    float(np.spacing(target))), idx

    def test_flat_windows_cost_exactly_min_weight_truncation(self):
        left, right, levels, radius = _scenes()["flat"]
        p = NccParams(window_radius=radius, data_weight=1.3, data_truncation=1.8)
        costs = pixel_costs(build_cost_volume(_image(left), _image(right), levels, p))
        win = np.lib.stride_tricks.sliding_window_view(left, (3, 3))
        ys, xs = np.nonzero(win.min(axis=(2, 3)) == win.max(axis=(2, 3)))
        assert len(ys) > 20
        for y, x in zip(ys + 1, xs + 1):  # window centers
            # a flat left window scores NCC 0 against any right window
            assert costs[y, x, : x].tolist() == [np.float32(1.3)] * min(x, levels)


class TestNccParams:
    @pytest.mark.parametrize("field", ["data_weight", "data_truncation"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1.0])
    def test_rejected_at_construction(self, field, value):
        with pytest.raises(ValueError, match="must be finite and > 0"):
            NccParams(**{field: value})


class TestCostVolumeDtype:
    def test_float32_kept_without_copy(self):
        planes = np.ones((2, 3, 4), dtype=np.float32)  # (L, H, W)
        vol = CostVolume(planes)
        assert vol.costs.dtype == np.float32
        assert np.shares_memory(vol.costs, planes)

    @pytest.mark.parametrize("costs", [
        np.ones((2, 3, 4), dtype=np.int64),
        np.ones((2, 3, 4), dtype=np.float16),
        [[[0, 1]], [[2, 3]]],
    ])
    def test_anything_else_becomes_float64(self, costs):
        vol = pixel_volume(costs)
        assert vol.costs.dtype == np.float64
        assert np.array_equal(pixel_costs(vol), np.asarray(costs))
        assert vol.costs.flags.c_contiguous


class TestCostVolumeValidation:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.5])
    def test_non_finite_or_negative_cost_rejected(self, dtype, bad):
        costs = np.ones((3, 4, 2), dtype=dtype)
        costs[1, 2, 1] = bad
        with pytest.raises(ValueError, match="costs must be finite and non-negative"):
            pixel_volume(costs)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_zero_costs_accepted(self, dtype):
        assert not pixel_volume(np.zeros((3, 4, 2), dtype=dtype)).costs.any()

    @pytest.mark.parametrize("shape", [(3, 4), (2, 3, 4, 1)])
    def test_costs_not_three_dimensional_rejected(self, shape):
        with pytest.raises(ValueError, match=r"costs must be \(levels, height, width\)"):
            CostVolume(np.zeros(shape))


class TestDownsampleVolume:
    def test_block_sum(self):
        costs = np.zeros((2, 2, 2))
        costs[:, :, 1] = [[1, 2], [3, 4]]
        coarse = downsample_volume(pixel_volume(costs))
        assert coarse.costs.shape == (2, 1, 1)
        assert coarse.costs[:, 0, 0].tolist() == [0.0, 10.0]

    def test_single_pixel_unchanged(self):
        vol = pixel_volume(np.array([[[0.5, 0.25]]]))
        coarse = downsample_volume(vol)
        assert np.array_equal(coarse.costs, vol.costs)

    def test_odd_dimensions_match_double_loop_oracle(self):
        rng = np.random.default_rng(9)
        vol = pixel_volume(rng.uniform(0, 1, size=(7, 5, 3)))
        coarse = downsample_volume(vol)
        assert coarse.costs.shape == (3, 4, 3)
        for cy in range(4):
            for cx in range(3):
                for d in range(3):
                    want = sum(
                        vol.costs[d, y, x]
                        for y in range(2 * cy, min(2 * cy + 2, 7))
                        for x in range(2 * cx, min(2 * cx + 2, 5))
                    )
                    assert coarse.costs[d, cy, cx] == pytest.approx(want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(7, 5, 1), (7, 5, 3), (1, 1, 3), (4, 9, 1), (6, 6, 3)])
    def test_block_order_is_explicit(self, shape, dtype):
        # ((a00 + a01) + a10) + a11 per element, whatever L or the layout;
        # pixels past an odd edge count as 0
        rng = np.random.default_rng(12)
        vol = pixel_volume(rng.uniform(0, 1, size=shape).astype(dtype))
        coarse = downsample_volume(vol)
        h, w, levels = shape
        assert coarse.costs.dtype == dtype
        assert coarse.costs.shape == (levels, (h + 1) // 2, (w + 1) // 2)

        def at(y, x, d):
            return vol.costs[d, y, x] if y < h and x < w else dtype(0)

        for d, cy, cx in np.ndindex(coarse.costs.shape):
            y, x = 2 * cy, 2 * cx
            want = ((at(y, x, d) + at(y, x + 1, d)) + at(y + 1, x, d)) + at(y + 1, x + 1, d)
            assert coarse.costs[d, cy, cx] == want
            assert coarse.costs[d, cy, cx].dtype == dtype

    def test_cost_mass_preserved_per_disparity(self):
        rng = np.random.default_rng(10)
        vol = pixel_volume(rng.uniform(0, 1, size=(9, 13, 4)))
        coarse = downsample_volume(vol)
        assert np.allclose(
            coarse.costs.sum(axis=(1, 2)), vol.costs.sum(axis=(1, 2))
        )

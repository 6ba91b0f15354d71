import numpy as np
import pytest

from stereo_bp import (
    BpConfig,
    ConvergenceMask,
    CostVolume,
    MessageField,
    Schedule,
    SmoothnessParams,
    exact_map_chain,
    extract_disparity,
    labeling_energy,
    run_bp,
    smoothness_cost,
    sweep,
    update_message,
)
from stereo_bp.bp_engine import FROM_DOWN, FROM_LEFT, FROM_RIGHT, FROM_UP
from stereo_bp.pixmap_io import DisparityMap


def _chain_volume(costs):
    costs = np.asarray(costs, dtype=float)
    return CostVolume(costs.reshape(1, *costs.shape), cost_cap=float(costs.max()) + 1)


def _run(volume, sweeps, schedule=Schedule.FULL, epsilon=0.0, smooth=None):
    fld = MessageField(volume.height, volume.width, volume.levels)
    cfg = BpConfig(
        max_sweeps=sweeps,
        epsilon=epsilon,
        schedule=schedule,
        smoothness=smooth or SmoothnessParams(),
    )
    total = run_bp(volume, fld, cfg)
    return fld, total, cfg


class TestSmoothnessCost:
    def test_diagonal_is_zero(self):
        assert smoothness_cost(3, 3, SmoothnessParams(1, 2)) == 0

    def test_truncated(self):
        assert smoothness_cost(0, 5, SmoothnessParams(1, 2)) == 2

    def test_linear_region(self):
        assert smoothness_cost(3, 6, SmoothnessParams(0.5, 10)) == pytest.approx(1.5)

    def test_symmetric_and_bounded(self):
        p = SmoothnessParams(0.7, 1.9)
        for a in range(6):
            for b in range(6):
                v = smoothness_cost(a, b, p)
                assert v == smoothness_cost(b, a, p)
                assert 0 <= v <= p.truncation


class TestUpdateMessage:
    def test_all_zero_inputs_give_zero_vector(self):
        vol = CostVolume(np.zeros((3, 3, 4)), 1.0)
        fld = MessageField(3, 3, 4)
        msg = update_message(1, 1, FROM_LEFT, vol, fld, SmoothnessParams())
        assert np.allclose(msg, 0.0)

    def test_two_label_hand_evaluation(self):
        # data at p = {0, 5}, s=1, T=10, no incoming: raw {0, 1}
        vol = CostVolume(np.array([[[0.0, 5.0], [0.0, 0.0]]]), 10.0)
        fld = MessageField(1, 2, 2)
        msg = update_message(0, 0, FROM_LEFT, vol, fld, SmoothnessParams(1.0, 10.0))
        assert msg.tolist() == [0.0, 1.0]

    def test_missing_neighbor_rejected(self):
        vol = CostVolume(np.zeros((2, 2, 2)), 1.0)
        fld = MessageField(2, 2, 2)
        with pytest.raises(ValueError):
            update_message(1, 0, FROM_LEFT, vol, fld, SmoothnessParams())

    def test_agrees_with_brute_force_min(self):
        rng = np.random.default_rng(21)
        vol = CostVolume(rng.uniform(0, 5, size=(3, 3, 4)), 5.0)
        fld = MessageField(3, 3, 4)
        fld.prev = rng.uniform(0, 2, size=fld.prev.shape)
        p = SmoothnessParams(0.8, 1.7)
        msg = update_message(1, 1, FROM_LEFT, vol, fld, p)
        incoming = fld.prev[:, 1, 1].sum(axis=0) - fld.prev[FROM_RIGHT, 1, 1]
        raw = np.array(
            [
                min(
                    vol.costs[1, 1, dp] + smoothness_cost(dp, dq, p) + incoming[dp]
                    for dp in range(4)
                )
                for dq in range(4)
            ]
        )
        assert msg == pytest.approx(raw - raw.min(), abs=1e-12)


class TestSweep:
    def test_messages_min_normalized_after_sweep(self):
        rng = np.random.default_rng(22)
        vol = CostVolume(rng.uniform(0, 1, size=(6, 7, 3)), 1.0)
        fld = MessageField(6, 7, 3)
        mask = ConvergenceMask(6, 7, 0.0)
        cfg = BpConfig(max_sweeps=5, schedule=Schedule.FULL)
        for _ in range(5):
            sweep(vol, fld, mask, cfg)
            assert np.all(fld.prev.min(axis=-1) < 1e-6)
            assert np.all(fld.prev >= 0)

    def test_border_slots_stay_zero(self):
        rng = np.random.default_rng(23)
        vol = CostVolume(rng.uniform(0, 1, size=(4, 5, 3)), 1.0)
        fld, _, _ = _run(vol, 4)
        assert np.all(fld.prev[FROM_LEFT, :, 0] == 0)
        assert np.all(fld.prev[FROM_RIGHT, :, -1] == 0)
        assert np.all(fld.prev[FROM_UP, 0, :] == 0)
        assert np.all(fld.prev[FROM_DOWN, -1, :] == 0)

    def test_unambiguous_data_term_converges_fast(self):
        costs = np.full((5, 5, 3), 1.0)
        costs[:, :, 0] = 0.0
        vol = CostVolume(costs, 1.0)
        fld = MessageField(5, 5, 3)
        mask = ConvergenceMask(5, 5, 1e-3)
        cfg = BpConfig(max_sweeps=1, epsilon=1e-3, schedule=Schedule.FAST,
                       smoothness=SmoothnessParams(1.0, 1.0))
        sweep(vol, fld, mask, cfg)
        sweep(vol, fld, mask, cfg)
        assert not mask.active.any()
        assert np.all(mask.last_delta[~mask.active] < 1e-3 + 1e-12)

    def test_fast_epsilon_zero_matches_full_bitwise(self):
        rng = np.random.default_rng(24)
        vol = CostVolume(rng.uniform(0, 1, size=(8, 8, 3)), 1.0)
        fld_full, _, _ = _run(vol, 12, Schedule.FULL)
        fld_fast, _, _ = _run(vol, 12, Schedule.FAST, epsilon=0.0)
        assert np.array_equal(fld_full.prev, fld_fast.prev)
        a = extract_disparity(vol, fld_full)
        b = extract_disparity(vol, fld_fast)
        assert np.array_equal(a.labels, b.labels)

    def test_fast_does_not_exceed_full_work(self):
        rng = np.random.default_rng(25)
        vol = CostVolume(rng.uniform(0, 1, size=(8, 8, 3)), 1.0)
        _, full_total, _ = _run(vol, 30, Schedule.FULL)
        _, fast_total, _ = _run(vol, 30, Schedule.FAST, epsilon=1e-3)
        assert fast_total <= full_total
        assert full_total == 8 * 8 * 30

    def test_dimension_mismatch(self):
        vol = CostVolume(np.zeros((3, 3, 2)), 1.0)
        fld = MessageField(3, 4, 2)
        with pytest.raises(ValueError):
            sweep(vol, fld, ConvergenceMask(3, 4, 0.0), BpConfig())


class TestExtractDisparity:
    def test_zero_messages_is_winner_take_all(self):
        rng = np.random.default_rng(26)
        vol = CostVolume(rng.uniform(0, 1, size=(4, 4, 5)), 1.0)
        fld = MessageField(4, 4, 5)
        dm = extract_disparity(vol, fld)
        assert np.array_equal(dm.labels, np.argmin(vol.costs, axis=2))

    def test_tie_toward_smaller_disparity(self):
        vol = CostVolume(np.array([[[3.0, 1.0, 1.0]]]), 5.0)
        fld = MessageField(1, 1, 3)
        assert extract_disparity(vol, fld).labels[0, 0] == 1


class TestLabelingEnergy:
    def test_single_pixel(self):
        vol = CostVolume(np.array([[[0.3, 0.9]]]), 1.0)
        dm = DisparityMap(np.array([[1]], dtype=np.int32))
        assert labeling_energy(vol, dm, SmoothnessParams()) == pytest.approx(0.9)

    def test_truncated_pair(self):
        vol = CostVolume(np.zeros((1, 2, 4)), 1.0)
        dm = DisparityMap(np.array([[0, 3]], dtype=np.int32))
        assert labeling_energy(vol, dm, SmoothnessParams(1.0, 2.0)) == pytest.approx(2.0)

    def test_invalid_label_rejected(self):
        vol = CostVolume(np.zeros((1, 2, 2)), 1.0)
        dm = DisparityMap(np.array([[0, -1]], dtype=np.int32))
        with pytest.raises(ValueError):
            labeling_energy(vol, dm, SmoothnessParams())

    def test_matches_brute_force_resummation(self):
        rng = np.random.default_rng(27)
        p = SmoothnessParams(0.6, 1.4)
        for _ in range(10):
            h, w, levels = rng.integers(1, 5, size=3)
            vol = CostVolume(rng.uniform(0, 3, size=(h, w, levels)), 3.0)
            labels = rng.integers(0, levels, size=(h, w)).astype(np.int32)
            want = 0.0
            for y in range(h):
                for x in range(w):
                    want += vol.costs[y, x, labels[y, x]]
                    if x + 1 < w:
                        want += smoothness_cost(labels[y, x], labels[y, x + 1], p)
                    if y + 1 < h:
                        want += smoothness_cost(labels[y, x], labels[y + 1, x], p)
            got = labeling_energy(vol, DisparityMap(labels), p)
            assert got == pytest.approx(want, abs=1e-9)


class TestChainExactness:
    def test_messages_match_chain_dp_map(self):
        rng = np.random.default_rng(28)
        p = SmoothnessParams(1.0, 2.0)
        for _ in range(20):
            n = int(rng.integers(2, 17))
            levels = int(rng.integers(2, 9))
            costs = rng.uniform(0, 10, size=(n, levels))
            vol = _chain_volume(costs)
            fld, _, _ = _run(vol, n, smooth=p)
            dm = extract_disparity(vol, fld)
            want_labels, want_energy = exact_map_chain(costs, p)
            assert np.array_equal(dm.labels[0], want_labels)
            assert labeling_energy(vol, dm, p) == pytest.approx(want_energy, abs=1e-9)

import tracemalloc

import numpy as np
import pytest

from bp_reference import STEPS as _STEPS
from bp_reference import (
    exact_map_chain,
    jacobi_bp,
    msgs,
    pixel_costs,
    pixel_volume,
    scheduled_bp,
    scheduled_sweep,
    smoothness_cost,
    update_message,
)
from stereo_bp import (
    BpConfig,
    NccParams,
    PyramidConfig,
    SmoothnessParams,
    build_cost_volume,
    labeling_energy,
    make_stereogram,
    run_hierarchical,
)
from stereo_bp import bp_engine
from stereo_bp.bp_engine import (
    FROM_DOWN,
    FROM_LEFT,
    FROM_RIGHT,
    FROM_UP,
    ConvergenceMask,
    MessageField,
    _argmin,
    _chunks,
    _relabel,
    extract_disparity,
    run_bp,
    sweep,
)
from stereo_bp.pixmap_io import INVALID, DisparityMap


def _chain_volume(costs):
    costs = np.asarray(costs, dtype=float)
    return pixel_volume(costs.reshape(1, *costs.shape))


def _run(volume, sweeps, epsilon=0.0, smooth=None):
    fld = MessageField(volume.height, volume.width, volume.levels)
    cfg = BpConfig(
        epsilon=epsilon,
        smoothness=smooth or SmoothnessParams(),
    )
    total = run_bp(volume, fld, cfg, sweeps)
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

    @pytest.mark.parametrize("slope, truncation", [
        (float("nan"), 2.0), (1.0, float("nan")), (float("inf"), 2.0),
        (1.0, float("inf")), (-0.5, 2.0), (1.0, 0.0),
    ])
    def test_params_rejected_at_construction(self, slope, truncation):
        with pytest.raises(ValueError, match="slope must be"):
            SmoothnessParams(slope, truncation)


class TestUpdateMessage:
    def test_all_zero_inputs_give_zero_vector(self):
        vol = pixel_volume(np.zeros((3, 3, 4)))
        fld = MessageField(3, 3, 4)
        msg = update_message(1, 1, FROM_LEFT, vol, fld, SmoothnessParams())
        assert np.allclose(msg, 0.0)

    def test_two_label_hand_evaluation(self):
        # data at p = {0, 5}, s=1, T=10, no incoming: raw {0, 1}
        vol = pixel_volume(np.array([[[0.0, 5.0], [0.0, 0.0]]]))
        fld = MessageField(1, 2, 2)
        msg = update_message(0, 0, FROM_LEFT, vol, fld, SmoothnessParams(1.0, 10.0))
        assert msg.tolist() == [0.0, 1.0]

    def test_missing_neighbor_rejected(self):
        vol = pixel_volume(np.zeros((2, 2, 2)))
        fld = MessageField(2, 2, 2)
        with pytest.raises(ValueError):
            update_message(1, 0, FROM_LEFT, vol, fld, SmoothnessParams())

    def test_agrees_with_brute_force_min(self):
        rng = np.random.default_rng(21)
        vol = pixel_volume(rng.uniform(0, 5, size=(3, 3, 4)))
        fld = MessageField(3, 3, 4)
        msgs(fld)[...] = rng.uniform(0, 2, size=msgs(fld).shape)
        p = SmoothnessParams(0.8, 1.7)
        msg = update_message(1, 1, FROM_LEFT, vol, fld, p)
        incoming = msgs(fld)[:, 1, 1].sum(axis=0) - msgs(fld)[FROM_RIGHT, 1, 1]
        raw = np.array(
            [
                min(
                    vol.costs[dp, 1, 1] + smoothness_cost(dp, dq, p) + incoming[dp]
                    for dp in range(4)
                )
                for dq in range(4)
            ]
        )
        assert msg == pytest.approx(raw - raw.min(), abs=1e-12)


class TestMessageField:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_buffer_in_the_given_dtype(self, dtype):
        fld = MessageField(3, 5, 2, dtype)
        assert fld.planes.shape == (4, 2, 3, 5) and fld.planes.dtype == dtype
        assert fld.planes.flags.c_contiguous and not fld.planes.any()
        assert not hasattr(fld, "msgs")  # one array, in one layout

    def test_float64_by_default(self):
        assert MessageField(2, 2, 2).planes.dtype == np.float64


class TestSweep:
    def test_messages_min_normalized_after_sweep(self):
        rng = np.random.default_rng(22)
        vol = pixel_volume(rng.uniform(0, 1, size=(6, 7, 3)))
        fld = MessageField(6, 7, 3)
        mask = ConvergenceMask(6, 7)
        cfg = BpConfig(epsilon=0.0)
        for _ in range(5):
            sweep(vol, fld, mask, cfg)
            assert np.all(msgs(fld).min(axis=-1) < 1e-6)
            assert np.all(msgs(fld) >= 0)

    def test_border_slots_stay_zero(self):
        rng = np.random.default_rng(23)
        vol = pixel_volume(rng.uniform(0, 1, size=(4, 5, 3)))
        fld, _, _ = _run(vol, 4)
        assert np.all(msgs(fld)[FROM_LEFT, :, 0] == 0)
        assert np.all(msgs(fld)[FROM_RIGHT, :, -1] == 0)
        assert np.all(msgs(fld)[FROM_UP, 0, :] == 0)
        assert np.all(msgs(fld)[FROM_DOWN, -1, :] == 0)

    def test_unambiguous_data_term_converges_fast(self):
        costs = np.full((5, 5, 3), 1.0)
        costs[:, :, 0] = 0.0
        vol = pixel_volume(costs)
        fld = MessageField(5, 5, 3)
        mask = ConvergenceMask(5, 5)
        cfg = BpConfig(epsilon=1e-3, smoothness=SmoothnessParams(1.0, 1.0))
        sweep(vol, fld, mask, cfg)
        sweep(vol, fld, mask, cfg)
        assert not mask.active.any()
        # which pixels a change below epsilon leaves inactive is checked
        # mask by mask against `scheduled_bp` in TestSchedule
        assert mask.max_delta < cfg.epsilon

    def test_fast_epsilon_zero_matches_full_bitwise(self):
        rng = np.random.default_rng(24)
        vol = pixel_volume(rng.uniform(0, 1, size=(8, 8, 3)))
        fld_ref = jacobi_bp(vol, 12, SmoothnessParams())
        fld_fast, total, _ = _run(vol, 12, epsilon=0.0)
        assert np.array_equal(msgs(fld_ref), msgs(fld_fast))
        assert total == scheduled_bp(vol, 12, SmoothnessParams(), 0.0)[2]
        a = extract_disparity(vol, fld_ref)
        b = extract_disparity(vol, fld_fast)
        assert np.array_equal(a.labels, b.labels)

    def test_fast_does_not_exceed_full_work(self):
        rng = np.random.default_rng(25)
        vol = pixel_volume(rng.uniform(0, 1, size=(8, 8, 3)))
        _, full_total, _ = _run(vol, 30, epsilon=0.0)
        _, fast_total, _ = _run(vol, 30, epsilon=1e-3)
        assert fast_total <= full_total
        assert full_total == scheduled_bp(vol, 30, SmoothnessParams(), 0.0)[2]

    def test_full_sweep_is_synchronous(self):
        # every message is computed from the field as it was before the sweep
        rng = np.random.default_rng(30)
        h, w, levels = 5, 6, 4
        vol = pixel_volume(rng.uniform(0, 2, size=(h, w, levels)))
        fld = MessageField(h, w, levels)
        msgs(fld)[...] = rng.uniform(0, 2, size=msgs(fld).shape)
        before = MessageField(h, w, levels)
        msgs(before)[...] = msgs(fld)
        cfg = BpConfig(epsilon=0.0, smoothness=SmoothnessParams(0.7, 1.5))
        assert sweep(vol, fld, ConvergenceMask(h, w), cfg) == h * w
        for direction, (dx, dy) in _STEPS.items():
            for y in range(h):
                for x in range(w):
                    if not (0 <= x + dx < w and 0 <= y + dy < h):
                        continue
                    want = update_message(x, y, direction, vol, before, cfg.smoothness)
                    assert np.array_equal(msgs(fld)[direction, y + dy, x + dx], want)

    def test_fast_sweep_recomputes_only_active_senders(self):
        rng = np.random.default_rng(31)
        h, w, levels = 6, 7, 3
        vol = pixel_volume(rng.uniform(0, 2, size=(h, w, levels)))
        fld = MessageField(h, w, levels)
        msgs(fld)[...] = rng.uniform(0, 2, size=msgs(fld).shape)
        before = MessageField(h, w, levels)
        msgs(before)[...] = msgs(fld)
        mask = ConvergenceMask(h, w)
        mask.active[...] = False
        for y, x in [(0, 0), (2, 3), (5, 6), (3, 0)]:
            mask.active[y, x] = True
        active = mask.active.copy()
        cfg = BpConfig()
        assert sweep(vol, fld, mask, cfg) == int(active.sum())
        for direction, (dx, dy) in _STEPS.items():
            for y in range(h):
                for x in range(w):
                    sx, sy = x - dx, y - dy  # the sender of this slot
                    if 0 <= sx < w and 0 <= sy < h and active[sy, sx]:
                        want = update_message(sx, sy, direction, vol, before,
                                              cfg.smoothness)
                    else:
                        want = msgs(before)[direction, y, x]
                    assert np.array_equal(msgs(fld)[direction, y, x], want)

    @pytest.mark.parametrize("shape", [(1, 17), (17, 1)])
    def test_fast_epsilon_zero_matches_full_on_lines(self, shape):
        rng = np.random.default_rng(32)
        vol = pixel_volume(rng.uniform(0, 1, size=(*shape, 5)))
        fld_ref = jacobi_bp(vol, 20, SmoothnessParams())
        fld_fast, total, _ = _run(vol, 20, epsilon=0.0)
        assert np.array_equal(msgs(fld_ref), msgs(fld_fast))
        assert total == scheduled_bp(vol, 20, SmoothnessParams(), 0.0)[2]

    def test_epsilon_zero_stops_at_the_exact_fixed_point(self):
        # a chain is a tree, so synchronous BP reaches a fixed point, after
        # which no message moves and the run stops short of its budget.
        # Costs in quarters keep every sum exact: with rounding, a message
        # that adds and then removes its receiver's message can jitter in
        # the last bit forever
        vol = pixel_volume(np.random.default_rng(37).integers(0, 8, size=(1, 17, 5)) / 4)
        fld = MessageField(1, 17, 5)
        trace = []
        run_bp(vol, fld, BpConfig(epsilon=0.0), 60, trace=trace)
        assert len(trace) < 60
        assert trace[-1][2:4] == (0, 0.0)  # no pixel active, nothing moved
        assert np.array_equal(msgs(fld), msgs(jacobi_bp(vol, 60, SmoothnessParams())))

    def test_dimension_mismatch(self):
        vol = pixel_volume(np.zeros((3, 3, 2)))
        fld = MessageField(3, 4, 2)
        with pytest.raises(ValueError):
            sweep(vol, fld, ConvergenceMask(3, 4), BpConfig())

    def test_field_narrower_than_costs_rejected(self):
        # an all-active first sweep would round into float32, and the first
        # gathered one would fail to cast
        vol = pixel_volume(np.zeros((3, 3, 2)))
        fld = MessageField(3, 3, 2, np.float32)
        with pytest.raises(ValueError, match="float32 message field cannot hold float64 costs"):
            sweep(vol, fld, ConvergenceMask(3, 3), BpConfig())
        assert not fld.planes.any()

    def test_field_wider_than_costs_keeps_its_bits(self):
        # float32 costs in a float64 field give the bits of the scalar
        # reference, and the trace of the same costs held in float64
        rng = np.random.default_rng(47)
        costs = rng.uniform(0, 1, size=(8, 8, 4)).astype(np.float32)
        vol, wide = pixel_volume(costs), pixel_volume(costs.astype(np.float64))
        fld, _, _ = _run(vol, 8)
        assert np.array_equal(msgs(fld), msgs(jacobi_bp(vol, 8, SmoothnessParams())))
        cfg = BpConfig(epsilon=1e-3)
        traces = []
        for v in (vol, wide):
            traces.append([])
            run_bp(v, MessageField(8, 8, 4), cfg, 12, trace=traces[-1])
        assert traces[0] == traces[1]
        assert any(0 < row[2] < 8 * 8 for row in traces[0])  # gathered sweeps ran


# (height, width, levels, seed): seeded 8x8 grids, then the edge shapes
SCHEDULE_CASES = [(8, 8, 4, seed) for seed in range(4)] + [
    (1, 1, 4, 9), (1, 17, 4, 9), (17, 1, 4, 9), (6, 5, 1, 9)]


class TestSchedule:
    @pytest.mark.parametrize("epsilon", [0.0, 1e-3, 0.05])
    @pytest.mark.parametrize("case", SCHEDULE_CASES)
    def test_matches_scalar_scheduled_reference(self, case, epsilon):
        h, w, levels, seed = case
        vol = pixel_volume(np.random.default_rng(seed).uniform(0, 1, size=(h, w, levels)))
        want_fld, want_masks, want_total = scheduled_bp(vol, 12, SmoothnessParams(), epsilon)

        fld, total, cfg = _run(vol, 12, epsilon=epsilon)
        assert np.array_equal(msgs(fld), msgs(want_fld))
        assert total == want_total

        fld = MessageField(h, w, levels)
        mask = ConvergenceMask(h, w)
        for want in want_masks:
            sweep(vol, fld, mask, cfg)
            assert np.array_equal(mask.active, want)
        assert np.array_equal(msgs(fld), msgs(want_fld))

    @pytest.mark.parametrize("case", SCHEDULE_CASES)
    def test_reference_at_epsilon_zero_is_jacobi(self, case):
        # skipping the pixels none of whose messages moved changes no bit
        h, w, levels, seed = case
        vol = pixel_volume(np.random.default_rng(seed).uniform(0, 1, size=(h, w, levels)))
        p = SmoothnessParams()
        for sweeps in range(1, 13):
            fld, _, _ = scheduled_bp(vol, sweeps, p, 0.0)
            assert np.array_equal(msgs(fld), msgs(jacobi_bp(vol, sweeps, p)))

    def test_reference_exercises_partial_masks(self):
        # the 8x8 cases above must sweep partial masks, and reactivate
        h, w, levels, seed = SCHEDULE_CASES[0]
        vol = pixel_volume(np.random.default_rng(seed).uniform(0, 1, size=(h, w, levels)))
        _, masks, _ = scheduled_bp(vol, 12, SmoothnessParams(), 1e-3)
        counts = [int(m.sum()) for m in masks]
        assert any(0 < c < h * w for c in counts)
        assert any(b > a for a, b in zip(counts, counts[1:]))


def _sweeps_match_reference(volume, start, masks, config):
    """Sweep a field from `start` from each of `masks` in turn, and a copy
    by `scheduled_sweep`: every sweep gives the reference's messages, next
    mask, `changed`, largest change and update count, and
    `extract_disparity` then gives np.argmin of the belief. Returns the
    field."""
    ref, fld = (MessageField(*start.shape[1:], start.dtype) for _ in range(2))
    msgs(ref)[...] = start
    msgs(fld)[...] = start
    for active in masks:
        want = scheduled_sweep(volume, ref, active, config.smoothness, config.epsilon)
        mask = ConvergenceMask(*active.shape)
        mask.active = active.copy()
        updated = sweep(volume, fld, mask, config)
        assert np.array_equal(msgs(fld), msgs(ref))
        assert np.array_equal(mask.active, want[0]) and np.array_equal(mask.changed, want[1])
        assert mask.max_delta == want[2] and updated == want[3]
        m = fld.planes  # the belief summed in the engine's order
        belief = volume.costs + (((m[0] + m[1]) + m[2]) + m[3])
        assert np.array_equal(extract_disparity(volume, fld).labels, np.argmin(belief, axis=0))
    return fld


def _chunk_senders(monkeypatch, volume, senders):
    """Set the batch budget so that a sweep or an argmin over `volume`
    takes `senders` pixels per chunk."""
    monkeypatch.setattr(bp_engine, "_CHUNK_BYTES", senders * volume.levels * volume.costs.itemsize)


# shapes whose chunks of w, w + 1 and 2w - 1 senders end at row ends and
# mid-row, so that a message sent down waits for the next chunk; then the
# edge lines, in one chunk or in chunks of one or two pixels
CHUNK_SHAPES = [(7, 9, 5), (8, 11, 6), (1, 9, 4), (9, 1, 4)]


def _row_sizes(width):
    """Chunk sizes of one row, one row and a pixel, and two rows less one."""
    return width, width + 1, 2 * width - 1


# A partial 4x4 mask for chunks of w = 4 senders: the first chunk ends at
# flat index 5 and the next spans exactly one row, 6 to 9, so the message
# sent down from 5 lands on the next chunk's last sender.
TIGHT_MASK = np.isin(np.arange(16), [0, 2, 3, 5, 6, 7, 8, 9, 12, 15]).reshape(4, 4)


# Sweeps with every pixel active, from a random field: (seed, (H, W, L),
# dtype, epsilon, sweeps, senders per chunk). Each chunk size in turn
# sweeps from the same start; None keeps the default budget, which takes
# these frames in one chunk. Seeds 33 and 35 sweep in one chunk; seed 39
# in one chunk, then in chunks of one, two or three rows, which leave a
# short last chunk (or a single chunk where the image is lower); seed 44
# in chunks of one row, one row and a pixel, and two rows less one.
ALL_ACTIVE_CASES = [
    *[(33, shape, np.float64, epsilon, 3, (None,))
      for shape in [(7, 9, 5), (1, 6, 3), (6, 1, 3), (1, 1, 2)] for epsilon in (0.0, 1e-3)],
    *[(35, (7, 9, 5), np.float32, epsilon, 1, (None,)) for epsilon in (0.0, 1e-3)],
    *[(39, shape, np.float64, epsilon, 3, (shape[0] * shape[1], rows * shape[1]))
      for shape in [(1, 9, 4), (9, 1, 4), (7, 5, 3), (8, 11, 6), (1, 1, 2)]
      for epsilon in (0.0, 1e-3) for rows in (1, 2, 3)],
    *[(44, shape, dtype, epsilon, 3, _row_sizes(shape[1]))
      for shape in CHUNK_SHAPES for dtype in (np.float64, np.float32) for epsilon in (0.0, 1e-3)],
]


def _case_id(case):
    seed, shape, dtype, epsilon, sweeps, chunks = case
    sizes = "_".join("default" if m is None else str(m) for m in chunks)
    dims = "x".join(map(str, shape))
    return f"seed{seed}-{dims}-{np.dtype(dtype).name}-eps{epsilon}-sweeps{sweeps}-chunks{sizes}"


class TestChunks:
    @pytest.mark.parametrize("case", ALL_ACTIVE_CASES, ids=_case_id)
    def test_all_active_sweeps_match_the_scalar_reference(self, monkeypatch, case):
        seed, shape, dtype, epsilon, sweeps, chunks = case
        rng = np.random.default_rng(seed)
        vol = pixel_volume(rng.uniform(0, 2, size=shape).astype(dtype))
        start = rng.uniform(0, 2, size=(4, *shape)).astype(dtype)
        cfg = BpConfig(epsilon=epsilon, smoothness=SmoothnessParams(0.7, 1.5))
        masks = [np.ones(shape[:2], dtype=bool)] * sweeps
        for senders in chunks:
            if senders is not None:
                _chunk_senders(monkeypatch, vol, senders)
            fld = _sweeps_match_reference(vol, start, masks, cfg)
            assert fld.planes.dtype == dtype

    @pytest.mark.parametrize("epsilon", [0.0, 1e-3])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("shape, tight", [
        *[pytest.param(shape, None, id=f"shape{i}") for i, shape in enumerate(CHUNK_SHAPES)],
        pytest.param((4, 4, 3), TIGHT_MASK, id="tight")])
    def test_chunks_match_the_scalar_reference(self, monkeypatch, shape, tight, dtype, epsilon):
        # sweeps from the partial masks of the scheduled reference run,
        # after the tight mask where one is given
        vol = pixel_volume(np.random.default_rng(48).uniform(0, 3, size=shape).astype(dtype))
        p = SmoothnessParams()
        masks = [np.ones(shape[:2], dtype=bool)] + scheduled_bp(vol, 12, p, epsilon)[1][:-1]
        if tight is not None:
            masks.insert(1, tight)
        assert any(0 < m.sum() < m.size for m in masks)
        cfg = BpConfig(epsilon=epsilon, smoothness=p)
        for senders in _row_sizes(shape[1]):
            _chunk_senders(monkeypatch, vol, senders)
            _sweeps_match_reference(vol, np.zeros((4, *shape), dtype), masks, cfg)

    @pytest.mark.parametrize("shape", [(7, 9, 5), (1, 9, 4), (9, 1, 4), (4, 4, 3)])
    def test_chunks_hold_at_least_a_row(self, monkeypatch, shape):
        # a message sent down from a chunk's last sender must land within
        # the next chunk, so no chunk but the last is shorter than a row,
        # whatever the budget asks for
        h, w, _ = shape
        vol = pixel_volume(np.zeros(shape))
        for senders in (1, w - 1, w, w + 1):
            _chunk_senders(monkeypatch, vol, senders)
            for flat in (np.arange(h * w), np.flatnonzero(np.arange(h * w) % 3 != 1)):
                sizes = [c.size for c in _chunks(vol, flat)]
                assert sum(sizes) == flat.size
                assert all(size == max(senders, w) for size in sizes[:-1])

    def test_one_row_chunks_match_jacobi(self, monkeypatch):
        # one-row chunks, so every chunk hands a row to the next
        rng = np.random.default_rng(40)
        vol = pixel_volume(rng.uniform(0, 1, size=(5, 4, 3)))
        _chunk_senders(monkeypatch, vol, vol.width)
        fld, _, _ = _run(vol, 6)
        assert np.array_equal(msgs(fld), msgs(jacobi_bp(vol, 6, SmoothnessParams())))

    @pytest.mark.parametrize("partial", [False, True])
    @pytest.mark.parametrize("shape", [(1, 9), (9, 1), (2, 3), (7, 9)])
    def test_slots_from_outside_stay_untouched(self, monkeypatch, shape, partial):
        # a sender on the left or right edge has a flat neighbour at the
        # end of the previous or next row, whose slot from that side
        # arrives from outside the image; chunks end mid-row and at row ends
        h, w = shape
        rng = np.random.default_rng(49)
        vol = pixel_volume(rng.uniform(0, 2, size=(h, w, 4)))
        start = rng.uniform(1, 2, size=(4, h, w, 4))
        active = np.arange(h * w).reshape(shape) % 3 != 1 if partial else np.ones(shape, bool)
        outside = [(FROM_LEFT, np.s_[:, 0]), (FROM_RIGHT, np.s_[:, -1]),
                   (FROM_UP, np.s_[0, :]), (FROM_DOWN, np.s_[-1, :])]
        for senders in _row_sizes(w):
            _chunk_senders(monkeypatch, vol, senders)
            fld = _sweeps_match_reference(vol, start, [active], BpConfig(epsilon=0.0))
            for slot, edge in outside:
                assert np.array_equal(msgs(fld)[slot][edge], start[slot][edge])

    @pytest.mark.parametrize("held", [True, False])
    def test_epsilon_compared_in_float64(self, monkeypatch, held):
        # the one message that moves, from the first pixel, moves by
        # float32(0.01), which is below 0.01 though a float32 comparison
        # would say not; held, it goes down a 2x1 column in chunks of one
        # sender and waits for the second chunk, else right along a 1x2 row
        # in one chunk
        step = np.float32(0.01)
        assert float(step) < 0.01 and (np.array([step]) >= 0.01).all()
        shape, slot = ((2, 1), FROM_UP) if held else ((1, 2), FROM_LEFT)
        vol = pixel_volume(np.array([[0, step], [0, 0]], dtype=np.float32).reshape(*shape, 2))
        _chunk_senders(monkeypatch, vol, 1 if held else 2)
        assert [c.size for c in _chunks(vol, np.arange(2))] == ([1, 1] if held else [2])
        fld = MessageField(*shape, 2, np.float32)
        mask = ConvergenceMask(*shape)
        cfg = BpConfig(epsilon=0.01, smoothness=SmoothnessParams(1.0, 2.0))
        assert sweep(vol, fld, mask, cfg) == 2
        assert msgs(fld)[slot].reshape(2, 2)[1].tolist() == [0, step]
        assert mask.max_delta == float(step)
        assert mask.changed.reshape(-1).tolist() == [False, True]
        assert not mask.active.any()


class TestMemory:
    def test_all_active_sweep_and_argmin_hold_no_whole_frame(self, monkeypatch):
        # sixteen chunks of 16 rows; a whole (L, H, W) float32 frame is 2 MiB
        h, w, levels = 256, 64, 32
        rng = np.random.default_rng(41)
        vol = pixel_volume(rng.uniform(0, 2, size=(h, w, levels)).astype(np.float32))
        fld = MessageField(h, w, levels, np.float32)
        msgs(fld)[...] = rng.uniform(0, 2, size=msgs(fld).shape).astype(np.float32)
        _chunk_senders(monkeypatch, vol, 16 * w)
        mask = ConvergenceMask(h, w)
        tracemalloc.start()
        try:
            sweep(vol, fld, mask, BpConfig(epsilon=0.0))
            swept = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            labels = extract_disparity(vol, fld)
            extracted = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        frame = levels * h * w * 4
        assert mask.active.any() and labels.labels.shape == (h, w)
        assert swept < frame and extracted < frame

    def test_partial_sweep_holds_no_whole_frame(self, monkeypatch):
        # all pixels but one active: in chunks of 16 rows' worth of
        # senders, where one snapshot of all of them would hold four
        # whole (L, H, W) frames
        h, w, levels = 256, 64, 32
        rng = np.random.default_rng(43)
        vol = pixel_volume(rng.uniform(0, 2, size=(h, w, levels)).astype(np.float32))
        fld = MessageField(h, w, levels, np.float32)
        msgs(fld)[...] = rng.uniform(0, 2, size=msgs(fld).shape).astype(np.float32)
        _chunk_senders(monkeypatch, vol, 16 * w)
        mask = ConvergenceMask(h, w)
        mask.active[100, 30] = False
        tracemalloc.start()
        try:
            updated = sweep(vol, fld, mask, BpConfig(epsilon=0.0))
            swept = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert updated == h * w - 1 and mask.active.any()
        assert swept < levels * h * w * 4


def _reference_trace(volume, config, sweeps):
    """run_bp's trace rows, each from the whole frame: sweep, then score
    the labeling `extract_disparity` takes from the entire field, and take
    max_delta from the messages before and after the sweep. Messages take
    the volume's dtype."""
    fld = MessageField(volume.height, volume.width, volume.levels, volume.costs.dtype)
    mask = ConvergenceMask(volume.height, volume.width)
    rows = []
    for it in range(1, sweeps + 1):
        before = msgs(fld).copy()
        sweep(volume, fld, mask, config)
        energy = labeling_energy(volume, extract_disparity(volume, fld), config.smoothness)
        max_delta = float(np.abs(msgs(fld) - before).max())
        rows.append((None, it, int(mask.active.sum()), max_delta, energy))
        if not mask.active.any():
            break
    return rows, fld


class TestEnergyTrace:
    @pytest.mark.parametrize("epsilon", [0.0, 1e-3, 0.05])
    @pytest.mark.parametrize("case", SCHEDULE_CASES)
    def test_rows_match_whole_frame_reference(self, case, epsilon):
        h, w, levels, seed = case
        vol = pixel_volume(np.random.default_rng(seed).uniform(0, 1, size=(h, w, levels)))
        cfg = BpConfig(epsilon=epsilon)
        want, want_fld = _reference_trace(vol, cfg, 12)
        fld = MessageField(h, w, levels)
        trace = []
        run_bp(vol, fld, cfg, 12, trace=trace)
        assert trace == want
        assert np.array_equal(msgs(fld), msgs(want_fld))

    def test_relabels_a_flip_below_epsilon(self):
        # in this chain the fourth sweep moves the messages into pixel
        # (0, 0) by less than epsilon, so it is not active again, yet its
        # label flips: relabeling only the active pixels would miss it
        vol = pixel_volume(np.random.default_rng(100).uniform(0, 1, size=(1, 9, 3)))
        cfg = BpConfig(epsilon=0.05)
        fld = MessageField(1, 9, 3)
        mask = ConvergenceMask(1, 9)
        for _ in range(3):
            sweep(vol, fld, mask, cfg)
        before, labels = msgs(fld).copy(), extract_disparity(vol, fld).labels
        sweep(vol, fld, mask, cfg)
        assert 0 < np.abs(msgs(fld)[:, 0, 0] - before[:, 0, 0]).max() < cfg.epsilon
        assert mask.changed[0, 0] and not mask.active[0, 0]
        assert extract_disparity(vol, fld).labels[0, 0] != labels[0, 0]

        trace = []
        run_bp(vol, MessageField(1, 9, 3), cfg, 12, trace=trace)
        assert trace == _reference_trace(vol, cfg, 12)[0]

    @pytest.mark.parametrize("epsilon", [0.0, 1e-3, 0.05])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("smooth", [SmoothnessParams(0.37, 1.3), SmoothnessParams(1, 2)],
                             ids=["float", "int"])
    @pytest.mark.parametrize("shape", CHUNK_SHAPES, ids=lambda s: "x".join(map(str, s)))
    def test_chunked_rows_match_whole_frame_reference(self, monkeypatch, shape, smooth,
                                                      dtype, epsilon):
        # chunks of a row, a row and a pixel, and two rows less one: the
        # labels a sweep writes from its senders' beliefs span chunk
        # boundaries and the messages held for the next chunk
        vol = pixel_volume(np.random.default_rng(50).uniform(0, 2, size=shape).astype(dtype))
        cfg = BpConfig(epsilon=epsilon, smoothness=smooth)
        want, want_fld = _reference_trace(vol, cfg, 12)
        for senders in _row_sizes(shape[1]):
            _chunk_senders(monkeypatch, vol, senders)
            fld = MessageField(*shape, dtype)
            trace = []
            run_bp(vol, fld, cfg, 12, trace=trace, scale=None)
            assert trace == want
            assert np.array_equal(msgs(fld), msgs(want_fld))

    def test_relabels_changed_pixels_that_send_nothing(self, monkeypatch):
        # at epsilon > 0 a pixel whose belief moved by less than epsilon is
        # not active in the next sweep, which writes no label for it; run_bp
        # relabels it before that sweep moves its belief again
        vol = pixel_volume(np.random.default_rng(38).uniform(0, 1, size=(7, 9, 5)))
        cfg = BpConfig(epsilon=0.05)
        relabeled, original = [], bp_engine._relabel

        def recording(volume, fld, labels, changed):
            relabeled.append(int(changed.sum()))
            return original(volume, fld, labels, changed)

        monkeypatch.setattr(bp_engine, "_relabel", recording)
        trace = []
        run_bp(vol, MessageField(7, 9, 5), cfg, 12, trace=trace)
        assert any(relabeled[:-1])  # the last call relabels the last sweep's changes
        monkeypatch.undo()
        assert trace == _reference_trace(vol, cfg, 12)[0]

    @pytest.mark.parametrize("traced", [False, True])
    def test_labels_kept_only_when_tracing(self, monkeypatch, traced):
        # untraced, no sweep computes labels; traced, the first sweep has
        # none yet and every later one writes into the same labeling
        vol = pixel_volume(np.random.default_rng(38).uniform(0, 1, size=(7, 9, 5)))
        seen, original = [], bp_engine.sweep

        def recording(volume, fld, mask, config):
            seen.append(mask.labels)
            return original(volume, fld, mask, config)

        monkeypatch.setattr(bp_engine, "sweep", recording)
        run_bp(vol, MessageField(7, 9, 5), BpConfig(epsilon=0.0), 6,
               trace=[] if traced else None)
        assert len(seen) == 6 and seen[0] is None
        if traced:
            assert all(labels is seen[1] for labels in seen[2:])
            assert seen[1].shape == (7, 9) and seen[1].dtype == np.int32
        else:
            assert all(labels is None for labels in seen)

    def test_max_delta_is_zero_once_no_message_moved(self, monkeypatch):
        # the fast 64x48 golden run (ncc volume, epsilon 1e-3): the last
        # sweep of three scales moves no message, and its row must read
        # 0.0, not a change below epsilon left by an earlier sweep
        left, right, _ = make_stereogram(64, 48, 4, 3)
        vol = build_cost_volume(left, right, 12, NccParams())
        moved, original = [], bp_engine.sweep

        def recording(volume, fld, mask, config):
            before = msgs(fld).copy()
            updated = original(volume, fld, mask, config)
            moved.append(float(np.abs(msgs(fld) - before).max()))
            return updated

        monkeypatch.setattr(bp_engine, "sweep", recording)
        _, trace = run_hierarchical(vol, PyramidConfig(bp=BpConfig(epsilon=1e-3)))
        assert [row[3] for row in trace] == moved
        # the scales whose last sweep moved nothing, coarsest first
        assert [row[0] for row, m in zip(trace, moved) if m == 0.0] == [3, 2, 1]

    def test_changed_marks_every_moved_belief(self):
        rng = np.random.default_rng(38)
        vol = pixel_volume(rng.uniform(0, 1, size=(7, 9, 5)))
        fld = MessageField(7, 9, 5)
        mask = ConvergenceMask(7, 9)
        assert not mask.changed.any()
        for _ in range(6):
            before = msgs(fld).copy()
            sweep(vol, fld, mask, BpConfig(epsilon=0.05))
            assert np.array_equal(mask.changed, (msgs(fld) != before).any(axis=(0, 3)))


class TestExtractDisparity:
    def test_zero_messages_is_winner_take_all(self):
        rng = np.random.default_rng(26)
        vol = pixel_volume(rng.uniform(0, 1, size=(4, 4, 5)))
        fld = MessageField(4, 4, 5)
        dm = extract_disparity(vol, fld)
        assert np.array_equal(dm.labels, np.argmin(vol.costs, axis=0))

    def test_tie_toward_smaller_disparity(self):
        vol = pixel_volume(np.array([[[3.0, 1.0, 1.0]]]))
        fld = MessageField(1, 1, 3)
        assert extract_disparity(vol, fld).labels[0, 0] == 1

    def test_ties_against_argmin(self):
        rng = np.random.default_rng(34)
        vol = pixel_volume(rng.integers(0, 3, size=(5, 6, 4)).astype(float))
        fld = MessageField(5, 6, 4)
        msgs(fld)[...] = rng.integers(0, 2, size=msgs(fld).shape)
        belief = pixel_costs(vol) + msgs(fld).sum(axis=0)
        assert np.array_equal(extract_disparity(vol, fld).labels, np.argmin(belief, axis=2))
        # the trace's relabeling keeps the same tie rule
        labels = np.full((5, 6), INVALID, dtype=np.int32)
        _relabel(vol, fld, labels, np.ones((5, 6), dtype=bool))
        assert np.array_equal(labels, np.argmin(belief, axis=2))

    @pytest.mark.parametrize("levels", [1, 4, 300])
    def test_argmin_is_numpys_on_ties(self, levels):
        # past 255 labels the rank no longer fits in a byte
        belief = np.random.default_rng(36).integers(0, 3, size=(levels, 7, 5))
        for b in (belief, belief.reshape(levels, -1), belief.astype(np.float32)):
            assert np.array_equal(_argmin(b), np.argmin(b, axis=0))


class TestLabelingEnergy:
    def test_single_pixel(self):
        vol = pixel_volume(np.array([[[0.3, 0.9]]]))
        dm = DisparityMap(np.array([[1]], dtype=np.int32))
        assert labeling_energy(vol, dm, SmoothnessParams()) == pytest.approx(0.9)

    def test_truncated_pair(self):
        vol = pixel_volume(np.zeros((1, 2, 4)))
        dm = DisparityMap(np.array([[0, 3]], dtype=np.int32))
        assert labeling_energy(vol, dm, SmoothnessParams(1.0, 2.0)) == pytest.approx(2.0)

    def test_invalid_label_rejected(self):
        vol = pixel_volume(np.zeros((1, 2, 2)))
        dm = DisparityMap(np.array([[0, -1]], dtype=np.int32))
        with pytest.raises(ValueError):
            labeling_energy(vol, dm, SmoothnessParams())

    @pytest.mark.parametrize("label", [-2, 4, -5])
    def test_label_outside_range_rejected(self, label):
        vol = pixel_volume(np.zeros((1, 2, 4)))
        # a DisparityMap refuses labels below INVALID, so set it afterwards
        dm = DisparityMap(np.array([[0, 0]], dtype=np.int32))
        dm.labels[0, 1] = label
        with pytest.raises(ValueError, match=r"outside \[0, 4\)"):
            labeling_energy(vol, dm, SmoothnessParams())

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("levels", [1, 5])
    @pytest.mark.parametrize("shape", [(1, 1), (1, 17), (17, 1), (7, 9)])
    def test_equals_the_fancy_index_sum(self, shape, levels, dtype):
        rng = np.random.default_rng(39)
        vol = pixel_volume(rng.uniform(0, 3, size=(*shape, levels)).astype(dtype))
        labels = rng.integers(0, levels, size=shape).astype(np.int32)
        p = SmoothnessParams(0.6, 1.4)
        yy, xx = np.mgrid[0 : shape[0], 0 : shape[1]]
        data = vol.costs[labels, yy, xx].sum(dtype=np.float64)
        dh = np.minimum(p.slope * np.abs(labels[:, 1:] - labels[:, :-1]), p.truncation).sum()
        dv = np.minimum(p.slope * np.abs(labels[1:, :] - labels[:-1, :]), p.truncation).sum()
        assert labeling_energy(vol, DisparityMap(labels), p) == float(data + dh + dv)

    def test_matches_brute_force_resummation(self):
        rng = np.random.default_rng(27)
        p = SmoothnessParams(0.6, 1.4)
        for _ in range(10):
            h, w, levels = rng.integers(1, 5, size=3)
            vol = pixel_volume(rng.uniform(0, 3, size=(h, w, levels)))
            labels = rng.integers(0, levels, size=(h, w)).astype(np.int32)
            want = 0.0
            for y in range(h):
                for x in range(w):
                    want += vol.costs[labels[y, x], y, x]
                    if x + 1 < w:
                        want += smoothness_cost(labels[y, x], labels[y, x + 1], p)
                    if y + 1 < h:
                        want += smoothness_cost(labels[y, x], labels[y + 1, x], p)
            got = labeling_energy(vol, DisparityMap(labels), p)
            assert got == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("smooth", [SmoothnessParams(0.37, 1.3), SmoothnessParams(1, 2)],
                             ids=["float", "int"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(1, 1), (1, 17), (17, 1), (7, 9)])
    def test_kept_terms_match_a_fresh_build(self, shape, dtype, smooth):
        # terms updated at relabeled pixels equal those built from the new
        # labels, dtypes included, and so does their total, bit for bit
        rng = np.random.default_rng(42)
        vol = pixel_volume(rng.uniform(0, 3, size=(*shape, 5)).astype(dtype))
        labels = rng.integers(0, 5, size=shape).astype(np.int32)
        terms = bp_engine._EnergyTerms(vol, labels, smooth)
        for _ in range(4):
            flat = np.flatnonzero(rng.uniform(size=shape) < 0.3)
            labels.reshape(-1)[flat] = rng.integers(0, 5, size=flat.size)
            terms.update(flat)
            fresh = bp_engine._EnergyTerms(vol, labels.copy(), smooth)
            for name in ("data", "dh", "dv"):
                got, want = getattr(terms, name), getattr(fresh, name)
                assert got.dtype == want.dtype and np.array_equal(got, want)
            assert terms.total() == labeling_energy(vol, DisparityMap(labels), smooth)

    def test_float32_costs_summed_in_float64(self):
        rng = np.random.default_rng(36)
        costs = rng.uniform(0, 3, size=(64, 64, 3)).astype(np.float32)
        labels = DisparityMap(rng.integers(0, 3, size=(64, 64)).astype(np.int32))
        p = SmoothnessParams(0.6, 1.4)
        got = labeling_energy(pixel_volume(costs), labels, p)
        assert got == labeling_energy(pixel_volume(costs.astype(np.float64)), labels, p)


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

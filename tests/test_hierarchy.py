import weakref

import numpy as np
import pytest

from bp_reference import msgs, pixel_volume
from stereo_bp import (
    BpConfig,
    CostVolume,
    NccParams,
    PyramidConfig,
    SmoothnessParams,
    build_cost_volume,
    labeling_energy,
    make_stereogram,
    run_hierarchical,
)
from stereo_bp.bp_engine import (
    ConvergenceMask,
    MessageField,
    extract_disparity,
    run_bp,
    sweep,
)
from stereo_bp.hierarchy import build_pyramid, lift_messages


def _random_volume(h, w, levels, seed):
    rng = np.random.default_rng(seed)
    return pixel_volume(rng.uniform(0, 1, size=(h, w, levels)))


class TestBuildPyramid:
    def test_single_scale_is_identity(self):
        vol = _random_volume(4, 4, 2, 0)
        levels = build_pyramid(vol, 1)
        assert len(levels) == 1 and levels[0] is vol

    def test_four_scales_halve_dimensions(self):
        vol = _random_volume(8, 8, 3, 1)
        dims = [(v.width, v.height) for v in build_pyramid(vol, 4)]
        assert dims == [(8, 8), (4, 4), (2, 2), (1, 1)]

    def test_ceil_halving_odd_dims(self):
        vol = _random_volume(5, 7, 2, 2)
        dims = [(v.width, v.height) for v in build_pyramid(vol, 3)]
        assert dims == [(7, 5), (4, 3), (2, 2)]

    def test_cost_mass_invariant_across_levels(self):
        vol = _random_volume(9, 6, 4, 3)
        mass = vol.costs.sum(axis=(1, 2))
        for level in build_pyramid(vol, 3):
            assert np.allclose(level.costs.sum(axis=(1, 2)), mass)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_levels_keep_the_dtype(self, dtype):
        vol = CostVolume(_random_volume(9, 6, 3, 4).costs.astype(dtype))
        for level in build_pyramid(vol, 4):
            assert level.costs.dtype == dtype
            assert level.costs.flags.c_contiguous

    def test_too_many_scales(self):
        with pytest.raises(ValueError):
            build_pyramid(_random_volume(2, 2, 2, 4), 4)


class TestLiftMessages:
    def test_zero_messages_stay_zero(self):
        coarse = MessageField(1, 1, 3)
        fine = lift_messages(coarse, 2, 2)
        assert np.all(msgs(fine) == 0)

    def test_block_copy(self):
        coarse = MessageField(1, 1, 2)
        msgs(coarse)[0, 0, 0] = [0.0, 2.0]
        fine = lift_messages(coarse, 2, 2)
        for y in range(2):
            for x in range(2):
                assert msgs(fine)[0, y, x].tolist() == [0.0, 2.0]

    def test_every_fine_vector_equals_parent(self):
        rng = np.random.default_rng(5)
        coarse = MessageField(3, 4, 3)
        msgs(coarse)[...] = rng.uniform(0, 2, size=msgs(coarse).shape)
        msgs(coarse)[...] -= msgs(coarse).min(axis=-1, keepdims=True)
        fine = lift_messages(coarse, 5, 7)
        for y in range(5):
            for x in range(7):
                for s in range(4):
                    assert np.array_equal(
                        msgs(fine)[s, y, x], msgs(coarse)[s, y // 2, x // 2]
                    )

    def test_preserves_min_normalization(self):
        rng = np.random.default_rng(6)
        coarse = MessageField(2, 2, 4)
        msgs(coarse)[...] = rng.uniform(0, 1, size=msgs(coarse).shape)
        msgs(coarse)[...] -= msgs(coarse).min(axis=-1, keepdims=True)
        fine = lift_messages(coarse, 4, 4)
        assert np.allclose(msgs(fine).min(axis=-1), 0.0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_keeps_the_coarse_dtype(self, dtype):
        rng = np.random.default_rng(7)
        coarse = MessageField(2, 3, 4, dtype)
        msgs(coarse)[...] = rng.uniform(0, 2, size=msgs(coarse).shape)
        fine = lift_messages(coarse, 3, 6)
        assert fine.planes.dtype == dtype and fine.planes.flags.c_contiguous
        assert np.array_equal(msgs(fine), msgs(coarse)[:, [0, 0, 1]][:, :, [0, 0, 1, 1, 2, 2]])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            lift_messages(MessageField(2, 2, 2), 8, 8)


class TestRunHierarchical:
    def test_single_scale_matches_flat_run(self):
        vol = _random_volume(8, 8, 3, 7)
        cfg = PyramidConfig(sweeps_per_scale=[12])
        dm, _ = run_hierarchical(vol, cfg)
        fld = MessageField(8, 8, 3)
        run_bp(vol, fld, BpConfig(), 12)
        flat = extract_disparity(vol, fld)
        assert np.array_equal(dm.labels, flat.labels)

    def test_zero_shift_pair_labels_zero_interior(self):
        left, right, _ = make_stereogram(32, 32, 0, 3)
        vol = build_cost_volume(left, right, 4, NccParams())
        cfg = PyramidConfig(sweeps_per_scale=[5, 5, 10])
        dm, _ = run_hierarchical(vol, cfg)
        assert np.all(dm.labels[4:-4, 4:-4] == 0)

    def test_hierarchy_beats_flat_on_stereograms(self):
        smooth = SmoothnessParams()
        wins = 0
        for seed in range(10):
            left, right, _ = make_stereogram(32, 32, 3, seed)
            vol = build_cost_volume(left, right, 6, NccParams())
            hier_cfg = PyramidConfig(
                sweeps_per_scale=[5, 5, 5, 5],
                bp=BpConfig(epsilon=0.0),
            )
            dm_h, _ = run_hierarchical(vol, hier_cfg)
            flat_cfg = PyramidConfig(
                sweeps_per_scale=[20],
                bp=BpConfig(epsilon=0.0),
            )
            dm_f, _ = run_hierarchical(vol, flat_cfg)
            e_h = labeling_energy(vol, dm_h, smooth)
            e_f = labeling_energy(vol, dm_f, smooth)
            if e_h <= e_f * 1.05:
                wins += 1
        assert wins >= 8

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_fields_take_the_volume_dtype(self, monkeypatch, dtype):
        seen = []

        def record(volume, fld, *args, **kwargs):
            seen.append((volume.costs.dtype, fld.planes.dtype))
            return run_bp(volume, fld, *args, **kwargs)

        monkeypatch.setattr("stereo_bp.hierarchy.run_bp", record)
        vol = CostVolume(_random_volume(9, 7, 3, 9).costs.astype(dtype))
        run_hierarchical(vol, PyramidConfig(sweeps_per_scale=[2, 2, 2]))
        assert seen == [(dtype, dtype)] * 3

    def test_each_coarse_level_is_dropped_once_its_scale_has_run(self, monkeypatch):
        vol = _random_volume(17, 12, 3, 10)
        levels, alive = [], []

        def record(volume, fld, *args, **kwargs):
            # the levels of the scales already run, coarsest first
            alive.append([ref() is not None for ref in levels])
            levels.append(weakref.ref(volume))
            return run_bp(volume, fld, *args, **kwargs)

        monkeypatch.setattr("stereo_bp.hierarchy.run_bp", record)
        run_hierarchical(vol, PyramidConfig(sweeps_per_scale=[2, 2, 2, 2]))
        assert alive == [[], [False], [False, False], [False, False, False]]
        assert levels[-1]() is vol

    def test_epsilon_zero_is_all_active_sweeps_with_less_work(self, monkeypatch):
        # the 64x48, L=12 stereogram of the golden FAST run, matched at
        # epsilon 0 and by a reference that recomputes every pixel in every
        # sweep it runs
        left, right, _ = make_stereogram(64, 48, 4, 3)
        vol = build_cost_volume(left, right, 12, NccParams())
        cfg = PyramidConfig(bp=BpConfig(epsilon=0.0))
        runs = []

        def record(volume, fld, *args, **kwargs):
            total = run_bp(volume, fld, *args, **kwargs)
            runs[-1].append((fld, total))
            return total

        def all_active(volume, fld, mask, config):
            mask.active = ConvergenceMask(volume.height, volume.width).active
            return sweep(volume, fld, mask, config)

        monkeypatch.setattr("stereo_bp.hierarchy.run_bp", record)
        runs.append([])
        got, _ = run_hierarchical(vol, cfg)
        monkeypatch.setattr("stereo_bp.bp_engine.sweep", all_active)
        runs.append([])
        want, _ = run_hierarchical(vol, cfg)

        (got_fld, _), (want_fld, _) = runs[0][-1], runs[1][-1]
        assert np.array_equal(got.labels, want.labels)
        assert np.array_equal(msgs(got_fld), msgs(want_fld))
        got_updates, want_updates = (sum(t for _, t in run) for run in runs)
        assert got_updates < want_updates

    def test_trace_has_scale_column(self):
        vol = _random_volume(8, 8, 2, 8)
        cfg = PyramidConfig(sweeps_per_scale=[3, 3])
        _, trace = run_hierarchical(vol, cfg)
        scales = [row[0] for row in trace]
        assert scales[0] == 1 and scales[-1] == 0
        for row in trace:
            scale, it, active, delta, energy = row
            assert it >= 1 and active >= 0 and np.isfinite(energy)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PyramidConfig(sweeps_per_scale=[])

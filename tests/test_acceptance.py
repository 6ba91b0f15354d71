"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest -s tests/test_acceptance.py` to see them).
"""

import hashlib
import time

import numpy as np
import pytest

from bp_reference import (
    exact_map_chain,
    exact_map_grid_small,
    jacobi_bp,
    msgs,
    ncc_score,
    pixel_volume,
    scheduled_bp,
)
from stereo_bp import (
    BpConfig,
    CostVolume,
    NccParams,
    PyramidConfig,
    SmoothnessParams,
    bad_pixel_rate,
    build_cost_volume,
    labeling_energy,
    make_stereogram,
    read_pgm,
    run_hierarchical,
    write_pgm,
)
from stereo_bp.bp_engine import MessageField, extract_disparity, run_bp
from stereo_bp.cli import main
from stereo_bp.hierarchy import build_pyramid


def _report(name, ok):
    print(f"{'PASS' if ok else 'FAIL'}: {name}")
    assert ok, name


def _run_flat(volume, sweeps, epsilon, smooth):
    fld = MessageField(volume.height, volume.width, volume.levels)
    cfg = BpConfig(epsilon=epsilon, smoothness=smooth)
    total = run_bp(volume, fld, cfg, sweeps)
    return fld, total


def test_tree_exactness():
    """100 random chains: BP after N sweeps equals the exact DP solution."""
    rng = np.random.default_rng(1000)
    smooth = SmoothnessParams(slope=1.0, truncation=2.0)
    t0 = time.time()
    ok = True
    for _ in range(100):
        n = int(rng.integers(1, 17))
        levels = int(rng.integers(1, 9))
        costs = rng.uniform(0, 10, size=(n, levels))
        vol = pixel_volume(costs.reshape(1, n, levels))
        fld, _ = _run_flat(vol, n, 0.0, smooth)
        dm = extract_disparity(vol, fld)
        want_labels, want_energy = exact_map_chain(costs, smooth)
        got_energy = labeling_energy(vol, dm, smooth)
        if not np.array_equal(dm.labels[0], want_labels):
            ok = False
        if abs(got_energy - want_energy) > 1e-9:
            ok = False
    elapsed = time.time() - t0
    _report(f"tree exactness (100 chains, {elapsed:.2f}s)", ok and elapsed < 5.0)


def test_brute_force_optimality_bound():
    """BP energy is never below the exhaustive optimum; equal when s=0."""
    rng = np.random.default_rng(2000)
    t0 = time.time()
    ok = True
    for i in range(50):
        h = int(rng.integers(1, 4))
        w = int(rng.integers(1, 4))
        levels = int(rng.integers(1, 4))
        vol = pixel_volume(rng.uniform(0, 5, size=(h, w, levels)))
        smooth = SmoothnessParams(slope=0.0 if i % 2 == 0 else 1.0, truncation=2.0)
        _, opt_energy = exact_map_grid_small(vol, smooth)
        fld, _ = _run_flat(vol, 10, 0.0, smooth)
        bp_energy = labeling_energy(vol, extract_disparity(vol, fld), smooth)
        if bp_energy < opt_energy - 1e-12:
            ok = False
        if smooth.slope == 0.0 and abs(bp_energy - opt_energy) > 1e-12:
            ok = False
    elapsed = time.time() - t0
    _report(f"brute-force optimality bound (50 grids, {elapsed:.2f}s)",
            ok and elapsed < 10.0)


def test_fast_full_equivalence_and_work():
    """eps=0 is bit-exact vs the scalar synchronous reference while
    updating only the pixels the scalar scheduled reference updates at
    eps=0; eps=1e-3 does strictly less work."""
    smooth = SmoothnessParams()
    bitexact = True
    fewer = 0
    for seed in range(20):
        rng = np.random.default_rng(3000 + seed)
        vol = pixel_volume(rng.uniform(0, 1, size=(32, 32, 4)))
        small = pixel_volume(rng.uniform(0, 1, size=(8, 8, 4)))
        fld_ref = jacobi_bp(small, 10, smooth)
        fld_fast0, total0 = _run_flat(small, 10, 0.0, smooth)
        if (not np.array_equal(msgs(fld_ref), msgs(fld_fast0))
                or total0 != scheduled_bp(small, 10, smooth, 0.0)[2]):
            bitexact = False
        if not np.array_equal(
            extract_disparity(small, fld_ref).labels,
            extract_disparity(small, fld_fast0).labels,
        ):
            bitexact = False
        _, full_total = _run_flat(vol, 30, 0.0, smooth)
        _, fast_total = _run_flat(vol, 30, 1e-3, smooth)
        if fast_total < full_total:
            fewer += 1
    _report(
        f"fast/standard equivalence (bit-exact={bitexact}, fewer updates on "
        f"{fewer}/20)",
        bitexact and fewer >= 18,
    )


@pytest.fixture(scope="module")
def stereogram_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("accept")
    left, right, truth = make_stereogram(128, 128, 5, 1)
    volume = build_cost_volume(left, right, 20, NccParams())
    t0 = time.time()
    cfg = PyramidConfig(sweeps_per_scale=[10, 10, 10, 30])
    disparity, trace = run_hierarchical(volume, cfg)
    elapsed = time.time() - t0
    return dict(tmp=tmp, left=left, right=right, truth=truth, volume=volume,
                disparity=disparity, trace=trace, elapsed=elapsed)


def test_synthetic_stereogram_accuracy(stereogram_run):
    """128x128 shift-5 stereogram: <= 5% bad pixels and energy <= WTA."""
    r = stereogram_run
    report = bad_pixel_rate(r["disparity"], r["truth"], threshold=1.0, border=20)
    smooth = SmoothnessParams()
    bp_energy = labeling_energy(r["volume"], r["disparity"], smooth)
    wta = extract_disparity(r["volume"], MessageField(128, 128, 20))
    wta_energy = labeling_energy(r["volume"], wta, smooth)
    ok = (
        report.bad_pixel_rate <= 0.05
        and bp_energy <= wta_energy
        and r["elapsed"] <= 10.0
    )
    _report(
        f"synthetic stereogram accuracy (bad={report.bad_pixel_rate:.4f}, "
        f"E_bp={bp_energy:.1f} <= E_wta={wta_energy:.1f}, {r['elapsed']:.2f}s)",
        ok,
    )


def test_float64_volume_gives_the_same_labels(stereogram_run):
    """The built volume is float32; a float64 copy of it, run through the
    same pyramid in float64, labels every pixel the same."""
    r = stereogram_run
    assert r["volume"].costs.dtype == np.float32
    wide = CostVolume(r["volume"].costs.astype(np.float64))
    disparity, _ = run_hierarchical(wide, PyramidConfig(sweeps_per_scale=[10, 10, 10, 30]))
    assert np.array_equal(disparity.labels, r["disparity"].labels)


def test_convergence_curve_shape(stereogram_run):
    """FAST active-pixel counts shrink below 10% at the finest scale."""
    finest = [row for row in stereogram_run["trace"] if row[0] == 0]
    pixels = 128 * 128
    first_active = finest[0][2]
    final_active = finest[-1][2]
    ok = (
        first_active <= pixels
        and len(finest) <= 30
        and final_active < 0.10 * pixels
    )
    _report(
        f"convergence-curve shape (sweep-1 active={first_active}, final "
        f"active={final_active} of {pixels} after {len(finest)} sweeps)",
        ok,
    )


def test_invariant_suite(stereogram_run, tmp_path):
    checks = {}
    rng = np.random.default_rng(4000)

    # message min-0 normalization after every sweep
    vol = pixel_volume(rng.uniform(0, 1, size=(10, 10, 4)))
    fld = MessageField(10, 10, 4)
    from stereo_bp.bp_engine import ConvergenceMask, sweep

    mask = ConvergenceMask(10, 10)
    cfg = BpConfig(epsilon=0.0)
    norm_ok = True
    for _ in range(8):
        sweep(vol, fld, mask, cfg)
        if msgs(fld).min() < 0 or msgs(fld).min(axis=-1).max() > 1e-6:
            norm_ok = False
    checks["message normalization"] = norm_ok

    # NCC range and affine-intensity invariance
    from stereo_bp import GrayImage

    ncc_ok = True
    for _ in range(30):
        a = rng.uniform(0, 80, size=(5, 5))
        b = rng.uniform(0, 80, size=(5, 5))

        def score(x, y):
            xm, ym = x - x.mean(), y - y.mean()
            den = np.sqrt((xm**2).sum() * (ym**2).sum())
            return 0.0 if den == 0 else (xm * ym).sum() / den

        base = score(a, b)
        if not -1.0 <= base <= 1.0:
            ncc_ok = False
        if abs(score(2.5 * a + 40.0, b) - base) > 1e-9:
            ncc_ok = False
        if abs(score(a, 0.5 * b + 7.0) - base) > 1e-9:
            ncc_ok = False
    left = GrayImage(rng.integers(0, 256, (7, 7), dtype=np.uint8))
    if not -1.0 <= ncc_score(left, left, 3, 3, 0, 2) <= 1.0:
        ncc_ok = False
    checks["ncc range + affine invariance"] = ncc_ok

    # pyramid cost-mass conservation per disparity
    mass = stereogram_run["volume"].costs.sum(axis=(1, 2))
    pyr = build_pyramid(stereogram_run["volume"], 4)
    checks["pyramid cost-mass conservation"] = all(
        np.allclose(level.costs.sum(axis=(1, 2)), mass) for level in pyr
    )

    # PGM round-trip identity: P5 as write_pgm writes it, P2 written here
    img = GrayImage(rng.integers(0, 256, (9, 13), dtype=np.uint8))
    p2 = "\n".join(" ".join(map(str, row)) for row in img.samples.tolist())
    (tmp_path / "rt_p2.pgm").write_text(f"P2\n13 9\n255\n{p2}\n")
    write_pgm(img, tmp_path / "rt_p5.pgm")
    checks["pgm round-trip identity"] = all(
        np.array_equal(read_pgm(tmp_path / name).samples, img.samples)
        for name in ("rt_p5.pgm", "rt_p2.pgm"))

    # full-pipeline byte determinism across two CLI runs
    lp, rp = tmp_path / "l.pgm", tmp_path / "r.pgm"
    write_pgm(stereogram_run["left"], lp)
    write_pgm(stereogram_run["right"], rp)
    hashes = []
    for name in ("det1.pgm", "det2.pgm"):
        out = tmp_path / name
        rc = main(
            ["match", "--left", str(lp), "--right", str(rp), "--out", str(out),
             "--max-disp", "8", "--scales", "3", "--sweeps", "5,5,10", "--trace"]
        )
        assert rc == 0
        hashes.append(
            hashlib.sha256(
                out.read_bytes() + (tmp_path / (name + ".trace.csv")).read_bytes()
            ).hexdigest()
        )
    checks["full-pipeline byte determinism"] = hashes[0] == hashes[1]

    for name, ok in checks.items():
        print(f"  {'ok' if ok else 'FAILED'}: {name}")
    _report("invariant suite", all(checks.values()))

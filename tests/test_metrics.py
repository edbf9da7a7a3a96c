"""Metric suite vs. brute-force oracles, the patch grid vs. pixels, identities, CSV format."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mca.errors import ContractError, UndefinedMetricError
from mca.metrics import (
    EvalPair,
    METRIC_NAMES,
    SAT_BLOCK,
    ber,
    dice_iou,
    e_measure,
    evaluate_dataset,
    mae,
    report_to_csv,
    s_measure,
)

from _oracles import (
    oracle_ber,
    oracle_dice_iou,
    oracle_e_measure,
    oracle_mae,
    oracle_s_measure,
)


def _random_pair(rng, shape=(16, 16), p_fg=None):
    s = rng.random(shape)
    p = rng.uniform(0.2, 0.8) if p_fg is None else p_fg
    g = (rng.random(shape) < p).astype(np.float64)
    # Guarantee both classes so every metric is defined.
    g.flat[0] = 1.0
    g.flat[-1] = 0.0
    return EvalPair(s, g)


def test_oracle_equivalence_100_random_pairs():
    rng = np.random.default_rng(42)
    for _ in range(100):
        pair = _random_pair(rng)
        s, g = pair.prediction, pair.ground_truth
        assert abs(mae(pair) - oracle_mae(s, g)) < 1e-9
        assert abs(s_measure(pair) - oracle_s_measure(s, g)) < 1e-9
        assert abs(e_measure(pair) - oracle_e_measure(s, g)) < 1e-9
        assert abs(ber(pair) - oracle_ber(s, g)) < 1e-9
        d, i = dice_iou(pair)
        od, oi = oracle_dice_iou(s, g)
        assert abs(d - od) < 1e-9 and abs(i - oi) < 1e-9


def test_mae_trivial_and_known_values():
    g = np.array([[1.0, 0.0], [1.0, 0.0]])
    assert mae(EvalPair(g, g)) == 0.0
    assert mae(EvalPair(1.0 - g, g)) == 1.0
    s = np.array([[0.5, 0.0], [1.0, 0.0]])
    assert abs(mae(EvalPair(s, g)) - 0.125) < 1e-12


def test_s_measure_perfect_binary_is_one():
    rng = np.random.default_rng(3)
    g = (rng.random((8, 8)) > 0.5).astype(np.float64)
    g[0, 0], g[-1, -1] = 1.0, 0.0
    assert abs(s_measure(EvalPair(g, g)) - 1.0) < 1e-6


def test_s_measure_alpha_endpoints_and_validation():
    # A well-aligned pair keeps both components strictly inside (0, 1) so the
    # final clamp is inactive and the blend is exactly linear in alpha.
    rng = np.random.default_rng(4)
    g = (rng.random((8, 8)) > 0.5).astype(np.float64)
    g[0, 0], g[-1, -1] = 1.0, 0.0
    pair = EvalPair(np.clip(g * 0.8 + 0.1, 0.0, 1.0), g)
    full = s_measure(pair, alpha=0.5)
    s_o = s_measure(pair, alpha=1.0)
    s_r = s_measure(pair, alpha=0.0)
    assert abs(full - (0.5 * s_o + 0.5 * s_r)) < 1e-9
    with pytest.raises(ContractError):
        s_measure(pair, alpha=1.5)


def test_s_measure_single_class_conventions():
    s = np.full((4, 4), 0.25)
    zeros = np.zeros((4, 4))
    ones = np.ones((4, 4))
    assert abs(s_measure(EvalPair(s, zeros)) - 0.75) < 1e-12
    assert abs(s_measure(EvalPair(s, ones)) - 0.25) < 1e-12


def test_e_measure_identities():
    rng = np.random.default_rng(5)
    g = (rng.random((8, 8)) > 0.4).astype(np.float64)
    g[0, 0], g[-1, -1] = 1.0, 0.0
    assert abs(e_measure(EvalPair(g, g)) - 1.0) < 1e-6
    # Anti-aligned bound: xi = -1 wherever both deviations are nonzero.
    assert e_measure(EvalPair(1.0 - g, g)) <= 0.25


def test_e_measure_single_class_conventions():
    s = np.full((4, 4), 0.2)
    assert abs(e_measure(EvalPair(s, np.zeros((4, 4)))) - 0.8) < 1e-12
    assert abs(e_measure(EvalPair(s, np.ones((4, 4)))) - 0.2) < 1e-12


def test_ber_known_values():
    g = np.array([[1.0, 0.0], [1.0, 0.0]])
    assert ber(EvalPair(g, g)) == 0.0
    assert ber(EvalPair(1.0 - g, g)) == 100.0
    s = np.array([[1.0, 1.0], [0.0, 0.0]])
    assert abs(ber(EvalPair(s, g)) - 50.0) < 1e-12


def test_ber_single_class_rejected():
    s = np.full((4, 4), 0.5)
    with pytest.raises(UndefinedMetricError):
        ber(EvalPair(s, np.zeros((4, 4))))
    with pytest.raises(UndefinedMetricError):
        ber(EvalPair(s, np.ones((4, 4))))


def test_dice_iou_known_values():
    g = np.zeros((4, 4))
    g[0, :4] = 1.0  # |G| = 4
    s = np.zeros((4, 4))
    s[0, 2:4] = 1.0
    s[1, 0:2] = 1.0  # |S| = 4, overlap 2
    d, i = dice_iou(EvalPair(s, g))
    assert abs(d - 0.5) < 1e-12
    assert abs(i - 1.0 / 3.0) < 1e-12


def test_dice_iou_edges():
    g = np.zeros((3, 3))
    s = np.zeros((3, 3))
    assert dice_iou(EvalPair(s, g)) == (1.0, 1.0)  # both empty
    g2 = g.copy()
    g2[0, 0] = 1.0
    s2 = s.copy()
    s2[2, 2] = 1.0
    assert dice_iou(EvalPair(s2, g2)) == (0.0, 0.0)  # disjoint
    assert dice_iou(EvalPair(g2, g2)) == (1.0, 1.0)  # perfect


def test_dice_at_least_iou():
    rng = np.random.default_rng(6)
    for _ in range(50):
        pair = _random_pair(rng, (8, 8))
        d, i = dice_iou(pair)
        assert d >= i - 1e-12
        if d in (0.0, 1.0):
            assert d == i


def test_binary_mae_matches_confusion_counts():
    rng = np.random.default_rng(7)
    for _ in range(20):
        g = (rng.random((8, 8)) > 0.5).astype(np.float64)
        g[0, 0], g[-1, -1] = 1.0, 0.0
        s = (rng.random((8, 8)) > 0.5).astype(np.float64)
        pred = s >= 0.5
        gt = g == 1
        fp = np.count_nonzero(pred & ~gt)
        fn = np.count_nonzero(~pred & gt)
        assert abs(mae(EvalPair(s, g)) - (fp + fn) / g.size) < 1e-12


def test_permutation_invariance_except_region_term():
    rng = np.random.default_rng(8)
    pair = _random_pair(rng, (8, 8))
    perm = rng.permutation(64)
    s2 = pair.prediction.ravel()[perm].reshape(8, 8)
    g2 = pair.ground_truth.ravel()[perm].reshape(8, 8)
    pair2 = EvalPair(s2, g2)
    assert abs(mae(pair) - mae(pair2)) < 1e-12
    assert abs(e_measure(pair) - e_measure(pair2)) < 1e-12
    assert abs(ber(pair) - ber(pair2)) < 1e-12
    assert dice_iou(pair) == dice_iou(pair2)


def test_evalpair_validation():
    with pytest.raises(ContractError):
        EvalPair(np.zeros((2, 3)), np.zeros((3, 2)))
    with pytest.raises(ContractError):
        EvalPair(np.full((2, 2), 1.5), np.zeros((2, 2)))
    with pytest.raises(ContractError):
        EvalPair(np.zeros((2, 2)), np.full((2, 2), 0.5))


def _stack(pairs):
    return EvalPair(np.stack([p.prediction for p in pairs]),
                    np.stack([p.ground_truth for p in pairs]))


def test_evaluate_dataset_aggregation():
    rng = np.random.default_rng(9)
    pair = _random_pair(rng)
    single = evaluate_dataset(_stack([pair]), ["a"])
    for m in METRIC_NAMES:
        assert single.means[m] == single.rows[0][m]
    doubled = evaluate_dataset(_stack([pair, pair]), ["a", "b"])
    for m in METRIC_NAMES:
        assert abs(doubled.means[m] - single.means[m]) < 1e-12
    g = np.array([[1.0, 0.0], [1.0, 0.0]])
    report = evaluate_dataset(_stack([EvalPair(g, g), EvalPair(1.0 - g, g)]), ["a", "b"])
    assert abs(report.means["dice"] - 0.5) < 1e-12


def test_evaluate_dataset_validation():
    with pytest.raises(ContractError):
        evaluate_dataset(EvalPair(np.zeros((0, 2, 2)), np.zeros((0, 2, 2))), [])
    rng = np.random.default_rng(10)
    with pytest.raises(ContractError):
        evaluate_dataset(_stack([_random_pair(rng)]), names=["a", "b"])
    with pytest.raises(ContractError):
        evaluate_dataset(_random_pair(rng), names=["a"])  # one map, not a stack


def test_evaluate_dataset_of_70_maps_equals_each_map_alone_bitwise():
    # 70 maps span more than one summed-area block (SAT_BLOCK = 64); every
    # value must be bitwise that of its map scored alone.
    assert SAT_BLOCK < 70
    rng = np.random.default_rng(70)
    f, grid = 8, 4
    maps = rng.random((70, grid, grid)).astype(np.float32).astype(np.float64)
    truth = rng.random((70, grid * f, grid * f)) < rng.uniform(0.1, 0.9, (70, 1, 1))
    truth[:, 0, 0], truth[:, -1, -1] = True, False
    report = evaluate_dataset(EvalPair(maps, truth.astype(np.uint8)), [str(k) for k in range(70)])
    for k, row in enumerate(report.rows):
        alone = EvalPair(maps[k], truth[k].astype(np.uint8))
        dice, iou = dice_iou(alone)
        expected = {"mae": mae(alone), "s_measure": s_measure(alone),
                    "e_measure": e_measure(alone), "ber": ber(alone), "dice": dice, "iou": iou}
        assert row == {"image": str(k), **expected}, k


def test_report_csv_text_at_6_decimals():
    rng = np.random.default_rng(11)
    report = evaluate_dataset(_stack([_random_pair(rng) for _ in range(3)]),
                              names=["a", "b", "c"])
    header, *lines, end = report_to_csv(report).split("\n")
    assert header == "image,mae,s_measure,e_measure,ber,dice,iou"
    assert end == ""  # one trailing newline, no blank rows
    cells = [line.split(",") for line in lines]
    assert [row[0] for row in cells] == ["a", "b", "c", "MEAN"]
    for row, values in zip(cells, report.rows + [report.means]):
        assert row[1:] == [f"{values[m]:.6f}" for m in METRIC_NAMES]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_prediction_rejected(bad):
    s = np.full((4, 4), 0.5)
    s[2, 2] = bad
    g = np.zeros((4, 4))
    g[0, 0] = 1.0
    with pytest.raises(ContractError, match="non-finite"):
        EvalPair(s, g)


# ---------------------------------------------------------------------------
# the patch grid: one map entry per f x f block of truth
# ---------------------------------------------------------------------------

GRID = 4


def _grid_cases(f):
    """Patch maps [N, 4, 4] of float32 values, as the mask head emits, and truth [N, 4f, 4f]."""
    rng = np.random.default_rng(100 + f)
    side = GRID * f
    maps, truths = [], []

    def add(m, t):
        maps.append(np.asarray(m, dtype=np.float32).astype(np.float64))
        truths.append(t.astype(np.uint8))

    def square(r0, r1, c0, c1):
        t = np.zeros((side, side), dtype=bool)
        t[r0:r1, c0:c1] = True
        return t

    def rand():
        return rng.random((GRID, GRID))

    def noise(p=0.4):  # pixel truth: blocks hold any foreground count
        return rng.random((side, side)) < p

    add(np.full((GRID, GRID), 0.5), noise())  # the untrained head's uniform map
    # Truth is block (0, 0), whose centroid (f - 1) / 2 rounds into it, so the
    # top-left quadrant lies inside one block with uniform truth: S-region's
    # 1.0 branch, where a prediction variance must come out exactly 0.
    add(rand(), square(0, f, 0, f))
    m = rand()
    m[:2, :2] = 0.0  # sigmoid underflow: blocks of exactly 0.0
    m[3, 1] = 0.0
    add(m, noise())
    add(rand(), np.zeros((side, side), dtype=bool))
    add(rand(), np.ones((side, side), dtype=bool))
    add(rand(), square(f, 3 * f, f, 3 * f))  # centroid 2f - 1/2 rounds to 2f, a block edge
    add(rand(), square(1, 3 * f, 0, 2 * f + 1))  # centroid row off the block edges at f > 1
    # Two block values and block-aligned truth: quadrants where several
    # blocks hold one equal value.
    blocks = rng.random((GRID, GRID)) < 0.5
    blocks[0, 0], blocks[-1, -1] = True, False
    add(np.where(rand() < 0.5, 0.25, 0.75), np.kron(blocks, np.ones((f, f), dtype=bool)))
    add(rand(), noise(0.15))
    return np.stack(maps), np.stack(truths)


@pytest.mark.parametrize("f", [1, 2, 16])
def test_grid_metrics_equal_pixel_metrics_of_upsampled_maps(f):
    maps, truths = _grid_cases(f)
    stack = EvalPair(maps, truths)
    up = maps.repeat(f, axis=-2).repeat(f, axis=-1)
    pixel = [EvalPair(u, t) for u, t in zip(up, truths)]
    for metric in (mae, s_measure, e_measure):
        np.testing.assert_allclose(metric(stack), [metric(p) for p in pixel], rtol=0, atol=1e-12)
    dice, iou = dice_iou(stack)
    assert list(zip(dice, iou)) == [dice_iou(p) for p in pixel]
    # The brute-force definitions agree, exact-zero branches included.
    for u, t, s, e in zip(up, truths.astype(np.float64), s_measure(stack), e_measure(stack)):
        assert abs(s - oracle_s_measure(u, t)) < 1e-12
        assert abs(e - oracle_e_measure(u, t)) < 1e-12

    mixed = [k for k, t in enumerate(truths) if 0 < t.sum() < t.size]
    names = [f"img{k}" for k in mixed]
    np.testing.assert_allclose(ber(EvalPair(maps[mixed], truths[mixed])),
                               [ber(pixel[k]) for k in mixed], rtol=0, atol=1e-12)
    grid_csv = report_to_csv(evaluate_dataset(EvalPair(maps[mixed], truths[mixed]), names))
    pixel_csv = report_to_csv(evaluate_dataset(EvalPair(up[mixed], truths[mixed]), names))
    assert grid_csv == pixel_csv


def test_constant_quadrant_variance_is_exactly_zero():
    # 0.1 is no float32 value, so sums of its copies round: a two-pass
    # variance over the upsampled top-left quadrant need not come out 0.
    # That quadrant's prediction is constant and its truth uniform, so it
    # scores 1 at every block size; the other three quadrants score 0.
    truth = np.zeros((64, 64))
    truth[:24, :24] = 1.0  # the centroid 11.5 rounds to 12, inside block (0, 0)
    maps = np.full((4, 4), 0.1)
    mu = 24 * 24 / (64 * 64)
    s_object = mu * 0.2 / 1.01 + (1.0 - mu) * 1.8 / 1.81
    want = 0.5 * s_object + 0.5 * (12 * 12) / (64 * 64)
    for pair in (EvalPair(maps, truth), EvalPair(maps.repeat(16, 0).repeat(16, 1), truth)):
        assert abs(s_measure(pair) - want) < 1e-12
    # Against truth mixed in every quadrant, the covariance is exactly 0 too,
    # so every quadrant takes the alpha_t = 0 branch and S_region is exactly 0.
    rng = np.random.default_rng(0)
    for _ in range(5):
        noise = (rng.random((64, 64)) < 0.4).astype(np.uint8)
        for pair in (EvalPair(maps, noise), EvalPair(maps.repeat(16, 0).repeat(16, 1), noise)):
            assert s_measure(pair, alpha=0.0) == 0.0


def test_grid_pair_errors():
    truth = np.zeros((2, 8, 8))
    truth[:, 0, 0] = 1.0
    maps = np.full((2, 4, 4), 0.5)
    maps[1, 2, 3] = np.nan  # one block of 2 x 2 pixels
    with pytest.raises(ContractError, match="prediction map has 4 non-finite values"):
        EvalPair(maps, truth)
    bad = truth.copy()
    bad[1, 5, 5] = 2.0
    with pytest.raises(ContractError, match="binary"):
        EvalPair(np.full((2, 4, 4), 0.5), bad)
    for pred, gt in (((4, 4), (10, 10)),  # 4 blocks do not tile 10 pixels
                     ((4, 4), (8, 12)),  # blocks would not be square
                     ((2, 4, 4), (8, 8)),  # a stack over one mask
                     ((2, 4, 4), (3, 8, 8))):
        with pytest.raises(ContractError):
            EvalPair(np.full(pred, 0.5), np.zeros(gt))


def test_imports_load_no_scipy():
    # Nothing under src/mca imports scipy (the tests keep it as the erfc
    # oracle), so no command pays for it at start-up.  In a fresh interpreter
    # with src first on the path, importing the metrics on top of the package
    # adds only that module, and importing the whole CLI loads no scipy module.
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import mca; "
            "before = set(sys.modules); import mca.metrics; "
            "print(sorted(m for m in set(sys.modules) - before if m.split('.')[0] == 'mca')); "
            "import mca.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True,
                         check=True).stdout
    assert out.split("\n")[:2] == ["['mca.metrics']", "[]"]

"""Metric suite vs. brute-force oracles, trivial identities, CSV format."""

import numpy as np
import pytest

from mca.errors import ContractError, UndefinedMetricError
from mca.metrics import (
    EvalPair,
    METRIC_NAMES,
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


def test_evaluate_dataset_aggregation():
    rng = np.random.default_rng(9)
    pair = _random_pair(rng)
    single = evaluate_dataset([pair], ["a"])
    for m in METRIC_NAMES:
        assert single.means[m] == single.rows[0][m]
    doubled = evaluate_dataset([pair, pair], ["a", "b"])
    for m in METRIC_NAMES:
        assert abs(doubled.means[m] - single.means[m]) < 1e-12
    g = np.array([[1.0, 0.0], [1.0, 0.0]])
    report = evaluate_dataset([EvalPair(g, g), EvalPair(1.0 - g, g)], ["a", "b"])
    assert abs(report.means["dice"] - 0.5) < 1e-12


def test_evaluate_dataset_validation():
    with pytest.raises(ContractError):
        evaluate_dataset([], [])
    rng = np.random.default_rng(10)
    with pytest.raises(ContractError):
        evaluate_dataset([_random_pair(rng)], names=["a", "b"])


def test_report_csv_text_at_6_decimals():
    rng = np.random.default_rng(11)
    report = evaluate_dataset([_random_pair(rng) for _ in range(3)], names=["a", "b", "c"])
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

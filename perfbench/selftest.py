"""Self-test of the benchmark's own arithmetic and checks.

    python3 perfbench/selftest.py

Covers the self time of nested spans, the median, the independent
Dice/IoU/BER on a hand-computed mask pair, and shows that every
correctness check rejects a corrupted output.  Runs in a few seconds.
"""

import math
import os
import sys
import tempfile
import unittest
from collections import OrderedDict
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
from spans import Tracer, has_ancestor_in, self_times  # noqa: E402


class SpanArithmetic(unittest.TestCase):
    def test_self_time_of_nested_spans(self):
        # 0 [0, 10] > 1 [1, 5], 2 [6, 9] > 3 [7, 8]
        duration = np.array([10.0, 4.0, 3.0, 1.0])
        parent = np.array([-1, 0, 0, 2])
        np.testing.assert_allclose(self_times(duration, parent), [3.0, 4.0, 2.0, 1.0])

    def test_ancestors(self):
        parent = np.array([-1, 0, 1, 2, -1])
        mask = np.array([False, True, False, True, True])
        np.testing.assert_array_equal(has_ancestor_in(parent, mask),
                                      [False, False, True, True, False])

    def test_tracer_records_parents_and_self_time(self):
        tracer = Tracer()
        inner = tracer.wrap(lambda: sum(range(1000)), "layer.inner")
        outer = tracer.wrap(lambda: [inner() for _ in range(3)], "layer.outer")
        tracer.set_phase("train")
        outer()
        s = tracer.arrays()
        self.assertEqual(s.parent.tolist(), [-1, 0, 0, 0])
        self.assertEqual([s.names[i] for i in s.name], ["layer.outer"] + ["layer.inner"] * 3)
        self.assertAlmostEqual(s.self_time[0], s.duration[0] - s.duration[1:].sum())
        self.assertEqual(int(s.select("layer", {"train"}).sum()), 4)
        self.assertEqual(int(s.outermost(s.select("layer")).sum()), 1)
        self.assertEqual(int(s.select("layer", {"eval"}).sum()), 0)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "trace.npz")
            tracer.save(path)
            with np.load(path) as saved:
                self.assertEqual(saved["parent"].tolist(), s.parent.tolist())
                np.testing.assert_array_equal(saved["end"] - saved["start"], s.duration)

    def test_patching_reaches_every_importing_module(self):
        tracer = Tracer()
        tracer.install()
        try:
            import mca.encoder
            import mca.tensor
            self.assertIs(mca.encoder.matmul, mca.tensor.matmul)
            self.assertTrue(hasattr(mca.tensor.matmul, "__wrapped__"))
            self.assertEqual(tracer.missing, [])
        finally:
            tracer.uninstall()
        self.assertFalse(hasattr(mca.tensor.matmul, "__wrapped__"))

    def test_metric_names_and_units_match_benchmark_json(self):
        import json

        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        w = run.WORKLOADS["train-mca"]
        e2e = run.end_to_end_metrics(0.1, [1.0], {"train": [1.0], "eval": [2.0]})
        layers = run.per_layer_metrics(Tracer().arrays(), {}, w, 1, 0.0)
        for produced, declared in ((e2e, spec["end_to_end"]), (layers, spec["per_layer"])):
            self.assertEqual(list(produced), [m["name"] for m in declared])
            for m in declared:
                self.assertEqual(run.UNITS[m["name"]], m["unit"])
        self.assertEqual(sorted(run.WORKLOADS), sorted(x["name"] for x in spec["workloads"]))

    def test_median(self):
        self.assertEqual(run._median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(run._median([4.0, 1.0, 2.0, 3.0]), 2.5)
        self.assertEqual(run._median([]), 0.0)

    def test_rates_are_medians_over_commands(self):
        e2e = run.end_to_end_metrics(0.5, [1.0, 3.0, 2.0],
                                     {"train": [1.0, 9.0, 2.0], "eval": [4.0, 8.0]})
        self.assertEqual(e2e["setup_s"], 2.5)
        self.assertEqual(e2e["train_images_per_s"], 2.0)
        self.assertEqual(e2e["eval_images_per_s"], 6.0)


class MaskArithmetic(unittest.TestCase):
    def test_hand_computed_pair(self):
        pred = np.array([[1, 1, 0], [0, 0, 0]], dtype=bool)
        gt = np.array([[1, 0, 0], [1, 0, 0]], dtype=bool)
        # tp 1, fp 1, fn 1, tn 3
        dice, iou, ber = checks.dice_iou_ber(pred, gt)
        self.assertEqual(dice, 0.5)
        self.assertAlmostEqual(iou, 1.0 / 3.0)
        self.assertAlmostEqual(ber, 100.0 * (1.0 - 0.5 * (1.0 / 2.0 + 3.0 / 4.0)))

    def test_both_empty_scores_one(self):
        empty = np.zeros((2, 2), dtype=bool)
        gt = np.array([[1, 0], [0, 0]], dtype=bool)
        self.assertEqual(checks.dice_iou_ber(gt, gt)[:2], (1.0, 1.0))
        self.assertEqual(checks.dice_iou_ber(empty, gt)[:2], (0.0, 0.0))


def _write_masks(root, split, masks):
    from mca.netpbm import save_pgm

    os.makedirs(os.path.join(root, split, "masks"), exist_ok=True)
    for sid, m in masks.items():
        save_pgm(os.path.join(root, split, "masks", f"{sid}.pgm"), m.astype(np.uint8))
    with open(os.path.join(root, split, "manifest.txt"), "w", encoding="ascii") as f:
        f.writelines(sid + "\n" for sid in masks)


class ChecksRejectCorruption(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.root = self.tmp.name
        rng = np.random.default_rng(0)
        self.gt = {f"test_{i:04d}": rng.random((8, 8)) < 0.4 for i in range(3)}
        self.pred = {k: rng.random((8, 8)) < 0.5 for k in self.gt}
        _write_masks(self.root, "test", self.gt)
        self.dump = os.path.join(self.root, "dump")
        _write_masks(self.dump, "x", self.pred)
        self.dump = os.path.join(self.dump, "x", "masks")
        rows = ["image,mae,s_measure,e_measure,ber,dice,iou"]
        values = []
        for sid in self.gt:
            d, i, b = checks.dice_iou_ber(self.pred[sid], self.gt[sid])
            v = [0.25, 0.5, 0.5, b, d, i]
            values.append([float(f"{x:.6f}") for x in v])
            rows.append(sid + "," + ",".join(f"{x:.6f}" for x in v))
        mean = np.mean(values, axis=0)
        rows.append("MEAN," + ",".join(f"{x:.6f}" for x in mean))
        self.csv = "\n".join(rows) + "\n"
        self.manifest = list(self.gt)

    def tearDown(self):
        self.tmp.cleanup()

    def _replace_cell(self, row, col, value):
        lines = self.csv.splitlines()
        cells = lines[row].split(",")
        cells[col] = value
        lines[row] = ",".join(cells)
        return "\n".join(lines) + "\n"

    def test_eval_csv_passes_then_rejects(self):
        self.assertEqual(checks.check_eval_csv(self.csv, self.manifest), [])
        self.assertEqual(
            checks.check_eval_against_masks(self.csv, self.root, "test", self.dump), [])
        self.assertTrue(checks.check_eval_csv(self.csv, self.manifest[:2]))
        self.assertTrue(checks.check_eval_csv(self._replace_cell(1, 1, "1.500000"),
                                              self.manifest))
        self.assertTrue(checks.check_eval_csv(self._replace_cell(1, 4, "-1.000000"),
                                              self.manifest))
        self.assertTrue(checks.check_eval_csv(self._replace_cell(4, 2, "0.400000"),
                                              self.manifest))
        self.assertTrue(checks.check_eval_csv(self._replace_cell(1, 6, "0.999999"),
                                              self.manifest))
        self.assertTrue(checks.check_eval_csv(self._replace_cell(1, 2, "nan"),
                                              self.manifest))

    def test_flipped_pixel_in_dumped_mask_is_rejected(self):
        from mca.netpbm import save_pgm

        sid = self.manifest[1]
        flipped = self.pred[sid].copy()
        flipped[3, 3] = ~flipped[3, 3]
        save_pgm(os.path.join(self.dump, f"{sid}.pgm"), flipped.astype(np.uint8))
        errors = checks.check_eval_against_masks(self.csv, self.root, "test", self.dump)
        self.assertTrue(any(sid in e for e in errors))

    def test_train_dice_against_masks(self):
        scores = [checks.dice_iou_ber(self.pred[k], self.gt[k])[0] for k in self.gt]
        logged = float(f"{np.mean(scores):.8g}")
        recomputed = checks.mean_dice_from_masks(self.root, "test", self.dump)
        self.assertEqual(checks.check_train_dice(logged, recomputed), [])
        self.assertTrue(checks.check_train_dice(logged + 1e-6, recomputed))
        self.assertTrue(checks.check_train_dice(math.nan, recomputed))

    def test_train_log(self):
        good = np.array([[0, 2e-4, 0.6, 0.8, 1, 2, 4.4, 0.3],
                         [1, 1e-4, 0.5, 0.7, 1, 2, 4.2, 0.4]])
        self.assertEqual(checks.check_train_log(good, 2), [])
        self.assertTrue(checks.check_train_log(good[:1], 2))
        flat = good.copy()
        flat[1, 2:4] = flat[0, 2:4]
        self.assertTrue(checks.check_train_log(flat, 2))
        bad = good.copy()
        bad[1, 5] = np.nan
        self.assertTrue(checks.check_train_log(bad, 2))

    def test_checkpoint(self):
        from mca.checkpoint import save_checkpoint

        fresh = OrderedDict([("layer0.w_q", np.ones((2, 2), "<f4")),
                             ("layer0.tc.w_up", np.zeros((2, 2), "<f4")),
                             ("decoder.w", np.zeros((2, 1), "<f4"))])
        trained = OrderedDict(fresh)
        trained["layer0.tc.w_up"] = np.full((2, 2), 0.5, "<f4")
        trained["decoder.w"] = np.full((2, 1), 0.1, "<f4")
        for name in ("layer0.tc.w_up", "decoder.w"):
            trained[f"opt.{name}.m"] = np.zeros_like(trained[name])
        path = os.path.join(self.root, "c.mcaf")
        save_checkpoint(path, trained, "variant = mca\n", 16)
        tensors, text, step = checks.read_checkpoint(path)
        self.assertEqual((text, step), ("variant = mca\n", 16))
        self.assertEqual(checks.check_checkpoint(tensors, step, 16, "mca", fresh), [])
        self.assertTrue(checks.check_checkpoint(tensors, step, 12, "mca", fresh))
        self.assertTrue(checks.check_checkpoint(tensors, step, 16, "decoder_only", fresh))
        moved = dict(tensors)
        moved["layer0.w_q"] = np.nextafter(tensors["layer0.w_q"], 2).astype("<f4")
        self.assertTrue(checks.check_checkpoint(moved, step, 16, "mca", fresh))
        untrained = dict(tensors)
        untrained["decoder.w"] = fresh["decoder.w"]
        self.assertTrue(checks.check_checkpoint(untrained, step, 16, "mca", fresh))
        with open(path, "rb") as f:
            blob = f.read()
        with open(path, "wb") as f:
            f.write(blob[:-3])
        with self.assertRaises(ValueError):
            checks.read_checkpoint(path)

    def test_identical(self):
        self.assertEqual(checks.check_identical([b"a", b"a"], "x"), [])
        self.assertTrue(checks.check_identical([b"a", b"a", b"b"], "x"))


if __name__ == "__main__":
    unittest.main()

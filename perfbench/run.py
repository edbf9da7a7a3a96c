"""Benchmark of `mca train` and `mca eval`, driven through `mca.cli.main` in-process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload train-mca --seed 1 --seconds 30 --trace 0

One process runs one workload.  It sets up (imports the package, runs
`mca gen-data` and, for eval-mca, the `mca train` of the checkpoint it
scores) several times, then repeats the workload's commands for --seconds,
checks every output, and prints one summary line per metric followed by a
JSON object as the last line.  --trace 0 reports the end-to-end metrics;
--trace 1 wraps the package's functions (see spans.py) and reports the
per-layer metrics instead.  The seed reaches the program only as the
`gen-data` seed and the config `seed`.  Exit status is 0 only when every
operation succeeded and every check passed.  See README.md for the
workloads, metrics and reference figures.
"""

import time

_PROCESS_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# One workload is one single-threaded process: pin BLAS pools before numpy
# loads.  At these matrix sizes the pool size does not change the rates.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
# The workload seed must reach the program only through its arguments.
os.environ.pop("MCA_SEED", None)

import numpy as np  # noqa: E402

import checks  # noqa: E402
from spans import SpanArrays, Tracer, has_ancestor_in  # noqa: E402

BATCH = 8
BOTTLENECK = 2
SETUPS = 5        # set-ups per run; setup_s is their median
MIN_REPS = 3      # timed repetitions per run, however short --seconds is


@dataclass(frozen=True)
class Workload:
    name: str
    variant: str   # variant that `mca train` trains
    n_train: int
    n_test: int
    epochs: int
    evals: int     # `mca eval` runs per repetition, after its `mca train`
    primary: str   # the command the workload is about: "train" or "eval"

    @property
    def steps(self) -> int:
        return self.epochs * math.ceil(self.n_train / BATCH)

    @property
    def images_stepped(self) -> int:
        return self.epochs * self.n_train

    @property
    def images_per_rep(self) -> int:
        """Images the primary command processes in one repetition."""
        return self.images_stepped if self.primary == "train" else self.evals * self.n_test

    @property
    def ops_per_rep(self) -> int:
        """Optimizer steps on train-*, images scored on eval-mca."""
        return self.steps if self.primary == "train" else self.images_per_rep


# Why each workload exists is in README.md and BENCHMARK.json.  Every
# repetition runs both commands so that every workload reports both rates;
# on eval-mca two evals of 200 images take about as long as its train, so
# that both rates rest on some fifteen or more commands per run.
WORKLOADS = {
    w.name: w for w in (
        Workload("train-mca", "mca", n_train=16, n_test=64, epochs=4, evals=3,
                 primary="train"),
        Workload("train-decoder-only", "decoder_only", n_train=16, n_test=64, epochs=12,
                 evals=3, primary="train"),
        Workload("eval-mca", "mca", n_train=16, n_test=200, epochs=4, evals=2,
                 primary="eval"),
    )
}


class Paths:
    def __init__(self, workload: str):
        self.work = HERE / "_work" / workload
        self.data = self.work / "data"
        self.run = self.work / "run"            # `mca train` out_dir
        self.ckpt = self.run / "checkpoint.mcaf"
        self.log = self.run / "train_log.csv"
        self.eval_csv = self.work / "eval.csv"
        self.masks_train = self.work / "masks_train"
        self.masks_test = self.work / "masks_test"
        self.trace = self.work / "trace.npz"


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def per(x: float, n: float) -> float:
    return x / n if n else 0.0


class Harness:
    def __init__(self, w: Workload, seed: int, tracer=None):
        from mca.cli import main
        from mca.config import TrainConfig

        self.w, self.seed, self.tracer = w, seed, tracer
        self.paths = Paths(w.name)
        self._main = main
        self.overrides = dict(
            data_root=str(self.paths.data), out_dir=str(self.paths.run),
            variant=w.variant, epochs=w.epochs, batch_size=BATCH,
            bottleneck=BOTTLENECK, seed=seed,
        )
        self.train_cfg = TrainConfig(**self.overrides)
        self.errors: List[str] = []
        self.checkpoints: List[bytes] = []
        self.eval_csvs: List[bytes] = []
        self.rates: Dict[str, List[float]] = {"train": [], "eval": []}
        self.timing = False  # inside the timed repetitions

    # -- the program's commands ----------------------------------------------

    def cli(self, argv: List[str]) -> Optional[float]:
        """Run one `mca` command; its wall time, or None when it failed."""
        argv = [str(a) for a in argv]
        if self.tracer is not None:
            self.tracer.set_phase(argv[0] if self.timing else "setup")
        sink = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                if self.tracer is not None:
                    rc = self.tracer.span("cmd." + argv[0], lambda: self._main(argv))
                else:
                    rc = self._main(argv)
        except Exception as exc:  # a crash is a failed operation, reported below
            rc = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        if self.tracer is not None:
            self.tracer.set_phase("none")
        if rc != 0:
            self.errors.append(f"mca {argv[0]} failed: {rc}")
            return None
        return elapsed

    def gen_data(self) -> Optional[float]:
        w = self.w
        return self.cli(["gen-data", "--out", self.paths.data, "--kind", "camouflage",
                         "--image-size", 64, "--gap", 0.3, "--n-train", w.n_train,
                         "--n-test", w.n_test, "--seed", self.seed])

    def train(self) -> Optional[float]:
        argv = ["train"]
        for key, value in self.overrides.items():
            argv += ["--set", f"{key}={value}"]
        t = self.cli(argv)
        if t is not None:
            self.checkpoints.append(hashlib.sha256(self.paths.ckpt.read_bytes()).digest())
        return t

    def eval(self) -> Optional[float]:
        t = self.cli(["eval", "--checkpoint", self.paths.ckpt, "--data", self.paths.data,
                      "--split", "test", "--out", self.paths.eval_csv])
        if t is not None:
            self.eval_csvs.append(hashlib.sha256(self.paths.eval_csv.read_bytes()).digest())
        return t

    # -- phases ----------------------------------------------------------------

    def setup(self) -> List[float]:
        """Wall times of SETUPS fresh set-ups."""
        times = []
        for _ in range(SETUPS):
            shutil.rmtree(self.paths.work, ignore_errors=True)
            self.paths.work.mkdir(parents=True)
            t = self.gen_data()
            if t is not None and self.w.primary == "eval":
                t_train = self.train()
                t = None if t_train is None else t + t_train
            if t is None:
                break
            times.append(t)
        return times

    def rep(self) -> bool:
        """One timed repetition, `mca train` then `evals` × `mca eval` of the
        checkpoint it wrote; appends each command's rate to self.rates."""
        t = self.train()
        if t is None:
            return False
        self.rates["train"].append(self.w.images_stepped / t)
        for _ in range(self.w.evals):
            t = self.eval()
            if t is None:
                return False
            self.rates["eval"].append(self.w.n_test / t)
        return True

    def timed(self, seconds: float) -> int:
        """Repeat for at least `seconds` and MIN_REPS; the repetitions completed."""
        reps = 0
        self.timing = True
        t_start = time.perf_counter()
        while reps < MIN_REPS or time.perf_counter() - t_start < seconds:
            if not self.rep():
                break
            reps += 1
        self.timing = False
        return reps

    def peak_alloc_mb(self) -> float:
        """Peak traced allocation of one more, untimed run of the timed command."""
        tracemalloc.start()
        try:
            (self.train if self.w.primary == "train" else self.eval)()
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    # -- checks ------------------------------------------------------------------

    def check(self) -> List[str]:
        """Every correctness check on the outputs of this run (untimed)."""
        from mca.trainer import init_model, named_tensors

        w, p = self.w, self.paths
        errors = []
        errors += checks.check_identical(self.checkpoints, "checkpoint bytes")
        errors += checks.check_identical(self.eval_csvs, "eval CSVs")

        log = checks.read_train_log(str(p.log))
        errors += checks.check_train_log(log, w.epochs)
        tensors, config_text, step = checks.read_checkpoint(str(p.ckpt))
        for key, value in self.overrides.items():
            if f"{key} = {value}\n" not in config_text:
                errors.append(f"checkpoint config does not echo {key} = {value}")
        fresh = {name: t.data.astype("<f4")
                 for name, t in named_tensors(init_model(self.train_cfg)).items()}
        errors += checks.check_checkpoint(tensors, step, w.steps, w.variant, fresh)
        if self.cli(["dump-masks", "--checkpoint", p.ckpt, "--data", p.data,
                     "--split", "train", "--out", p.masks_train]) is not None:
            recomputed = checks.mean_dice_from_masks(str(p.data), "train", str(p.masks_train))
            errors += checks.check_train_dice(float(log[-1, 7]), recomputed)

        text = p.eval_csv.read_text(encoding="ascii")
        errors += checks.check_eval_csv(text, checks.read_manifest(str(p.data), "test"))
        if self.cli(["dump-masks", "--checkpoint", p.ckpt, "--data", p.data,
                     "--split", "test", "--out", p.masks_test]) is not None:
            errors += checks.check_eval_against_masks(text, str(p.data), "test",
                                                      str(p.masks_test))
        return errors


# ---------------------------------------------------------------------------
# per-layer metrics from a traced run
# ---------------------------------------------------------------------------

def per_layer_metrics(s: SpanArrays, c: Dict[str, float], w: Workload, reps: int,
                      peak_alloc_mb: float) -> Dict[str, float]:
    """Per-layer figures of a traced run (see README.md for each one).

    Each is taken over the commands whose rate it should move: `mca train`
    for the train-side layers, `mca eval` for the metrics, and for the
    layers both commands run, the workload's own command.  Per image means
    per image those commands processed: stepped, or scored.  A layer that
    no command of the workload runs reads 0.  `c` holds the tracer's counts.
    """
    train, evals, own = {"train"}, {"eval"}, {w.primary}
    n_step, n_epoch = reps * w.steps, reps * w.epochs
    n_stepped, n_scored = reps * w.images_stepped, reps * w.evals * w.n_test
    n_own = reps * w.images_per_rep

    def ms(prefix, phases, outer=False):
        mask = s.select(prefix, phases)
        if outer:
            mask = s.outermost(mask)
        return float(s.duration[mask].sum()) * 1e3

    def calls(prefix, phases):
        return int(s.select(prefix, phases).sum())

    def durations(prefix, phases):
        return [float(d) * 1e3 for d in s.duration[s.select(prefix, phases)]]

    prims = s.select("tensor.prim", own)
    return {
        "trainer.step_ms_p50": _median(durations("trainer.step", train)),
        "trainer.adamw_ms_per_step": per(ms("trainer.adamw", train), n_step),
        "trainer.train_dice_ms_per_epoch": per(ms("trainer.train_dice", train), n_epoch),
        "tensor.tape_nodes_per_step": per(c.get("train/tape_nodes", 0), n_step),
        "tensor.backward_ms_per_step": per(ms("tensor.backward", train), n_step),
        "tensor.primitive_calls_per_image": per(int(prims.sum()), n_own),
        "tensor.primitive_ms_per_image": per(float(s.self_time[prims].sum()) * 1e3, n_own),
        "kernels.calls_per_image": per(calls("kernels", own), n_own),
        "kernels.ms_per_image": per(ms("kernels", own), n_own),
        "encoder.forward_calls_per_image": per(calls("encoder.forward", own), n_own),
        "encoder.forward_ms_per_call": per(ms("encoder.forward", own),
                                           calls("encoder.forward", own)),
        "adaptors.tc_forward_ms_per_call": per(ms("adaptors.tc_forward", own),
                                               calls("adaptors.tc_forward", own)),
        "adaptors.token_loss_ms_per_step": per(ms("adaptors.token_loss", train), n_step),
        "adaptors.sample_loss_ms_per_step": per(
            ms("adaptors.sc_forward", train) + ms("adaptors.sample_loss", train), n_step),
        "augment.ms_per_image": per(ms("augment", train), n_stepped),
        "objectives.ms_per_image": per(ms("objectives", train, outer=True), n_stepped),
        "metrics.ms_per_image": per(ms("metrics", evals, outer=True), n_scored),
        "metrics.s_measure_ms_per_image": per(ms("metrics.s_measure", evals), n_scored),
        "checkpoint.save_ms": _median(durations("checkpoint.save", {"setup", "train"})),
        "checkpoint.load_ms": _median(durations("checkpoint.load", evals)),
        "synthdata.generate_ms_per_image": per(
            ms("synthdata.generate", {"setup"}) + ms("synthdata.write", {"setup"}),
            c.get("setup/generated_images", 0)),
        "synthdata.load_ms_per_image": per(ms("synthdata.load", own),
                                           c.get(f"{w.primary}/loaded_images", 0)),
        "process.peak_alloc_mb": peak_alloc_mb,
    }


def time_shares(s: SpanArrays, w: Workload) -> Dict[str, float]:
    """Where the timed command's time goes, as shares of it (for the summary)."""
    forward = ("encoder", "objectives.decode_mask")
    if w.primary == "train":
        whole = s.select("trainer.step", {"train"})
        parts = {"forward (tokenize, encoder, decode)": forward,
                 "mask losses": ("objectives.bce_loss", "objectives.iou_loss",
                                 "objectives.combine_losses"),
                 "contrastive heads": ("adaptors.token_loss", "adaptors.sc_forward",
                                       "adaptors.sample_loss"),
                 "augmentation": ("augment",),
                 "tensor.backward": ("tensor.backward",),
                 "trainer.adamw": ("trainer.adamw",)}
    else:
        whole = s.select("cmd.eval", {"eval"})
        parts = {"forward (tokenize, encoder, decode)": forward,
                 "metrics": ("metrics",),
                 "split load": ("synthdata.load",),
                 "checkpoint load": ("checkpoint.load",)}
    under = has_ancestor_in(s.parent, whole)
    total = float(s.duration[whole].sum())
    out = {}
    for label, prefixes in parts.items():
        mask = np.zeros(len(s.name), dtype=bool)
        for prefix in prefixes:
            mask |= s.select(prefix)
        out[label] = per(float(s.duration[s.outermost(mask & under)].sum()), total)
    return out


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

UNITS = {
    "setup_s": "s", "train_images_per_s": "images/s", "eval_images_per_s": "images/s",
    "peak_rss_mb": "MB",
    "trainer.step_ms_p50": "ms", "trainer.adamw_ms_per_step": "ms",
    "trainer.train_dice_ms_per_epoch": "ms",
    "tensor.tape_nodes_per_step": "count", "tensor.backward_ms_per_step": "ms",
    "tensor.primitive_calls_per_image": "count", "tensor.primitive_ms_per_image": "ms",
    "kernels.calls_per_image": "count", "kernels.ms_per_image": "ms",
    "encoder.forward_calls_per_image": "count", "encoder.forward_ms_per_call": "ms",
    "adaptors.tc_forward_ms_per_call": "ms", "adaptors.token_loss_ms_per_step": "ms",
    "adaptors.sample_loss_ms_per_step": "ms", "augment.ms_per_image": "ms",
    "objectives.ms_per_image": "ms", "metrics.ms_per_image": "ms",
    "metrics.s_measure_ms_per_image": "ms", "checkpoint.save_ms": "ms",
    "checkpoint.load_ms": "ms", "synthdata.generate_ms_per_image": "ms",
    "synthdata.load_ms_per_image": "ms", "process.peak_alloc_mb": "MB",
}


def end_to_end_metrics(import_s: float, setup: List[float], rates) -> Dict[str, float]:
    # A rate is the median over the run's commands: the fastest command
    # swings with the host's bursts of speed far more (see README.md).
    return {
        "setup_s": import_s + _median(setup),
        "train_images_per_s": _median(rates["train"]),
        "eval_images_per_s": _median(rates["eval"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "mca" / "__init__.py").is_file():
        print(f"error: the mca package is not at {SRC / 'mca'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import mca.cli  # noqa: F401  (the import is part of set-up time)
    import_s = time.perf_counter() - _PROCESS_T0

    w = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    h = Harness(w, args.seed, tracer)

    setup = h.setup()
    reps = h.timed(args.seconds) if not h.errors else 0
    peak_alloc = 0.0
    if tracer is not None:
        tracer.uninstall()
        tracer.save(str(h.paths.trace))
        h.tracer = None  # what follows is not part of the traced run
        if not h.errors:
            peak_alloc = h.peak_alloc_mb()
    attempted = (reps + (1 if h.errors else 0)) * w.ops_per_rep
    failed = w.ops_per_rep if h.errors else 0
    if not h.errors:
        try:
            h.errors += h.check()
        except (OSError, ValueError, KeyError) as exc:
            h.errors.append(f"could not read the outputs to check: {exc}")

    rates = end_to_end_metrics(import_s, setup, h.rates)
    if args.trace:
        spans = tracer.arrays()
        metrics = per_layer_metrics(spans, tracer.counts, w, reps, peak_alloc)
        shares = time_shares(spans, w)
    else:
        metrics, shares = rates, {}

    correct = not h.errors
    print(f"workload {w.name} seed {args.seed} trace {args.trace}: "
          f"{reps} timed repetitions, {len(setup)} set-ups")
    for name, value in metrics.items():
        print(f"  {name:36s} {value:14.4f} {UNITS[name]}")
    if args.trace:
        for name in ("train_images_per_s", "eval_images_per_s"):
            print(f"  {name + ' (traced)':36s} {rates[name]:14.4f} {UNITS[name]}")
    for label, share in shares.items():
        print(f"  share of {'a step' if w.primary == 'train' else 'mca eval'} in {label:36s} {share:6.1%}")
    if tracer is not None and tracer.missing:
        print(f"  not traced (gone from the package): {', '.join(tracer.missing)}")
    op = "optimizer steps" if w.primary == "train" else "images scored"
    print(f"  {op}: attempted {attempted}, failed {failed}")
    for e in h.errors:
        print(f"  FAILED: {e}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }))
    return 0 if correct and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

"""End-to-end command-line interface checks via subprocess."""

import csv
import os
import shutil
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from mca import cli, errors
from mca.checkpoint import load_checkpoint, save_checkpoint
from mca.cli import CONFIG_NAME, LOG_NAME, main
from mca.config import TrainConfig
from mca.netpbm import load_mask, save_pgm, save_ppm
from mca.synthdata import SceneSpec, generate_split, write_dataset
from mca.trainer import init_model, named_tensors

SMALL_SETS = [
    "--set", "image_size=32", "--set", "embed_dim=16",
    "--set", "num_layers=2", "--set", "num_heads=2",
    "--set", "mlp_ratio=2", "--set", "bottleneck=4",
    "--set", "batch_size=4",
]

# The child interpreters import this checkout's package, whatever the caller's path.
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    return env


def _run(*argv, env_extra=None, timeout=240):
    env = _child_env()
    env.pop("MCA_SEED", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "mca", *argv],
        capture_output=True, text=True, env=env, timeout=timeout,
    )


@pytest.fixture(scope="module")
def cli_workspace(tmp_path_factory):
    """gen-data + a 2-epoch training run shared by the downstream commands."""
    root = tmp_path_factory.mktemp("cli")
    data = str(root / "data")
    out = str(root / "run")
    gen = _run(
        "gen-data", "--out", data, "--kind", "camouflage",
        "--image-size", "32", "--n-train", "6", "--n-test", "3", "--seed", "4",
    )
    assert gen.returncode == 0, gen.stderr
    tr = _run(
        "train", *SMALL_SETS,
        "--set", f"data_root={data}", "--set", f"out_dir={out}",
        "--set", "epochs=2", "--set", "variant=mca",
    )
    assert tr.returncode == 0, tr.stderr
    return {"root": root, "data": data, "out": out}


def test_gen_data_layout(cli_workspace):
    data = cli_workspace["data"]
    for split, count in (("train", 6), ("test", 3)):
        manifest = os.path.join(data, split, "manifest.txt")
        assert os.path.exists(manifest)
        ids = [l for l in open(manifest).read().splitlines() if l]
        assert len(ids) == count
        for sid in ids:
            assert os.path.exists(os.path.join(data, split, "images", f"{sid}.ppm"))
            assert os.path.exists(os.path.join(data, split, "masks", f"{sid}.pgm"))


def test_train_outputs(cli_workspace):
    out = cli_workspace["out"]
    assert os.path.exists(os.path.join(out, "checkpoint.mcaf"))
    log = open(os.path.join(out, "train_log.csv")).read().strip().split("\n")
    assert log[0] == "epoch,lr,bce,iou_loss,cl_t,cl_s,total,train_dice"
    assert len(log) == 3
    cfg_text = open(os.path.join(out, "config.txt")).read()
    assert "variant = mca" in cfg_text and "epochs = 2" in cfg_text


def test_eval_writes_metric_csv(cli_workspace, tmp_path):
    ckpt = os.path.join(cli_workspace["out"], "checkpoint.mcaf")
    out_csv = str(tmp_path / "metrics.csv")
    res = _run("eval", "--checkpoint", ckpt, "--data", cli_workspace["data"],
               "--split", "test", "--out", out_csv)
    assert res.returncode == 0, res.stderr
    with open(out_csv, newline="") as fh:
        *rows, mean = csv.DictReader(fh)
    assert len(rows) == 3 and mean["image"] == "MEAN"
    assert 0.0 <= float(mean["dice"]) <= 1.0
    # Without --out the same CSV goes to stdout.
    res2 = _run("eval", "--checkpoint", ckpt, "--data", cli_workspace["data"],
                "--split", "test")
    assert res2.returncode == 0
    assert res2.stdout == open(out_csv).read()


def test_dump_masks_binary_pgms(cli_workspace, tmp_path):
    ckpt = os.path.join(cli_workspace["out"], "checkpoint.mcaf")
    out_dir = str(tmp_path / "masks")
    res = _run("dump-masks", "--checkpoint", ckpt, "--data", cli_workspace["data"],
               "--split", "test", "--out", out_dir)
    assert res.returncode == 0, res.stderr
    files = sorted(os.listdir(out_dir))
    assert files == ["test_0000.pgm", "test_0001.pgm", "test_0002.pgm"]
    for f in files:
        mask = load_mask(os.path.join(out_dir, f))
        assert mask.shape == (32, 32)
        assert set(np.unique(mask)) <= {0, 1}


def test_ablate_csv_structure(cli_workspace, tmp_path):
    out_csv = str(tmp_path / "ablate.csv")
    res = _run(
        "ablate", *SMALL_SETS,
        "--set", f"data_root={cli_workspace['data']}",
        "--set", "epochs=1",
        "--variants", "decoder_only,mca", "--seeds", "0", "--out", out_csv,
    )
    assert res.returncode == 0, res.stderr
    lines = open(out_csv).read().strip().split("\n")
    assert lines[0].startswith("name,seeds,mae_mean,mae_std")
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "decoder_only"
    assert lines[2].split(",")[0] == "mca"


@pytest.mark.parametrize("threshold", ["2", "nan", "-0.5", "inf"])
def test_dump_masks_threshold_outside_unit_interval_exits_1(cli_workspace, tmp_path, capsys,
                                                            threshold):
    out_dir = tmp_path / "masks"
    assert main(["dump-masks", "--checkpoint", os.path.join(cli_workspace["out"], "checkpoint.mcaf"),
                 "--data", cli_workspace["data"], "--out", str(out_dir),
                 "--threshold", threshold]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --threshold") and err.count("\n") == 1
    assert not out_dir.exists()


def test_ablate_non_integer_seeds_exit_1_naming_the_flag(cli_workspace, capsys):
    assert main(["ablate", *SMALL_SETS, "--set", f"data_root={cli_workspace['data']}",
                 "--variants", "mca", "--seeds", "0,x"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --seeds") and err.count("\n") == 1


def test_gradcheck_command_passes():
    res = _run("gradcheck", "--seeds", "2", "--tol", "1e-4", timeout=300)
    assert res.returncode == 0, res.stdout + res.stderr
    assert "PASS" in res.stdout


@pytest.mark.parametrize("name", [LOG_NAME, CONFIG_NAME, "metrics.csv", "ablate.csv"])
def test_failed_write_keeps_existing_file(cli_workspace, tmp_path, monkeypatch, capsys, name):
    out = tmp_path / "run"
    out.mkdir()
    data = cli_workspace["data"]
    ckpt = os.path.join(cli_workspace["out"], "checkpoint.mcaf")
    argv = {
        "metrics.csv": ["eval", "--checkpoint", ckpt, "--data", data, "--out", str(out / name)],
        "ablate.csv": ["ablate", *SMALL_SETS, "--set", f"data_root={data}", "--set", "epochs=1",
                       "--variants", "decoder_only", "--out", str(out / name)],
    }.get(name, ["train", *SMALL_SETS, "--set", f"data_root={data}", "--set", f"out_dir={out}",
                 "--set", "epochs=1", "--set", "variant=decoder_only"])
    old = b"epoch\n0\n"
    (out / name).write_bytes(old)
    replace = os.replace

    def failing_replace(src, dst):
        if os.path.basename(dst) == name:
            raise OSError(f"no space left for {name}")
        replace(src, dst)

    monkeypatch.setattr(os, "replace", failing_replace)
    code = main(argv)
    assert code == 1
    assert f"no space left for {name}" in capsys.readouterr().err
    assert (out / name).read_bytes() == old
    assert [p for p in os.listdir(out) if p.endswith(".tmp")] == []


def test_train_epochs_zero_checkpoint_equals_init(cli_workspace, tmp_path):
    out = str(tmp_path / "zero")
    res = _run(
        "train", *SMALL_SETS,
        "--set", f"data_root={cli_workspace['data']}",
        "--set", f"out_dir={out}", "--set", "epochs=0", "--set", "seed=6",
    )
    assert res.returncode == 0, res.stderr
    arrays, _, step = load_checkpoint(os.path.join(out, "checkpoint.mcaf"))
    assert step == 0
    cfg = TrainConfig(
        image_size=32, embed_dim=16, num_layers=2, num_heads=2,
        mlp_ratio=2, bottleneck=4, batch_size=4, epochs=0, seed=6,
        data_root=cli_workspace["data"], out_dir=out,
    )
    for name, t in named_tensors(init_model(cfg)).items():
        np.testing.assert_array_equal(arrays[name], t.data, err_msg=name)


def test_mca_seed_env_overrides_config(cli_workspace, tmp_path):
    out = str(tmp_path / "envseed")
    res = _run(
        "train", *SMALL_SETS,
        "--set", f"data_root={cli_workspace['data']}",
        "--set", f"out_dir={out}", "--set", "epochs=0", "--set", "seed=6",
        env_extra={"MCA_SEED": "31"},
    )
    assert res.returncode == 0, res.stderr
    cfg_text = open(os.path.join(out, "config.txt")).read()
    assert "seed = 31" in cfg_text


def test_runtime_errors_exit_1_with_diagnostic(tmp_path):
    res = _run("eval", "--checkpoint", str(tmp_path / "missing.mcaf"),
               "--data", str(tmp_path), "--split", "test")
    assert res.returncode == 1
    assert res.stderr.startswith("error:")
    res2 = _run("train", "--set", "variant=bogus")
    assert res2.returncode == 1
    assert "error:" in res2.stderr


@pytest.mark.parametrize("variant", ["mca", "decoder_only"])
def test_overflowing_run_exits_1_with_one_step_labelled_line(cli_workspace, tmp_path, variant):
    # The step's forward, backward and AdamW raise numpy's overflow and
    # invalid-operation errors, so no numpy warning reaches stderr, and
    # decoder_only stops at its first step instead of training on NaN weights.
    res = _run("train", *SMALL_SETS, "--set", f"data_root={cli_workspace['data']}",
               "--set", f"out_dir={tmp_path / 'run'}", "--set", "epochs=2",
               "--set", f"variant={variant}", "--set", "lr_start=1e30")
    assert res.returncode == 1
    assert res.stderr.startswith("error: step ") and res.stderr.count("\n") == 1, res.stderr


ERROR_CLASSES = [c for c in vars(errors).values()
                 if isinstance(c, type) and c.__module__ == errors.__name__]


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda c: c.__name__)
def test_every_error_class_exits_1_with_one_line(tmp_path, monkeypatch, capsys, cls):
    old_base = {errors.MCAError: Exception, errors.TrainingAbortError: RuntimeError}
    assert issubclass(cls, errors.MCAError)
    assert issubclass(cls, old_base.get(cls, ValueError))

    def failing_split(*_args):
        raise cls("boom")

    monkeypatch.setattr(cli, "generate_split", failing_split)
    assert main(["gen-data", "--out", str(tmp_path / "data")]) == 1
    assert capsys.readouterr().err == "error: boom\n"


@pytest.mark.parametrize("setting", ["bottleneck=0", "num_heads=0", "patch_size=0",
                                     "patch_size=-16", "num_heads=-4", "embed_dim=0"])
def test_nonpositive_geometry_exits_1_with_one_line(cli_workspace, tmp_path, capsys, setting):
    assert main(["train", *SMALL_SETS, "--set", f"data_root={cli_workspace['data']}",
                 "--set", f"out_dir={tmp_path}", "--set", "epochs=1", "--set", setting]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_out_dir_that_would_not_read_back_exits_1_with_one_line(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["train", "--set", "out_dir=runs/#1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: out_dir = ") and err.count("\n") == 1
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("setting", ["w_bce=nan", "w_cl_s=inf"])
def test_non_finite_weight_exits_1_with_one_line(tmp_path, monkeypatch, capsys, setting):
    monkeypatch.chdir(tmp_path)
    assert main(["train", "--set", setting]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {setting.split('=')[0]} must be finite") and err.count("\n") == 1
    assert not (tmp_path / "runs").exists()


def test_negative_stop_after_steps_exits_1_with_one_line(cli_workspace, tmp_path, capsys):
    out_dir = tmp_path / "run"
    assert main(["train", *SMALL_SETS, "--set", f"data_root={cli_workspace['data']}",
                 "--set", f"out_dir={out_dir}", "--stop-after-steps", "-5"]) == 1
    err = capsys.readouterr().err
    assert err == "error: stop_after_steps must be >= 0, got -5\n"
    assert not out_dir.exists()


def test_repeated_set_exits_1_with_one_line(cli_workspace, tmp_path, capsys):
    out_dir = tmp_path / "run"
    assert main(["train", *SMALL_SETS, "--set", f"data_root={cli_workspace['data']}",
                 "--set", f"out_dir={out_dir}", "--set", "seed=1", "--set", "seed=2"]) == 1
    assert capsys.readouterr().err == "error: config key 'seed' is set twice by --set\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("source", ["set", "env"])
def test_negative_seed_exits_1_with_one_line(cli_workspace, tmp_path, monkeypatch, capsys,
                                             source):
    out_dir, seed = tmp_path / "run", {"set": "-1", "env": "-3"}[source]
    argv = ["train", *SMALL_SETS, "--set", f"data_root={cli_workspace['data']}",
            "--set", f"out_dir={out_dir}"]
    if source == "set":
        argv += ["--set", f"seed={seed}"]
    else:
        monkeypatch.setenv("MCA_SEED", seed)
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: seed must be >= 0, got {seed}\n"
    assert not out_dir.exists()


def test_gen_data_negative_seed_exits_1_with_one_line(tmp_path, capsys):
    out = tmp_path / "data"
    assert main(["gen-data", "--out", str(out), "--seed", "-1"]) == 1
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["eval", "resume"])
def test_checkpoint_with_removed_config_keys_exits_1_naming_the_key(cli_workspace, tmp_path,
                                                                    capsys, command):
    # The config echo as written before two keys became constants of the
    # code: each sat after the key it is inserted after here.
    arrays, config_text, step = load_checkpoint(
        os.path.join(cli_workspace["out"], "checkpoint.mcaf"))
    lines = config_text.splitlines(keepends=True)
    at = {line.split(" = ")[0]: i for i, line in enumerate(lines)}
    lines.insert(at["strategy"] + 1, "aug_adapted_forward = true\n")
    lines.insert(at["temperature"] + 1, "token_pair_limit = 0\n")
    old = str(tmp_path / "old.mcaf")
    save_checkpoint(old, arrays, "".join(lines), step)
    out_dir = tmp_path / "run"
    if command == "eval":
        argv = ["eval", "--checkpoint", old, "--data", cli_workspace["data"]]
    else:
        argv = ["train", *SMALL_SETS, "--set", f"data_root={cli_workspace['data']}",
                "--set", f"out_dir={out_dir}", "--set", "epochs=2", "--resume", old]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == f"error: unknown config key 'token_pair_limit' on line {at['temperature'] + 2}\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("seeds", ["0", "-3"])
def test_gradcheck_without_seeds_exits_1(capsys, seeds):
    assert main(["gradcheck", "--seeds", seeds]) == 1
    out, err = capsys.readouterr()
    assert "PASS" not in out
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("tol", ["inf", "nan", "0"])
def test_gradcheck_meaningless_tolerance_exits_1_before_any_suite(capsys, tol):
    assert main(["gradcheck", "--seeds", "1", "--tol", tol]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: gradcheck tolerance must be a finite number > 0, got {float(tol)!r}\n"


@pytest.mark.parametrize("case", ["checkpoint", "manifest", "config"])
def test_undecodable_bytes_exit_1_naming_the_file(cli_workspace, tmp_path, capsys, case):
    ckpt = os.path.join(cli_workspace["out"], "checkpoint.mcaf")
    data = tmp_path / "data"
    shutil.copytree(cli_workspace["data"], data)
    if case == "checkpoint":
        buf = bytearray(open(ckpt, "rb").read())
        buf[14] = 0xFF  # first byte of the first tensor name
        ckpt = bad = str(tmp_path / "bad.mcaf")
        (tmp_path / "bad.mcaf").write_bytes(bytes(buf))
        argv = ["eval", "--checkpoint", ckpt, "--data", str(data)]
    elif case == "manifest":
        manifest = data / "test" / "manifest.txt"
        manifest.write_bytes(manifest.read_bytes() + b"test_\xe9\n")
        bad, argv = str(manifest), ["eval", "--checkpoint", ckpt, "--data", str(data)]
    else:
        bad = str(tmp_path / "bad.cfg")
        (tmp_path / "bad.cfg").write_bytes(b"# caf\xe9\nepochs = 1\n")
        argv = ["train", "--config", bad]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert bad in err
    if case == "checkpoint":
        assert "byte offset 14" in err


@pytest.mark.parametrize("command", ["train", "eval"])
def test_split_of_mixed_sizes_exits_1_with_one_line(cli_workspace, tmp_path, capsys, command):
    # One train image, or one test mask, of another size than the rest.
    data = tmp_path / "data"
    shutil.copytree(cli_workspace["data"], data)
    if command == "train":
        bad = "train_0002"
        save_ppm(str(data / "train" / "images" / f"{bad}.ppm"), np.zeros((3, 48, 48), np.float32))
        argv = ["train", *SMALL_SETS, "--set", f"data_root={data}",
                "--set", f"out_dir={tmp_path / 'run'}", "--set", "epochs=1"]
    else:
        bad = "test_0001"
        save_pgm(str(data / "test" / "masks" / f"{bad}.pgm"), np.zeros((40, 40), np.uint8))
        argv = ["eval", "--checkpoint", os.path.join(cli_workspace["out"], "checkpoint.mcaf"),
                "--data", str(data)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert bad in err


def _test_split(root, n_test):
    """One train and ``n_test`` test images at 32x32, the size the workspace model takes."""
    spec = SceneSpec(kind="camouflage", image_size=32)
    write_dataset(str(root), *generate_split(spec, 1, n_test, seed=4))
    return root


@pytest.mark.parametrize("command", ["eval", "dump-masks"])
def test_wrong_size_image_last_in_the_split_exits_1_and_writes_nothing(cli_workspace, tmp_path,
                                                                       capsys, command):
    # Nine test images are three batches of 4: the last image is read in the
    # last, partial batch, after every other image was encoded and decoded.
    data = _test_split(tmp_path / "data", 9)
    save_ppm(str(data / "test" / "images" / "test_0008.ppm"), np.zeros((3, 48, 48), np.float32))
    out = tmp_path / ("metrics.csv" if command == "eval" else "masks")
    assert main([command, "--checkpoint", os.path.join(cli_workspace["out"], "checkpoint.mcaf"),
                 "--data", str(data), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: test image 'test_0008' is (3, 48, 48), not (3, 32, 32) like image 'test_0000'\n")
    assert not out.exists()


def test_eval_and_dump_masks_hold_one_batch_of_images(cli_workspace, tmp_path):
    # Four times the test images may not cost four times the decoded images:
    # the traced peak may grow by less than half of the 36 more images'
    # float32 pixels.  Holding the whole split, it grew by more than all of them.
    ckpt = os.path.join(cli_workspace["out"], "checkpoint.mcaf")
    image_bytes = 3 * 32 * 32 * np.dtype(np.float32).itemsize
    for command in ("eval", "dump-masks"):
        peaks = []
        for n_test in (12, 48):
            data = _test_split(tmp_path / f"{command}_{n_test}", n_test)
            argv = [command, "--checkpoint", ckpt, "--data", str(data),
                    "--out", str(data / "out")]
            assert main(argv) == 0  # a first run loads what later runs reuse
            tracemalloc.start()
            try:
                assert main(argv) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < (48 - 12) * image_bytes / 2, (command, peaks)


def test_cli_import_leaves_trainer_and_gradcheck_unloaded():
    # `mca gen-data` and the benchmark's set-up time pay for this import, so
    # the parser must not pull in the training stack.
    code = ("import sys, mca.cli; "
            "print([m for m in ('mca.trainer', 'mca.gradcheck') if m in sys.modules])")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=_child_env(), timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


def test_usage_errors_exit_2():
    res = _run("no-such-command")
    assert res.returncode == 2
    res2 = _run("gen-data")  # missing required --out
    assert res2.returncode == 2
    res3 = _run("gen-data", "--out", "x", "--kind", "noise")
    assert res3.returncode == 2

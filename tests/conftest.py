"""Shared fixtures: a tiny on-disk dataset and a small training config."""

import numpy as np
import pytest

from mca.config import TrainConfig
from mca.gradcheck import float64_session
from mca.synthdata import SceneSpec, generate_split, write_dataset

SMALL_GEOMETRY = dict(
    image_size=32,
    patch_size=16,
    channels=3,
    embed_dim=16,
    num_layers=2,
    num_heads=2,
    mlp_ratio=2,
    bottleneck=4,
)


@pytest.fixture(scope="session")
def tiny_dataset(tmp_path_factory):
    """8 train / 3 test camouflage samples at 32x32, written to disk once."""
    root = tmp_path_factory.mktemp("tiny_data")
    spec = SceneSpec(kind="camouflage", image_size=32, contrast_gap=0.3)
    train, test = generate_split(spec, 8, 3, seed=7)
    write_dataset(str(root), train, test)
    return str(root)


@pytest.fixture()
def small_cfg(tiny_dataset, tmp_path):
    """Factory for fast TrainConfigs bound to the tiny dataset."""

    def make(**overrides):
        base = dict(
            SMALL_GEOMETRY,
            batch_size=4,
            epochs=2,
            data_root=tiny_dataset,
            out_dir=str(tmp_path / "run"),
        )
        base.update(overrides)
        return TrainConfig(**base)

    return make


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


@pytest.fixture()
def f64():
    """Run the test in the float64 session width, then restore the previous one."""
    with float64_session():
        yield


# One line per acceptance criterion, echoed after the run so the verdicts
# survive pytest's output capture (see test_acceptance.py).
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

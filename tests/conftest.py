"""Shared fixtures: small, fast dataset/environment objects.

Heavy figure-quality runs live in ``benchmarks/``; tests use miniature
suites (few APs, few CIs) that exercise the same code paths in seconds.
"""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

from repro.datasets import SuiteConfig, generate_path_suite
from repro.datasets.fingerprint import FingerprintDataset
from repro.geometry import build_grid_floorplan


@pytest.fixture()
def child_stderr(capfd, monkeypatch):
    """Read what processes forked after this fixture print on stderr.

    pytest routes unraisable exceptions to its own hook, which a forked
    child inherits and never reports. In a child, this hook hands them
    to the interpreter's default, which prints them (``Exception
    ignored in: ...``) as a process outside pytest would, into
    ``capfd``; this process keeps pytest's reporting.
    """
    parent, pytest_hook = os.getpid(), sys.unraisablehook

    def hook(unraisable):
        if os.getpid() == parent:
            pytest_hook(unraisable)
        else:
            sys.__unraisablehook__(unraisable)

    monkeypatch.setattr(sys, "unraisablehook", hook)
    return lambda: capfd.readouterr().err


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def tiny_floorplan():
    """A 5x4 grid of RPs in a small open room."""
    return build_grid_floorplan("tiny", width=12.0, height=10.0, rp_spacing=2.0)


@pytest.fixture(scope="session")
def tiny_suite():
    """A miniature office suite: 24 APs, 6 CIs — seconds to generate."""
    return generate_path_suite(
        "office",
        seed=7,
        config=SuiteConfig(n_aps=24, fpr=4, train_fpr=3),
        n_cis=6,
    )


@pytest.fixture(scope="session")
def tiny_train(tiny_suite):
    return tiny_suite.train


def make_synthetic_dataset(
    n_rps: int = 6,
    fpr: int = 3,
    n_aps: int = 12,
    seed: int = 0,
    spacing: float = 2.0,
) -> FingerprintDataset:
    """A hand-rolled dataset with distinct per-RP RSSI signatures.

    Each RP gets a random base fingerprint; samples add small noise. Much
    faster than the radio simulator and fully controllable for unit tests.
    """
    rng = np.random.default_rng(seed)
    base = rng.uniform(-90.0, -30.0, size=(n_rps, n_aps))
    rows = n_rps * fpr
    rssi = np.empty((rows, n_aps))
    rp_idx = np.empty(rows, dtype=np.int64)
    locs = np.empty((rows, 2))
    for rp in range(n_rps):
        for j in range(fpr):
            row = rp * fpr + j
            rssi[row] = np.clip(base[rp] + rng.normal(0, 1.0, n_aps), -100, 0)
            rp_idx[row] = rp
            locs[row] = (rp % 3 * spacing, rp // 3 * spacing)
    return FingerprintDataset(
        rssi=rssi,
        rp_indices=rp_idx,
        locations=locs,
        times_hours=np.zeros(rows),
        epochs=np.zeros(rows, dtype=np.int64),
    )


@pytest.fixture()
def synthetic_dataset():
    return make_synthetic_dataset()

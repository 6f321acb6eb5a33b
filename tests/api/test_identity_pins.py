"""Literal identity pins for every spec and for the serving CLI surface.

Served models are content-addressed: the same spec and the same data
give the same ``ModelStore`` digest, so a fitted artifact warm-loads
across restarts and releases. These literals were measured once and
must never move — a refactor of how specs are declared, serialized or
parsed from flags is only safe while every value below still holds.
The parser tables pin what an operator types (flag, dest, default,
type, choices, action); help text is free to change.
"""

from __future__ import annotations

import argparse

import pytest

from repro.api import FleetSpec, IndexSpec, LocalizerSpec, ServeSpec
from repro.cli import build_parser
from repro.datasets import SuiteConfig, generate_path_suite
from repro.synth import ScenarioSpec, full_city, quick_city


@pytest.fixture(autouse=True)
def _no_env_backend(monkeypatch):
    monkeypatch.delenv("REPRO_KERNEL_BACKEND", raising=False)


def _localizer(**overrides):
    return {
        "framework": "KNN",
        "suite_name": None,
        "fast": True,
        "seed": 0,
        "index": None,
        "backend": "reference",
        **overrides,
    }


def _serve(**overrides):
    return {
        "localizer": _localizer(suite_name="office"),
        "host": "127.0.0.1",
        "port": 8000,
        "batch_window_ms": 2.0,
        "max_batch": 256,
        "chunk_size": None,
        "model_dir": None,
        "log_json": False,
        "slow_ms": None,
        **overrides,
    }


def _fleet(**overrides):
    return {
        "buildings": "HQ:2",
        "framework": "KNN",
        "seed": 0,
        "fast": False,
        "index": None,
        "backend": "reference",
        "months": 4,
        "aps_per_floor": 24,
        "model_dir": None,
        "host": "127.0.0.1",
        "port": 8000,
        "batch_window_ms": 2.0,
        "max_batch": 256,
        "chunk_size": None,
        "max_pending_rows": None,
        "workers": 0,
        "start_method": None,
        "log_json": False,
        "slow_ms": None,
        "drift_threshold_m": None,
        "live_min_scans": 32,
        "live_max_scans": 4096,
        "live_max_age_s": None,
        **overrides,
    }


def _specs():
    """(name, spec, fingerprint, to_dict) for every pinned spec."""
    office_knn = LocalizerSpec(framework="KNN", suite_name="office", fast=True)
    return [
        (
            "knn",
            LocalizerSpec(framework="KNN", fast=True),
            "e6806581e1508cadf4c63c88a2e8ddf776c29086e66997c50a0f452e5a344a5b",
            _localizer(),
        ),
        (
            "stone-blas",
            LocalizerSpec(framework="STONE", fast=True, backend="blas"),
            "55f7d9468d638f87931443301989a31fc0b8dc16f3499e9075e1f79c894f9b76",
            _localizer(framework="STONE", backend="blas"),
        ),
        (
            "knn-quantized",
            LocalizerSpec(framework="KNN", fast=True, backend="quantized"),
            "ac937da3db72f92152b9454e7ff6fdd5fcffc1ba998af11a1b32effa4a77f4c4",
            _localizer(backend="quantized"),
        ),
        (
            "ltknn-sharded",
            LocalizerSpec(
                framework="LT-KNN",
                suite_name="basement",
                seed=3,
                index=IndexSpec(
                    kind="kmeans", n_shards=8, n_probe=2, seed=5, backend="blas"
                ),
            ),
            "a0d1411c8566282cef27e3e1a872a55189bec717f423fe2b36221a60783379cd",
            _localizer(
                framework="LT-KNN",
                suite_name="basement",
                fast=False,
                seed=3,
                index={
                    "kind": "kmeans",
                    "n_shards": 8,
                    "n_probe": 2,
                    "seed": 5,
                    "backend": "blas",
                },
            ),
        ),
        (
            "serve",
            ServeSpec(localizer=office_knn),
            "153e532836d7229c260c0a09022aae4511725bd0bd15139c782984f0b3084857",
            _serve(),
        ),
        (
            "serve-obs",
            ServeSpec(
                localizer=office_knn,
                port=0,
                batch_window_ms=1.0,
                max_batch=64,
                chunk_size=32,
                model_dir="/tmp/m",
                log_json=True,
                slow_ms=5.0,
            ),
            "27d6fa5017be3b3c0b176bf97698dfa15041ec4ab05d7af8de038387097b710c",
            _serve(
                port=0,
                batch_window_ms=1.0,
                max_batch=64,
                chunk_size=32,
                model_dir="/tmp/m",
                log_json=True,
                slow_ms=5.0,
            ),
        ),
        (
            "fleet-workers",
            FleetSpec.from_string(
                "HQ:2,LAB:2:kmeans", framework="KNN", fast=True, workers=2
            ),
            "21e8777390f1bc64952d94be03f9daa5b532296b8cbdf1ea6739c5432571cbe9",
            _fleet(buildings="HQ:2,LAB:2:kmeans", fast=True, workers=2),
        ),
        (
            "fleet-obs-live",
            FleetSpec.from_string(
                "HQ:2",
                framework="KNN",
                fast=True,
                index=IndexSpec(kind="region", n_shards=4),
                backend="quantized",
                log_json=True,
                slow_ms=0.0,
                max_pending_rows=512,
                start_method="spawn",
                drift_threshold_m=3.5,
                live_min_scans=4,
                live_max_age_s=60.0,
            ),
            "a51766bea3ec3ef85435659edc959da2b60650f8f0041a34781f9caa6c11289e",
            _fleet(
                fast=True,
                index={
                    "kind": "region",
                    "n_shards": 4,
                    "n_probe": 4,
                    "seed": 0,
                    "backend": None,
                },
                backend="quantized",
                max_pending_rows=512,
                start_method="spawn",
                log_json=True,
                slow_ms=0.0,
                drift_threshold_m=3.5,
                live_min_scans=4,
                live_max_age_s=60.0,
            ),
        ),
        (
            "fleet-default",
            FleetSpec.from_string("HQ:2"),
            "847f0beb2a3f70b36d9538081ce04cf01374ba83d7597a394e1bb43b12a1912b",
            _fleet(),
        ),
    ]


_SPEC_IDS = [name for name, *_ in _specs()]


@pytest.mark.parametrize("case", range(len(_SPEC_IDS)), ids=_SPEC_IDS)
def test_fingerprint_pinned(case):
    _, spec, fingerprint, _ = _specs()[case]
    assert spec.fingerprint() == fingerprint


@pytest.mark.parametrize("case", range(len(_SPEC_IDS)), ids=_SPEC_IDS)
def test_to_dict_pinned_with_key_order(case):
    _, spec, _, as_dict = _specs()[case]
    produced = spec.to_dict()
    assert produced == as_dict
    assert list(produced) == list(as_dict)
    assert type(spec).from_dict(produced) == spec


def test_index_spec_pinned():
    spec = IndexSpec(kind="kmeans")
    assert spec.fingerprint() == "kmeans:s16:p4:r0"
    assert spec.to_dict() == {
        "kind": "kmeans",
        "n_shards": 16,
        "n_probe": 4,
        "seed": 0,
        "backend": None,
    }


def test_scenario_fingerprints_pinned():
    assert (
        ScenarioSpec().fingerprint()
        == "088cb3bc31211e7eb223b964f914ee71d795d262b8b0654d3e96898f2cc44ac1"
    )
    assert (
        quick_city().fingerprint()
        == "d3d7b91e637204166fd857d7aa777dfc824701d3eb4b0802aae53b478773b254"
    )
    assert (
        full_city().fingerprint()
        == "449fdb5f4fa18f3fcbfe234d6c834094b8d572ca69548199eb15d29752f9e5a4"
    )


def test_model_key_digests_pinned():
    suite = generate_path_suite(
        "office",
        seed=7,
        config=SuiteConfig(n_aps=24, fpr=4, train_fpr=3),
        n_cis=6,
    )
    plain = LocalizerSpec(framework="KNN", fast=True)
    sharded = LocalizerSpec(
        framework="KNN",
        fast=True,
        index=IndexSpec(kind="kmeans", n_shards=4, n_probe=2),
        backend="blas",
    )
    assert (
        plain.model_key(suite).digest
        == "efcd0d48e0a76b4c46bae1f3b37526db23504e69699ea53bcfcaed1a1227fbb8"
    )
    assert (
        sharded.model_key(suite).digest
        == "d52947f6fbb2edfa687aad7264c1a5512d6b3c1211b50cdee264a49afef5b57c"
    )


_STORE = "_StoreAction"
_TRUE = "_StoreTrueAction"
_INDEX_KINDS = ("exhaustive", "region", "kmeans")

#: dest -> (option strings, default, type, choices, action class).
SERVE_OPTIONS = {
    "suite": ((), "office", None, ("office", "basement", "uji"), _STORE),
    "framework": (("--framework",), "STONE", None, None, _STORE),
    "fleet": (("--fleet",), None, None, None, _STORE),
    "max_pending_rows": (("--max-pending-rows",), None, int, None, _STORE),
    "workers": (("--workers",), 0, int, None, _STORE),
    "fleet_months": (("--fleet-months",), 4, int, None, _STORE),
    "fleet_aps_per_floor": (("--fleet-aps-per-floor",), 24, int, None, _STORE),
    "host": (("--host",), "127.0.0.1", None, None, _STORE),
    "port": (("--port",), 8000, int, None, _STORE),
    "batch_window_ms": (("--batch-window-ms",), 2.0, float, None, _STORE),
    "max_batch": (("--max-batch",), 256, int, None, _STORE),
    "chunk_size": (("--chunk-size",), None, int, None, _STORE),
    "model_dir": (("--model-dir",), None, None, None, _STORE),
    "seed": (("--seed",), 0, int, None, _STORE),
    "fast": (("--fast",), False, None, None, _TRUE),
    "log_json": (("--log-json",), False, None, None, _TRUE),
    "slow_ms": (("--slow-ms",), None, float, None, _STORE),
    "drift_threshold_m": (("--drift-threshold-m",), None, float, None, _STORE),
    "live_min_scans": (("--live-min-scans",), 32, int, None, _STORE),
    "live_max_scans": (("--live-max-scans",), 4096, int, None, _STORE),
    "live_max_age_s": (("--live-max-age-s",), None, float, None, _STORE),
    "index": (("--index",), "exhaustive", None, _INDEX_KINDS, _STORE),
    "n_shards": (("--n-shards",), 16, int, None, _STORE),
    "n_probe": (("--n-probe",), 4, int, None, _STORE),
    "backend": (("--backend",), None, None, None, _STORE),
}

FLEET_OPTIONS = {
    "spec": ((), None, None, None, _STORE),
    "framework": (("--framework",), "KNN", None, None, _STORE),
    "seed": (("--seed",), 0, int, None, _STORE),
    "fast": (("--fast",), False, None, None, _TRUE),
    "eval": (("--eval",), False, None, None, _TRUE),
    "max_epochs": (("--max-epochs",), None, int, None, _STORE),
    "model_dir": (("--model-dir",), None, None, None, _STORE),
    "fleet_months": (("--fleet-months",), 4, int, None, _STORE),
    "fleet_aps_per_floor": (("--fleet-aps-per-floor",), 24, int, None, _STORE),
    "index": (("--index",), "exhaustive", None, _INDEX_KINDS, _STORE),
    "n_shards": (("--n-shards",), 16, int, None, _STORE),
    "n_probe": (("--n-probe",), 4, int, None, _STORE),
    "backend": (("--backend",), None, None, None, _STORE),
}


def _option_table(command: str) -> dict:
    parser = build_parser()
    subparsers = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    return {
        action.dest: (
            tuple(action.option_strings),
            action.default,
            action.type,
            None if action.choices is None else tuple(action.choices),
            type(action).__name__,
        )
        for action in subparsers.choices[command]._actions
        if not isinstance(action, argparse._HelpAction)
    }


@pytest.mark.parametrize(
    ("command", "expected"),
    [("serve", SERVE_OPTIONS), ("fleet", FLEET_OPTIONS)],
    ids=["serve", "fleet"],
)
def test_cli_option_table_pinned(command, expected):
    assert _option_table(command) == expected

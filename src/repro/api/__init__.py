"""``repro.api`` — the one typed, versioned public surface.

Everything a client builds against lives here; the layers underneath
(:mod:`repro.eval`, :mod:`repro.serve`, :mod:`repro.fleet`) are
implementation and may move between releases. The surface has four
parts:

* **Specs** (:mod:`~repro.api.config`) — frozen, typed descriptions of
  what to build: :class:`LocalizerSpec`, :class:`IndexSpec`,
  :class:`ServeSpec`, :class:`FleetSpec`. Every spec round-trips
  through ``to_dict``/``from_dict`` and has a canonical
  ``fingerprint()``; ``LocalizerSpec.model_key(suite)`` reproduces the
  serving layer's content-addressed artifact identity exactly, so
  pre-existing cached fits stay warm.
* **Session** (:mod:`~repro.api.session`) —
  :class:`LocalizationSession` exposes ``fit`` / ``localize`` /
  ``localize_batch`` / ``stats`` identically over an in-process model
  and a remote server; answers are bit-identical between the two.
* **Client** (:mod:`~repro.api.client`) — :class:`ReproClient`, the
  stdlib keep-alive HTTP client with typed errors and automatic
  backoff on 429.
* **Wire protocol v1** — :data:`API_VERSION`; every request declares
  ``api_version`` and errors arrive as the structured envelope
  (version-less legacy requests are rejected with a migration hint).
* **Scenarios** (:mod:`repro.synth`) — :class:`ScenarioSpec` (with the
  :func:`quick_city` / :func:`full_city` presets) describes a whole
  synthetic city in the same frozen/fingerprinted spec grammar;
  generation is deterministic per ``(spec.fingerprint(), seed)``.

Quickstart::

    from repro.api import LocalizerSpec, LocalizationSession
    from repro.datasets import generate_path_suite

    suite = generate_path_suite("office", seed=0)
    spec = LocalizerSpec(framework="KNN", suite_name="office", fast=True)
    with LocalizationSession.local(spec, suite) as session:
        print(session.localize(suite.test_epochs[0].rssi[0]))

See ``docs/api.md`` for the migration table from the retired legacy
entry points.
"""

from ..serve.protocol import API_VERSION
from ..synth.spec import ScenarioSpec, full_city, quick_city
from .client import (
    LocalizeBatchResult,
    LocalizeResult,
    ReproAPIError,
    ReproClient,
    ReproConnectionError,
    ReproError,
    ReproOverloadError,
)
from .config import FleetSpec, IndexSpec, LocalizerSpec, ServeSpec, engine_index
from .session import (
    LocalizationSession,
    LocalLocalizationSession,
    RemoteLocalizationSession,
)

__all__ = [
    "API_VERSION",
    "FleetSpec",
    "IndexSpec",
    "LocalizeBatchResult",
    "LocalizeResult",
    "LocalizerSpec",
    "LocalizationSession",
    "LocalLocalizationSession",
    "RemoteLocalizationSession",
    "ReproAPIError",
    "ReproClient",
    "ReproConnectionError",
    "ReproError",
    "ReproOverloadError",
    "ScenarioSpec",
    "ServeSpec",
    "engine_index",
    "full_city",
    "quick_city",
]

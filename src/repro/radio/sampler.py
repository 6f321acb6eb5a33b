"""Fingerprint sampling: the full simulated measurement chain.

``RadioEnvironment`` composes floorplan geometry, AP deployment,
propagation, shadowing, temporal variation, the AP lifecycle schedule and
a device profile into a single object whose :meth:`scan` produces one WiFi
scan — the (n_aps,) RSSI vector in dBm with -100 for unobserved APs —
exactly the raw record the paper's offline/online phases capture.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ..geometry.floorplan import Floorplan
from .access_point import NO_SIGNAL_DBM, AccessPoint
from .device import DeviceProfile, scaled_normals
from .ephemerality import EphemeralitySchedule
from .propagation import MultiWallPropagation
from .seeding import stable_seed
from .shadowing import ShadowingModel
from .temporal import TemporalModel
from .time import SimTime


class _EpochAPs(NamedTuple):
    """The deployment as it transmits during one epoch.

    Removed APs keep their original location and generation 0 (their
    values are masked out); ``key`` identifies the generation set.
    """

    locations: np.ndarray
    tx_power_dbm: np.ndarray
    generations: np.ndarray
    active: np.ndarray
    key: bytes


@dataclass
class RadioEnvironment:
    """A fully specified simulated radio deployment.

    ``fading_std_db`` is the small-scale (per-scan) fading magnitude; the
    per-scan noise also includes device noise, co-channel interference,
    and the activity-dependent component from the temporal model, all
    added in quadrature.

    The deterministic part of the signal chain is evaluated for all APs
    at once (:meth:`mean_rssi_vector`), and :meth:`survey` builds a
    whole epoch of RP scans as arrays from standard normals laid out in
    scan-at-a-time draw order. Terms that depend on geometry alone
    (walls, link loss, activity sensitivity) are cached per RP location
    and generation set, never per arbitrary point, so walks do not grow
    any cache.
    """

    floorplan: Floorplan
    access_points: list[AccessPoint]
    propagation: MultiWallPropagation
    shadowing: ShadowingModel
    temporal: TemporalModel
    device: DeviceProfile = field(default_factory=DeviceProfile)
    schedule: EphemeralitySchedule | None = None
    fading_std_db: float = 1.5
    base_seed: int = 0
    _replaced: dict = field(default_factory=dict, repr=False)  # (ap, gen) -> AP
    _epochs: dict = field(default_factory=dict, repr=False)  # epoch -> _EpochAPs
    _walls: dict = field(default_factory=dict, repr=False)  # (site, gens) -> dB
    _link_loss: dict = field(default_factory=dict, repr=False)  # (site, gens) -> dB
    _sensitivity: dict = field(default_factory=dict, repr=False)  # site -> (n_aps,)
    _rp_sites: frozenset | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.fading_std_db < 0:
            raise ValueError("fading_std_db must be non-negative")
        if not self.access_points:
            raise ValueError("environment needs at least one access point")
        if self.schedule is not None and self.schedule.n_aps != len(self.access_points):
            raise ValueError(
                f"schedule covers {self.schedule.n_aps} APs but deployment has "
                f"{len(self.access_points)}"
            )

    @property
    def n_aps(self) -> int:
        return len(self.access_points)

    # -- AP lifecycle -----------------------------------------------------------

    def _effective_ap(self, ap_id: int, epoch: int | None) -> AccessPoint | None:
        """The AP transmitting in slot ``ap_id`` at ``epoch`` (None if removed)."""
        ap = self.access_points[ap_id]
        if self.schedule is None or epoch is None:
            return ap
        if not self.schedule.is_active(epoch, ap_id):
            return None
        gen = self.schedule.generation(epoch, ap_id)
        if gen == 0:
            return ap
        key = (ap_id, gen)
        replacement = self._replaced.get(key)
        if replacement is None:
            rng = np.random.default_rng(stable_seed(self.base_seed, "replace", ap_id, gen))
            # Replacement hardware: nearby but not identical placement,
            # fresh transmit power, new generation tag (new shadow field).
            dx, dy = rng.normal(0.0, 3.0, size=2)
            x = float(np.clip(ap.location[0] + dx, 0.0, self.floorplan.width))
            y = float(np.clip(ap.location[1] + dy, 0.0, self.floorplan.height))
            replacement = ap.replaced(
                location=(x, y),
                tx_power_dbm=float(np.clip(rng.uniform(-14.0, -2.0), -40.0, 0.0)),
            )
            replacement = AccessPoint(
                ap_id=ap.ap_id,
                location=replacement.location,
                tx_power_dbm=replacement.tx_power_dbm,
                channel=replacement.channel,
                generation=gen,
            )
            self._replaced[key] = replacement
        return replacement

    def _epoch_aps(self, epoch: int | None) -> _EpochAPs:
        """Effective APs at ``epoch`` as arrays (cached per epoch).

        The AP lifecycle only changes between epochs, never within one,
        so dataset generation reuses these arrays for every scan of a
        collection instance.
        """
        hit = self._epochs.get(epoch)
        if hit is not None:
            return hit
        locs = np.empty((self.n_aps, 2), dtype=np.float64)
        tx = np.empty(self.n_aps, dtype=np.float64)
        gens = np.zeros(self.n_aps, dtype=np.int64)
        active = np.ones(self.n_aps, dtype=bool)
        for ap_id in range(self.n_aps):
            ap = self._effective_ap(ap_id, epoch)
            if ap is None:
                active[ap_id] = False
                locs[ap_id] = self.access_points[ap_id].location
                tx[ap_id] = NO_SIGNAL_DBM
                continue
            locs[ap_id] = ap.location
            tx[ap_id] = ap.tx_power_dbm
            gens[ap_id] = ap.generation
        aps = self._epochs[epoch] = _EpochAPs(locs, tx, gens, active, gens.tobytes())
        return aps

    # -- signal chain ----------------------------------------------------------

    @staticmethod
    def _cached(cache: dict, key, compute) -> np.ndarray:
        """``compute()``, memoised under ``key`` unless ``key`` is None."""
        if key is None:
            return compute()
        hit = cache.get(key)
        if hit is None:
            hit = cache[key] = compute()
        return hit

    def _wall_db(self, aps: _EpochAPs, point: np.ndarray, site) -> np.ndarray:
        """Capped wall loss from every AP to ``point``."""
        return self._cached(
            self._walls,
            None if site is None else (site, aps.key),
            lambda: self.propagation.wall_loss_db(aps.locations, point),
        )

    def _activity_sensitivity(self, point: np.ndarray, site) -> np.ndarray:
        """How strongly human activity attenuates each AP at one spot.

        Crowds block some AP->receiver paths and not others (a body in the
        Fresnel zone of one link leaves another untouched). A logistic
        squash of an independent shadowing layer gives a per-(AP, place)
        sensitivity in (0, 1) that is stable in space and across time —
        the *pattern* of busy-hour attenuation repeats daily, which is
        exactly why morning-trained models mislocate in the afternoon.
        The logistic's ``exp`` stays one scalar call per AP, as pinned.
        """

        def compute() -> np.ndarray:
            raw = self.shadowing.values_db(
                np.arange(self.n_aps), np.full(self.n_aps, 7777), point[0], point[1]
            ) / max(self.shadowing.sigma_db, 1e-9)
            return np.array([1.0 / (1.0 + np.exp(-2.0 * r)) for r in raw.tolist()])

        return self._cached(self._sensitivity, site, compute)

    def _shadow_db(self, aps: _EpochAPs, point: np.ndarray, time: SimTime) -> np.ndarray:
        """Spatial shadowing of every AP at ``point``, furniture layer at
        its weight for ``time``."""
        return self.shadowing.shadow_db_many(
            np.arange(self.n_aps),
            aps.generations,
            point[0],
            point[1],
            furniture_weight=self.temporal.furniture_weight(time),
        )

    def _site(self, point: np.ndarray) -> tuple[float, float] | None:
        """``point`` as a cache key when it is one of this floorplan's RPs."""
        if self._rp_sites is None:
            self._rp_sites = frozenset(map(tuple, self.floorplan.reference_points.tolist()))
        key = tuple(point.tolist())
        return key if key in self._rp_sites else None

    def mean_rssi_vector(
        self,
        location: Sequence[float],
        time: SimTime,
        *,
        epoch: int | None = None,
    ) -> np.ndarray:
        """Expected received power of every AP at ``location`` (``(n_aps,)``).

        Includes path loss, walls, spatial shadowing (with the furniture
        layer at its current weight), slow drift, and the mean activity
        attenuation; per-scan noise and detection are not applied.
        Removed APs read ``NO_SIGNAL_DBM``.
        """
        point = np.array(location, dtype=np.float64)
        key = self._site(point)
        aps = self._epoch_aps(epoch)
        loss = self._cached(
            self._link_loss,
            None if key is None else (key, aps.key),
            lambda: self.propagation.path_loss_db(aps.locations, point)
            + self._wall_db(aps, point, key),
        )
        rssi = aps.tx_power_dbm - loss
        rssi += self._shadow_db(aps, point, time)
        rssi += self.temporal.drift_db_vector(self.n_aps, time)
        rssi -= self._activity_sensitivity(point, key) * (
            self.temporal.activity_attenuation_db(time)
        )
        rssi[~aps.active] = NO_SIGNAL_DBM
        return rssi

    def mean_rssi_dbm(
        self,
        ap_id: int,
        location: Sequence[float],
        time: SimTime,
        *,
        epoch: int | None = None,
    ) -> float:
        """One AP's entry of :meth:`mean_rssi_vector`."""
        return float(self.mean_rssi_vector(location, time, epoch=epoch)[ap_id])

    def _fading_std_db(self, time: SimTime) -> float:
        """Per-scan fading sigma before the device's own noise."""
        return float(
            np.sqrt(
                self.fading_std_db**2
                + self.temporal.interference_std_db() ** 2
                + self.temporal.activity_noise_std_db(time) ** 2
            )
        )

    def scan_noise_std_db(self, time: SimTime) -> float:
        """Total per-scan noise sigma at ``time`` (quadrature sum)."""
        parts = np.array(
            [
                self.fading_std_db,
                self.device.noise_std_db,
                self.temporal.interference_std_db(),
                self.temporal.activity_noise_std_db(time),
            ]
        )
        return float(np.sqrt((parts**2).sum()))

    def scan(
        self,
        location: Sequence[float],
        time: SimTime,
        rng: np.random.Generator,
        *,
        epoch: int | None = None,
    ) -> np.ndarray:
        """One WiFi scan: ``(n_aps,)`` RSSI in dBm, -100 for unobserved.

        The device's detection threshold is applied after noise, so weak
        APs flicker between scans — the short-term variability STONE's
        Gaussian-noise input layer is designed to absorb. Noise is drawn
        AP by AP (fading, then the device reading), skipping removed APs.
        """
        means = self.mean_rssi_vector(location, time, epoch=epoch)
        heard = means > NO_SIGNAL_DBM
        per_ap = 2 if self.device.noise_std_db > 0 else 1
        z = rng.standard_normal((int(heard.sum()), per_ap))
        true_power = means[heard] + scaled_normals(self._fading_std_db(time), z[:, 0])
        out = np.full(self.n_aps, NO_SIGNAL_DBM, dtype=np.float64)
        out[heard] = self.device.readings(true_power, z[:, 1] if per_ap == 2 else None)
        return out

    def survey_draws(self, position_jitter_m: float) -> int:
        """Standard normals one survey scan consumes.

        In draw order: 2 for the position jitter (when
        ``position_jitter_m > 0``), ``n_aps`` for fading, and ``n_aps``
        for the device reading (when the device has receiver noise).
        """
        jitter = 2 if position_jitter_m > 0 else 0
        device = self.n_aps if self.device.noise_std_db > 0 else 0
        return jitter + self.n_aps + device

    def survey(
        self,
        rp_indices: Sequence[int],
        times: Sequence[SimTime],
        z: np.ndarray,
        *,
        epoch: int | None = None,
        position_jitter_m: float = 0.15,
    ) -> np.ndarray:
        """Survey scans at RPs ``rp_indices`` at each of ``times``.

        Returns ``(len(rp_indices), len(times), n_aps)`` RSSI. ``z``
        holds the scans' standard normals, ``(len(rp_indices),
        len(times), survey_draws(position_jitter_m))``, each scan's laid
        out in :meth:`survey_draws` order. Surveyors do not stand on the
        exact same square centimetre twice, so the jitter wiggles the
        path-loss distance (walls and shadowing use the nominal RP
        location — a sub-meter approximation that keeps those terms
        cacheable).

        Site terms (walls, activity sensitivity, base and furniture
        shadow) are computed once per RP, time terms once per distinct
        time; each time's scans are then one array pass.
        """
        aps = self._epoch_aps(epoch)
        n = self.n_aps
        nominal = self.floorplan.reference_points[np.asarray(rp_indices, dtype=np.intp)]
        weights = [self.temporal.furniture_weight(t) for t in times]
        walls = np.empty((len(nominal), n))
        sensitivity = np.empty((len(nominal), n))
        for i, point in enumerate(nominal):
            site = self._site(point)
            walls[i] = self._wall_db(aps, point, site)
            sensitivity[i] = self._activity_sensitivity(point, site)
        ap_ids = np.arange(n)
        layers = aps.generations * 100
        x, y = nominal[:, 0, None], nominal[:, 1, None]
        base = self.shadowing.values_db(ap_ids, layers, x, y)
        furniture = None
        if max(weights, default=0.0) > 0.0:
            furniture = self.shadowing.values_db(ap_ids, layers + 1, x, y)

        jitter = 2 if position_jitter_m > 0 else 0
        device_z = z[..., jitter + n :] if self.device.noise_std_db > 0 else None
        path_loss = self.propagation.path_loss
        out = np.empty((len(nominal), len(times), n))
        time_terms: dict[float, tuple] = {}
        for k, (time, weight) in enumerate(zip(times, weights)):
            terms = time_terms.get(time.hours)
            if terms is None:
                structure = self.shadowing.blend(base, furniture, weight) - walls
                terms = time_terms[time.hours] = (
                    structure,
                    self.temporal.drift_db_vector(n, time),
                    self.temporal.activity_attenuation_db(time),
                    self._fading_std_db(time),
                )
            structure, drift, activity, fading_sigma = terms
            at_x, at_y = x, y
            if jitter:
                at_x = x + scaled_normals(position_jitter_m, z[:, k, 0, None])
                at_y = y + scaled_normals(position_jitter_m, z[:, k, 1, None])
            dx = aps.locations[:, 0] - at_x
            dy = aps.locations[:, 1] - at_y
            dx *= dx
            dy *= dy
            dx += dy
            power = aps.tx_power_dbm - path_loss.loss_db_array(np.sqrt(dx, out=dx))
            power += structure
            power += drift
            power -= sensitivity * activity
            power += scaled_normals(fading_sigma, z[:, k, jitter : jitter + n])
            out[:, k] = self.device.readings(
                power, None if device_z is None else device_z[:, k]
            )
        out[..., ~aps.active] = NO_SIGNAL_DBM
        return out

    def scan_at_rp(
        self,
        rp_index: int,
        time: SimTime,
        rng: np.random.Generator,
        *,
        epoch: int | None = None,
        position_jitter_m: float = 0.15,
    ) -> np.ndarray:
        """One :meth:`survey` scan standing at RP ``rp_index``."""
        z = rng.standard_normal((1, 1, self.survey_draws(position_jitter_m)))
        return self.survey(
            [rp_index], [time], z, epoch=epoch, position_jitter_m=position_jitter_m
        )[0, 0]

    def visible_ap_count(self, time: SimTime, *, epoch: int | None = None) -> int:
        """APs with detectable mean power at any RP — Fig. 3's annotation."""
        threshold = self.device.detection_threshold_dbm
        visible = np.zeros(self.n_aps, dtype=bool)
        for rp_loc in self.floorplan.reference_points:
            visible |= self.mean_rssi_vector(rp_loc, time, epoch=epoch) > threshold
        return int(visible.sum())

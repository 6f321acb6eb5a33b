"""Temporal variation models for RSSI.

The paper attributes post-deployment accuracy loss to "human activity,
signal interferences, changes to furniture and materials in the
environment, and also removal or replacement of WiFi APs" (Sec. I). This
module implements the first three; removal/replacement lives in
``repro.radio.ephemerality``.

Components
----------
- **Slow drift** — an Ornstein-Uhlenbeck process per AP over days; models
  firmware/power changes and seasonal building effects. Mean-reverting, so
  drift wanders within a band instead of diverging.
- **Diurnal human activity** — a smooth occupancy curve over the hour of
  day; bodies attenuate 2.4 GHz, so busy hours add mean attenuation *and*
  measurement variance. This is why the paper's CI:0 (8 AM) and CI:1
  (afternoon) differ enough to trip overfitted models.
- **Furniture events** — Poisson-arriving rearrangements that permanently
  blend a second spatial shadowing layer in (see ``ShadowingModel``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .seeding import stable_seed
from .time import HOURS_PER_DAY, SimTime

#: Months after which the secular trend stops growing (bounds its effect).
TREND_SATURATION_MONTHS = 10.0


def occupancy(hour_of_day: float) -> float:
    """Relative human activity level in [0, 1] by clock hour.

    Low overnight, ramping through the morning, peaking early afternoon,
    tapering in the evening — a standard office/library occupancy shape.
    """
    h = float(hour_of_day) % HOURS_PER_DAY
    morning = np.exp(-0.5 * ((h - 11.0) / 2.5) ** 2)
    afternoon = np.exp(-0.5 * ((h - 15.5) / 2.8) ** 2)
    level = 0.9 * max(morning, afternoon) + 0.05
    return float(np.clip(level, 0.0, 1.0))


@dataclass
class OUDrift:
    """Ornstein-Uhlenbeck drift evaluated lazily on a daily grid.

    ``x_{k+1} = x_k * exp(-dt/tau) + N(0, sigma^2 (1 - exp(-2 dt/tau)))``

    sampled once per simulated day and linearly interpolated between
    samples, so any query time is deterministic for a given seed.
    """

    sigma_db: float
    tau_days: float
    seed: int
    _samples: list[float] = field(default_factory=list, repr=False)
    _rng: np.random.Generator | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.sigma_db < 0:
            raise ValueError("sigma_db must be non-negative")
        if self.tau_days <= 0:
            raise ValueError("tau_days must be positive")

    def _ensure(self, day_index: int) -> None:
        if self._rng is None:
            self._rng = np.random.default_rng(self.seed)
            self._samples.append(0.0)  # deployment-day drift is zero
        decay = float(np.exp(-1.0 / self.tau_days))
        step_sigma = self.sigma_db * float(np.sqrt(1.0 - decay**2))
        while len(self._samples) <= day_index + 1:
            prev = self._samples[-1]
            nxt = prev * decay + self._rng.normal(0.0, step_sigma)
            self._samples.append(float(nxt))

    def day_samples(self, day_index: int) -> tuple[float, float]:
        """Drift (dB) at the start of day ``day_index`` and of the next day."""
        if self.sigma_db == 0.0:
            return 0.0, 0.0
        self._ensure(day_index)
        return self._samples[day_index], self._samples[day_index + 1]

    def value_db(self, time: SimTime) -> float:
        """Drift offset (dB) at ``time``, interpolated between daily samples."""
        day = time.days
        k = int(np.floor(day))
        return float(_lerp(*self.day_samples(k), day - k))


def _lerp(start, end, frac):
    """Linear interpolation between daily samples (scalars or arrays)."""
    return (1.0 - frac) * start + frac * end


@dataclass(frozen=True)
class TemporalConfig:
    """Magnitudes of the temporal variation sources (all in dB)."""

    drift_sigma_db: float = 3.0
    drift_tau_days: float = 45.0
    trend_sigma_db_per_month: float = 0.0
    activity_atten_db: float = 3.5
    activity_extra_std_db: float = 2.0
    interference_std_db: float = 0.8
    furniture_rate_per_month: float = 0.35
    furniture_weight_step: float = 0.25
    furniture_weight_max: float = 0.8

    def __post_init__(self) -> None:
        if min(
            self.drift_sigma_db,
            self.trend_sigma_db_per_month,
            self.activity_atten_db,
            self.activity_extra_std_db,
            self.interference_std_db,
            self.furniture_rate_per_month,
        ) < 0:
            raise ValueError("temporal magnitudes must be non-negative")
        if not 0.0 <= self.furniture_weight_max <= 1.0:
            raise ValueError("furniture_weight_max must be in [0, 1]")


class TemporalModel:
    """Aggregates all time-dependent RSSI effects for a deployment.

    One instance is shared by every AP; per-AP randomness comes from
    deterministic per-AP seeds, so fingerprints are reproducible given the
    deployment seed.
    """

    def __init__(self, config: TemporalConfig, *, base_seed: int = 0) -> None:
        self.config = config
        self.base_seed = int(base_seed)
        self._drifts: dict[int, OUDrift] = {}
        self._day_samples: dict[tuple[int, int], np.ndarray] = {}
        self._slopes: dict[int, np.ndarray] = {}
        self._furniture_times: np.ndarray | None = None

    # -- slow drift ------------------------------------------------------------

    def drift_scale(self, ap_id: int) -> float:
        """Per-AP drift magnitude multiplier in [0.4, 2.0].

        Independently administered APs age differently — some are rock
        stable, others wander (firmware updates, power changes). A
        deterministic per-AP scale reproduces that heterogeneity.
        """
        rng = np.random.default_rng(stable_seed(self.base_seed, "drift-scale", ap_id))
        return float(rng.uniform(0.4, 2.0))

    def trend_slope_db_per_month(self, ap_id: int) -> float:
        """Per-AP secular trend slope (dB/month), deterministic per seed.

        Environments accumulate permanent changes (antenna knocks, power
        policy updates, new equipment near the AP) that do *not* revert;
        a saturating linear trend captures the paper's observation that
        errors keep climbing at the month scale even before APs vanish.
        """
        if self.config.trend_sigma_db_per_month == 0.0:
            return 0.0
        rng = np.random.default_rng(stable_seed(self.base_seed, "trend", ap_id))
        return float(rng.normal(0.0, self.config.trend_sigma_db_per_month))

    def trend_db(
        self, ap_id: int, time: SimTime, *, saturation_months: float = TREND_SATURATION_MONTHS
    ) -> float:
        """Secular trend offset at ``time`` (saturates to bound the effect)."""
        slope = self.trend_slope_db_per_month(ap_id)
        if slope == 0.0:
            return 0.0
        months = min(time.months, saturation_months)
        return slope * months

    def drift_db(self, ap_id: int, time: SimTime) -> float:
        """Per-AP slow variation at ``time``: OU drift + secular trend."""
        return self._ou(ap_id).value_db(time) + self.trend_db(ap_id, time)

    def _ou(self, ap_id: int) -> OUDrift:
        drift = self._drifts.get(ap_id)
        if drift is None:
            drift = OUDrift(
                sigma_db=self.config.drift_sigma_db * self.drift_scale(ap_id),
                tau_days=self.config.drift_tau_days,
                seed=stable_seed(self.base_seed, "drift", ap_id),
            )
            self._drifts[ap_id] = drift
        return drift

    def drift_db_vector(self, n_aps: int, time: SimTime) -> np.ndarray:
        """Slow variation of APs ``0..n_aps-1`` at ``time``: OU drift +
        secular trend, saturating after ``TREND_SATURATION_MONTHS``.

        Each AP's OU samples bracketing ``time``'s day and its trend
        slope are gathered once (per day, per deployment), so a call is
        array arithmetic; entry i equals ``drift_db(i, time)``.
        """
        day = time.days
        k = int(np.floor(day))
        samples = self._day_samples.get((n_aps, k))
        if samples is None:
            samples = np.array([self._ou(ap).day_samples(k) for ap in range(n_aps)]).T
            self._day_samples[(n_aps, k)] = samples
        slopes = self._slopes.get(n_aps)
        if slopes is None:
            slopes = np.array([self.trend_slope_db_per_month(ap) for ap in range(n_aps)])
            self._slopes[n_aps] = slopes
        months = min(time.months, TREND_SATURATION_MONTHS)
        return _lerp(samples[0], samples[1], day - k) + slopes * months

    # -- human activity ----------------------------------------------------------

    def activity_level(self, time: SimTime) -> float:
        """Occupancy level in [0, 1] at ``time``."""
        return occupancy(time.hour_of_day)

    def activity_attenuation_db(self, time: SimTime) -> float:
        """Mean extra attenuation from human bodies at ``time``."""
        return self.config.activity_atten_db * self.activity_level(time)

    def activity_noise_std_db(self, time: SimTime) -> float:
        """Extra per-scan noise standard deviation from movement."""
        return self.config.activity_extra_std_db * self.activity_level(time)

    # -- furniture events ----------------------------------------------------------

    def _ensure_furniture(self, horizon_months: float) -> np.ndarray:
        needed = max(horizon_months, 1.0)
        if self._furniture_times is None or (
            self._furniture_times.size > 0 and self._furniture_times[-1] < needed
        ):
            rng = np.random.default_rng(stable_seed(self.base_seed, "furniture"))
            # Draw enough Poisson arrivals to cover 3x the horizon.
            rate = self.config.furniture_rate_per_month
            if rate == 0:
                self._furniture_times = np.array([])
            else:
                n_expected = int(np.ceil(3 * needed * rate)) + 8
                gaps = rng.exponential(1.0 / rate, size=n_expected)
                self._furniture_times = np.cumsum(gaps)
        return self._furniture_times

    def furniture_weight(self, time: SimTime) -> float:
        """Blend weight of the furniture shadowing layer at ``time``.

        Each event adds ``furniture_weight_step``, saturating at
        ``furniture_weight_max``; the environment progressively diverges
        from its deployment-day layout.
        """
        events = self._ensure_furniture(time.months)
        n_events = int((events <= time.months).sum()) if events.size else 0
        weight = n_events * self.config.furniture_weight_step
        return float(min(weight, self.config.furniture_weight_max))

    # -- interference ----------------------------------------------------------

    def interference_std_db(self) -> float:
        """Always-on per-scan noise floor from co-channel interference."""
        return self.config.interference_std_db


#: Environment presets: the basement's metal surroundings amplify both the
#: multipath noise and the impact of furniture/equipment moves.
TEMPORAL_PRESETS = {
    "uji": TemporalConfig(
        drift_sigma_db=4.5,
        drift_tau_days=55.0,
        trend_sigma_db_per_month=0.6,
        activity_atten_db=6.0,
        activity_extra_std_db=1.8,
        interference_std_db=0.8,
        furniture_rate_per_month=0.5,
        furniture_weight_step=0.3,
    ),
    "office": TemporalConfig(
        drift_sigma_db=4.5,
        drift_tau_days=40.0,
        trend_sigma_db_per_month=1.0,
        activity_atten_db=8.0,
        activity_extra_std_db=2.2,
        interference_std_db=0.8,
        furniture_rate_per_month=0.5,
        furniture_weight_step=0.3,
    ),
    "basement": TemporalConfig(
        drift_sigma_db=4.2,
        drift_tau_days=40.0,
        trend_sigma_db_per_month=0.8,
        activity_atten_db=5.0,
        activity_extra_std_db=2.6,
        interference_std_db=1.2,
        furniture_rate_per_month=0.7,
        furniture_weight_step=0.3,
    ),
}

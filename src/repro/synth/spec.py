"""`ScenarioSpec` — the declarative grammar of a synthetic city.

One frozen, fingerprintable dataclass describes everything the
generator needs to materialize a city: how many buildings and floors,
the RP survey grid, AP density, the path-loss regime (keyed into
:data:`repro.radio.propagation.ENVIRONMENT_PRESETS`), shadowing and
device-noise magnitudes, and the per-month AP-dropout schedule that
makes the longitudinal epochs drift the way the paper's corpora do.

The spec follows the :mod:`repro.api` conventions exactly: a frozen
:class:`~repro.spec_fields.Spec` whose fields declare their own
checks, with the shared validation at construction,
``to_dict``/``from_dict`` with unknown-key rejection, and canonical
SHA-256 :meth:`fingerprint` (``{"spec": "scenario", ...}`` payload).
Everything downstream — :func:`repro.synth.generate_suite`,
:func:`repro.synth.generate_fleet`, the stress bench — derives its
randomness from ``(spec.fingerprint(), seed)``, so a spec *is* a
reproducible dataset identity, not just a parameter bag.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..geometry.builders import build_grid_floorplan
from ..geometry.floorplan import Floorplan
from ..radio.access_point import DEFAULT_DETECTION_THRESHOLD_DBM, NO_SIGNAL_DBM
from ..radio.propagation import ENVIRONMENT_PRESETS
from ..spec_fields import AT_LEAST_1, POSITIVE, Spec, spec_field

_NON_NEGATIVE = (lambda v: v >= 0, "{name} must be non-negative")
_FLOOR_SIDE = (lambda v: v >= 4.0, "floor dimensions must be >= 4 m")
_FPR = (lambda v: v >= 1, "train_fpr and test_fpr must be >= 1")


@dataclass(frozen=True)
class ScenarioSpec(Spec):
    """One synthetic city: geometry x radio regime x drift schedule.

    Parameters
    ----------
    name:
        City name; building/suite names derive from it.
    n_buildings / floors_per_building:
        Fleet topology. Every building is an identical stack of grid
        floors (radio content still differs per building and floor —
        AP placement, shadowing and dropout draw from independent
        streams).
    floor_width_m / floor_height_m / rp_spacing_m:
        Per-floor survey geometry: an open grid floorplan with RPs
        every ``rp_spacing_m`` meters inside a small margin.
    floor_gap_m:
        Vertical distance between adjacent floors (slab to slab).
    ap_density_per_100m2:
        APs per 100 m^2 of floor area; at least one AP per floor.
    environment:
        Path-loss regime, a key of
        :data:`~repro.radio.propagation.ENVIRONMENT_PRESETS`
        (``"open"``, ``"office"``, ``"basement"``).
    tx_power_dbm:
        AP transmit power.
    shadowing_sigma_db:
        Lognormal shadowing sigma — a *static* per-(RP, AP) dB offset,
        the location texture fingerprinting exploits.
    noise_std_db:
        Per-scan device noise sigma (fresh every scan).
    detection_threshold_dbm:
        Receiver sensitivity; weaker signals read ``NO_SIGNAL_DBM``.
    slab_db:
        Attenuation per concrete slab a signal crosses between floors.
    n_months:
        Longitudinal horizon: train = month 0, test epochs = months
        ``1..n_months``.
    train_fpr / test_fpr:
        Fingerprints per RP in the training survey / each test month.
    dropout_start_month / dropout_rate:
        AP-dropout schedule: from ``dropout_start_month`` on, a
        cumulative ``dropout_rate`` fraction of each building's APs
        goes permanently dark per month (see :meth:`dropout_counts` —
        the schedule is exact, not probabilistic).
    """

    SPEC_NAME = "scenario"

    name: str = spec_field(
        "city",
        check=(
            lambda v: isinstance(v, str) and bool(v),
            "name must be a non-empty string",
        ),
    )
    n_buildings: int = spec_field(4, check=AT_LEAST_1)
    floors_per_building: int = spec_field(2, check=AT_LEAST_1)
    floor_width_m: float = spec_field(24.0, check=_FLOOR_SIDE)
    floor_height_m: float = spec_field(16.0, check=_FLOOR_SIDE)
    rp_spacing_m: float = spec_field(4.0, check=POSITIVE)
    floor_gap_m: float = spec_field(3.5, check=POSITIVE)
    ap_density_per_100m2: float = spec_field(1.5, check=POSITIVE)
    environment: str = spec_field(
        "office",
        check=(
            lambda v: v in ENVIRONMENT_PRESETS,
            "unknown environment {value!r}; choose from "
            + str(sorted(ENVIRONMENT_PRESETS)),
        ),
    )
    tx_power_dbm: float = spec_field(
        18.0, check=(lambda v: 0.0 <= v <= 40.0, "{name} must be in [0, 40]")
    )
    shadowing_sigma_db: float = spec_field(3.0, check=_NON_NEGATIVE)
    noise_std_db: float = spec_field(2.0, check=_NON_NEGATIVE)
    detection_threshold_dbm: float = spec_field(
        DEFAULT_DETECTION_THRESHOLD_DBM,
        check=(
            lambda v: NO_SIGNAL_DBM < v <= 0.0,
            f"{{name}} must be in ({NO_SIGNAL_DBM}, 0]",
        ),
    )
    slab_db: float = spec_field(18.0, check=POSITIVE)
    n_months: int = spec_field(3, check=AT_LEAST_1)
    train_fpr: int = spec_field(4, check=_FPR)
    test_fpr: int = spec_field(2, check=_FPR)
    dropout_start_month: int = spec_field(1, check=AT_LEAST_1)
    dropout_rate: float = spec_field(
        0.0, check=(lambda v: 0.0 <= v <= 1.0, "{name} must be in [0, 1]")
    )

    # -- derived geometry --------------------------------------------------

    @property
    def floor_area_m2(self) -> float:
        return self.floor_width_m * self.floor_height_m

    @property
    def aps_per_floor(self) -> int:
        """AP count per floor from the density knob (at least one)."""
        return max(1, round(self.ap_density_per_100m2 * self.floor_area_m2 / 100.0))

    @property
    def aps_per_building(self) -> int:
        return self.aps_per_floor * self.floors_per_building

    @property
    def margin_m(self) -> float:
        """RP-grid margin, shrunk so tiny floors keep at least one RP."""
        return min(2.0, self.floor_width_m / 4.0, self.floor_height_m / 4.0)

    def build_floorplan(self) -> Floorplan:
        """The (identical) grid floorplan every floor of the city uses."""
        return build_grid_floorplan(
            f"{self.name}-floor",
            width=self.floor_width_m,
            height=self.floor_height_m,
            rp_spacing=self.rp_spacing_m,
            margin=self.margin_m,
        )

    @property
    def rps_per_floor(self) -> int:
        return self.build_floorplan().n_reference_points

    def building_name(self, building: int) -> str:
        """Canonical name of building ``building`` (0-based)."""
        if not 0 <= building < self.n_buildings:
            raise ValueError(
                f"building {building} not in 0..{self.n_buildings - 1}"
            )
        return f"{self.name}-B{building:03d}"

    # -- dropout schedule --------------------------------------------------

    def dropout_counts(self, n_aps: int) -> list[int]:
        """Exact cumulative dark-AP count per month, ``month 0..n_months``.

        Month 0 (the training survey) never drops. From
        ``dropout_start_month`` on, the cumulative count is
        ``round(n_aps * dropout_rate * months_elapsed)`` capped at
        ``n_aps - 1`` — at least one AP stays alive, so a building
        never goes fully dark. The sequence is non-decreasing, which is
        what lets the generator realize it as a growing prefix of one
        fixed permutation (a dark AP stays dark).
        """
        if n_aps < 1:
            raise ValueError("n_aps must be >= 1")
        counts = [0]
        for month in range(1, self.n_months + 1):
            if self.dropout_rate == 0.0 or month < self.dropout_start_month:
                counts.append(counts[-1])
                continue
            elapsed = month - self.dropout_start_month + 1
            scheduled = round(n_aps * self.dropout_rate * elapsed)
            counts.append(min(n_aps - 1, max(counts[-1], scheduled)))
        return counts

    # -- copies / display --------------------------------------------------

    def scaled(self, **overrides) -> ScenarioSpec:
        """A copy with fields replaced (``dataclasses.replace`` sugar)."""
        return replace(self, **overrides)

    def describe(self) -> str:
        """Multi-line console summary (``repro synth``)."""
        return "\n".join(
            [
                f"scenario {self.name!r}: {self.n_buildings} buildings x "
                f"{self.floors_per_building} floors "
                f"({self.n_buildings * self.floors_per_building} slots)",
                f"  floor: {self.floor_width_m:g}x{self.floor_height_m:g} m, "
                f"RPs every {self.rp_spacing_m:g} m "
                f"({self.rps_per_floor}/floor), "
                f"{self.aps_per_floor} APs/floor",
                f"  radio: {self.environment} regime, tx {self.tx_power_dbm:g} dBm, "
                f"shadowing sigma {self.shadowing_sigma_db:g} dB, "
                f"noise sigma {self.noise_std_db:g} dB",
                f"  longitudinal: {self.n_months} months, "
                f"train {self.train_fpr}/RP, test {self.test_fpr}/RP, "
                f"dropout {self.dropout_rate:g}/month from month "
                f"{self.dropout_start_month}",
                f"  fingerprint: {self.fingerprint()[:16]}",
            ]
        )


def quick_city(n_buildings: int = 4, floors_per_building: int = 2) -> ScenarioSpec:
    """The small CI-scale city the quick stress bench and tests use."""
    return ScenarioSpec(
        name="quick-city",
        n_buildings=n_buildings,
        floors_per_building=floors_per_building,
        floor_width_m=16.0,
        floor_height_m=12.0,
        rp_spacing_m=4.0,
        n_months=2,
        train_fpr=3,
        test_fpr=2,
        dropout_rate=0.1,
        dropout_start_month=2,
    )


def full_city(
    n_buildings: int = 100, floors_per_building: int = 10
) -> ScenarioSpec:
    """The nightly-scale city: 100 buildings x 10 floors = 1000 slots."""
    return ScenarioSpec(
        name="full-city",
        n_buildings=n_buildings,
        floors_per_building=floors_per_building,
        floor_width_m=20.0,
        floor_height_m=12.0,
        rp_spacing_m=4.0,
        n_months=2,
        train_fpr=3,
        test_fpr=1,
        dropout_rate=0.05,
        dropout_start_month=1,
    )


__all__ = ["ScenarioSpec", "quick_city", "full_city"]

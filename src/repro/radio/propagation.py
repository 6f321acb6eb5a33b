"""Large-scale path loss models.

The simulator's mean received power follows the classic log-distance model
optionally augmented with multi-wall attenuation from the floorplan:

``PL(d) = PL(d0) + 10 n log10(d / d0) + sum(wall losses)``

Path-loss exponents are environment presets: open library areas sit near
free space (n ~ 2.1), drywall office corridors around 2.9, and the metal-
heavy basement above 3.2 — matching the paper's description of the three
environments' distinct "environmental noise and multipath conditions"
(Sec. V.A.2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..geometry.floorplan import Floorplan
from ..geometry.point import as_point, as_points, euclidean


@dataclass(frozen=True)
class LogDistancePathLoss:
    """Log-distance path-loss model.

    Parameters
    ----------
    exponent:
        Path-loss exponent ``n`` (2.0 = free space).
    reference_loss_db:
        Loss at the reference distance ``d0`` (40 dB at 1 m is a common
        2.4 GHz indoor figure).
    reference_distance_m:
        ``d0`` in meters.
    min_distance_m:
        Distances are clamped below this to avoid the log singularity —
        physically, the near-field region where the model does not apply.
    """

    exponent: float = 2.8
    reference_loss_db: float = 40.0
    reference_distance_m: float = 1.0
    min_distance_m: float = 0.5

    def __post_init__(self) -> None:
        if self.exponent < 1.0 or self.exponent > 6.0:
            raise ValueError(f"implausible path-loss exponent {self.exponent}")
        if self.reference_distance_m <= 0 or self.min_distance_m <= 0:
            raise ValueError("distances must be positive")

    def loss_db(self, distance_m: float) -> float:
        """Mean path loss at ``distance_m`` meters."""
        d = max(float(distance_m), self.min_distance_m)
        return self.reference_loss_db + 10.0 * self.exponent * np.log10(
            d / self.reference_distance_m
        )

    def loss_db_array(self, distances_m: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`loss_db`."""
        d = np.maximum(np.asarray(distances_m, dtype=np.float64), self.min_distance_m)
        return self.reference_loss_db + 10.0 * self.exponent * np.log10(
            d / self.reference_distance_m
        )

    def distance_for_loss(self, loss_db: float) -> float:
        """Invert the model: distance at which the mean loss equals ``loss_db``."""
        exp10 = (loss_db - self.reference_loss_db) / (10.0 * self.exponent)
        return float(self.reference_distance_m * 10.0**exp10)


#: Environment presets (exponent, reference loss).
ENVIRONMENT_PRESETS = {
    "open": LogDistancePathLoss(exponent=2.1, reference_loss_db=40.0),
    "office": LogDistancePathLoss(exponent=2.9, reference_loss_db=41.0),
    "basement": LogDistancePathLoss(exponent=3.3, reference_loss_db=42.0),
}


@dataclass
class MultiWallPropagation:
    """Log-distance path loss plus per-wall attenuation from a floorplan.

    When ``floorplan`` is None the model degenerates to pure log-distance —
    useful for unit tests and the open UJI hall where interior baffles are
    already sparse.
    """

    path_loss: LogDistancePathLoss
    floorplan: Floorplan | None = None
    wall_loss_cap_db: float = 30.0

    def wall_loss_db(
        self, srcs: np.ndarray, dst: "tuple[float, float] | np.ndarray"
    ) -> np.ndarray:
        """Capped multi-wall loss from each row of ``srcs`` to ``dst``.

        Wall attenuation is capped at ``wall_loss_cap_db``: beyond a few
        walls, diffraction and reflections dominate the direct ray and the
        multi-wall model would otherwise over-attenuate (standard COST 231
        practice). Zero without a floorplan.
        """
        srcs = as_points(srcs)
        if self.floorplan is None:
            return np.zeros(srcs.shape[0])
        walls = self.floorplan.walls.attenuation_from_db(srcs, dst)
        return np.minimum(walls, self.wall_loss_cap_db)

    def link_loss_db(
        self, srcs: np.ndarray, dst: "tuple[float, float] | np.ndarray"
    ) -> np.ndarray:
        """Mean loss (path loss + capped walls) from each row of ``srcs``.

        The log-distance term stays one scalar ``loss_db(euclidean(...))``
        per link: NumPy's array ``log10`` and a row-wise norm need not
        round like the scalar calls, and these values are pinned.
        """
        srcs = as_points(srcs)
        return self.path_loss_db(srcs, dst) + self.wall_loss_db(srcs, dst)

    def path_loss_db(
        self, srcs: np.ndarray, dst: "tuple[float, float] | np.ndarray"
    ) -> np.ndarray:
        """The log-distance part of :meth:`link_loss_db`, one scalar call per link."""
        dst = as_point(dst)
        return np.array([self.path_loss.loss_db(euclidean(src, dst)) for src in as_points(srcs)])

    def mean_rssi_dbm(
        self,
        tx_power_dbm: float,
        src: "tuple[float, float] | np.ndarray",
        dst: "tuple[float, float] | np.ndarray",
    ) -> float:
        """Mean received power (no shadowing/fading) from src to dst."""
        return float(tx_power_dbm - self.link_loss_db(as_point(src)[None, :], dst)[0])


def make_propagation(
    environment: str, floorplan: Floorplan | None = None
) -> MultiWallPropagation:
    """Build a propagation model from an environment preset name."""
    try:
        preset = ENVIRONMENT_PRESETS[environment]
    except KeyError:
        known = ", ".join(sorted(ENVIRONMENT_PRESETS))
        raise KeyError(f"unknown environment {environment!r}; known: {known}") from None
    return MultiWallPropagation(path_loss=preset, floorplan=floorplan)

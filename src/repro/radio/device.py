"""Mobile-device measurement characteristics.

The paper collects with a single LG V20, so device heterogeneity is not a
studied variable — but the sampler still models the *device-side* part of
the measurement chain (RSSI offset, quantization, detection threshold) so
that substituting a different profile exercises the heterogeneity concern
raised in Sec. II.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .access_point import DEFAULT_DETECTION_THRESHOLD_DBM, NO_SIGNAL_DBM


@dataclass(frozen=True)
class DeviceProfile:
    """An RSSI measurement chain for one phone model.

    Attributes
    ----------
    name:
        Device label.
    rssi_offset_db:
        Constant chipset bias added to every reading.
    gain_slope:
        Multiplicative distortion of signal dynamics around -70 dBm
        (1.0 = faithful; real chipsets compress strong signals slightly).
    noise_std_db:
        Receiver measurement noise per scan.
    detection_threshold_dbm:
        Signals below this are not reported by the WiFi scan at all.
    quantization_db:
        Reported RSSI granularity (Android reports whole dB).
    """

    name: str = "lg-v20"
    rssi_offset_db: float = 0.0
    gain_slope: float = 1.0
    noise_std_db: float = 1.0
    detection_threshold_dbm: float = DEFAULT_DETECTION_THRESHOLD_DBM
    quantization_db: float = 1.0

    def __post_init__(self) -> None:
        if self.gain_slope <= 0:
            raise ValueError("gain_slope must be positive")
        if self.noise_std_db < 0 or self.quantization_db < 0:
            raise ValueError("noise/quantization must be non-negative")
        if not NO_SIGNAL_DBM < self.detection_threshold_dbm <= 0:
            raise ValueError("detection threshold must be in (-100, 0]")

    def measure(
        self, true_rssi_dbm: float, rng: np.random.Generator
    ) -> float:
        """One reported RSSI reading for a true received power.

        Returns ``NO_SIGNAL_DBM`` (-100) when the signal falls below the
        detection threshold after noise — the paper's convention for
        unobserved APs (Sec. IV.A).
        """
        return float(self.measure_array(np.array([true_rssi_dbm]), rng)[0])

    def measure_array(
        self, true_rssi_dbm: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Vectorized :meth:`measure` over an array of true powers."""
        true = np.asarray(true_rssi_dbm, dtype=np.float64)
        z = rng.standard_normal(true.shape) if self.noise_std_db > 0 else None
        return self.readings(true, z)

    def readings(self, true_rssi_dbm: np.ndarray, z: np.ndarray | None) -> np.ndarray:
        """Reported RSSI for true powers, receiver noise from normals ``z``.

        ``z`` holds one standard normal per reading (``None`` when the
        profile has no receiver noise); every capture path draws its
        normals in its own order and hands them here, so the device
        arithmetic exists once.
        """
        anchored = -70.0 + (np.asarray(true_rssi_dbm, dtype=np.float64) + 70.0) * self.gain_slope
        reading = anchored + self.rssi_offset_db
        if self.noise_std_db > 0:
            reading += scaled_normals(self.noise_std_db, z)
        if self.quantization_db > 0:
            quantized = np.round(reading / self.quantization_db) * self.quantization_db
        else:
            quantized = reading
        out = np.clip(quantized, NO_SIGNAL_DBM, 0.0)
        out[reading < self.detection_threshold_dbm] = NO_SIGNAL_DBM
        return out


def scaled_normals(scale: float, z: np.ndarray) -> np.ndarray:
    """``Generator.normal(0.0, scale)`` draws from standard normals ``z``.

    NumPy computes ``loc + scale * z`` per draw, so one
    ``standard_normal`` block scaled here equals, byte for byte, the
    same normals drawn one ``normal`` call at a time.
    """
    return 0.0 + scale * z


#: A couple of ready-made profiles for heterogeneity experiments.
DEVICE_PRESETS = {
    "lg-v20": DeviceProfile(name="lg-v20"),
    "pixel-2": DeviceProfile(
        name="pixel-2", rssi_offset_db=-2.5, gain_slope=0.95, noise_std_db=1.2
    ),
    "galaxy-s7": DeviceProfile(
        name="galaxy-s7", rssi_offset_db=3.0, gain_slope=1.05, noise_std_db=0.9
    ),
}

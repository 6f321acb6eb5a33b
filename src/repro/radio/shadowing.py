"""Spatially correlated log-normal shadowing fields.

Shadowing — the slowly varying dB offset caused by the specific obstacle
layout between an AP and a location — is what makes fingerprinting work at
all: it is *stable in space* (nearby points see similar offsets) yet
*distinctive across APs*. We synthesize one independent Gaussian random
field per AP by bilinear interpolation of an i.i.d. normal lattice whose
cell size equals the decorrelation distance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .seeding import stable_seed


@dataclass
class ShadowingField:
    """One AP's spatial shadowing field over a rectangular domain.

    Bilinear interpolation of a coarse normal lattice yields a continuous
    field with approximately exponential spatial autocorrelation of range
    ``correlation_m`` — the standard Gudmundson (1991) model behaviour —
    at a tiny fraction of the cost of a dense Cholesky factorization.
    """

    width: float
    height: float
    sigma_db: float
    correlation_m: float
    seed: int
    margin: float = 10.0
    _lattice: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.sigma_db < 0:
            raise ValueError("sigma_db must be non-negative")
        if self.correlation_m <= 0:
            raise ValueError("correlation_m must be positive")
        if self.width <= 0 or self.height <= 0:
            raise ValueError("domain extents must be positive")

    def _ensure_lattice(self) -> np.ndarray:
        if self._lattice is None:
            nx = int(np.ceil((self.width + 2 * self.margin) / self.correlation_m)) + 2
            ny = int(np.ceil((self.height + 2 * self.margin) / self.correlation_m)) + 2
            rng = np.random.default_rng(self.seed)
            self._lattice = rng.normal(0.0, 1.0, size=(ny, nx))
        return self._lattice

    def _grid(self, x, y):
        """Lattice coordinates of ``(x, y)`` (cell units from the margin)."""
        return (x + self.margin) / self.correlation_m, (y + self.margin) / self.correlation_m

    def value_db(self, x: float, y: float) -> float:
        """Shadowing offset in dB at position ``(x, y)``."""
        return float(self.sigma_db * _bilinear(self._ensure_lattice(), *self._grid(x, y)))

    def values_db(self, points: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`value_db` over an ``(n, 2)`` array."""
        pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
        gx, gy = self._grid(pts[:, 0], pts[:, 1])
        return self.sigma_db * _bilinear(self._ensure_lattice(), gx, gy)


def _bilinear(lattice: np.ndarray, gx, gy, rows=Ellipsis) -> np.ndarray:
    """Bilinear interpolation of ``lattice[rows]`` at grid coordinates.

    ``lattice`` is one ``(ny, nx)`` lattice sampled at arrays of points,
    or a ``(n_fields, ny, nx)`` stack sampled for the fields ``rows`` at
    one point (or at ``(n_points, 1)`` coordinates, one row per point).
    Cell indices are clipped to the lattice, so points outside the
    domain extrapolate from the border cell.
    """
    ny, nx = lattice.shape[-2:]
    # minimum(maximum(...)) is np.clip's arithmetic without its per-call
    # dispatch overhead, which dominates on a single point.
    ix = np.minimum(np.maximum(np.floor(gx), 0), nx - 2).astype(np.intp)
    iy = np.minimum(np.maximum(np.floor(gy), 0), ny - 2).astype(np.intp)
    fx = np.minimum(np.maximum(gx - ix, 0.0), 1.0)
    fy = np.minimum(np.maximum(gy - iy, 0.0), 1.0)
    return (
        lattice[rows, iy, ix] * (1 - fx) * (1 - fy)
        + lattice[rows, iy, ix + 1] * fx * (1 - fy)
        + lattice[rows, iy + 1, ix] * (1 - fx) * fy
        + lattice[rows, iy + 1, ix + 1] * fx * fy
    )


@dataclass
class ShadowingModel:
    """Per-AP shadowing fields with deterministic per-AP seeds.

    A second field layer ("furniture") can be superimposed with a weight
    that the temporal model raises after furniture-rearrangement events,
    shifting the spatial pattern without touching the base field — nearby
    fingerprints change coherently, as they do when a real room is
    rearranged.
    """

    width: float
    height: float
    sigma_db: float = 4.0
    correlation_m: float = 6.0
    base_seed: int = 0
    _fields: dict = field(default_factory=dict, repr=False)
    # Every (ap_id, layer) lattice sampled so far, once, as rows of one
    # stack, so many APs' fields are read with a single gather.
    _lattices: list = field(default_factory=list, repr=False)
    _rows: dict = field(default_factory=dict, repr=False)
    _row_sets: dict = field(default_factory=dict, repr=False)
    _stack: np.ndarray | None = field(default=None, repr=False)

    def field_for(self, ap_id: int, *, layer: int = 0) -> ShadowingField:
        key = (ap_id, layer)
        fld = self._fields.get(key)
        if fld is None:
            fld = ShadowingField(
                width=self.width,
                height=self.height,
                sigma_db=self.sigma_db,
                correlation_m=self.correlation_m,
                seed=stable_seed(self.base_seed, ap_id, layer),
            )
            self._fields[key] = fld
        return fld

    def _stack_rows(self, ap_ids: np.ndarray, layers: np.ndarray) -> np.ndarray:
        """Stack rows of fields ``(ap_ids[i], layers[i])`` (cached per set)."""
        set_key = ap_ids.tobytes() + layers.tobytes()
        rows = self._row_sets.get(set_key)
        if rows is None:
            rows = np.empty(len(ap_ids), dtype=np.intp)
            for i, key in enumerate(zip(ap_ids.tolist(), layers.tolist())):
                row = self._rows.get(key)
                if row is None:
                    row = self._rows[key] = len(self._lattices)
                    self._lattices.append(self.field_for(key[0], layer=key[1])._ensure_lattice())
                rows[i] = row
            self._row_sets[set_key] = rows
        if self._stack is None or len(self._stack) < len(self._lattices):
            self._stack = np.stack(self._lattices)
        return rows

    def values_db(self, ap_ids, layers, x, y) -> np.ndarray:
        """Field ``(ap_ids[i], layers[i])``'s value at ``(x, y)``, for all i.

        Every field shares the domain, so the cell and the bilinear
        weights are computed once and each corner is one gather from
        the lattice stack; entry i equals that field's ``value_db``.
        ``x`` and ``y`` may also be ``(n_points, 1)`` arrays, giving
        ``(n_points, len(ap_ids))`` values, each row as for its point.
        """
        ap_ids = np.asarray(ap_ids, dtype=np.int64)
        layers = np.asarray(layers, dtype=np.int64)
        rows = self._stack_rows(ap_ids, layers)
        grid = self._fields[(int(ap_ids[0]), int(layers[0]))]._grid(x, y)
        return self.sigma_db * _bilinear(self._stack, *grid, rows=rows)

    def shadow_db_many(
        self,
        ap_ids,
        generations,
        x: float,
        y: float,
        *,
        furniture_weight: float = 0.0,
    ) -> np.ndarray:
        """Total shadowing at (x, y) for each AP ``ap_ids[i]`` at
        ``generations[i]``.

        ``generation`` shifts the base layer seed so a *replaced* AP gets a
        brand-new spatial pattern. ``furniture_weight`` in [0, 1] blends in
        the furniture layer: total variance is kept at sigma^2 by mixing
        ``sqrt(1-w^2) * base + w * furniture``.
        """
        base = np.asarray(generations, dtype=np.int64) * 100
        furniture = (
            self.values_db(ap_ids, base + 1, x, y) if furniture_weight > 0.0 else None
        )
        return self.blend(self.values_db(ap_ids, base, x, y), furniture, furniture_weight)

    @staticmethod
    def blend(base_db: np.ndarray, furniture_db, furniture_weight: float) -> np.ndarray:
        """``sqrt(1-w^2) * base + w * furniture`` for weight ``w`` in [0, 1].

        ``furniture_db`` may be None when ``w`` is 0: the furniture term
        is only added for a positive weight.
        """
        if not 0.0 <= furniture_weight <= 1.0:
            raise ValueError("furniture_weight must be in [0, 1]")
        value = float(np.sqrt(1.0 - furniture_weight**2)) * base_db
        if furniture_weight > 0.0:
            value += furniture_weight * furniture_db
        return value

    def shadow_db(
        self, ap_id: int, x: float, y: float, *, furniture_weight: float = 0.0, generation: int = 0
    ) -> float:
        """Total shadowing at (x, y) for one AP (see :meth:`shadow_db_many`)."""
        return float(
            self.shadow_db_many(
                [ap_id], [generation], x, y, furniture_weight=furniture_weight
            )[0]
        )

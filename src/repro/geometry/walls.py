"""Wall segments and line-of-sight queries.

Walls matter to the radio substrate through the multi-wall path-loss model:
each wall crossed between an AP and a receiver adds a material-dependent
attenuation. The paper's three environments differ exactly here — the UJI
library floor is a wide-open area, while the Office/Basement paths run
through corridors flanked by offices and metal-heavy labs (Sec. V.A).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np

from .point import PointLike, as_point, as_points

# Default attenuation per wall crossing, in dB, loosely following the
# COST 231 multi-wall model material classes.
MATERIAL_LOSS_DB = {
    "drywall": 3.0,
    "brick": 6.0,
    "concrete": 10.0,
    "metal": 15.0,
    "glass": 2.0,
}


@dataclass(frozen=True)
class Wall:
    """A wall segment from ``a`` to ``b`` with a material attenuation."""

    a: tuple[float, float]
    b: tuple[float, float]
    material: str = "drywall"

    def __post_init__(self) -> None:
        if self.material not in MATERIAL_LOSS_DB:
            known = ", ".join(sorted(MATERIAL_LOSS_DB))
            raise ValueError(f"unknown material {self.material!r}; known: {known}")
        if tuple(self.a) == tuple(self.b):
            raise ValueError("wall endpoints must differ")

    @property
    def loss_db(self) -> float:
        """Attenuation added per crossing of this wall, in dB."""
        return MATERIAL_LOSS_DB[self.material]

    @property
    def length(self) -> float:
        ax, ay = self.a
        bx, by = self.b
        return float(np.hypot(bx - ax, by - ay))


def _orient(p: np.ndarray, q: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Signed area orientation of the triple (p, q, r), broadcast over
    leading axes (the last axis holds x, y)."""
    return (q[..., 0] - p[..., 0]) * (r[..., 1] - p[..., 1]) - (
        q[..., 1] - p[..., 1]
    ) * (r[..., 0] - p[..., 0])


def segments_intersect(
    p1: PointLike, p2: PointLike, q1: PointLike, q2: PointLike
) -> bool:
    """True when segment p1-p2 properly intersects segment q1-q2.

    Touching at endpoints counts as an intersection; collinear overlap is
    handled by bounding-box checks. Robust enough for wall counting where
    degenerate grazing contacts are rare and harmless either way.
    """
    p1 = as_point(p1)
    p2 = as_point(p2)
    q1 = as_point(q1)
    q2 = as_point(q2)
    d1 = _orient(q1, q2, p1)
    d2 = _orient(q1, q2, p2)
    d3 = _orient(p1, p2, q1)
    d4 = _orient(p1, p2, q2)

    if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)) and d1 != 0 and d2 != 0:
        return True

    def on_box(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> bool:
        return bool(
            min(a[0], b[0]) - 1e-12 <= c[0] <= max(a[0], b[0]) + 1e-12
            and min(a[1], b[1]) - 1e-12 <= c[1] <= max(a[1], b[1]) + 1e-12
        )

    if d1 == 0 and on_box(q1, q2, p1):
        return True
    if d2 == 0 and on_box(q1, q2, p2):
        return True
    if d3 == 0 and on_box(p1, p2, q1):
        return True
    return d4 == 0 and on_box(p1, p2, q2)


def count_wall_crossings(
    src: PointLike, dst: PointLike, walls: Sequence[Wall]
) -> int:
    """Number of walls the straight src->dst ray crosses."""
    return sum(
        1 for w in walls if segments_intersect(src, dst, np.array(w.a), np.array(w.b))
    )


def wall_attenuation_db(
    src: PointLike, dst: PointLike, walls: Sequence[Wall]
) -> float:
    """Total multi-wall attenuation (dB) along the straight src->dst ray."""
    return sum(
        w.loss_db
        for w in walls
        if segments_intersect(src, dst, np.array(w.a), np.array(w.b))
    )


def _on_box(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """``c`` inside the a-b bounding box (1e-12 slack), broadcast."""
    lo = np.minimum(a, b) - 1e-12
    hi = np.maximum(a, b) + 1e-12
    return ((lo <= c) & (c <= hi)).all(axis=-1)


def _crossings(
    p1: np.ndarray, p2: np.ndarray, q1: np.ndarray, q2: np.ndarray
) -> np.ndarray:
    """:func:`segments_intersect` evaluated over broadcast point arrays."""
    d1 = _orient(q1, q2, p1)
    d2 = _orient(q1, q2, p2)
    d3 = _orient(p1, p2, q1)
    d4 = _orient(p1, p2, q2)
    hit = ((d1 > 0) != (d2 > 0)) & ((d3 > 0) != (d4 > 0)) & (d1 != 0) & (d2 != 0)
    hit |= (d1 == 0) & _on_box(q1, q2, p1)
    hit |= (d2 == 0) & _on_box(q1, q2, p2)
    hit |= (d3 == 0) & _on_box(p1, p2, q1)
    hit |= (d4 == 0) & _on_box(p1, p2, q2)
    return hit


@dataclass
class WallSet:
    """A collection of walls with an array attenuation query.

    Fingerprint generation asks for the attenuation from every AP to one
    receiver point; :meth:`attenuation_from_db` answers that for all
    sources at once against endpoint arrays stacked on first use (and
    again after :meth:`add`/:meth:`extend`).
    """

    walls: list[Wall] = field(default_factory=list)
    _arrays: tuple | None = field(default=None, repr=False, compare=False)

    def add(self, wall: Wall) -> None:
        self.walls.append(wall)
        self._arrays = None

    def extend(self, walls: Iterable[Wall]) -> None:
        self.walls.extend(walls)
        self._arrays = None

    def attenuation_from_db(self, srcs: PointLike, dst: PointLike) -> np.ndarray:
        """Multi-wall attenuation (dB) from each row of ``srcs`` to ``dst``.

        Equal, byte for byte, to :func:`wall_attenuation_db` per source:
        the same orientation products and 1e-12 box rules as
        :func:`segments_intersect` as ``(n_sources, n_walls)`` arrays,
        and crossed losses accumulated in wall order as ``sum`` does.
        """
        p1 = as_points(srcs)[:, None, :]
        p2 = as_point(dst)
        if self._arrays is None:
            self._arrays = (
                np.array([w.a for w in self.walls], dtype=np.float64).reshape(-1, 2),
                np.array([w.b for w in self.walls], dtype=np.float64).reshape(-1, 2),
                np.array([w.loss_db for w in self.walls], dtype=np.float64),
            )
        q1, q2, loss = self._arrays
        if loss.size == 0:
            return np.zeros(p1.shape[0])
        crossed = np.where(_crossings(p1, p2, q1, q2), loss, 0.0)
        return np.add.accumulate(crossed, axis=1)[:, -1]

    def attenuation_db(self, src: PointLike, dst: PointLike) -> float:
        """Multi-wall attenuation (dB) along the straight src->dst ray."""
        return float(self.attenuation_from_db(as_point(src)[None, :], dst)[0])

    def __len__(self) -> int:
        return len(self.walls)

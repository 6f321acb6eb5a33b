"""The array wall query against the scalar reference, byte for byte.

``WallSet.attenuation_from_db`` (many sources to one point) must return
exactly what :func:`wall_attenuation_db` — ``segments_intersect`` per
wall, losses summed in wall order — returns for each source, including
the degenerate contacts a grid of small integers produces on purpose:
shared endpoints, collinear overlap and a receiver lying on a wall.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.geometry import MATERIAL_LOSS_DB, Wall, WallSet, wall_attenuation_db

MATERIALS = sorted(MATERIAL_LOSS_DB)

# Small integer (and half-integer) grids make contacts common; the float
# strategy covers generic positions.
grid_coord = st.integers(-2, 4).map(lambda v: v / 2)
float_coord = st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False)
coord = st.one_of(grid_coord, float_coord)
point = st.tuples(coord, coord)


@st.composite
def walls(draw):
    out = []
    for _ in range(draw(st.integers(0, 8))):
        a = draw(point)
        b = draw(point.filter(lambda p, a=a: p != a))
        out.append(Wall(a, b, draw(st.sampled_from(MATERIALS))))
    return out


def _assert_matches_reference(wall_list, sources, dst):
    got = WallSet(list(wall_list)).attenuation_from_db(np.array(sources), dst)
    assert got.shape == (len(sources),)
    for i, src in enumerate(sources):
        ref = np.float64(wall_attenuation_db(src, dst, wall_list))
        assert got[i].tobytes() == ref.tobytes(), (src, dst, got[i], ref)


class TestArrayWallQuery:
    @settings(max_examples=200, deadline=None)
    @given(
        wall_list=walls(),
        sources=st.lists(point, min_size=1, max_size=6),
        dst=point,
    )
    # Shared endpoint: the ray ends where two walls meet.
    @example(
        wall_list=[Wall((1, 0), (1, 2)), Wall((1, 2), (3, 2), "metal")],
        sources=[(0.0, 2.0), (1.0, 2.0)],
        dst=(1.0, 2.0),
    )
    # Collinear overlap: the ray runs along a wall.
    @example(
        wall_list=[Wall((0, 0), (2, 0), "brick"), Wall((3, 0), (4, 0))],
        sources=[(-1.0, 0.0), (1.0, 0.0), (5.0, 0.0)],
        dst=(1.5, 0.0),
    )
    # Receiver on a wall, sources on both sides and on its extension.
    @example(
        wall_list=[Wall((0, -1), (0, 1), "concrete")],
        sources=[(-2.0, 0.0), (2.0, 0.5), (0.0, 3.0), (0.0, 0.5)],
        dst=(0.0, 0.0),
    )
    def test_equals_scalar_reference(self, wall_list, sources, dst):
        _assert_matches_reference(wall_list, sources, dst)

    def test_no_walls_is_zero(self):
        got = WallSet([]).attenuation_from_db(np.array([[0.0, 0.0], [1.0, 1.0]]), (2, 2))
        np.testing.assert_array_equal(got, [0.0, 0.0])

    def test_add_refreshes_endpoint_arrays(self):
        ws = WallSet([Wall((1, -1), (1, 1), "brick")])
        src = np.array([[0.0, 0.0]])
        assert ws.attenuation_from_db(src, (2, 0))[0] == MATERIAL_LOSS_DB["brick"]
        ws.extend([Wall((1.5, -1), (1.5, 1), "glass")])
        expected = MATERIAL_LOSS_DB["brick"] + MATERIAL_LOSS_DB["glass"]
        assert ws.attenuation_from_db(src, (2, 0))[0] == expected

    def test_scalar_query_delegates(self):
        wall_list = [Wall((1, -1), (1, 1), "metal"), Wall((2, -1), (2, 1))]
        ws = WallSet(wall_list)
        assert ws.attenuation_db((0, 0), (3, 0)) == wall_attenuation_db(
            (0, 0), (3, 0), wall_list
        )

"""The batch floor vote and floor snap against their per-row originals.

``FloorClassifier.predict`` counts every row's K-nearest floor votes in
one vectorized pass over cached reference norms. The oracle below is
the per-row ``np.unique`` + ``argmax`` vote it replaced (ties go to the
lowest floor), with the reference norms recomputed per call. Both build
``d2`` from the same expression, so the floors must match exactly,
including on exact distance and vote ties.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.preprocessing import normalize_rssi
from repro.multifloor import FloorClassifier, nearest_fitted_floor


def oracle_floors(rssi, floors, k, queries):
    refs = normalize_rssi(rssi)
    q = normalize_rssi(np.atleast_2d(queries))
    d2 = (
        (q * q).sum(axis=1)[:, None]
        + (refs * refs).sum(axis=1)[None, :]
        - 2.0 * q @ refs.T
    )
    k = min(k, refs.shape[0])
    idx = np.argpartition(d2, k - 1, axis=1)[:, :k]
    out = np.empty(q.shape[0], dtype=np.int64)
    for i in range(q.shape[0]):
        values, counts = np.unique(floors[idx[i]], return_counts=True)
        out[i] = values[counts.argmax()]
    return out


def oracle_snap(predicted, fitted):
    out = np.empty(len(predicted), dtype=np.int64)
    for i, f in enumerate(predicted):
        out[i] = f if f in fitted else fitted[np.abs(fitted - f).argmin()]
    return out


# A coarse dBm grid makes duplicate references and exact distance ties
# common; -100 and below is silence.
DBM = st.sampled_from([-110.0, -100.0, -85.0, -70.0, -55.0, -40.0])


@st.composite
def vote_cases(draw):
    n_refs = draw(st.integers(1, 24))
    n_aps = draw(st.integers(1, 6))
    rssi = draw(hnp.arrays(np.float64, (n_refs, n_aps), elements=DBM))
    floors = draw(
        hnp.arrays(np.int64, n_refs, elements=st.integers(-2, 5))
    )
    k = draw(st.integers(1, n_refs + 4))  # k > n_refs clamps
    n_queries = draw(st.integers(1, 8))
    queries = draw(hnp.arrays(np.float64, (n_queries, n_aps), elements=DBM))
    # Some queries sit exactly on a reference: distance-0 ties.
    on_ref = draw(st.lists(st.integers(0, n_refs - 1), max_size=3))
    queries = np.vstack([queries, rssi[on_ref]]) if on_ref else queries
    return rssi, floors, k, queries


@settings(max_examples=300, deadline=None)
@given(vote_cases())
def test_batch_vote_matches_per_row_vote(case):
    rssi, floors, k, queries = case
    got = FloorClassifier(k=k).fit(rssi, floors).predict(queries)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, oracle_floors(rssi, floors, k, queries))


@settings(max_examples=100, deadline=None)
@given(
    pair=st.lists(st.integers(-3, 9), min_size=2, max_size=2, unique=True),
    copies=st.integers(1, 3),
    n_far=st.integers(0, 6),
    far_floor=st.integers(-3, 9),
)
def test_exact_vote_tie_goes_to_lowest_floor(pair, copies, n_far, far_floor):
    # `copies` references of each of two floors at one point, the rest
    # far away: with k = 2 * copies the vote ties exactly.
    here = np.array([-40.0, -55.0, -70.0])
    far = np.array([-100.0, -100.0, -100.0])
    rssi = np.vstack([here] * (2 * copies) + [far] * n_far)
    floors = np.array(pair * copies + [far_floor] * n_far, dtype=np.int64)
    clf = FloorClassifier(k=2 * copies).fit(rssi, floors)
    got = clf.predict(here)
    assert int(got[0]) == min(pair)
    np.testing.assert_array_equal(
        got, oracle_floors(rssi, floors, 2 * copies, here)
    )


def test_missing_floor_equidistant_from_two_fitted_snaps_lower():
    np.testing.assert_array_equal(
        nearest_fitted_floor(np.array([1, 0, 2, 3, -1]), [0, 2]),
        [0, 0, 2, 2, 0],
    )
    np.testing.assert_array_equal(
        nearest_fitted_floor(np.array([2]), [-1, 1, 3, 5]), [1]
    )


@settings(max_examples=200, deadline=None)
@given(
    fitted=st.lists(st.integers(-4, 8), min_size=1, max_size=5, unique=True),
    predicted=st.lists(st.integers(-6, 10), min_size=1, max_size=12),
)
def test_snap_matches_per_row_loop(fitted, predicted):
    fitted = np.array(sorted(fitted), dtype=np.int64)
    predicted = np.array(predicted, dtype=np.int64)
    got = nearest_fitted_floor(predicted, fitted)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, oracle_snap(predicted, fitted))

"""Property-based checks (hypothesis) for the bucketed temporal joins:
random keyed event/interval sets compared against brute-force pandas — the
bucketed shuffle must be invisible in the result for ANY key/time layout."""

import numpy as np
import pandas as pd
from hypothesis import given, settings
from hypothesis import strategies as st

import ray.data

from zeeklog_ray.ops.sessionize import asof_join, range_join

_BASE = pd.Timestamp("2024-01-01")

_key = st.sampled_from(["a", "b", "c", "d"])
_minute = st.integers(0, 300)

_left_rows = st.lists(st.tuples(_key, _minute), min_size=1, max_size=12)
_right_rows = st.lists(st.tuples(_key, _minute, _minute), min_size=0,
                       max_size=10)


def _ts(m):
    return _BASE + pd.Timedelta(minutes=m)


@settings(max_examples=20, deadline=None)
@given(_left_rows, st.lists(st.tuples(_key, _minute), max_size=10),
       st.sampled_from([1, 16]))
def test_asof_join_matches_bruteforce(ray_session, in_blocks, lrows, rrows,
                                      nb):
    left = pd.DataFrame({"user_id": [k for k, _ in lrows],
                         "ts": [_ts(m) for _, m in lrows],
                         "event_id": range(len(lrows))})
    right = pd.DataFrame({"user_id": [k for k, _ in rrows],
                          "ts": [_ts(m) for _, m in rrows],
                          "val": [10 * m for _, m in rrows]})
    got = asof_join(in_blocks(left, nb), in_blocks(right, nb),
                    key="user_id", ts="ts", right_cols=["val"]).to_pandas() \
        .sort_values("event_id").reset_index(drop=True)
    exp_vals = []
    for k, m in lrows:
        cand = [(rm, v) for (rk, rm), v in
                zip(rrows, [10 * rm for _, rm in rrows])
                if rk == k and rm <= m]
        exp_vals.append(max(cand)[1] if cand else None)
    assert len(got) == len(lrows)
    got_vals = [None if pd.isna(v) else int(v) for v in got["val"]]
    assert got_vals == exp_vals


@settings(max_examples=20, deadline=None)
@given(_left_rows, _right_rows, st.sampled_from([1, 16]))
def test_range_join_matches_bruteforce(ray_session, in_blocks, lrows, rrows,
                                       nb):
    left = pd.DataFrame({"user_id": [k for k, _ in lrows],
                         "ts": [_ts(m) for _, m in lrows],
                         "event_id": range(len(lrows))})
    right = pd.DataFrame({"user_id": [k for k, *_ in rrows],
                          "t0": [_ts(min(x, y)) for _, x, y in rrows],
                          "t1": [_ts(max(x, y)) for _, x, y in rrows],
                          "tag": range(len(rrows))})
    got = range_join(in_blocks(left, nb), in_blocks(right, nb),
                     key="user_id", ts="ts", start="t0", end="t1",
                     right_cols=["tag"]).to_pandas()
    exp = {(e, t) for (lk, m), e in zip(lrows, range(len(lrows)))
           for (rk, x, y), t in zip(rrows, range(len(rrows)))
           if lk == rk and min(x, y) <= m <= max(x, y)}
    if not exp:
        # an all-empty Dataset loses its column schema in to_pandas()
        # (known Ray quirk, handled the same way in ops/dedup.py)
        assert len(got) == 0
        return
    assert set(zip(got["event_id"], got["tag"])) == exp

"""Live-enrichment seam: LiveLookupEnricher — resolver callable + bounded
retries + memoization, per task as a task stage and per actor in a pool
(the designed plug-in point for the reference's HTTP ip2location client,
ip2location.rs:174-222)."""

import pandas as pd
import pyarrow as pa
import pytest
import ray.data

from zeeklog_ray.enrich import GEO_FIELDS, LiveLookupEnricher, build_geo_dict

_GEO = build_geo_dict()
_HIT = sorted(_GEO)[0]


def _batch(ips):
    return pa.table({"id_orig_h": pa.array(ips, type=pa.string())})


def test_retry_recovers_from_transient_failure():
    calls = []

    def resolver(ip):
        calls.append(ip)
        if len(calls) == 1:
            raise TimeoutError("flaky")
        return _GEO.get(ip)

    enr = LiveLookupEnricher(resolver, max_retries=2, backoff_s=0.0)
    out = enr(_batch([_HIT, _HIT]))
    assert calls == [_HIT, _HIT]            # retried once, then memoized
    assert out["geo_country_code"].to_pylist() == \
        [_GEO[_HIT]["geo_country_code"]] * 2


def test_bounded_retries_then_raises_with_cause():
    def resolver(ip):
        raise ConnectionError("down")

    enr = LiveLookupEnricher(resolver, max_retries=2, backoff_s=0.0)
    with pytest.raises(RuntimeError, match="after 3 attempts") as ei:
        enr(_batch([_HIT]))
    assert isinstance(ei.value.__cause__, ConnectionError)


def test_miss_is_memoized_and_left_outer_null():
    calls = []

    def resolver(ip):
        calls.append(ip)
        return None                          # a genuine miss

    enr = LiveLookupEnricher(resolver, max_retries=0)
    out = enr(_batch(["203.0.113.9", "203.0.113.9"]))
    assert calls == ["203.0.113.9"]          # second row hits the cache
    assert out["geo_country_code"].null_count == 2
    assert set(GEO_FIELDS) <= set(out.column_names)


def test_actor_pool_map_batches(ray_session):
    """The seam runs as a real map_batches actor stage with a flaky
    resolver — retries keep the job alive.  The resolver is a LOCAL class
    (cloudpickle serializes it by value; a test-module-level function is
    unimportable inside Ray workers and would hang the actor pool)."""

    class FlakyResolver:
        def __init__(self):
            self.seen: set = set()

        def __call__(self, ip):
            if ip not in self.seen:           # first call per actor fails
                self.seen.add(ip)
                raise ConnectionError(f"transient failure for {ip}")
            from zeeklog_ray.enrich import build_geo_dict

            return build_geo_dict().get(ip)

    df = pd.DataFrame({"id_orig_h": [_HIT] * 8})
    out = ray.data.from_pandas(df).map_batches(
        LiveLookupEnricher, batch_format="pyarrow", batch_size=None,
        fn_constructor_kwargs={"resolver": FlakyResolver(),
                               "max_retries": 2, "backoff_s": 0.0},
        concurrency=1).to_pandas()
    assert (out["geo_country_code"] == _GEO[_HIT]["geo_country_code"]).all()


def test_task_stage_map_batches_memo_lasts_one_task(ray_session, tmp_path):
    """The documented form: a callable instance mapped as a task stage.
    A flaky resolver still recovers, and each task resolves the hot IP
    once: the memo lasts one task (4 blocks, one task each, 2 one-row
    batches per task, so 4 lookups for 8 rows)."""
    log = str(tmp_path / "lookups")

    class FlakyLoggingResolver:
        def __init__(self):
            self.seen: set = set()

        def __call__(self, ip):
            if ip not in self.seen:           # first call per copy fails
                self.seen.add(ip)
                raise ConnectionError(f"transient failure for {ip}")
            from zeeklog_ray.enrich import build_geo_dict

            with open(log, "a") as f:
                f.write(ip + "\n")
            return build_geo_dict().get(ip)

    blocks = [pd.DataFrame({"id_orig_h": [_HIT] * 2}) for _ in range(4)]
    out = ray.data.from_pandas(blocks).map_batches(
        LiveLookupEnricher(FlakyLoggingResolver(), max_retries=2,
                           backoff_s=0.0),
        batch_format="pyarrow", batch_size=1).to_pandas()
    assert len(out) == 8
    assert (out["geo_country_code"] == _GEO[_HIT]["geo_country_code"]).all()
    with open(log) as f:
        assert f.read().split() == [_HIT] * 4


def test_ip_to_int_and_range_lookup(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data

    from zeeklog_ray.enrich import (
        broadcast_range_lookup,
        build_geo_ranges,
        ip_to_int,
    )

    assert ip_to_int(pd.Series(["0.0.0.1", "1.0.0.0", "255.255.255.255"])) \
        .tolist() == [1, 16_777_216, 4_294_967_295]

    ranges = pd.DataFrame({
        "lo": [100, 300], "hi": [199, 399],
        "cc": ["AA", "BB"],
    })
    df = pd.DataFrame({"ip": ["0.0.0.150", "0.0.1.44", None, "0.0.0.250"]})
    # 0.0.1.44 = 300 → BB boundary hit; 250 falls between ranges → miss
    out = broadcast_range_lookup(ray.data.from_pandas(df), "ip", ranges,
                                 ["cc"]).to_pandas()
    assert out["cc"].tolist() == ["AA", "BB", None, None]

    with pytest.raises(ValueError, match="overlap"):
        broadcast_range_lookup(
            ray.data.from_pandas(df), "ip",
            pd.DataFrame({"lo": [0, 50], "hi": [60, 99], "cc": ["x", "y"]}),
            ["cc"]).to_pandas()

    r = build_geo_ranges()
    assert (r["lo"].to_numpy()[1:] > r["hi"].to_numpy()[:-1]).all()
    assert (r["hi"] - r["lo"] == 255).all()


def test_ip_to_int_malformed_values_miss_not_crash(ray_session):
    """Malformed/non-IPv4 values (empty, hostname, IPv6, 5-octet,
    non-numeric octet) map to the -1 miss sentinel instead of raising,
    honoring the silent-miss contract (ADVICE r4); valid quads in the
    same batch still resolve."""
    import numpy as np
    import pandas as pd
    import ray.data

    from zeeklog_ray.enrich import broadcast_range_lookup, ip_to_int

    vals = pd.Series(["1.2.3.4", "", "example.com", "::1",
                      "1.2.3.4.5", "1.2.x.4", "10.0.0"])
    nums = ip_to_int(vals)
    assert nums[0] == (1 << 24) + (2 << 16) + (3 << 8) + 4
    assert (nums[1:] == -1).all()

    ranges = pd.DataFrame({"lo": [np.int64(16_909_060)],
                           "hi": [np.int64(16_909_069)],
                           "cc": ["AA"]})
    df = pd.DataFrame({"ip": vals.tolist() + [None]})
    out = broadcast_range_lookup(ray.data.from_pandas(df), "ip", ranges,
                                 ["cc"]).to_pandas()
    assert out["cc"].tolist() == ["AA"] + [None] * 7

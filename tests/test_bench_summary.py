"""bench.py's summary line: the headline of a full record, short enough
to survive a capture that keeps only the tail of stdout."""
import json

import bench


def _record(scaling: bool) -> dict:
    rec = {
        "metric": "flagship parse→enrich→route→aggregate wall time",
        "value": 12.345, "unit": "sec",
        # the long part a tail capture cuts: ~170 query timings
        "queries": {f"query_{i:03d}": 1.234 for i in range(170)},
        "scale_minmax": {f"scale_{i:03d}": [1.0, 2.0] for i in range(40)},
        "sf": "0.1", "num_cpus": 32, "host_cpus": 32,
        "sequences": 600_000, "tokens": 123_456_789,
        "seq_per_s": 48602.3, "tok_per_s": 10000543.2,
    }
    if scaling:
        rec["scaling"] = {"metric": "scaling efficiency", "sec_lo": 40.1,
                          "sec_hi": 11.2, "scaling_efficiency": 0.895}
    return rec


def test_summary_line_round_trips_within_limit():
    for scaling in (False, True):
        rec = _record(scaling)
        line = bench.summary_line(rec)
        assert "\n" not in line
        assert len(line.encode()) <= bench.SUMMARY_MAX_BYTES
        got = json.loads(line)
        exp = {k: rec[k] for k in ("value", "seq_per_s", "tok_per_s", "sf",
                                   "num_cpus", "host_cpus")}
        if scaling:
            exp["scaling_efficiency"] = 0.895
        assert got == exp


def test_find_record_skips_the_summary_line():
    """run_scaling reads its child's full record by key, not as the last
    line, which is now the summary."""
    rec = _record(False)
    out = "\n".join(["warming up", json.dumps(rec), bench.summary_line(rec)])
    assert bench._find_record(out + "\n", "queries") == rec

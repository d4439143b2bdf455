"""Deterministic tokenized-corpus generator (the engine's test/bench input).

The reference's golden corpus is an encrypted tarball absent from its checkout
(``/root/reference/.MISSING_LARGE_BLOBS``, ``decrypt.sh``), so the input table
is synthesized deterministically per FIXTURES.md: a Parquet table

    (doc_id: string, tokens: list<int32>, n_tok: int32, source: string)

where ``tokens`` is the UTF-8 byte sequence (one int32 per byte) of a single
Zeek-style TSV data line whose fields follow the per-source registry in
``sources.py`` — i.e. exactly one body line of a Zeek log, the unit the
reference parses by splitting on the separator and zipping with ``#fields``
(``/root/reference/src/zeek/zeek_log.rs:179-188``).

Layout: hive-partitioned by date (``date=YYYY-MM-DD/part-NNNNN.parquet``),
mirroring the reference's date-directory partitioning
(``zeek_log.rs:372-383``) so date-range queries prune fragments at the read.

Determinism: fixed seed (42), no wall-clock, no network.  The golden
behavioral IPs from the reference's tests (``tests/zeek_search.rs:189-248``)
are planted: ``43.134.231.178`` occurs ONLY on 2024-07-02; ``91.92.245.221``
occurs on 2024-07-02.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import zlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from zeeklog_ray.sources import CONN_PREFIXED, KNOWN_SOURCES, SEPARATOR

DATES = ("2024-07-02", "2024-07-03", "2024-07-04")
_DATE_EPOCH = {"2024-07-02": 1719878400, "2024-07-03": 1719964800, "2024-07-04": 1720051200}

# Source mix, intentionally skewed (conn-heavy) to exercise salted
# aggregation (FIXTURES.md §1); every one of the 28 registry protocols is
# present so the router exercises all sinks, plus 'bogus' → quarantine.
_HEAD_MIX = [("conn", 0.62), ("dns", 0.10), ("http", 0.07), ("weird", 0.03),
             ("bogus", 0.001)]
_TAIL_SOURCES = tuple(s for s in KNOWN_SOURCES
                      if s not in ("conn", "dns", "http", "weird"))
SOURCE_MIX = _HEAD_MIX + [
    (s, (1.0 - sum(p for _, p in _HEAD_MIX)) / len(_TAIL_SOURCES))
    for s in _TAIL_SOURCES
]

GOLDEN_IP_0702_ONLY = "43.134.231.178"  # present only on 2024-07-02
GOLDEN_IP_0702 = "91.92.245.221"        # present on 2024-07-02

# 32-address pool (FIXTURES.md §3); indices 0 and 1 are the golden IPs.
IP_POOL = [GOLDEN_IP_0702_ONLY, GOLDEN_IP_0702] + [
    f"10.{i}.{(7 * i + 3) % 256}.{(13 * i + 5) % 256}" for i in range(2, 17)
] + [f"192.168.{i}.{(11 * i + 1) % 256}" for i in range(17, 32)]
assert len(IP_POOL) == 32

_RESP_PORTS = ["53", "80", "443", "22", "123"]
_PROTOS = ["tcp", "udp"]
_SERVICES = ["dns", "http", "ssl", "ssh", "-"]
_QTYPES = ["A", "AAAA", "PTR", "MX", "TXT"]
_RCODES = ["NOERROR", "NXDOMAIN", "SERVFAIL"]
_METHODS = ["GET", "POST", "HEAD", "PUT"]
_STATUS = ["200", "301", "404", "500"]
_AGENTS = ["Mozilla/5.0 (X11; Linux x86_64)", "curl/8.0.1", "python-requests/2.31", "-"]
_WEIRD_NAMES = ["bad_TCP_checksum", "dns_unmatched_reply", "active_connection_reuse",
                "possible_split_routing", "data_before_established"]


# ---------------------------------------------------------------------------
# Per-source tail-field generators: the values AFTER the prefix (connection
# 6-tuple for CONN_PREFIXED sources, bare ts otherwise).  Each generator is
# (rng, n) -> object ndarray of strings; every source draws from its OWN
# seeded rng so the sequence is deterministic in (n_rows, seed) and the work
# is proportional to that source's row count.
# ---------------------------------------------------------------------------


def _ch(pool: list[str]):
    return lambda rng, n: np.asarray(pool, dtype=object)[rng.integers(0, len(pool), n)]


def _fi(pattern: str, lo: int, hi: int):
    return lambda rng, n: np.char.mod(pattern, rng.integers(lo, hi, n)).astype(object)


def _ff(pattern: str, lo: float, hi: float):
    return lambda rng, n: np.char.mod(pattern, rng.uniform(lo, hi, n)).astype(object)


def _tf():
    return lambda rng, n: np.where(rng.random(n) < 0.5, "T", "F").astype(object)


def _ip():
    """Address drawn from the shared 32-IP pool (host/file logs)."""
    return lambda rng, n: np.asarray(IP_POOL, dtype=object)[rng.integers(2, 32, n)]


TAIL_SPECS: dict[str, list] = {
    "conn": [_ch(_PROTOS), _ch(_SERVICES), _ff("%.4f", 0, 300),
             _fi("%d", 0, 1_000_000)],
    "dns": [_fi("host%d.example.com", 0, 500), _ch(_QTYPES), _ch(_RCODES)],
    "http": [_ch(_METHODS), _fi("site%d.example.com", 0, 200),
             _fi("/path/%d", 0, 10_000), _ch(_STATUS), _ch(_AGENTS)],
    "weird": [_ch(_WEIRD_NAMES), _tf()],
    "ssl": [_ch(["TLSv12", "TLSv13", "TLSv10"]),
            _ch(["TLS_AES_128_GCM_SHA256", "TLS_AES_256_GCM_SHA384",
                 "TLS_CHACHA20_POLY1305_SHA256"]),
            _fi("site%d.example.com", 0, 200), _tf()],
    "ssh": [_ch(["2"]), _tf(), _fi("SSH-2.0-OpenSSH_%d.4", 7, 10),
            _ch(["SSH-2.0-OpenSSH_8.9", "SSH-2.0-dropbear_2022.83"])],
    "ftp": [_ch(["anonymous", "ftp", "admin"]),
            _ch(["RETR", "STOR", "LIST", "PASV"]), _fi("/file/%d", 0, 5000),
            _ch(["226", "230", "550", "331"])],
    "smtp": [_fi("user%d@example.com", 0, 400), _fi("user%d@example.org", 0, 400),
             _fi("subject %d", 0, 10_000)],
    "dhcp": [_fi("00:16:3e:5e:00:%02x", 0, 256), _fi("host%d", 0, 500),
             _fi("192.168.100.%d", 1, 255), _fi("%d", 600, 86400)],
    "ntp": [_ch(["3", "4"]), _ch(["1", "2", "3", "4", "5"]),
            _ch(["1", "2", "3"])],
    "smb": [_ch(["TREE_CONNECT", "READ", "WRITE", "CLOSE"]),
            _fi("\\\\server%d\\share", 0, 50), _ch(["IPC", "DISK"])],
    "irc": [_fi("nick%d", 0, 300), _fi("user%d", 0, 300),
            _ch(["JOIN", "PRIVMSG", "NICK", "PART"])],
    "rdp": [_fi("mstshash=user%d", 0, 300), _ch(["success", "failure"]),
            _ch(["HYBRID", "RDP", "SSL"])],
    "ldap": [_fi("%d", 1, 100_000), _ch(["bind", "search", "modify", "unbind"]),
             _ch(["success", "invalidCredentials", "noSuchObject"])],
    "quic": [_ch(["1", "draft-29"]), _fi("site%d.example.com", 0, 200),
             _fi("F%09x", 0, 2**36)],
    "tunnel": [_ch(["Tunnel::GRE", "Tunnel::IP", "Tunnel::AYIYA"]),
               _ch(["DISCOVER", "CLOSE"])],
    "dpd": [_ch(_PROTOS), _ch(["HTTP", "SSL", "SSH", "DNS"]),
            _fi("invalid header at byte %d", 0, 1500)],
    "snmp": [_ff("%.4f", 0, 60), _ch(["1", "2c", "3"]),
             _ch(["public", "private"])],
    "sip": [_ch(["INVITE", "REGISTER", "OPTIONS", "BYE"]),
            _fi("sip:user%d@example.com", 0, 300),
            _fi("<sip:user%d@example.org>", 0, 300),
            _ch(["200", "180", "404", "486"])],
    "notice": [_ch(["Scan::Port_Scan", "SSL::Invalid_Server_Cert",
                    "Weird::Activity"]), _fi("notice message %d", 0, 10_000),
               _ch(["Notice::ACTION_LOG", "Notice::ACTION_EMAIL"])],
    # ts-prefixed host/file logs (address fields draw from the shared IP
    # pool, excluding the golden IPs so their date invariants stay exact)
    "files": [_fi("F%09x", 0, 2**36), _ip(), _ip(),
              _ch(["text/plain", "application/json", "image/png",
                   "application/octet-stream"]),
              _fi("%032x", 0, 2**63), _fi("%040x", 0, 2**63),
              _fi("%064x", 0, 2**63), _fi("%d", 0, 10_000_000)],
    "x509": [_fi("%064x", 0, 2**63), _ch(["3"]),
             _fi("CN=site%d.example.com", 0, 200),
             _ch(["CN=Example CA", "CN=Other CA"])],
    "pe": [_fi("F%09x", 0, 2**36), _ch(["AMD64", "I386"]),
           _ch(["Windows 10", "Windows 7"]),
           _ch(["WINDOWS_GUI", "WINDOWS_CUI"])],
    "known": [_ip(), _ch(_RESP_PORTS), _ch(["dns", "http", "ssl", "ssh"])],
    "software": [_ip(), _ch(["HTTP::BROWSER", "HTTP::SERVER", "SSH::CLIENT"]),
                 _ch(["Firefox", "Chrome", "OpenSSH", "nginx"]),
                 _fi("%d.0", 1, 130)],
    "capture_loss": [_ff("%.6f", 0, 900), _ch(["zeek", "worker-1", "worker-2"]),
                     _fi("%d", 0, 100), _fi("%d", 100, 100_000),
                     _ff("%.3f", 0, 5)],
    "reporter": [_ch(["Reporter::INFO", "Reporter::WARNING", "Reporter::ERROR"]),
                 _fi("reporter message %d", 0, 10_000),
                 _fi("/opt/zeek/share/zeek/base/misc-%d.zeek", 0, 40)],
    "traceroute": [_ip(), _ip(), _ch(_PROTOS + ["icmp"])],
    # unknown source → quarantined by the router; payload is still a line
    "bogus": [_fi("junk%d", 0, 100)],
}

# Rows per scale factor, mirroring the driver testdata's lineitem scale
# (TESTDATA.md): sf0.001 ≈ 6k, sf0.01 ≈ 60k, sf0.1 ≈ 600k.
SF_ROWS = {"0.001": 6_000, "0.01": 60_000, "0.1": 600_000}

DEFAULT_SEED = 42
_CACHE_ROOT = os.environ.get("ZEEKLOG_CORPUS_DIR", "/tmp/zeeklog_corpus")


def _choice(rng: np.random.Generator, pool: list[str], n: int) -> np.ndarray:
    return np.asarray(pool, dtype=object)[rng.integers(0, len(pool), n)]


def make_corpus_frame(n_rows: int, seed: int = DEFAULT_SEED) -> pd.DataFrame:
    """Build the corpus as a pandas frame: (doc_id, tokens<bytes>, n_tok, source, date).

    ``tokens`` is returned as Python ``bytes`` here; :func:`frame_to_table`
    converts it to the canonical ``list<int32>`` Arrow column.
    Fully vectorized (numpy draws + pandas str.cat); deterministic in
    (n_rows, seed).
    """
    rng = np.random.default_rng(seed)
    n = n_rows

    src_names = np.asarray([s for s, _ in SOURCE_MIX], dtype=object)
    src_probs = np.asarray([p for _, p in SOURCE_MIX])
    src_idx = rng.choice(len(src_names), size=n, p=src_probs)
    source = src_names[src_idx]
    date_idx = rng.integers(0, len(DATES), n)
    date = np.asarray(DATES, dtype=object)[date_idx]

    # Addresses: uniform pool draw; golden IP 0 is remapped away from every
    # non-2024-07-02 row (both address fields) so it exists only on that date.
    orig_idx = rng.integers(0, 32, n)
    resp_idx = rng.integers(0, 32, n)
    not_d0 = date_idx != 0
    orig_idx[not_d0 & (orig_idx == 0)] = 2
    resp_idx[not_d0 & (resp_idx == 0)] = 3
    # Plant both golden IPs on 2024-07-02 deterministically — on rows
    # FORCED to a conn-prefixed source: ts-prefixed/quarantined sources
    # discard the connection 6-tuple, so a plant landing there would never
    # surface in any parsed id_orig_h and the "present on 2024-07-02"
    # invariant would hinge on random pool draws.
    d0_rows = np.flatnonzero(date_idx == 0)
    if len(d0_rows) >= 2:
        orig_idx[d0_rows[0]] = 0
        orig_idx[d0_rows[1]] = 1
        source[d0_rows[0]] = "conn"
        source[d0_rows[1]] = "conn"
    pool = np.asarray(IP_POOL, dtype=object)
    orig_h = pool[orig_idx]
    resp_h = pool[resp_idx]

    ts = (np.asarray([_DATE_EPOCH[d] for d in DATES])[date_idx]
          + rng.uniform(0, 86400, n))
    uid_num = rng.integers(0, 2**36, n)

    s = pd.Series  # shorthand

    def fmt(pattern: str, arr: np.ndarray) -> pd.Series:
        # vectorized printf-style formatting (np.char.mod) → object Series
        return s(np.char.mod(pattern, arr).astype(object))

    cols = {
        "ts": fmt("%.6f", ts),
        "uid": "C" + fmt("%09x", uid_num),
        "id_orig_h": s(orig_h),
        "id_orig_p": fmt("%d", rng.integers(1024, 65536, n)),
        "id_resp_h": s(resp_h),
        "id_resp_p": s(_choice(rng, _RESP_PORTS, n)),
    }
    common = cols["ts"].str.cat(
        [cols["uid"], cols["id_orig_h"], cols["id_orig_p"], cols["id_resp_h"], cols["id_resp_p"]],
        sep=SEPARATOR,
    )

    # Per-source trailing fields: each source draws its tail values from its
    # OWN seeded rng over just its rows (deterministic in (n_rows, seed),
    # work proportional to the source's row count even with 29 sources).
    src_s = s(source)
    common_np = common.to_numpy()
    ts_np = cols["ts"].to_numpy()
    lines_np = np.empty(n, dtype=object)
    for name, _p in SOURCE_MIX:
        m = (source == name)
        n_s = int(m.sum())
        if n_s == 0:
            continue
        rng_s = np.random.default_rng([seed, zlib.crc32(name.encode())])
        parts = [s(g(rng_s, n_s)) for g in TAIL_SPECS[name]]
        tail = parts[0] if len(parts) == 1 else parts[0].str.cat(
            parts[1:], sep=SEPARATOR)
        # connection-oriented sources (and bogus) carry the 6-tuple prefix;
        # host/file logs are ts-prefixed like their real Zeek counterparts
        prefix = common_np[m] if (name in CONN_PREFIXED or name == "bogus") \
            else ts_np[m]
        lines_np[m] = s(prefix).str.cat(tail, sep=SEPARATOR).to_numpy()

    lines = s(lines_np)
    tokens = lines.str.encode("utf-8")
    n_tok = tokens.str.len().astype("int32")
    doc_id = ("d-" + s(date) + "-" + s(source) + "-"
              + fmt("%08d", np.arange(n, dtype=np.int64)))

    return pd.DataFrame({
        "doc_id": doc_id, "tokens": tokens, "n_tok": n_tok,
        "source": src_s, "date": s(date),
    })


def frame_to_table(df: pd.DataFrame, with_date: bool = False) -> pa.Table:
    """Convert the generator frame to the canonical Arrow table.

    ``tokens`` bytes → ``list<int32>`` built directly from offsets + a cast
    byte buffer (no per-row Python loop).
    """
    raw = df["tokens"].to_numpy()
    lengths = np.fromiter((len(b) for b in raw), dtype=np.int32, count=len(raw))
    offsets = np.zeros(len(raw) + 1, dtype=np.int32)
    np.cumsum(lengths, out=offsets[1:])
    values = np.frombuffer(b"".join(raw), dtype=np.uint8).astype(np.int32)
    tokens = pa.ListArray.from_arrays(pa.array(offsets), pa.array(values, type=pa.int32()))
    cols = {
        "doc_id": pa.array(df["doc_id"], type=pa.string()),
        "tokens": tokens,
        "n_tok": pa.array(df["n_tok"], type=pa.int32()),
        "source": pa.array(df["source"], type=pa.string()),
    }
    if with_date:
        cols["date"] = pa.array(df["date"], type=pa.string())
    return pa.table(cols)


def _default_rows_per_file(n_rows: int) -> int:
    # ≥32 fragments for parallel reads on small corpora (one wave on a
    # 32-CPU node), ≤100k rows per fragment (the unit of file-granular
    # dispatch + resume)
    return max(12_500, min(100_000, n_rows // 32))


def _fragments_per_date(date_rows: list[int], rows_per_file: int) -> list[int]:
    """Largest-remainder allocation of ``round(total/rows_per_file)``
    fragments across dates (each non-empty date ≥ 1).  Per-date ``ceil``
    left a remainder sliver per date — at 600k rows that made 33 fragments,
    and 33 tasks on 32 CPUs is TWO task waves, one of them 97% idle."""
    total = sum(date_rows)
    t = max(sum(1 for r in date_rows if r), round(total / rows_per_file), 1)
    quota = [r * t / total if total else 0.0 for r in date_rows]
    alloc = [max(1, int(q)) if r else 0 for q, r in zip(quota, date_rows)]
    # distribute the remaining fragments by largest fractional remainder
    while sum(alloc) < t:
        frac = [(q - a, i) for i, (q, a, r) in
                enumerate(zip(quota, alloc, date_rows)) if r]
        alloc[max(frac)[1]] += 1
    return alloc


def _corpus_dir_for(n_rows: int, seed: int, rows_per_file: int) -> str:
    return os.path.join(_CACHE_ROOT, f"v7-n{n_rows}-seed{seed}-rpf{rows_per_file}")


def _sf_n_rows(sf_dir: str) -> int:
    tag = os.path.basename(os.path.normpath(sf_dir)).removeprefix("sf")
    n_rows = SF_ROWS.get(tag)
    if n_rows is None:
        try:
            n_rows = max(1000, int(float(tag) * 6_000_000))
        except ValueError:
            n_rows = 60_000
    return n_rows


def corpus_path_for_sf_dir(sf_dir: str, seed: int = DEFAULT_SEED) -> str:
    """The corpus directory an sf dir maps to, WITHOUT generating it —
    used to embed the path in oracle SQL at import time."""
    n = _sf_n_rows(sf_dir)
    return _corpus_dir_for(n, seed, _default_rows_per_file(n))


def generate_corpus(n_rows: int, seed: int = DEFAULT_SEED,
                    rows_per_file: int | None = None) -> str:
    """Generate (or reuse) the hive-partitioned corpus; returns its directory.

    Output layout: ``<cache>/n{n_rows}-seed{seed}/date=YYYY-MM-DD/part-*.parquet``
    with many files per date so the read stage parallelizes (one read task
    per fragment, SURVEY.md §4).  Idempotent: a ``_SUCCESS`` marker gates
    reuse; concurrent generators race benignly (build to a temp dir, atomic
    rename, loser discards).
    """
    if rows_per_file is None:
        rows_per_file = _default_rows_per_file(n_rows)
    out_dir = _corpus_dir_for(n_rows, seed, rows_per_file)
    if os.path.exists(os.path.join(out_dir, "_SUCCESS")):
        return out_dir

    df = make_corpus_frame(n_rows, seed)
    os.makedirs(_CACHE_ROOT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="corpus-", dir=_CACHE_ROOT)
    try:
        parts = [df[df["date"] == d] for d in DATES]
        n_frags = _fragments_per_date([len(p) for p in parts], rows_per_file)
        for d, part, nf in zip(DATES, parts, n_frags):
            pdir = os.path.join(tmp, f"date={d}")
            os.makedirs(pdir, exist_ok=True)
            bounds = np.linspace(0, len(part), nf + 1).astype(int)
            for fi, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
                chunk = part.iloc[lo:hi]
                # date is stored in-file as well as in the dir name, so
                # explicit-path reads keep the column without hive parsing.
                table = frame_to_table(chunk, with_date=True)
                pq.write_table(table, os.path.join(pdir, f"part-{fi:05d}.parquet"),
                               row_group_size=32_768)
        with open(os.path.join(tmp, "_SUCCESS"), "w") as f:
            f.write("ok\n")
        try:
            os.rename(tmp, out_dir)
        except OSError:
            shutil.rmtree(tmp, ignore_errors=True)  # another process won the race
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    return out_dir


def corpus_for_sf_dir(sf_dir: str, seed: int = DEFAULT_SEED) -> str:
    """Map a driver sf dir (e.g. /root/testdata/sf0.01) to a corpus dir of
    matching scale, generating it on first use."""
    return generate_corpus(_sf_n_rows(sf_dir), seed)

"""Multimodal columns: opaque ``binary`` payloads with typed metadata,
decoded and feature-extracted by ``map_batches`` task stages.

Three decoder tiers:

``numpy`` (default)
    Real, dependency-free decoders written against the PUBLIC file-format
    specs: PNG (RFC 2083 — chunk walk, stdlib-zlib inflate, scanline
    unfiltering incl. Sub/Up/Average/Paeth; a genuinely COMPRESSED format),
    uncompressed 24-bit BMP (BITMAPINFOHEADER), PCM-16 mono RIFF/WAVE
    (chunk walk, not fixed offsets), and a minimal raw-RGB video container
    (``RVID`` magic + frame dims + concatenated frames) standing in for a
    codec'd stream.  Features are real signal statistics (dims/channel
    means/histograms for images, RMS/zero-crossings/amplitude histogram for
    audio, inter-frame motion for video) — exactly what a feature-extract
    stage feeds a downstream filter, and exact-value assertable in tests.

``fake``
    The round-1 deterministic digest stub, kept for payloads that are not
    parseable media (plumbing tests with arbitrary bytes).

``real``
    Magic-byte format sniff, then dispatch: native formats go through the
    numpy codecs above; codec'd formats (JPEG / MP3 / FLAC / OGG) route
    through Pillow / soundfile via :mod:`zeeklog_ray.ops.mediacodec` when
    those libraries import, and raise ``NotImplementedError`` at the exact
    payload that needs them otherwise (this container has neither; any
    normal deployment plugs in with zero code change).  Codec'd video
    (H.264/VP9) remains a pure seam — no library in scope.

Everything Ray-side is identical across tiers: the Arrow schema (binary +
metadata columns), deliberately small batch sizes (payload x batch x
concurrent tasks must fit the worker heap), and plain tasks: a stage maps
a function or a callable instance, so no stage holds a CPU between
blocks (decoder state is built once on the driver and pickled with the
instance).

Schema convention::

    item_id : string
    payload : binary        # encoded image/audio/video bytes
    modality: string        # 'image' | 'audio' | 'video'
    meta    : string        # JSON: {width,height,...} / {sample_rate,...}
"""

from __future__ import annotations

import functools
import hashlib
import json
import struct

import numpy as np
import pyarrow as pa

import ray.data

FEATURE_DIM = 16

_VIDEO_MAGIC = b"RVID"


# --------------------------------------------------------------------------
# pure-numpy codecs (public format specs; no external libraries)
# --------------------------------------------------------------------------


def encode_bmp(pixels: np.ndarray) -> bytes:
    """HxWx3 uint8 RGB -> uncompressed 24-bit BMP (BITMAPINFOHEADER,
    bottom-up rows, 4-byte row padding, BGR byte order)."""
    h, w, c = pixels.shape
    if c != 3 or pixels.dtype != np.uint8:
        raise ValueError("encode_bmp expects HxWx3 uint8")
    row = w * 3
    pad = (-row) % 4
    img_size = (row + pad) * h
    header = struct.pack("<2sIHHI", b"BM", 54 + img_size, 0, 0, 54)
    info = struct.pack("<IiiHHIIiiII", 40, w, h, 1, 24, 0, img_size,
                       2835, 2835, 0, 0)
    bgr = pixels[::-1, :, ::-1]                      # bottom-up, BGR
    rows = np.zeros((h, row + pad), dtype=np.uint8)
    rows[:, :row] = bgr.reshape(h, row)
    return header + info + rows.tobytes()


def decode_bmp(payload: bytes) -> np.ndarray:
    """Uncompressed 24-bit BMP -> HxWx3 uint8 RGB."""
    if payload[:2] != b"BM":
        raise ValueError("not a BMP payload")
    (offset,) = struct.unpack_from("<I", payload, 10)
    _hdr, w, h, _planes, bpp, comp = struct.unpack_from("<IiiHHI", payload, 14)
    if bpp != 24 or comp != 0:
        raise ValueError(f"only 24-bit uncompressed BMP supported "
                         f"(bpp={bpp}, compression={comp})")
    if h <= 0:
        raise ValueError("top-down BMP not supported")
    row = w * 3
    stride = row + ((-row) % 4)
    data = np.frombuffer(payload, dtype=np.uint8,
                         count=stride * h, offset=offset)
    bgr = data.reshape(h, stride)[:, :row].reshape(h, w, 3)
    return bgr[::-1, :, ::-1].copy()                 # top-down, RGB


_PNG_SIG = b"\x89PNG\r\n\x1a\n"


def _png_chunk(ctype: bytes, data: bytes) -> bytes:
    import zlib

    return (struct.pack(">I", len(data)) + ctype + data
            + struct.pack(">I", zlib.crc32(ctype + data) & 0xFFFFFFFF))


def encode_png(pixels: np.ndarray) -> bytes:
    """HxWx3 uint8 RGB -> real PNG (8-bit truecolor, filter 0 scanlines,
    one zlib IDAT) — a DEFLATE-compressed format encoded with only numpy +
    stdlib zlib, per the public PNG spec (RFC 2083)."""
    import zlib

    h, w, c = pixels.shape
    if c != 3 or pixels.dtype != np.uint8:
        raise ValueError("encode_png expects HxWx3 uint8")
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)   # 8-bit, RGB
    raw = np.zeros((h, 1 + w * 3), dtype=np.uint8)
    raw[:, 1:] = pixels.reshape(h, w * 3)                 # filter byte 0
    idat = zlib.compress(raw.tobytes(), 6)
    return (_PNG_SIG + _png_chunk(b"IHDR", ihdr)
            + _png_chunk(b"IDAT", idat) + _png_chunk(b"IEND", b""))


def decode_png(payload: bytes) -> np.ndarray:
    """PNG -> HxWxC uint8 (C = 1 gray / 3 RGB / 4 RGBA): chunk walk,
    zlib-inflate the IDAT stream, un-apply the per-scanline filters.
    Supports 8-bit non-interlaced gray/RGB/RGBA — the common cases; the
    None/Sub/Up filters unfilter fully vectorized (Sub is a per-channel
    cumsum mod 256), Average/Paeth fall back to a per-pixel row loop."""
    import zlib

    if payload[:8] != _PNG_SIG:
        raise ValueError("not a PNG payload")
    pos, idat, ihdr = 8, b"", None
    while pos + 8 <= len(payload):
        (size,) = struct.unpack_from(">I", payload, pos)
        ctype = payload[pos + 4:pos + 8]
        data = payload[pos + 8:pos + 8 + size]
        if ctype == b"IHDR":
            ihdr = struct.unpack(">IIBBBBB", data)
        elif ctype == b"IDAT":
            idat += data
        elif ctype == b"IEND":
            break
        pos += 12 + size                                  # len+type+crc
    if ihdr is None:
        raise ValueError("missing IHDR")
    w, h, depth, color, _comp, _filt, interlace = ihdr
    channels = {0: 1, 2: 3, 6: 4}.get(color)
    if depth != 8 or channels is None or interlace != 0:
        raise ValueError(f"only 8-bit non-interlaced gray/RGB/RGBA "
                         f"supported (depth={depth}, color={color})")
    stride = w * channels
    raw = np.frombuffer(zlib.decompress(idat), dtype=np.uint8)
    raw = raw.reshape(h, 1 + stride)
    out = np.zeros((h, stride), dtype=np.uint8)
    bpp = channels
    for y in range(h):
        f, line = int(raw[y, 0]), raw[y, 1:].astype(np.int64)
        up = out[y - 1].astype(np.int64) if y else np.zeros(stride, np.int64)
        if f == 0:                                        # None
            rec = line
        elif f == 1:                                      # Sub: cumsum/chan
            rec = line.copy()
            for ch in range(bpp):
                rec[ch::bpp] = np.cumsum(line[ch::bpp])
        elif f == 2:                                      # Up
            rec = line + up
        elif f in (3, 4):                                 # Average / Paeth
            rec = np.zeros(stride, dtype=np.int64)
            for x in range(stride):
                a = rec[x - bpp] % 256 if x >= bpp else 0
                b = up[x]
                if f == 3:
                    rec[x] = line[x] + (a + b) // 2
                else:
                    cc = out[y - 1, x - bpp] if (y and x >= bpp) else 0
                    p = a + b - cc
                    pa_, pb, pc_ = abs(p - a), abs(p - b), abs(p - cc)
                    pred = a if (pa_ <= pb and pa_ <= pc_) else \
                        (b if pb <= pc_ else cc)
                    rec[x] = line[x] + pred
        else:
            raise ValueError(f"bad filter byte {f}")
        out[y] = (rec % 256).astype(np.uint8)
    return out.reshape(h, w, channels)


def decode_image(payload: bytes) -> np.ndarray:
    """Format-sniffing image decode (PNG signature / BMP magic) → HxWxC
    uint8; the single entry point the feature extractor uses."""
    if payload[:8] == _PNG_SIG:
        px = decode_png(payload)
        if px.shape[2] == 1:                 # gray → RGB for the features
            px = np.repeat(px, 3, axis=2)
        return px[:, :, :3]                  # drop alpha for the features
    return decode_bmp(payload)


def encode_wav(samples: np.ndarray, sample_rate: int) -> bytes:
    """1-D int16 mono samples -> PCM-16 RIFF/WAVE."""
    if samples.dtype != np.int16 or samples.ndim != 1:
        raise ValueError("encode_wav expects 1-D int16")
    data = samples.tobytes()
    fmt = struct.pack("<HHIIHH", 1, 1, sample_rate, sample_rate * 2, 2, 16)
    body = (b"WAVEfmt " + struct.pack("<I", len(fmt)) + fmt
            + b"data" + struct.pack("<I", len(data)) + data)
    return b"RIFF" + struct.pack("<I", len(body)) + body


def decode_wav(payload: bytes) -> tuple[int, np.ndarray]:
    """PCM-16 mono RIFF/WAVE -> (sample_rate, int16 samples); walks the
    chunk list rather than assuming fixed offsets (extra chunks legal)."""
    if payload[:4] != b"RIFF" or payload[8:12] != b"WAVE":
        raise ValueError("not a WAV payload")
    pos, rate, samples = 12, None, None
    while pos + 8 <= len(payload):
        cid, size = payload[pos:pos + 4], struct.unpack_from("<I", payload, pos + 4)[0]
        if cid == b"fmt ":
            audio_fmt, channels, rate, _br, _ba, bits = struct.unpack_from(
                "<HHIIHH", payload, pos + 8)
            if (audio_fmt, channels, bits) != (1, 1, 16):
                raise ValueError("only PCM-16 mono supported")
        elif cid == b"data":
            samples = np.frombuffer(payload, dtype="<i2",
                                    count=size // 2, offset=pos + 8)
        pos += 8 + size + (size % 2)                 # chunks are word-aligned
    if rate is None or samples is None:
        raise ValueError("missing fmt/data chunk")
    return rate, samples


def encode_video(frames: np.ndarray) -> bytes:
    """NxHxWx3 uint8 RGB frames -> minimal raw container (RVID magic +
    dims + concatenated frames) — the stand-in for a codec'd stream."""
    n, h, w, c = frames.shape
    if c != 3 or frames.dtype != np.uint8:
        raise ValueError("encode_video expects NxHxWx3 uint8")
    return _VIDEO_MAGIC + struct.pack("<HHH", w, h, n) + frames.tobytes()


def decode_video(payload: bytes) -> np.ndarray:
    """RVID container -> NxHxWx3 uint8 RGB frames."""
    if payload[:4] != _VIDEO_MAGIC:
        raise ValueError("not an RVID payload")
    w, h, n = struct.unpack_from("<HHH", payload, 4)
    data = np.frombuffer(payload, dtype=np.uint8, count=n * h * w * 3, offset=10)
    return data.reshape(n, h, w, 3).copy()


# --------------------------------------------------------------------------
# feature extraction (16-dim, all values in [0, 1], exact-value testable)
# --------------------------------------------------------------------------


def _hist8(x: np.ndarray) -> np.ndarray:
    """8-bin normalized histogram of values in [0, 1]."""
    counts, _ = np.histogram(x, bins=8, range=(0.0, 1.0))
    return counts.astype(np.float32) / max(x.size, 1)


def image_features(pixels: np.ndarray) -> np.ndarray:
    """[w, h (÷4096), mean R, G, B, gray std, 8-bin gray hist, gray min,
    gray max] — 16 dims."""
    h, w = pixels.shape[:2]
    px = pixels.astype(np.float32) / 255.0
    gray = px.mean(axis=2)
    return np.concatenate([
        np.array([w / 4096.0, h / 4096.0,
                  px[..., 0].mean(), px[..., 1].mean(), px[..., 2].mean(),
                  gray.std()], dtype=np.float32),
        _hist8(gray),
        np.array([gray.min(), gray.max()], dtype=np.float32),
    ])


def audio_features(rate: int, samples: np.ndarray) -> np.ndarray:
    """[rate÷192k, n÷1e6, duration÷60s, RMS, zero-crossing rate, peak,
    mean |amp|, crest ratio, 8-bin |amp| hist] — 16 dims."""
    x = samples.astype(np.float32) / 32768.0
    n = x.size
    rms = float(np.sqrt(np.mean(x * x))) if n else 0.0
    peak = float(np.abs(x).max()) if n else 0.0
    zcr = float(np.mean(np.signbit(x[1:]) != np.signbit(x[:-1]))) if n > 1 else 0.0
    return np.concatenate([
        np.array([min(rate / 192000.0, 1.0), min(n / 1e6, 1.0),
                  min(n / rate / 60.0, 1.0), rms, zcr, peak,
                  float(np.abs(x).mean()) if n else 0.0,
                  rms / peak if peak > 0 else 0.0], dtype=np.float32),
        _hist8(np.abs(x)),
    ])


def video_features(frames: np.ndarray, sample_frames: int = 4) -> np.ndarray:
    """Frame-sample ``sample_frames`` evenly spaced frames, then
    [w, h (÷4096), n_frames÷1024, sampled÷8, gray mean, gray std,
    inter-frame motion (mean |Δgray|), gray range, 8-bin gray hist] — 16
    dims.  Sampling, not full decode, is the scale move: a task touches
    k frames however long the clip."""
    n, h, w = frames.shape[:3]
    idx = np.unique(np.linspace(0, n - 1, min(sample_frames, n)).astype(int))
    gray = frames[idx].astype(np.float32).mean(axis=3) / 255.0
    motion = float(np.abs(np.diff(gray, axis=0)).mean()) if len(idx) > 1 else 0.0
    return np.concatenate([
        np.array([w / 4096.0, h / 4096.0, min(n / 1024.0, 1.0),
                  len(idx) / 8.0, gray.mean(), gray.std(), motion,
                  gray.max() - gray.min()], dtype=np.float32),
        _hist8(gray),
    ])


# --------------------------------------------------------------------------
# schema + synthetic corpus
# --------------------------------------------------------------------------


def _media_n_for_sf_dir(sf_dir: str) -> int:
    return 500 if "0.001" in sf_dir else 2000


def media_parquet_path(sf_dir: str) -> str:
    """Cache path of the sf-matched media corpus, WITHOUT generating —
    the single source of truth shared by the generator below and the
    oracle-SQL builder (queries._media_parquet)."""
    import os

    from zeeklog_ray.corpus import _CACHE_ROOT

    return os.path.join(_CACHE_ROOT,
                        f"media-v2-n{_media_n_for_sf_dir(sf_dir)}.parquet")


def media_parquet_for_sf_dir(sf_dir: str) -> str:
    """Cached Parquet file of the sf-matched synthetic media corpus — read
    by BOTH the Ray ``media_features`` pipeline and its DuckDB oracle, so
    the driver's hard gate covers the multimodal plumbing end to end."""
    import os
    import tempfile

    path = media_parquet_path(sf_dir)
    if not os.path.exists(path):
        import pyarrow.parquet as pq

        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path),
                                   suffix=".parquet")
        os.close(fd)
        pq.write_table(synth_media_table(_media_n_for_sf_dir(sf_dir)), tmp)
        os.replace(tmp, path)                 # atomic; racers overwrite same
    return path


def synth_media_table(n: int, seed: int = 7) -> pa.Table:
    """Deterministic media corpus of REAL encoded payloads: 24-bit BMP
    images, PCM-16 WAV clips (sine + noise), RVID raw-frame videos."""
    rng = np.random.default_rng(seed)
    ids, payloads, mods, metas = [], [], [], []
    for i in range(n):
        mod = ("image", "audio", "video")[int(rng.integers(0, 3))]
        if mod == "image":
            h, w = (int(v) for v in rng.integers(8, 33, 2))
            px = rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
            if i % 2:                        # alternate real formats
                payload, fmt = encode_png(px), "png"
            else:
                payload, fmt = encode_bmp(px), "bmp"
            meta = {"width": w, "height": h, "format": fmt}
        elif mod == "audio":
            rate = int(rng.choice([8000, 16000, 44100]))
            ns = int(rng.integers(256, 2049))
            t = np.arange(ns, dtype=np.float32) / rate
            freq = float(rng.uniform(100, 2000))
            amp = float(rng.uniform(0.1, 0.9))
            x = amp * np.sin(2 * np.pi * freq * t) \
                + rng.normal(0, 0.01, ns).astype(np.float32)
            payload = encode_wav((np.clip(x, -1, 1) * 32767).astype(np.int16),
                                 rate)
            meta = {"sample_rate": rate, "n_samples": ns, "format": "wav"}
        else:
            h, w = (int(v) for v in rng.integers(8, 17, 2))
            nf = int(rng.integers(3, 9))
            payload = encode_video(
                rng.integers(0, 256, (nf, h, w, 3), dtype=np.uint8))
            meta = {"width": w, "height": h, "n_frames": nf, "format": "rvid"}
        ids.append(f"m-{i:06d}")
        payloads.append(payload)
        mods.append(mod)
        metas.append(json.dumps(meta))
    return pa.table({
        "item_id": pa.array(ids, pa.string()),
        "payload": pa.array(payloads, pa.binary()),
        "modality": pa.array(mods, pa.string()),
        "meta": pa.array(metas, pa.string()),
    })


# --------------------------------------------------------------------------
# feature stage
# --------------------------------------------------------------------------


class MediaFeatureExtractor:
    """Map stage: decode payload -> fixed-dim feature vector.

    ``__init__`` is where decoder state / a small model would load (once,
    on the driver; :func:`extract_features` maps the instance);
    ``__call__`` handles one Arrow batch.  Decode is per-payload Python by
    nature (each payload is its own container/file — same granularity any
    codec library imposes); the per-payload work itself is
    numpy-vectorized.  Keep ``batch_size`` SMALL for real media (payload x
    batch x concurrent tasks must fit the worker heap)."""

    def __init__(self, decoder: str = "numpy") -> None:
        if decoder not in ("numpy", "fake", "real"):
            raise ValueError(decoder)
        self.decoder = decoder

    def _decode(self, payload: bytes, modality: str) -> np.ndarray:
        if self.decoder == "real":
            # format-sniffing dispatch (ops/mediacodec.py): native formats
            # through the numpy codecs, codec'd formats (JPEG/MP3/FLAC/OGG)
            # through Pillow/soundfile when importable — otherwise the
            # honest NotImplementedError fires at the exact payload that
            # needs the library (H.264 video stays a seam: no pure-Python
            # path and no lib in scope)
            from zeeklog_ray.ops.mediacodec import (
                decode_audio_any,
                decode_image_any,
            )

            if modality == "image":
                return image_features(decode_image_any(payload))
            if modality == "audio":
                return audio_features(*decode_audio_any(payload))
            if modality == "video":
                if payload[:4] == _VIDEO_MAGIC:
                    return video_features(decode_video(payload))
                raise NotImplementedError(
                    "codec'd video (H.264/VP9) requires ffmpeg — not "
                    "available in this container; plug in here")
            raise ValueError(f"unknown modality {modality!r}")
        if self.decoder == "fake":
            d = hashlib.blake2b(
                payload, digest_size=FEATURE_DIM,
                person=modality.encode()[:16].ljust(16, b"\0")).digest()
            return np.frombuffer(d, dtype=np.uint8).astype(np.float32) / 255.0
        if modality == "image":
            return image_features(decode_image(payload))
        if modality == "audio":
            return audio_features(*decode_wav(payload))
        if modality == "video":
            return video_features(decode_video(payload))
        raise ValueError(f"unknown modality {modality!r}")

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch["payload"].to_pylist()
        mods = batch["modality"].to_pylist()
        feats = np.stack([self._decode(p, m) for p, m in zip(payloads, mods)]) \
            if len(payloads) else np.zeros((0, FEATURE_DIM), np.float32)
        offsets = pa.array(np.arange(0, (len(payloads) + 1) * FEATURE_DIM,
                                     FEATURE_DIM, dtype=np.int32))
        fcol = pa.ListArray.from_arrays(offsets,
                                        pa.array(feats.ravel(), pa.float32()))
        return pa.table({
            "item_id": batch["item_id"],
            "modality": batch["modality"],
            "n_bytes": pa.array([len(p) for p in payloads], pa.int64()),
            "features": fcol,
        })


def resize_image(pixels: np.ndarray, out_h: int, out_w: int,
                 method: str = "bilinear") -> np.ndarray:
    """Vectorized HxWx3 uint8 resize — pure numpy gather + lerp, no loop.

    ``bilinear`` uses the half-pixel-center mapping (align_corners=False,
    the OpenCV/PIL convention): src = (dst + 0.5)·scale − 0.5, weights
    from the UNCLIPPED floor so edge samples degenerate to the border
    pixel; same-size resize is exactly identity.  ``nearest`` picks
    floor((dst + 0.5)·scale).  Output rounds half-to-even (np.rint) on
    float32 sums (deterministic everywhere)."""
    h, w = pixels.shape[:2]
    if out_h < 1 or out_w < 1:
        raise ValueError(f"resize_image: bad target dims {out_w}x{out_h}")
    if method == "nearest":
        yi = np.minimum(((np.arange(out_h) + 0.5) * h / out_h)
                        .astype(np.int64), h - 1)
        xi = np.minimum(((np.arange(out_w) + 0.5) * w / out_w)
                        .astype(np.int64), w - 1)
        return pixels[yi][:, xi]
    if method != "bilinear":
        raise ValueError(f"unknown resize method {method!r}")
    fy = (np.arange(out_h) + 0.5) * (h / out_h) - 0.5
    fx = (np.arange(out_w) + 0.5) * (w / out_w) - 0.5
    y0f, x0f = np.floor(fy), np.floor(fx)
    wy = (fy - y0f).astype(np.float32)[:, None, None]
    wx = (fx - x0f).astype(np.float32)[None, :, None]
    y0i, x0i = y0f.astype(np.int64), x0f.astype(np.int64)
    y0 = np.clip(y0i, 0, h - 1)
    y1 = np.clip(y0i + 1, 0, h - 1)
    x0 = np.clip(x0i, 0, w - 1)
    x1 = np.clip(x0i + 1, 0, w - 1)
    p = pixels.astype(np.float32)
    py0, py1 = p[y0], p[y1]
    top = py0[:, x0] * (1 - wx) + py0[:, x1] * wx
    bot = py1[:, x0] * (1 - wx) + py1[:, x1] * wx
    out = top * (1 - wy) + bot * wy
    return np.clip(np.rint(out), 0, 255).astype(np.uint8)


def _resize_batch(batch: pa.Table, out_w: int, out_h: int,
                  method: str) -> pa.Table:
    """Decode image payloads → resize → re-encode BMP.  Non-image rows are
    dropped (route them to their own stages).  Output BMP size is a pure
    function of the target dims (54-byte header + 4-aligned rows), which
    is what the SQL oracle gates; pixel math is pinned by unit tests."""
    import pyarrow.compute as pc

    batch = batch.filter(pc.equal(batch["modality"], "image"))
    resized = [encode_bmp(resize_image(decode_image(p), out_h, out_w,
                                       method))
               for p in batch["payload"].to_pylist()]
    return pa.table({
        "item_id": batch["item_id"],
        "out_w": pa.array([out_w] * len(resized), pa.int64()),
        "out_h": pa.array([out_h] * len(resized), pa.int64()),
        "n_bytes": pa.array([len(r) for r in resized], pa.int64()),
        "payload": pa.array(resized, pa.binary()),
    })


def resize_images(ds: "ray.data.Dataset", out_w: int, out_h: int,
                  method: str = "bilinear",
                  batch_size: int = 64) -> "ray.data.Dataset":
    """Image resize over a media table (images only), small batches."""
    if out_w < 1 or out_h < 1:
        raise ValueError(f"bad target dims {out_w}x{out_h}")
    return ds.map_batches(
        functools.partial(_resize_batch, out_w=out_w, out_h=out_h,
                          method=method),
        batch_format="pyarrow", batch_size=batch_size)


def extract_features(ds: "ray.data.Dataset", decoder: str = "numpy",
                     batch_size: int = 64) -> "ray.data.Dataset":
    """Feature extraction over a media table.

    ``batch_size=64`` deliberately small: payloads are large binaries; a
    batch x concurrent tasks must fit in worker heap (the object store
    spills the rest).
    """
    return ds.map_batches(MediaFeatureExtractor(decoder),
                          batch_format="pyarrow", batch_size=batch_size)


# --------------------------------------------------------------------------
# perceptual hashing (image dedup)
# --------------------------------------------------------------------------


def dhash_image(pixels: np.ndarray, hash_w: int = 8,
                hash_h: int = 8) -> int:
    """Difference-hash (dHash) of an HxWx3 uint8 image: integer luma
    ((299R + 587G + 114B) // 1000), NEAREST resize to (hash_h, hash_w+1)
    (the deterministic integer path of :func:`resize_image`), then one
    bit per horizontal gradient ``g[y, x+1] > g[y, x]`` — 64 bits at the
    8×8 default.  Fully integer → bit-identical across platforms.

    The standard near-dup signature for images: identical images collide
    exactly, small edits (crops excepted) differ in a few bits."""
    p = pixels.astype(np.int64)
    luma = (299 * p[:, :, 0] + 587 * p[:, :, 1] + 114 * p[:, :, 2]) // 1000
    h, w = luma.shape
    yi = np.minimum(((np.arange(hash_h) + 0.5) * h / hash_h)
                    .astype(np.int64), h - 1)
    xi = np.minimum(((np.arange(hash_w + 1) + 0.5) * w / (hash_w + 1))
                    .astype(np.int64), w - 1)
    g = luma[yi][:, xi]
    bits = (g[:, 1:] > g[:, :-1]).ravel()
    val = 0
    for b in bits:                 # ≤64 iterations, not a hot path
        val = (val << 1) | int(b)
    return val - (1 << 64) if val >= (1 << 63) else val   # int64 2's compl


def _signature_batch(batch: pa.Table, modality: str, hash_fn) -> pa.Table:
    """The per-modality 64-bit signature stage: filter to one modality,
    ``hash_fn(payload)`` each row, emit ``(item_id, phash: int64)`` — the
    single column contract :func:`phash_dup_groups` consumes for every
    modality."""
    import pyarrow.compute as pc

    batch = batch.filter(pc.equal(batch["modality"], modality))
    return pa.table({
        "item_id": pa.array(batch["item_id"].to_pylist(), pa.string()),
        "phash": pa.array([hash_fn(p) for p in batch["payload"].to_pylist()],
                          pa.int64())})


def _signatures(ds: "ray.data.Dataset", modality: str, hash_fn,
                batch_size: int) -> "ray.data.Dataset":
    return ds.map_batches(
        functools.partial(_signature_batch, modality=modality,
                          hash_fn=hash_fn),
        batch_format="pyarrow", batch_size=batch_size)


def _image_dhash(payload: bytes) -> int:
    return dhash_image(decode_image(payload))


def phash_images(ds: "ray.data.Dataset",
                 batch_size: int = 64) -> "ray.data.Dataset":
    """Per-image 64-bit dHash over a media table (non-image rows dropped);
    small batches (payload × batch × concurrent tasks must fit the worker
    heap, as for the other media stages)."""
    return _signatures(ds, "image", _image_dhash, batch_size)


def phash_dup_groups(phashes: "ray.data.Dataset", max_hamming: int = 3,
                     max_bucket: int = 2048) -> "ray.data.Dataset":
    """Near-duplicate image groups from dHash signatures: band the 64-bit
    hash into four 16-bit bands (pigeonhole: hamming ≤ 3 ⇒ at least one
    band is EXACTLY unchanged, so exact band collisions find every
    qualifying pair — detection of hamming ≤ h needs ≥ h+1 bands, which
    is why the default threshold is 3), candidate pairs via a self-join
    on the band key, verify with vectorized XOR popcount, resolve groups
    with connected components.  Raising ``max_hamming`` past 3 keeps
    working but loses the completeness guarantee (a pair may differ in
    every band).

    Same blocking/guard structure as MinHash+LSH (``ops/dedup.py``):
    only (id, phash) rows shuffle; band buckets past ``max_bucket`` are
    EXCLUDED from the self-join with a runtime warning (an m-row bucket
    emits m² candidates; smooth/low-texture images legitimately share
    the all-zero gradient band, and dropping ONE band of a pair still
    leaves its other three to find it).  The pair generation is ONE
    :func:`~zeeklog_ray.relational.bucket_exchange` on the band key with
    a self-merge per key-hash bucket, not per-band-key ``map_groups`` —
    Ray pays Python per GROUP, and 4×2^16 distinct band keys would cost
    ~50 s of pure overhead at 1M images.  The bucket census is driver-merged
    value_counts partials (band keys are mostly distinct; at text-corpus
    scale use the tiered census in ``ops/dedup.minhash_lsh_pairs``).
    Output: ``(node, component)`` over the string item ids."""
    import pandas as pd

    from zeeklog_ray.ops.graph import connected_components
    from zeeklog_ray.relational import (bucket_exchange, bucketed_distinct,
                                        to_pandas)

    def band_rows(df: pd.DataFrame) -> pd.DataFrame:
        h = df["phash"].to_numpy(np.int64).view(np.uint64)
        outs = []
        for bi in range(4):
            band = ((h >> np.uint64(16 * bi)) & np.uint64(0xFFFF)) \
                .astype(np.int64) | np.int64(bi << 16)
            outs.append(pd.DataFrame({"bb": band,
                                      "item_id": df["item_id"],
                                      "phash": df["phash"]}))
        return pd.concat(outs, ignore_index=True)

    banded = phashes.map_batches(band_rows, batch_format="pandas",
                                 batch_size=None).materialize()

    def bucket_partials(batch: pd.DataFrame) -> pd.DataFrame:
        vc = batch["bb"].value_counts()
        return pd.DataFrame({"bb": vc.index.to_numpy(np.int64),
                             "m": vc.to_numpy(np.int64)})

    partials = banded.map_batches(bucket_partials, batch_format="pandas",
                                  batch_size=None).to_pandas()
    totals = partials.groupby("bb", sort=False)["m"].sum()
    big_keys = totals.index.to_numpy(np.int64)[totals.to_numpy() > max_bucket]
    if len(big_keys):
        import logging

        import ray as _ray

        logging.getLogger(__name__).warning(
            "phash_dup_groups: excluding %d oversized band buckets "
            "(> max_bucket=%d) from the self-join; pairs colliding ONLY "
            "there are missed (their other bands still cover hamming ≤ %d "
            "pairs unless those bands are oversized too)",
            len(big_keys), max_bucket, max_hamming)
        big_ref = _ray.put(np.sort(big_keys))

        def drop_big(batch: pd.DataFrame) -> pd.DataFrame:
            bs = _ray.get(big_ref)
            return batch[~np.isin(batch["bb"].to_numpy(np.int64), bs)]

        banded = banded.map_batches(drop_big, batch_format="pandas",
                                    batch_size=None)

    def bucket_pairs(group: pa.Table) -> pd.DataFrame:
        group = to_pandas(group)
        m = group.merge(group, on="bb", suffixes=("_a", "_b"))
        m = m[m["item_id_a"] < m["item_id_b"]]
        x = m["phash_a"].to_numpy(np.int64).view(np.uint64) ^ \
            m["phash_b"].to_numpy(np.int64).view(np.uint64)
        ham = np.zeros(len(x), dtype=np.int64)
        for _ in range(64):                    # vectorized popcount
            ham += (x & np.uint64(1)).astype(np.int64)
            x = x >> np.uint64(1)
        keep = ham <= max_hamming
        return pd.DataFrame({"doc_a": m["item_id_a"].to_numpy()[keep],
                             "doc_b": m["item_id_b"].to_numpy()[keep]})

    pairs = bucketed_distinct(bucket_exchange(banded, "bb", bucket_pairs),
                              ["doc_a", "doc_b"])
    return connected_components(pairs)


def afp_audio(rate: int, samples: np.ndarray, n_frames: int = 65) -> int:
    """64-bit audio fingerprint: the dHash idea on the energy envelope —
    split the clip into ``n_frames`` equal frames, integer frame energy
    (Σ sample², int64), one bit per ``energy[i+1] > energy[i]``.

    Fully integer and LEVEL-ROBUST: uniform gain scales every frame
    energy by the same factor, so the comparisons (and the fingerprint)
    are unchanged up to quantization.  ``rate`` is accepted for API
    symmetry; the envelope is duration-normalized by the equal split."""
    s = samples.astype(np.int64)
    n = len(s)
    if n < n_frames:                       # pad short clips to one/frame
        s = np.concatenate([s, np.zeros(n_frames - n, dtype=np.int64)])
        n = n_frames
    edges = (np.arange(n_frames + 1, dtype=np.int64) * n) // n_frames
    e2 = np.cumsum(s * s)
    energy = e2[edges[1:] - 1] - np.concatenate(
        [[0], e2[edges[1:-1] - 1]])
    bits = energy[1:] > energy[:-1]
    val = 0
    for b in bits:
        val = (val << 1) | int(b)
    return val - (1 << 64) if val >= (1 << 63) else val


def _audio_fp(payload: bytes) -> int:
    return afp_audio(*decode_wav(payload))


def audio_fingerprints(ds: "ray.data.Dataset",
                       batch_size: int = 64) -> "ray.data.Dataset":
    """Per-clip WAV energy-envelope fingerprint over a media table
    (non-audio rows dropped, small batches); group near-dups with
    :func:`phash_dup_groups`."""
    return _signatures(ds, "audio", _audio_fp, batch_size)


def vhash_video(frames: np.ndarray) -> int:
    """64-bit video signature: dHash of the integer mean frame (sum //
    n_frames) — robust to frame reordering and short trims, sensitive to
    content.  Fully integer, same bit contract as :func:`dhash_image`,
    so :func:`phash_dup_groups` runs unchanged on it."""
    mean = (frames.astype(np.int64).sum(axis=0)
            // max(1, frames.shape[0])).astype(np.uint8)
    return dhash_image(mean)


def _video_hash(payload: bytes) -> int:
    return vhash_video(decode_video(payload))


def video_hashes(ds: "ray.data.Dataset",
                 batch_size: int = 64) -> "ray.data.Dataset":
    """Per-video RVID mean-frame dHash over a media table (non-video rows
    dropped, small batches)."""
    return _signatures(ds, "video", _video_hash, batch_size)

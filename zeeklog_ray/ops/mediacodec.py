"""Optional real-codec adapters behind the multimodal decode seam.

Import-try detection, once at module import: Pillow for codec'd still
images (JPEG first), ``soundfile``/libsndfile for codec'd audio
(MP3/FLAC/OGG).  Neither library ships in this container, so here every
codec'd-format path stays an honest ``NotImplementedError`` at the exact
payload that needs it — but when the libs ARE present (any normal
deployment) the same map stage decodes JPEG/MP3 with no other code
change: ``MediaFeatureExtractor(decoder="real")`` sniffs the container
format per payload, routes the repo-native formats (BMP / PNG / WAV /
RVID) through the pure-numpy codecs in :mod:`zeeklog_ray.ops.multimodal`,
and codec'd formats through this adapter.

Reference parity note: the reference engine has no media path at all
(`/root/reference/src` is a log engine); this module exists for the
training-data-pipeline surface (SURVEY.md §2 multimodal columns).

Format sniffing is magic-byte based — the payload column is opaque
``binary`` by design, so the format must be self-describing the way any
mixed media lake is.  Detection tables are the public file signatures:
JPEG ``FF D8 FF``, PNG 8-byte signature, BMP ``BM``, RIFF/WAVE, ID3v2 or
an MPEG audio frame-sync for MP3, fLaC, OggS.
"""

from __future__ import annotations

import io

import numpy as np

try:  # pragma: no cover - exercised only where Pillow is installed
    from PIL import Image as _PILImage

    HAS_PIL = True
except (ImportError, OSError):
    _PILImage = None
    HAS_PIL = False

try:  # pragma: no cover - exercised only where libsndfile is installed
    import soundfile as _soundfile

    HAS_SOUNDFILE = True
except (ImportError, OSError):
    # soundfile raises OSError (not ImportError) when the python package
    # is installed but the libsndfile SHARED LIBRARY is missing — and this
    # module is imported unconditionally by queries.py, so a bare
    # ImportError guard would take down the whole query registry on such
    # a host
    _soundfile = None
    HAS_SOUNDFILE = False

#: formats the pure-numpy codecs in ops/multimodal.py decode everywhere
NATIVE_FORMATS = frozenset({"png", "bmp", "wav", "rvid"})
#: formats that need an external codec library
CODEC_FORMATS = frozenset({"jpeg", "mp3", "flac", "ogg"})

_PNG_SIG = b"\x89PNG\r\n\x1a\n"


def sniff_format(payload: bytes) -> str:
    """Magic-byte container sniff -> 'png'|'bmp'|'wav'|'rvid'|'jpeg'|
    'mp3'|'flac'|'ogg'|'unknown'.  Pure byte compares, no decode."""
    if payload[:8] == _PNG_SIG:
        return "png"
    if payload[:3] == b"\xff\xd8\xff":
        return "jpeg"
    if payload[:4] == b"RIFF" and payload[8:12] == b"WAVE":
        return "wav"
    if payload[:4] == b"RVID":
        return "rvid"
    if payload[:2] == b"BM":
        return "bmp"
    if payload[:4] == b"fLaC":
        return "flac"
    if payload[:4] == b"OggS":
        return "ogg"
    if payload[:3] == b"ID3" or (
            len(payload) >= 2 and payload[0] == 0xFF
            and (payload[1] & 0xE0) == 0xE0):
        return "mp3"
    return "unknown"


def _require(fmt: str, lib: str, present: bool) -> None:
    if not present:
        raise NotImplementedError(
            f"codec'd media ({fmt}) requires {lib} — not available in this "
            f"container; `pip install {lib}` plugs in here with no other "
            "code change")


def decode_jpeg(payload: bytes) -> np.ndarray:
    """JPEG bytes -> HxWx3 uint8 RGB via Pillow (NotImplementedError when
    Pillow is absent)."""
    _require("jpeg", "Pillow", HAS_PIL)
    with _PILImage.open(io.BytesIO(payload)) as im:
        return np.asarray(im.convert("RGB"), dtype=np.uint8)


def encode_jpeg(pixels: np.ndarray, quality: int = 95) -> bytes:
    """HxWx3 uint8 RGB -> JPEG bytes via Pillow."""
    _require("jpeg", "Pillow", HAS_PIL)
    if pixels.dtype != np.uint8 or pixels.ndim != 3 or pixels.shape[2] != 3:
        raise ValueError("encode_jpeg expects HxWx3 uint8")
    buf = io.BytesIO()
    _PILImage.fromarray(pixels, mode="RGB").save(
        buf, format="JPEG", quality=quality)
    return buf.getvalue()


def decode_audio_codec(payload: bytes, fmt: str) -> tuple[int, np.ndarray]:
    """Codec'd audio bytes (mp3/flac/ogg) -> (sample_rate, 1-D int16 mono)
    via libsndfile; multi-channel is mean-downmixed to match the WAV
    path's mono contract."""
    _require(fmt, "soundfile", HAS_SOUNDFILE)
    data, rate = _soundfile.read(io.BytesIO(payload), dtype="int16",
                                 always_2d=True)
    mono = data.mean(axis=1).astype(np.int16) if data.shape[1] > 1 \
        else data[:, 0]
    return int(rate), mono


def decode_image_any(payload: bytes) -> np.ndarray:
    """Image bytes of ANY sniffable format -> HxWx3 uint8: PNG/BMP through
    the pure-numpy codecs, JPEG through Pillow when present."""
    from zeeklog_ray.ops.multimodal import decode_image

    fmt = sniff_format(payload)
    if fmt in ("png", "bmp"):
        return decode_image(payload)
    if fmt == "jpeg":
        return decode_jpeg(payload)
    raise NotImplementedError(
        f"unrecognized image container (sniffed {fmt!r}) — only "
        "PNG/BMP (native) and JPEG (Pillow) are wired")


def jpeg_media_parquet_for_sf_dir(sf_dir: str) -> str:
    """Cached Parquet of the sf-matched media corpus with every IMAGE
    payload re-encoded as JPEG (audio stays WAV, video RVID — so one
    table exercises the whole sniff dispatch of the ``real`` tier).
    Only callable where Pillow imports; the `media_jpeg_features` query
    is registered on the same condition."""
    _require("jpeg", "Pillow", HAS_PIL)
    import os
    import tempfile

    from zeeklog_ray.corpus import _CACHE_ROOT
    from zeeklog_ray.ops.multimodal import (
        _media_n_for_sf_dir,
        decode_image,
        media_parquet_for_sf_dir,
    )

    path = os.path.join(
        _CACHE_ROOT, f"media-jpeg-v1-n{_media_n_for_sf_dir(sf_dir)}.parquet")
    if not os.path.exists(path):
        import pyarrow as pa
        import pyarrow.parquet as pq

        t = pq.read_table(media_parquet_for_sf_dir(sf_dir))
        pl = t.column("payload").to_pylist()
        mods = t.column("modality").to_pylist()
        pl = [encode_jpeg(decode_image(p)) if m == "image" else p
              for p, m in zip(pl, mods)]
        t = t.set_column(t.schema.get_field_index("payload"), "payload",
                         pa.array(pl, pa.binary()))
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path),
                                   suffix=".parquet")
        os.close(fd)
        pq.write_table(t, tmp)
        os.replace(tmp, path)
    return path


def decode_audio_any(payload: bytes) -> tuple[int, np.ndarray]:
    """Audio bytes of ANY sniffable format -> (rate, int16 mono): WAV
    through the pure-numpy codec, MP3/FLAC/OGG through soundfile when
    present."""
    from zeeklog_ray.ops.multimodal import decode_wav

    fmt = sniff_format(payload)
    if fmt == "wav":
        return decode_wav(payload)
    if fmt in ("mp3", "flac", "ogg"):
        return decode_audio_codec(payload, fmt)
    raise NotImplementedError(
        f"unrecognized audio container (sniffed {fmt!r}) — only WAV "
        "(native) and MP3/FLAC/OGG (soundfile) are wired")

"""Codec adapter seam (ops/mediacodec): magic-byte sniffing, native-format
routing through the pure-numpy codecs, honest NotImplementedError at the
exact codec'd payload when Pillow/soundfile are absent, and decoder-parity
where they are present (skipped in this container)."""

import numpy as np
import pytest

from zeeklog_ray.ops.mediacodec import (
    CODEC_FORMATS,
    HAS_PIL,
    HAS_SOUNDFILE,
    NATIVE_FORMATS,
    decode_audio_any,
    decode_image_any,
    sniff_format,
)
from zeeklog_ray.ops.multimodal import (
    MediaFeatureExtractor,
    encode_bmp,
    encode_png,
    encode_wav,
)

# a syntactically-valid JPEG prefix (SOI + APP0/JFIF) — enough to sniff,
# not enough to decode, which is exactly what the seam tests need
_JPEG_PREFIX = b"\xff\xd8\xff\xe0\x00\x10JFIF\x00"


def _px(h=4, w=6, seed=0):
    return np.random.default_rng(seed).integers(
        0, 256, (h, w, 3), dtype=np.uint8)


# ---- sniffing ----------------------------------------------------------


def test_sniff_all_known_magic_bytes():
    rng = np.random.default_rng(1)
    samples = {
        "png": encode_png(_px()),
        "bmp": encode_bmp(_px()),
        "wav": encode_wav(rng.integers(-100, 100, 64).astype(np.int16),
                          8000),
        "rvid": b"RVID" + b"\x00" * 16,
        "jpeg": _JPEG_PREFIX + b"\x00" * 8,
        "flac": b"fLaC\x00\x00\x00\x22" + b"\x00" * 8,
        "ogg": b"OggS\x00\x02" + b"\x00" * 8,
    }
    for fmt, payload in samples.items():
        assert sniff_format(payload) == fmt, fmt
    # MP3 both ways: ID3v2 container and a bare MPEG frame sync
    assert sniff_format(b"ID3\x04\x00" + b"\x00" * 8) == "mp3"
    assert sniff_format(b"\xff\xfb\x90\x00" + b"\x00" * 8) == "mp3"


def test_sniff_unknown_and_tiny_payloads():
    assert sniff_format(b"") == "unknown"
    assert sniff_format(b"\xff") == "unknown"        # 1 byte: no frame sync
    assert sniff_format(b"not media at all") == "unknown"
    # 0xFF followed by a byte WITHOUT the 0xE0 sync bits is not MP3
    assert sniff_format(b"\xff\x00rest") == "unknown"


def test_format_partition_is_total():
    assert not (NATIVE_FORMATS & CODEC_FORMATS)
    assert NATIVE_FORMATS | CODEC_FORMATS == {
        "png", "bmp", "wav", "rvid", "jpeg", "mp3", "flac", "ogg"}


# ---- any-format decode: native paths work everywhere -------------------


def test_decode_image_any_native_roundtrips():
    px = _px(5, 7, seed=2)
    assert np.array_equal(decode_image_any(encode_bmp(px)), px)
    assert np.array_equal(decode_image_any(encode_png(px)), px)


def test_decode_audio_any_native_roundtrip():
    samples = np.random.default_rng(3).integers(
        -3000, 3000, 128).astype(np.int16)
    rate, got = decode_audio_any(encode_wav(samples, 16000))
    assert rate == 16000 and np.array_equal(got, samples)


def test_decode_any_unknown_container_raises():
    with pytest.raises(NotImplementedError, match="unrecognized image"):
        decode_image_any(b"garbage bytes")
    with pytest.raises(NotImplementedError, match="unrecognized audio"):
        decode_audio_any(b"garbage bytes")


# ---- the real extractor tier: sniff dispatch end to end ----------------


def test_real_tier_decodes_native_formats_to_numpy_parity():
    """decoder="real" must produce byte-identical features to the numpy
    tier on native payloads — the adapter only ADDS formats."""
    real = MediaFeatureExtractor(decoder="real")
    base = MediaFeatureExtractor(decoder="numpy")
    px = _px(6, 6, seed=4)
    wav = encode_wav(np.arange(-50, 50, dtype=np.int16), 8000)
    for payload, modality in [(encode_png(px), "image"),
                              (encode_bmp(px), "image"),
                              (wav, "audio")]:
        np.testing.assert_array_equal(
            real._decode(payload, modality), base._decode(payload, modality))


@pytest.mark.skipif(HAS_PIL, reason="Pillow present: JPEG decodes instead")
def test_real_tier_jpeg_raises_exactly_without_pillow():
    ex = MediaFeatureExtractor(decoder="real")
    with pytest.raises(NotImplementedError, match="Pillow"):
        ex._decode(_JPEG_PREFIX + b"\x00" * 32, "image")


@pytest.mark.skipif(HAS_SOUNDFILE,
                    reason="soundfile present: MP3 decodes instead")
def test_real_tier_mp3_raises_exactly_without_soundfile():
    with pytest.raises(NotImplementedError, match="soundfile"):
        decode_audio_any(b"ID3\x04\x00" + b"\x00" * 32)


def test_real_tier_codecd_video_stays_a_seam():
    ex = MediaFeatureExtractor(decoder="real")
    with pytest.raises(NotImplementedError, match="ffmpeg"):
        ex._decode(b"\x00\x00\x00\x18ftypmp42", "video")


# ---- decoder parity where the libraries exist (skipped here) -----------


@pytest.mark.skipif(not HAS_PIL, reason="Pillow not in this container")
def test_jpeg_roundtrip_parity_with_pillow():
    from zeeklog_ray.ops.mediacodec import decode_jpeg, encode_jpeg

    px = _px(16, 16, seed=5)
    got = decode_jpeg(encode_jpeg(px, quality=95))
    assert got.shape == px.shape and got.dtype == np.uint8
    # JPEG is lossy: high quality keeps mean abs error small
    assert np.abs(got.astype(int) - px.astype(int)).mean() < 12


@pytest.mark.skipif(not HAS_PIL, reason="Pillow not in this container")
def test_media_jpeg_features_query_runs(ray_session):
    from zeeklog_ray.queries import QUERIES

    assert "media_jpeg_features" in QUERIES
    out = QUERIES["media_jpeg_features"]("/root/testdata/sf0.001").to_pandas()
    assert len(out) > 0


@pytest.mark.skipif(HAS_PIL, reason="Pillow present: query is registered")
def test_media_jpeg_query_not_registered_without_pillow():
    from zeeklog_ray.queries import QUERIES

    assert "media_jpeg_features" not in QUERIES

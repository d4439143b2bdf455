"""Multimodal: real numpy BMP/WAV/RVID codecs, exact feature values on
known payloads, schema, map stage, decoder tiers."""

import json

import numpy as np
import pyarrow as pa
import pytest
import ray.data

from zeeklog_ray.ops.multimodal import (
    FEATURE_DIM,
    MediaFeatureExtractor,
    audio_features,
    decode_bmp,
    decode_image,
    decode_png,
    decode_video,
    decode_wav,
    encode_bmp,
    encode_png,
    encode_video,
    encode_wav,
    extract_features,
    image_features,
    synth_media_table,
    video_features,
)


# ---- codecs: round-trip on random data --------------------------------


def test_bmp_roundtrip():
    rng = np.random.default_rng(0)
    for h, w in [(1, 1), (3, 5), (16, 9), (7, 4)]:   # odd widths hit row pad
        px = rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
        assert np.array_equal(decode_bmp(encode_bmp(px)), px), (h, w)


def test_png_roundtrip():
    rng = np.random.default_rng(4)
    for h, w in [(1, 1), (3, 5), (16, 9), (32, 32)]:
        px = rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
        assert np.array_equal(decode_png(encode_png(px)).reshape(h, w, 3), px)


def test_png_unfilters_all_filter_types():
    """Hand-filter scanlines with every PNG filter (None/Sub/Up/Average/
    Paeth per the spec formulas) and check the decoder reconstructs the
    original pixels — our encoder only emits filter 0, so this is the
    real-world-PNG path."""
    import struct
    import zlib

    from zeeklog_ray.ops.multimodal import _PNG_SIG, _png_chunk

    rng = np.random.default_rng(6)
    h, w, bpp = 5, 7, 3
    px = rng.integers(0, 256, (h, w, bpp), dtype=np.uint8)
    flat = px.reshape(h, w * bpp).astype(np.int64)

    def paeth(a, b, c):
        p = a + b - c
        pa_, pb, pc_ = abs(p - a), abs(p - b), abs(p - c)
        return a if (pa_ <= pb and pa_ <= pc_) else (b if pb <= pc_ else c)

    raw = bytearray()
    filters = [0, 1, 2, 3, 4]
    for y, f in enumerate(filters):
        line = flat[y]
        prev = flat[y - 1] if y else np.zeros(w * bpp, np.int64)
        out = np.zeros(w * bpp, np.int64)
        for x in range(w * bpp):
            a = line[x - bpp] if x >= bpp else 0
            b = prev[x]
            c = prev[x - bpp] if x >= bpp else 0
            if f == 0:
                out[x] = line[x]
            elif f == 1:
                out[x] = line[x] - a
            elif f == 2:
                out[x] = line[x] - b
            elif f == 3:
                out[x] = line[x] - (a + b) // 2
            else:
                out[x] = line[x] - paeth(a, b, c)
        raw.append(f)
        raw.extend((out % 256).astype(np.uint8).tobytes())
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    payload = (_PNG_SIG + _png_chunk(b"IHDR", ihdr)
               + _png_chunk(b"IDAT", zlib.compress(bytes(raw)))
               + _png_chunk(b"IEND", b""))
    assert np.array_equal(decode_png(payload), px)


def test_png_gray_and_rgba_supported():
    import struct
    import zlib

    from zeeklog_ray.ops.multimodal import _PNG_SIG, _png_chunk

    rng = np.random.default_rng(10)
    for color, ch in ((0, 1), (6, 4)):
        h, w = 4, 3
        px = rng.integers(0, 256, (h, w, ch), dtype=np.uint8)
        raw = np.zeros((h, 1 + w * ch), dtype=np.uint8)
        raw[:, 1:] = px.reshape(h, w * ch)
        ihdr = struct.pack(">IIBBBBB", w, h, 8, color, 0, 0, 0)
        payload = (_PNG_SIG + _png_chunk(b"IHDR", ihdr)
                   + _png_chunk(b"IDAT", zlib.compress(raw.tobytes()))
                   + _png_chunk(b"IEND", b""))
        assert np.array_equal(decode_png(payload), px)
        dec = decode_image(payload)                 # feature entry point
        assert dec.shape == (h, w, 3)


def test_wav_roundtrip():
    rng = np.random.default_rng(1)
    x = rng.integers(-32768, 32768, 777, dtype=np.int16)
    rate, got = decode_wav(encode_wav(x, 44100))
    assert rate == 44100
    assert np.array_equal(got, x)


def test_wav_chunk_walk_skips_extra_chunks():
    """Decoder must walk chunks, not assume data at a fixed offset."""
    x = np.array([100, -100, 200], dtype=np.int16)
    payload = encode_wav(x, 8000)
    # splice a LIST chunk between fmt and data
    fmt_end = payload.index(b"data")
    extra = b"LIST" + (4).to_bytes(4, "little") + b"INFO"
    spliced = payload[:fmt_end] + extra + payload[fmt_end:]
    rate, got = decode_wav(spliced)
    assert rate == 8000 and np.array_equal(got, x)


def test_video_roundtrip():
    rng = np.random.default_rng(2)
    frames = rng.integers(0, 256, (5, 4, 6, 3), dtype=np.uint8)
    assert np.array_equal(decode_video(encode_video(frames)), frames)


def test_codec_magic_validation():
    with pytest.raises(ValueError):
        decode_bmp(b"not a bmp")
    with pytest.raises(ValueError):
        decode_wav(b"RIFFxxxxJUNK")
    with pytest.raises(ValueError):
        decode_video(b"nope")


# ---- features: exact values on known payloads -------------------------


def test_image_features_solid_red():
    px = np.zeros((4, 8, 3), dtype=np.uint8)
    px[..., 0] = 255                                  # solid red 8x4
    f = image_features(px)
    assert f.shape == (FEATURE_DIM,)
    assert f[0] == pytest.approx(8 / 4096) and f[1] == pytest.approx(4 / 4096)
    assert f[2] == pytest.approx(1.0)                 # mean R
    assert f[3] == 0.0 and f[4] == 0.0                # mean G, B
    assert f[5] == 0.0                                # gray std (uniform)
    # gray = 1/3 everywhere -> all mass in hist bin 2 ([0.25, 0.375))
    assert f[6 + 2] == pytest.approx(1.0)
    assert f[14] == f[15] == pytest.approx(1 / 3)     # gray min == max


def test_audio_features_full_scale_square_wave():
    # +/- 32767 alternating: RMS ~= peak ~= mean|amp| ~= 1, zcr ~= 1
    x = np.tile(np.array([32767, -32767], dtype=np.int16), 500)
    f = audio_features(8000, x)
    assert f.shape == (FEATURE_DIM,)
    assert f[0] == pytest.approx(8000 / 192000)
    assert f[2] == pytest.approx(1000 / 8000 / 60)    # duration feature
    assert f[3] == pytest.approx(1.0, abs=1e-4)       # rms
    assert f[4] == pytest.approx(1.0, abs=1e-3)       # zcr
    assert f[5] == pytest.approx(1.0, abs=1e-4)       # peak
    assert f[7] == pytest.approx(1.0, abs=1e-4)       # crest rms/peak
    assert f[8 + 7] == pytest.approx(1.0)             # all |amp| in top bin


def test_audio_features_silence():
    f = audio_features(16000, np.zeros(100, dtype=np.int16))
    assert f[3] == f[4] == f[5] == f[6] == f[7] == 0.0
    assert f[8] == pytest.approx(1.0)                 # all |amp| in bin 0


def test_video_features_static_vs_moving():
    base = np.full((6, 4, 4, 3), 128, dtype=np.uint8)
    f_static = video_features(base)
    assert f_static.shape == (FEATURE_DIM,)
    assert f_static[6] == 0.0                          # no motion
    moving = base.copy()
    moving[3:] = 255                                   # hard cut mid-clip
    f_moving = video_features(moving)
    assert f_moving[6] > 0.1                           # motion detected
    assert f_moving[7] == pytest.approx(1 - 128 / 255, abs=1e-3)  # gray range


# ---- synth corpus -----------------------------------------------------


def test_synth_table_schema_and_payloads_decode():
    t = synth_media_table(60)
    assert t.schema.equals(pa.schema([
        ("item_id", pa.string()), ("payload", pa.binary()),
        ("modality", pa.string()), ("meta", pa.string())]))
    assert len(t) == 60
    assert t.equals(synth_media_table(60))            # deterministic
    # every payload is REAL encoded media matching its meta
    for payload, mod, meta in zip(t["payload"].to_pylist(),
                                  t["modality"].to_pylist(),
                                  t["meta"].to_pylist()):
        m = json.loads(meta)
        if mod == "image":
            px = decode_image(payload)              # sniffs PNG vs BMP
            assert px.shape == (m["height"], m["width"], 3)
            assert m["format"] in ("png", "bmp")
        elif mod == "audio":
            rate, samples = decode_wav(payload)
            assert rate == m["sample_rate"] and samples.size == m["n_samples"]
        else:
            frames = decode_video(payload)
            assert frames.shape[:3] == (m["n_frames"], m["height"], m["width"])


# ---- extractor stage --------------------------------------------------


def test_extractor_unit_deterministic():
    ex = MediaFeatureExtractor()                       # numpy decoder default
    t = synth_media_table(9)
    out1, out2 = ex(t), ex(t)
    assert out1.equals(out2)
    assert out1.column_names == ["item_id", "modality", "n_bytes", "features"]
    f = out1["features"][0].as_py()
    assert len(f) == FEATURE_DIM and all(0.0 <= x <= 1.0 for x in f)


def test_fake_decoder_digest_personalized_by_modality():
    ex = MediaFeatureExtractor(decoder="fake")
    p = b"arbitrary non-media bytes"
    assert not np.allclose(ex._decode(p, "image"), ex._decode(p, "audio"))


def test_real_decoder_is_explicit_stub():
    ex = MediaFeatureExtractor(decoder="real")
    with pytest.raises(NotImplementedError):
        ex._decode(b"bytes", "image")
    with pytest.raises(ValueError):
        MediaFeatureExtractor(decoder="nope")


def test_actor_pool_pipeline(ray_session):
    ds = ray.data.from_arrow(synth_media_table(200))
    out = extract_features(ds, batch_size=32).to_pandas()
    assert len(out) == 200
    assert (out["n_bytes"] > 0).all()
    assert out["features"].map(len).eq(FEATURE_DIM).all()
    # real features: a known solid-red image decodes to mean-R == 1
    red = encode_bmp(np.stack([np.full((4, 4), 255, np.uint8),
                               np.zeros((4, 4), np.uint8),
                               np.zeros((4, 4), np.uint8)], axis=2))
    import pyarrow as pa

    t = pa.table({"item_id": ["red"], "payload": pa.array([red], pa.binary()),
                  "modality": ["image"], "meta": ["{}"]})
    got = extract_features(ray.data.from_arrow(t)).to_pandas()
    assert got["features"][0][2] == pytest.approx(1.0)


def test_resize_image_identity_and_known_values():
    from zeeklog_ray.ops.multimodal import resize_image

    rng = np.random.default_rng(3)
    img = rng.integers(0, 256, (16, 12, 3), dtype=np.uint8)
    # same-size bilinear is exactly identity (half-pixel mapping lands on
    # integer coordinates with zero fractional weight)
    assert (resize_image(img, 16, 12) == img).all()
    # 2x2 constant blocks downsample by 2 exactly (all four lerp sources
    # equal) — pins the sampling grid
    big = np.repeat(np.repeat(img, 2, axis=0), 2, axis=1)
    assert (resize_image(big, 16, 12) == img).all()
    assert (resize_image(big, 16, 12, method="nearest") == img).all()
    # hand-computed 1-D case: [[0, 100]] -> width 4 at half-pixel centers
    row = np.array([[[0, 0, 0], [100, 100, 100]]], dtype=np.uint8)
    out = resize_image(row, 1, 4)
    assert out[0, :, 0].tolist() == [0, 25, 75, 100]


def test_resize_images_actor_stage(ray_session):
    from zeeklog_ray.ops.multimodal import (
        decode_bmp,
        encode_bmp,
        resize_images,
        synth_media_table,
    )

    t = synth_media_table(60)
    res = resize_images(ray.data.from_arrow(t), 32, 24).to_pandas()
    n_img = sum(1 for m in t["modality"].to_pylist() if m == "image")
    assert len(res) == n_img
    assert (res["out_w"] == 32).all() and (res["out_h"] == 24).all()
    expected_bytes = 54 + 24 * ((32 * 3 + 3) // 4 * 4)
    assert (res["n_bytes"] == expected_bytes).all()
    px = decode_bmp(res["payload"].iloc[0])
    assert px.shape == (24, 32, 3)
    # round-trip: re-encoding the decoded pixels is byte-identical
    assert encode_bmp(px) == res["payload"].iloc[0]


def test_dhash_exact_values_and_invariance():
    """dHash on hand-built gradients: known bits, identical images
    collide, a few-pixel perturbation flips only a few bits."""
    import numpy as np

    from zeeklog_ray.ops.multimodal import dhash_image

    # horizontal ramp: every gradient positive -> all 64 bits set -> -1
    ramp = np.tile(np.arange(0, 160, 10, dtype=np.uint8)[None, :, None],
                   (16, 1, 3))
    assert dhash_image(ramp) == -1
    # constant image: no gradient -> 0
    flat = np.full((12, 20, 3), 77, dtype=np.uint8)
    assert dhash_image(flat) == 0

    rng = np.random.default_rng(3)
    img = rng.integers(0, 256, (32, 32, 3), dtype=np.uint8)
    h1 = dhash_image(img)
    assert dhash_image(img.copy()) == h1
    pert = img.copy()
    pert[5, 5] = 255 - pert[5, 5]          # one pixel
    h2 = dhash_image(pert)
    x = np.uint64(np.int64(h1)) ^ np.uint64(np.int64(h2))
    assert bin(int(x)).count("1") <= 4


def test_phash_dup_groups_planted(ray_session):
    """Planted near-dup images group together; distinct images do not."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from zeeklog_ray.ops.multimodal import (
        encode_bmp,
        encode_png,
        phash_dup_groups,
        phash_images,
    )

    rng = np.random.default_rng(11)
    base = rng.integers(0, 256, (24, 24, 3), dtype=np.uint8)
    near = base.copy()
    near[0, 0] = 0                          # tiny edit
    other = rng.integers(0, 256, (24, 24, 3), dtype=np.uint8)
    rows = [("a-base", encode_bmp(base)), ("b-near", encode_png(near)),
            ("c-dup", encode_bmp(base)), ("d-other", encode_bmp(other))]
    t = pa.table({
        "item_id": pa.array([r[0] for r in rows], pa.string()),
        "payload": pa.array([r[1] for r in rows], pa.binary()),
        "modality": pa.array(["image"] * 4, pa.string()),
        "meta": pa.array(["{}"] * 4, pa.string()),
    })
    ph = phash_images(ray.data.from_arrow(t)).materialize()
    assert ph.count() == 4
    comp = phash_dup_groups(ph, max_hamming=6).to_pandas()
    grouped = comp.groupby("component")["node"].apply(set).tolist()
    assert {"a-base", "b-near", "c-dup"} in grouped
    assert not any("d-other" in g and len(g) > 1 for g in grouped)


def test_audio_fingerprint_level_robust(ray_session):
    """Identical clips collide; a gain-scaled copy is within a few bits;
    a different clip is far; grouping works through phash_dup_groups."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from zeeklog_ray.ops.multimodal import (
        afp_audio,
        audio_fingerprints,
        encode_wav,
        phash_dup_groups,
    )

    rng = np.random.default_rng(23)
    t = np.arange(4096, dtype=np.float64) / 16000
    clip = (np.sin(2 * np.pi * 440 * t) * (0.2 + 0.6 * np.abs(
        np.sin(2 * np.pi * 3 * t))) * 20000)
    base = clip.astype(np.int16)
    half = (clip * 0.5).astype(np.int16)
    other = (rng.normal(0, 8000, 4096)).astype(np.int16)

    h_base = afp_audio(16000, base)
    assert afp_audio(16000, base.copy()) == h_base
    x = np.uint64(np.int64(h_base)) ^ np.uint64(np.int64(afp_audio(16000, half)))
    assert bin(int(x)).count("1") <= 4       # level-robust
    y = np.uint64(np.int64(h_base)) ^ np.uint64(np.int64(afp_audio(16000, other)))
    assert bin(int(y)).count("1") >= 10      # different content is far

    rows = [("a", base), ("b", half), ("c", other)]
    tbl = pa.table({
        "item_id": pa.array([r[0] for r in rows], pa.string()),
        "payload": pa.array([encode_wav(r[1], 16000) for r in rows],
                            pa.binary()),
        "modality": pa.array(["audio"] * 3, pa.string()),
        "meta": pa.array(["{}"] * 3, pa.string()),
    })
    fp = audio_fingerprints(ray.data.from_arrow(tbl)).materialize()
    comp = phash_dup_groups(fp, max_hamming=6).to_pandas()
    groups = comp.groupby("component")["node"].apply(set).tolist()
    assert {"a", "b"} in groups
    assert not any("c" in g and len(g) > 1 for g in groups)


def test_video_hash_dedup(ray_session):
    """Identical videos collide; frame-reordered copies collide (mean
    frame invariant); a brightness-shifted copy is near; different
    content is far."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from zeeklog_ray.ops.multimodal import (
        encode_video,
        phash_dup_groups,
        vhash_video,
        video_hashes,
    )

    rng = np.random.default_rng(31)
    frames = rng.integers(0, 256, (6, 16, 16, 3), dtype=np.uint8)
    h = vhash_video(frames)
    assert vhash_video(frames[::-1]) == h            # reorder-invariant
    bright = np.clip(frames.astype(np.int64) + 6, 0, 255).astype(np.uint8)
    xb = np.uint64(np.int64(h)) ^ np.uint64(np.int64(vhash_video(bright)))
    assert bin(int(xb)).count("1") <= 3
    other = rng.integers(0, 256, (6, 16, 16, 3), dtype=np.uint8)
    xo = np.uint64(np.int64(h)) ^ np.uint64(np.int64(vhash_video(other)))
    assert bin(int(xo)).count("1") >= 10

    rows = [("v1", frames), ("v2", frames[::-1].copy()), ("v3", other)]
    t = pa.table({
        "item_id": pa.array([r[0] for r in rows], pa.string()),
        "payload": pa.array([encode_video(r[1]) for r in rows], pa.binary()),
        "modality": pa.array(["video"] * 3, pa.string()),
        "meta": pa.array(["{}"] * 3, pa.string()),
    })
    vh = video_hashes(ray.data.from_arrow(t)).materialize()
    comp = phash_dup_groups(vh, max_hamming=3).to_pandas()
    groups = comp.groupby("component")["node"].apply(set).tolist()
    assert {"v1", "v2"} in groups
    assert not any("v3" in g and len(g) > 1 for g in groups)

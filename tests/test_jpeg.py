"""Baseline JPEG codec: exactness on DC-only content, round-trip PSNR,
marker handling, unsupported-mode refusal, and the decode stage."""

import numpy as np
import pytest


from link_profiler_repo_ray.functions.jpegx import (  # noqa: E402
    decode_jpeg,
    encode_jpeg_gray,
    encode_jpeg_rgb,
)


def _psnr(a: np.ndarray, b: np.ndarray) -> float:
    mse = float(np.mean((a.astype(np.float64) - b.astype(np.float64)) ** 2))
    return float("inf") if mse == 0 else 10 * np.log10(255.0**2 / mse)


def test_flat_gray_exact():
    # a constant block is DC-only; for even values the quantized DC
    # round-trips exactly ((v-128)*8 divisible by q00=16)
    for v in (0, 64, 130, 254):
        pix = np.full((16, 24), v, np.uint8)
        d = decode_jpeg(encode_jpeg_gray(pix), return_pixels=True)
        assert d["width"] == 24 and d["height"] == 16 and d["channels"] == 1
        assert (d["pixels"] == v).all(), f"flat {v} not exact"


def test_gray_gradient_psnr():
    h, w = 24, 40
    pix = ((np.arange(w)[None, :] * 5 + np.arange(h)[:, None] * 3) % 256).astype(np.uint8)
    d = decode_jpeg(encode_jpeg_gray(pix), return_pixels=True)
    assert d["pixels"].shape == (h, w)
    assert _psnr(pix, d["pixels"]) > 28.0
    assert abs(d["mean_value"] - pix.mean()) < 1.0


def test_rgb_roundtrip():
    h, w = 16, 32
    yy, xx = np.mgrid[0:h, 0:w]
    pix = np.stack([(40 + xx * 3) % 256, (80 + yy * 5) % 256, np.full_like(xx, 200)],
                   axis=-1).astype(np.uint8)
    d = decode_jpeg(encode_jpeg_rgb(pix), return_pixels=True)
    assert d["channels"] == 3 and d["pixels"].shape == (h, w, 3)
    assert _psnr(pix, d["pixels"]) > 25.0


def test_non_multiple_of_8_dimensions():
    pix = np.full((13, 19), 100, np.uint8)
    d = decode_jpeg(encode_jpeg_gray(pix), return_pixels=True)
    assert d["pixels"].shape == (13, 19)
    assert (d["pixels"] == 100).all()


def test_deterministic_bytes():
    pix = (np.arange(8 * 16, dtype=np.uint8) % 256).reshape(8, 16)
    assert encode_jpeg_gray(pix) == encode_jpeg_gray(pix)


def test_progressive_refused():
    b = encode_jpeg_gray(np.full((8, 8), 99, np.uint8))
    # rewrite the SOF0 marker (FFC0) to SOF2 (progressive)
    i = b.index(b"\xff\xc0")
    forged = b[:i] + b"\xff\xc2" + b[i + 2:]
    with pytest.raises(ValueError, match="non-baseline"):
        decode_jpeg(forged)


def test_not_a_jpeg_refused():
    with pytest.raises(ValueError):
        decode_jpeg(b"\x89PNG\r\n\x1a\n")


def test_sniff_and_dispatch():
    from link_profiler_repo_ray.functions.media import decode_media, sniff_kind

    b = encode_jpeg_gray(np.full((8, 8), 130, np.uint8))
    assert sniff_kind(b) == "jpeg"
    d = decode_media(b)
    assert d["kind"] == "jpeg" and d["mean_value"] == 130.0


def test_jpeg_decode_stage(ray_session):
    import pyarrow as pa

    from link_profiler_repo_ray.pipelines.textdata import (
        JpegDecodeStage,
        synth_jpeg_payloads,
    )

    batch = pa.table({"doc_id": list(range(12))})
    out = JpegDecodeStage()(synth_jpeg_payloads(batch))
    assert out.num_rows == 12
    assert out.column("mean_ok").to_pylist() == [True] * 12
    assert out.column("channels").to_pylist() == [3 if d % 3 == 0 else 1 for d in range(12)]


def test_restart_markers_roundtrip():
    pix = ((np.arange(48)[None, :] * 7 + np.arange(24)[:, None] * 3) % 256).astype(np.uint8)
    plain = decode_jpeg(encode_jpeg_gray(pix), return_pixels=True)
    with_rst = decode_jpeg(encode_jpeg_gray(pix, restart_interval=3), return_pixels=True)
    # restart markers change the entropy stream layout, not the pixels
    assert (plain["pixels"] == with_rst["pixels"]).all()


def test_420_subsampled_roundtrip():
    h, w = 24, 40
    yy, xx = np.mgrid[0:h, 0:w]
    rgb = np.stack([(40 + xx * 2) % 256, (80 + yy * 3) % 256, np.full_like(xx, 180)],
                   axis=-1).astype(np.uint8)
    d = decode_jpeg(encode_jpeg_rgb(rgb, subsample=True), return_pixels=True)
    assert d["pixels"].shape == (h, w, 3)
    assert _psnr(rgb, d["pixels"]) > 28.0


def test_420_flat_gray_exact():
    flat = np.full((16, 16, 3), 120, np.uint8)  # gray -> chroma exactly 128
    d = decode_jpeg(encode_jpeg_rgb(flat, subsample=True), return_pixels=True)
    assert (d["pixels"] == 120).all()


class TestAviMjpeg:
    def test_roundtrip_exact_flat_frames(self):
        from link_profiler_repo_ray.functions.media import (
            decode_avi_mjpeg,
            encode_avi_mjpeg,
        )

        frames = [np.full((16, 24), 100 + 10 * k, np.uint8) for k in range(6)]
        d = decode_avi_mjpeg(encode_avi_mjpeg(frames, fps=5), sample_every=2)
        assert d["kind"] == "avi_mjpeg"
        assert (d["n_frames"], d["n_sampled"], d["fps"]) == (6, 3, 5.0)
        assert d["mean_value"] == (100 + 120 + 140) / 3

    def test_rgb_frames_and_sniff(self):
        from link_profiler_repo_ray.functions.media import (
            decode_media,
            encode_avi_mjpeg,
            sniff_kind,
        )

        frames = [np.full((8, 8, 3), 64, np.uint8) for _ in range(3)]
        b = encode_avi_mjpeg(frames)
        assert sniff_kind(b) == "avi"
        d = decode_media(b)
        assert d["kind"] == "avi_mjpeg" and d["channels"] == 3
        assert d["mean_value"] == 64.0  # gray RGB decodes exactly

    def test_header_frame_count_guard(self):
        from link_profiler_repo_ray.functions.media import (
            decode_avi_mjpeg,
            encode_avi_mjpeg,
        )

        b = bytearray(encode_avi_mjpeg([np.full((8, 8), 50, np.uint8)] * 4))
        # corrupt the avih total-frames field (offset: RIFF(12) + LIST hdr
        # (8) + 'hdrl'(4) + 'avih' hdr(8) + 16 bytes into avih payload)
        off = 12 + 8 + 4 + 8 + 16
        b[off:off + 4] = (99).to_bytes(4, "little")
        with pytest.raises(ValueError, match="declares"):
            decode_avi_mjpeg(bytes(b))

    def test_not_avi_refused(self):
        from link_profiler_repo_ray.functions.media import decode_avi_mjpeg

        with pytest.raises(ValueError):
            decode_avi_mjpeg(b"RIFF\x00\x00\x00\x00WAVE")

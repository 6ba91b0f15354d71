import numpy as np
import pytest

from stereo_bp import (
    DisparityMap,
    GrayImage,
    PgmError,
    read_disparity_pgm,
    read_pgm,
    to_grayscale,
    write_pgm,
)


def test_read_p5_minimal(tmp_path):
    path = tmp_path / "tiny.pgm"
    path.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 255, 128, 7]))
    img = read_pgm(path)
    assert img.width == 2 and img.height == 2
    assert img.samples.tolist() == [[0, 255], [128, 7]]


def test_p2_p5_decode_identically(tmp_path):
    p5 = tmp_path / "a.pgm"
    p2 = tmp_path / "b.pgm"
    p5.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 255, 128, 7]))
    p2.write_bytes(b"P2\n2 2\n255\n0 255\n128 7\n")
    assert np.array_equal(read_pgm(p5).samples, read_pgm(p2).samples)


def test_truncated_raster_reports_offset(tmp_path):
    path = tmp_path / "short.pgm"
    path.write_bytes(b"P5\n2 2\n255\n" + bytes([1, 2, 3]))
    with pytest.raises(PgmError, match="truncated") as err:
        read_pgm(path)
    assert err.value.offset is not None


def test_header_comments_and_crlf(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P2 # comment\r\n# another\r\n2 1\r\n255\r\n9 10\r\n")
    assert read_pgm(path).samples.tolist() == [[9, 10]]


@pytest.mark.parametrize(
    "body", [b"P3\n1 1\n255\n0", b"P5\n1 1\n999\n\x00", b"P5\nx 1\n255\n\x00"]
)
def test_malformed_headers(tmp_path, body):
    path = tmp_path / "bad.pgm"
    path.write_bytes(body)
    with pytest.raises(PgmError):
        read_pgm(path)


def test_missing_file():
    with pytest.raises(FileNotFoundError):
        read_pgm("/nonexistent/image.pgm")


@pytest.mark.parametrize("binary", [True, False])
def test_round_trip_identity(tmp_path, binary):
    rng = np.random.default_rng(3)
    img = GrayImage(rng.integers(0, 256, size=(11, 7), dtype=np.uint8))
    path = tmp_path / "rt.pgm"
    write_pgm(img, path, binary=binary)
    assert np.array_equal(read_pgm(path).samples, img.samples)


def test_disparity_scaling(tmp_path):
    dm = DisparityMap(np.array([[0, 1], [2, 3]], dtype=np.int32), scale_factor=8)
    path = tmp_path / "d.pgm"
    write_pgm(dm, path)
    assert read_pgm(path).samples.tolist() == [[0, 8], [16, 24]]
    back = read_disparity_pgm(path, scale_factor=8)
    assert np.array_equal(back.labels, dm.labels)


@pytest.mark.filterwarnings("error")
def test_disparity_read_rejects_scale_below_one(tmp_path):
    path = tmp_path / "d.pgm"
    write_pgm(DisparityMap(np.array([[1, 2]], dtype=np.int32), scale_factor=8), path)
    with pytest.raises(ValueError, match="scale_factor must be >= 1"):
        read_disparity_pgm(path, scale_factor=0)


def test_disparity_overflow():
    dm = DisparityMap(np.array([[20]], dtype=np.int32), scale_factor=16)
    with pytest.raises(ValueError, match="exceeds 255"):
        write_pgm(dm, "/dev/null")


def test_invalid_encodes_as_zero(tmp_path):
    dm = DisparityMap(np.array([[-1, 2]], dtype=np.int32), scale_factor=8)
    path = tmp_path / "inv.pgm"
    write_pgm(dm, path)
    assert read_pgm(path).samples.tolist() == [[0, 16]]


def test_to_grayscale_known_values():
    img = to_grayscale([[255, 0, 100]], [[255, 0, 200]], [[255, 0, 50]])
    # round(0.299*100 + 0.587*200 + 0.114*50) = round(153.0) = 153
    assert img.samples.tolist() == [[255, 0, 153]]


def test_to_grayscale_shape_mismatch():
    with pytest.raises(ValueError):
        to_grayscale(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 3)))

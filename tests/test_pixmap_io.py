import numpy as np
import pytest

from stereo_bp import (
    DisparityMap,
    GrayImage,
    PgmError,
    read_disparity_pgm,
    read_pgm,
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


def test_p5_needs_a_whitespace_byte_after_maxval(tmp_path):
    # a comment there would otherwise be read as raster bytes
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P5\n3 2\n255#c\n" + bytes(range(6)))
    with pytest.raises(PgmError, match="whitespace byte after maxval") as err:
        read_pgm(path)
    assert err.value.offset == 10


@pytest.mark.parametrize(
    "body, offset",
    [(b"P5\nx 1\n255\n\x00", 3), (b"P5\n1 x\n255\n\x00", 5), (b"P5\n1 1\nx\n\x00", 7)],
)
def test_non_numeric_header_field_reports_its_offset(tmp_path, body, offset):
    path = tmp_path / "bad.pgm"
    path.write_bytes(body)
    with pytest.raises(PgmError, match="non-numeric header field") as err:
        read_pgm(path)
    assert err.value.offset == offset


@pytest.mark.parametrize(
    "body, message",
    [
        (b"P5\n1 1\n# no maxval", "unexpected end of header"),
        (b"P2\n2 2\n255\n1 2\n3 # no fourth sample", "truncated raster"),
    ],
)
def test_running_out_of_tokens_reports_the_end(tmp_path, body, message):
    # a token is never taken from inside a comment
    path = tmp_path / "short.pgm"
    path.write_bytes(body)
    with pytest.raises(PgmError, match=message) as err:
        read_pgm(path)
    assert err.value.offset == len(body)


@pytest.mark.parametrize(
    "p2",
    [
        b"P2\r2 2\r255\r0 255 # first row\r# between rows\r128\r7\r",
        b"P2\n2 2\n255#c\n0 255 128 7",
    ],
)
def test_p2_comments_and_line_ends_decode_like_p5(tmp_path, p2):
    p5 = tmp_path / "a.pgm"
    p5.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 255, 128, 7]))
    path = tmp_path / "b.pgm"
    path.write_bytes(p2)
    assert np.array_equal(read_pgm(path).samples, read_pgm(p5).samples)


def test_non_numeric_p2_sample_reports_its_offset(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P2\n3 1\n255\n4 # 5\n6 x7\n")
    with pytest.raises(PgmError, match="non-numeric sample b'x7'") as err:
        read_pgm(path)
    assert err.value.offset == 19


@pytest.mark.parametrize("token", [b"2_55", b"+7", b"1_0", b"-1"])
def test_header_field_must_be_decimal_digits(tmp_path, token):
    # int() would read 2_55 as 255, +7 as 7 and 1_0 as 10
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P2\n2 1\n" + token + b"\n7 10\n")
    with pytest.raises(PgmError, match="non-numeric header field") as err:
        read_pgm(path)
    assert err.value.offset == 7


@pytest.mark.parametrize("token", [b"2_55", b"+7", b"1_0", b"-1"])
def test_p2_sample_must_be_decimal_digits(tmp_path, token):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P2\n2 1\n255\n7 " + token + b"\n")
    with pytest.raises(PgmError, match="non-numeric sample") as err:
        read_pgm(path)
    assert err.value.offset == 13


def test_missing_file():
    with pytest.raises(FileNotFoundError):
        read_pgm("/nonexistent/image.pgm")


@pytest.mark.parametrize("binary", [True, False])
def test_round_trip_identity(tmp_path, binary):
    rng = np.random.default_rng(3)
    img = GrayImage(rng.integers(0, 256, size=(11, 7), dtype=np.uint8))
    path = tmp_path / "rt.pgm"
    if binary:
        write_pgm(img, path)
        assert path.read_bytes().startswith(b"P5\n7 11\n255\n")
    else:  # write_pgm writes only P5, so the P2 text is written here
        rows = "\n".join(" ".join(map(str, row)) for row in img.samples.tolist())
        path.write_text(f"P2\n7 11\n255\n{rows}\n")
    assert np.array_equal(read_pgm(path).samples, img.samples)


@pytest.mark.parametrize("scale", [8, np.int64(8), np.uint8(8)], ids=repr)
def test_disparity_scaling(tmp_path, scale):
    dm = DisparityMap(np.array([[0, 1], [2, 3]], dtype=np.int32), scale_factor=scale)
    path = tmp_path / "d.pgm"
    write_pgm(dm, path)
    assert read_pgm(path).samples.tolist() == [[0, 8], [16, 24]]
    back = read_disparity_pgm(path, scale_factor=scale)
    assert np.array_equal(back.labels, dm.labels)
    assert type(back.scale_factor) is int and back.scale_factor == 8
    # assigned after construction, as the benchmark fixture does
    dm = DisparityMap(dm.labels)
    dm.scale_factor = scale
    write_pgm(dm, path)
    assert read_pgm(path).samples.tolist() == [[0, 8], [16, 24]]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [0, -3, np.int64(0), 2.5, 8.0, float("nan"), float("inf"),
                                   "8", None], ids=repr)
def test_disparity_scale_must_be_an_integer_from_one(tmp_path, scale):
    # 2.5 would write grays [[2, 7]] for labels [[1, 3]], NaN zeros
    path = tmp_path / "d.pgm"
    write_pgm(DisparityMap(np.array([[1, 2]], dtype=np.int32), scale_factor=8), path)
    with pytest.raises(ValueError, match="scale_factor must be an integer >= 1"):
        read_disparity_pgm(path, scale_factor=scale)
    with pytest.raises(ValueError, match="scale_factor must be an integer >= 1"):
        DisparityMap(np.array([[1, 3]], dtype=np.int32), scale_factor=scale)
    # a dataclass field can be assigned after construction
    dm = DisparityMap(np.array([[1, 3]], dtype=np.int32))
    dm.scale_factor = scale
    with pytest.raises(ValueError, match="scale_factor must be an integer >= 1"):
        write_pgm(dm, path)


def test_disparity_overflow():
    dm = DisparityMap(np.array([[20]], dtype=np.int32), scale_factor=16)
    with pytest.raises(ValueError, match="exceeds 255"):
        write_pgm(dm, "/dev/null")


@pytest.mark.parametrize("labels", [
    [[-2, 3]],
    np.array([[0, -2]], dtype=np.int32),
    [[2.7, 1]],
    [[-0.5, 1]],
    [[float("nan"), 1]],
    np.array([[2**31 + 3]], dtype=np.int64),
])
def test_disparity_map_rejects_labels_outside_int32_or_below_invalid(labels):
    # stored as int32, -2 * 8 would write gray 240 and read back as 30,
    # 2.7 and -0.5 would read 2 and 0, and 2**31 + 3 -2147483645
    with pytest.raises(ValueError, match=r"integers in \[-1, 2\*\*31\)"):
        DisparityMap(labels, scale_factor=8)


def test_disparity_map_keeps_int32_and_converts_integral_values():
    raw = np.array([[-1, 0], [7, 2**31 - 1]], dtype=np.int32)
    assert DisparityMap(raw).labels is raw
    for labels in (raw.tolist(), raw.astype(np.float64), raw.astype(np.int64)):
        got = DisparityMap(labels).labels
        assert got.dtype == np.int32
        assert np.array_equal(got, raw)


def test_invalid_encodes_as_zero(tmp_path):
    dm = DisparityMap(np.array([[-1, 2]], dtype=np.int32), scale_factor=8)
    path = tmp_path / "inv.pgm"
    write_pgm(dm, path)
    assert read_pgm(path).samples.tolist() == [[0, 16]]


@pytest.mark.parametrize("samples", [
    [[300, -1], [2, 5]],
    [[0, 256]],
    [[-1, 5]],
    [[2.7, 5]],
    [[float("nan"), 1]],
    [[float("inf"), 1]],
    np.array([[1, 1000]], dtype=np.int64),
])
def test_gray_image_rejects_samples_outside_uint8(samples):
    # once stored as uint8, 300 would read 44, -1 255 and 2.7 2
    with pytest.raises(ValueError, match=r"integers in \[0, 255\]"):
        GrayImage(samples)


def test_gray_image_keeps_uint8_and_converts_integral_values():
    raw = np.array([[0, 7], [128, 255]], dtype=np.uint8)
    assert GrayImage(raw).samples is raw
    for samples in ([[0, 7], [128, 255]], raw.astype(np.float64), raw.astype(np.int64)):
        got = GrayImage(samples).samples
        assert got.dtype == np.uint8
        assert np.array_equal(got, raw)

import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcsam.dcst import MAGIC, VERSION, read_tensor, tensor_bytes, tensor_from_bytes, write_tensor
from dcsam.errors import IoError
from dcsam.tensor import Tensor


def test_header_layout():
    raw = tensor_bytes(Tensor([[1.0, 2.0], [3.0, 4.0]]))
    assert raw[:4] == MAGIC
    assert raw[4] == VERSION
    assert raw[5] == 2
    assert struct.unpack("<2I", raw[6:14]) == (2, 2)
    assert len(raw) == 14 + 4 * 4


def test_round_trip_exact_for_float32_values(tmp_path):
    vals = np.array([[0.5, -1.25], [3.0, 1.0 / 1024.0]])
    p = tmp_path / "t.dcst"
    write_tensor(p, Tensor(vals))
    back = read_tensor(p)
    np.testing.assert_array_equal(back.data, vals)


def test_round_trip_rank0_and_rank1(tmp_path):
    for data in (np.asarray(2.5), np.array([1.0, 2.0, 3.0])):
        p = tmp_path / "x.dcst"
        write_tensor(p, Tensor(data))
        back = read_tensor(p)
        assert back.shape == data.shape
        np.testing.assert_array_equal(back.data, data)


def test_quantized_image_values_survive_disk():
    # episode images are quantized to 1/1024, exactly representable in float32
    grid = np.arange(0, 1024, dtype=np.float64).reshape(32, 32) / 1024.0
    back = tensor_from_bytes(tensor_bytes(Tensor(grid)))
    np.testing.assert_array_equal(back.data, grid)


def test_bad_magic():
    with pytest.raises(IoError, match="magic"):
        tensor_from_bytes(b"NOPE" + bytes([1, 0]))


def test_bad_version():
    with pytest.raises(IoError, match="version"):
        tensor_from_bytes(MAGIC + bytes([9, 0]))


def test_truncated_header():
    with pytest.raises(IoError, match="truncated"):
        tensor_from_bytes(MAGIC[:2])


def test_truncated_dims():
    raw = MAGIC + bytes([VERSION, 2]) + struct.pack("<I", 3)
    with pytest.raises(IoError, match="truncated"):
        tensor_from_bytes(raw)


def test_zero_dimension():
    raw = MAGIC + bytes([VERSION, 1]) + struct.pack("<I", 0)
    with pytest.raises(IoError, match="zero"):
        tensor_from_bytes(raw)


def test_payload_length_mismatch():
    raw = MAGIC + bytes([VERSION, 1]) + struct.pack("<I", 2) + b"\x00" * 4
    with pytest.raises(IoError, match="payload"):
        tensor_from_bytes(raw)


def test_element_count_guard():
    raw = MAGIC + bytes([VERSION, 2]) + struct.pack("<2I", 1 << 16, 1 << 16)
    with pytest.raises(IoError, match="limit"):
        tensor_from_bytes(raw)


def test_non_finite_payload_rejected():
    payload = struct.pack("<2f", 1.0, float("inf"))
    raw = MAGIC + bytes([VERSION, 1]) + struct.pack("<I", 2) + payload
    with pytest.raises(IoError):
        tensor_from_bytes(raw)


def test_a_signalling_nan_is_refused_without_a_cast_warning():
    payload = struct.pack("<f", 1.0) + struct.pack("<I", 0x7F800001)
    raw = MAGIC + bytes([VERSION, 1]) + struct.pack("<I", 2) + payload
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IoError, match="must be finite"):
            tensor_from_bytes(raw)


def test_refuses_values_beyond_float32_before_writing(tmp_path):
    path = tmp_path / "big.dcst"
    with pytest.raises(IoError, match=r"shape \(2,\)"):
        write_tensor(path, Tensor([1e300, 1.0]))
    assert list(tmp_path.iterdir()) == []
    # values inside the float32 range still round-trip to the same bytes
    t = Tensor(np.array([[3.0e38, -1.5], [0.25, 1e-3]]))
    write_tensor(path, t)
    write_tensor(tmp_path / "again.dcst", read_tensor(path))
    assert path.read_bytes() == (tmp_path / "again.dcst").read_bytes() == tensor_bytes(t)


def test_missing_file(tmp_path):
    with pytest.raises(IoError, match="cannot read"):
        read_tensor(tmp_path / "absent.dcst")


def test_a_write_under_a_regular_file_raises_io_error_naming_the_path(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_bytes(b"not a directory")
    for path in (blocker / "t.dcst", blocker / "sub" / "t.dcst"):
        with pytest.raises(IoError, match="cannot write") as caught:
            write_tensor(path, Tensor([1.0, 2.0]))
        assert str(path) in str(caught.value)
    assert blocker.read_bytes() == b"not a directory"
    assert list(tmp_path.iterdir()) == [blocker]


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 5), st.integers(0, 2 ** 32 - 1))
def test_round_trip_preserves_float32_exactly(r, c, seed):
    vals = np.random.default_rng(seed).normal(size=(r, c)).astype(np.float32).astype(np.float64)
    back = tensor_from_bytes(tensor_bytes(Tensor(vals)))
    np.testing.assert_array_equal(back.data, vals)

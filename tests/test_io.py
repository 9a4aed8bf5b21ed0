"""File formats: raw header pairs and the NIfTI-1 subset."""

import struct

import numpy as np
import pytest

from densereg.geometry import DisplacementField, Volume3D
from densereg import io as vio


def f32_volume(rng, dims, spacing=(1.0, 1.0, 1.0)):
    """Intensity volume whose values survive an f32 round trip exactly."""
    data = rng.standard_normal(dims).astype(np.float32).astype(np.float64)
    return Volume3D(data, spacing=spacing)


def nifti_bytes(dims=(3, 4, 5), ndim=3, code=16, magic=b"n+1\x00",
                sizeof_hdr=348, vox_offset=352.0, spacing=(1.0, 1.0, 1.0),
                payload=None):
    """Hand-assembled single-file NIfTI-1 blob for failure-path tests."""
    out = bytearray(352)
    out[0:4] = struct.pack("<i", sizeof_hdr)
    dim = np.ones(8, dtype="<i2")
    dim[0] = ndim
    dim[1:4] = dims
    out[40:56] = dim.tobytes()
    bits = {2: 8, 4: 16, 16: 32}.get(code, 0)
    out[70:72] = struct.pack("<h", code)
    out[72:74] = struct.pack("<h", bits)
    pixdim = np.zeros(8, dtype="<f4")
    pixdim[0] = 1.0
    pixdim[1:4] = spacing
    out[76:108] = pixdim.tobytes()
    out[108:112] = struct.pack("<f", vox_offset)
    out[344:348] = magic
    if payload is None:
        itemsize = max(bits // 8, 1)
        payload = bytes(int(np.prod(dims)) * itemsize)
    pad = b"\x00" * (int(vox_offset) - 352) if vox_offset > 352 else b""
    return bytes(out) + pad + payload


class TestRawRoundTrip:
    def test_f32_intensity_is_bit_exact(self, tmp_path):
        vol = f32_volume(np.random.default_rng(0), (4, 5, 6),
                         spacing=(1.5, 2.0, 0.5))
        path = str(tmp_path / "vol.hdr")
        vio.write_volume(vol, path)
        back = vio.read_volume(path)
        assert np.array_equal(back.data, vol.data)
        assert back.spacing == vol.spacing
        assert not back.is_label

    def test_labels_round_trip_and_keep_kind(self, tmp_path):
        rng = np.random.default_rng(1)
        vol = Volume3D(rng.integers(0, 5, size=(6, 6, 6)), is_label=True)
        path = str(tmp_path / "seg.hdr")
        vio.write_volume(vol, path)
        back = vio.read_volume(path)
        assert back.is_label
        assert np.array_equal(back.data, vol.data)

    def test_wide_labels_fall_back_to_i16(self, tmp_path):
        data = np.zeros((4, 4, 4), dtype=np.int32)
        data[0, 0, 0] = 300
        path = str(tmp_path / "seg.hdr")
        vio.write_volume(Volume3D(data, is_label=True), path)
        back = vio.read_volume(path)
        assert back.data[0, 0, 0] == 300

    @pytest.mark.parametrize("dtype, want", [
        ("u8", np.uint8), ("i16", np.int16), ("f32", np.int32)])
    def test_labels_converted_only_from_f32(self, tmp_path, dtype, want):
        rng = np.random.default_rng(7)
        data = rng.integers(0, 200, size=(4, 5, 6))
        path = str(tmp_path / "seg.hdr")
        vio.write_volume(Volume3D(data, is_label=True), path, dtype=dtype)
        back = vio.read_volume(path)
        assert back.data.dtype == want
        assert np.array_equal(back.data, data)

    @pytest.mark.parametrize("value, error, reason", [
        (np.nan, ArithmeticError, "finite"),
        (np.inf, ArithmeticError, "finite"),
        (1.5, ValueError, "integer values")])
    def test_f32_labels_checked_before_conversion(self, tmp_path, value,
                                                  error, reason):
        path = str(tmp_path / "seg.hdr")
        vio.write_volume(Volume3D(np.zeros((3, 3, 3))), path)
        payload = np.zeros(27, dtype="<f4")
        payload[13] = value
        (tmp_path / "seg.raw").write_bytes(payload.tobytes())
        with pytest.raises(error, match=reason):
            vio.read_volume(path, as_labels=True)

    def test_u8_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        vol = Volume3D(rng.integers(0, 256, size=(3, 3, 3)).astype(np.float64))
        path = str(tmp_path / "vol.hdr")
        vio.write_volume(vol, path, dtype="u8")
        assert np.array_equal(vio.read_volume(path).data, vol.data)

    def test_write_is_deterministic(self, tmp_path):
        vol = f32_volume(np.random.default_rng(3), (5, 5, 5))
        a = tmp_path / "a.hdr"
        b = tmp_path / "b.hdr"
        vio.write_volume(vol, str(a))
        vio.write_volume(vol, str(b))
        assert (tmp_path / "a.raw").read_bytes() == (tmp_path / "b.raw").read_bytes()
        assert a.read_text().replace("a.raw", "x") == \
            b.read_text().replace("b.raw", "x")


class TestRawErrors:
    def write_sample(self, tmp_path):
        vol = f32_volume(np.random.default_rng(4), (10, 10, 10))
        path = tmp_path / "vol.hdr"
        vio.write_volume(vol, str(path))
        return path

    def test_truncated_payload(self, tmp_path):
        path = self.write_sample(tmp_path)
        raw = tmp_path / "vol.raw"
        # Header promises 1000 values; keep only 999.
        raw.write_bytes(raw.read_bytes()[: 999 * 4])
        with pytest.raises(vio.TruncatedPayloadError, match="truncated"):
            vio.read_volume(str(path))

    def test_oversized_payload(self, tmp_path):
        path = self.write_sample(tmp_path)
        raw = tmp_path / "vol.raw"
        raw.write_bytes(raw.read_bytes() + b"\x00\x00\x00\x00")
        with pytest.raises(vio.HeaderError, match="promises"):
            vio.read_volume(str(path))

    def replace_line(self, path, key, replacement):
        lines = path.read_text().splitlines()
        out = []
        for line in lines:
            if line.startswith(key + "="):
                if replacement is not None:
                    out.append(replacement)
            else:
                out.append(line)
        path.write_text("\n".join(out) + "\n")

    def test_missing_required_key(self, tmp_path):
        path = self.write_sample(tmp_path)
        self.replace_line(path, "dims", None)
        with pytest.raises(vio.HeaderError, match="dims"):
            vio.read_volume(str(path))

    def test_big_endian_rejected(self, tmp_path):
        path = self.write_sample(tmp_path)
        self.replace_line(path, "byteorder", "byteorder=big")
        with pytest.raises(vio.UnsupportedFormatError, match="little"):
            vio.read_volume(str(path))

    def test_unknown_dtype(self, tmp_path):
        path = self.write_sample(tmp_path)
        self.replace_line(path, "dtype", "dtype=f64")
        with pytest.raises(vio.UnsupportedDatatypeError, match="f64"):
            vio.read_volume(str(path))

    def test_malformed_line(self, tmp_path):
        path = self.write_sample(tmp_path)
        path.write_text(path.read_text() + "just some words\n")
        with pytest.raises(vio.HeaderError, match="key=value"):
            vio.read_volume(str(path))

    def test_unknown_extension(self, tmp_path):
        target = tmp_path / "vol.pgm"
        target.write_bytes(b"")
        with pytest.raises(vio.UnsupportedFormatError, match="format"):
            vio.read_volume(str(target))


class TestNifti:
    def test_f32_round_trip(self, tmp_path):
        vol = f32_volume(np.random.default_rng(5), (4, 5, 6),
                         spacing=(1.5, 2.0, 0.5))
        path = str(tmp_path / "vol.nii")
        vio.write_volume(vol, path)
        back = vio.read_volume(path)
        assert np.array_equal(back.data, vol.data)
        assert back.spacing == vol.spacing

    def test_label_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        vol = Volume3D(rng.integers(0, 4, size=(5, 5, 5)), is_label=True)
        path = str(tmp_path / "seg.nii")
        vio.write_volume(vol, path)
        back = vio.read_volume(path, as_labels=True)
        assert back.is_label
        assert back.data.dtype == np.uint8
        assert np.array_equal(back.data, vol.data)

    def test_first_dimension_varies_fastest(self, tmp_path):
        data = np.arange(24, dtype=np.float64).reshape(2, 3, 4)
        path = tmp_path / "vol.nii"
        vio.write_volume(Volume3D(data), str(path))
        payload = np.frombuffer(path.read_bytes()[352:], dtype="<f4")
        assert payload[0] == data[0, 0, 0]
        assert payload[1] == data[1, 0, 0]
        assert payload[2] == data[0, 1, 0]

    def test_accepts_padded_vox_offset(self, tmp_path):
        data = np.arange(27, dtype=np.float32)
        blob = nifti_bytes(dims=(3, 3, 3), vox_offset=368.0,
                           payload=data.tobytes())
        path = tmp_path / "pad.nii"
        path.write_bytes(blob)
        back = vio.read_volume(str(path))
        assert np.array_equal(back.data.ravel(order="F"), data)

    def test_two_file_form_rejected(self, tmp_path):
        path = tmp_path / "two.nii"
        path.write_bytes(nifti_bytes(magic=b"ni1\x00"))
        with pytest.raises(vio.UnsupportedFormatError, match="two-file"):
            vio.read_volume(str(path))

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.nii"
        path.write_bytes(nifti_bytes(magic=b"zzz\x00"))
        with pytest.raises(vio.BadMagicError, match="magic"):
            vio.read_volume(str(path))

    def test_wrong_sizeof_hdr_rejected(self, tmp_path):
        path = tmp_path / "bad.nii"
        path.write_bytes(nifti_bytes(sizeof_hdr=1234))
        with pytest.raises(vio.BadMagicError, match="sizeof_hdr"):
            vio.read_volume(str(path))

    def test_big_endian_detected(self, tmp_path):
        blob = bytearray(nifti_bytes())
        blob[0:4] = struct.pack(">i", 348)
        path = tmp_path / "be.nii"
        path.write_bytes(bytes(blob))
        with pytest.raises(vio.UnsupportedFormatError, match="big-endian"):
            vio.read_volume(str(path))

    def test_four_dimensional_rejected(self, tmp_path):
        path = tmp_path / "4d.nii"
        path.write_bytes(nifti_bytes(ndim=4))
        with pytest.raises(vio.UnsupportedDimensionError, match="3D"):
            vio.read_volume(str(path))

    def test_unsupported_datatype_code(self, tmp_path):
        path = tmp_path / "f64.nii"
        payload = bytes(3 * 4 * 5 * 8)
        path.write_bytes(nifti_bytes(code=64, payload=payload))
        with pytest.raises(vio.UnsupportedDatatypeError, match="code 64"):
            vio.read_volume(str(path))

    def test_low_vox_offset_rejected(self, tmp_path):
        path = tmp_path / "low.nii"
        path.write_bytes(nifti_bytes(vox_offset=200.0))
        with pytest.raises(vio.HeaderError, match="vox_offset"):
            vio.read_volume(str(path))

    def test_truncated_payload(self, tmp_path):
        data = np.zeros(59, dtype=np.float32)  # header promises 60
        path = tmp_path / "short.nii"
        path.write_bytes(nifti_bytes(dims=(3, 4, 5), payload=data.tobytes()))
        with pytest.raises(vio.TruncatedPayloadError, match="truncated"):
            vio.read_volume(str(path))

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "stub.nii"
        path.write_bytes(b"\x00" * 100)
        with pytest.raises(vio.TruncatedPayloadError, match="header"):
            vio.read_volume(str(path))


class TestLossyWriteRefusal:
    def test_fractional_values_cannot_be_u8(self, tmp_path):
        vol = Volume3D(np.full((3, 3, 3), 0.5))
        with pytest.raises(ValueError, match="non-integer"):
            vio.write_volume(vol, str(tmp_path / "x.hdr"), dtype="u8")

    def test_range_overflow_cannot_be_u8(self, tmp_path):
        vol = Volume3D(np.full((3, 3, 3), 300.0))
        with pytest.raises(ValueError, match="outside"):
            vio.write_volume(vol, str(tmp_path / "x.hdr"), dtype="u8")


class TestFieldRoundTrip:
    def make_field(self, seed):
        rng = np.random.default_rng(seed)
        vec = rng.uniform(-0.3, 0.3, size=(4, 5, 6, 3))
        return DisplacementField(vec.astype(np.float32).astype(np.float64))

    def test_round_trip_is_bit_exact(self, tmp_path):
        field = self.make_field(7)
        path = str(tmp_path / "field.hdr")
        vio.write_field(field, path)
        back = vio.read_field(path)
        assert np.array_equal(back.vectors, field.vectors)

    def test_header_records_unit_conversion(self, tmp_path):
        path = tmp_path / "field.hdr"
        vio.write_field(self.make_field(8), str(path))
        text = path.read_text()
        assert "units=normalized" in text
        assert "voxel_factor=2,2.5,3" in text

    def test_field_header_is_not_a_volume(self, tmp_path):
        path = str(tmp_path / "field.hdr")
        vio.write_field(self.make_field(9), path)
        with pytest.raises(vio.HeaderError, match="components"):
            vio.read_volume(path)

    def test_volume_header_is_not_a_field(self, tmp_path):
        path = str(tmp_path / "vol.hdr")
        vio.write_volume(f32_volume(np.random.default_rng(10), (3, 3, 3)), path)
        with pytest.raises(vio.HeaderError, match="field"):
            vio.read_field(path)

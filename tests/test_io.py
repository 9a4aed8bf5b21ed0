"""File formats: raw header pairs and the NIfTI-1 subset."""

import struct
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from densereg.cli import main
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
    pad = b"\x00" * (int(vox_offset) - 352) \
        if 352 < vox_offset < np.inf else b""
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
        # The largest label picks the payload dtype.
        top = {"u8": 200, "i16": 300, "f32": 40000}[dtype]
        data = np.random.default_rng(7).integers(0, top, size=(4, 5, 6))
        data[1, 2, 3] = top
        path = tmp_path / "seg.hdr"
        vio.write_volume(Volume3D(data, is_label=True), str(path))
        assert f"dtype={dtype}\n" in path.read_text()
        back = vio.read_volume(str(path))
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
        # Intensities are written as f32, so the u8 payload is made by hand.
        data = np.random.default_rng(2).integers(0, 256, size=(3, 3, 3))
        path = tmp_path / "vol.hdr"
        vio.write_volume(Volume3D(np.zeros((3, 3, 3))), str(path))
        path.write_text(path.read_text().replace("dtype=f32", "dtype=u8"))
        (tmp_path / "vol.raw").write_bytes(data.astype("<u1").tobytes())
        back = vio.read_volume(str(path))
        assert back.data.dtype == np.float64
        assert np.array_equal(back.data, data)

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
        with pytest.raises(vio.VolumeIOError, match="truncated"):
            vio.read_volume(str(path))

    def test_oversized_payload(self, tmp_path):
        path = self.write_sample(tmp_path)
        raw = tmp_path / "vol.raw"
        raw.write_bytes(raw.read_bytes() + b"\x00\x00\x00\x00")
        with pytest.raises(vio.VolumeIOError, match="promises"):
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
        with pytest.raises(vio.VolumeIOError, match="dims"):
            vio.read_volume(str(path))

    def test_big_endian_rejected(self, tmp_path):
        path = self.write_sample(tmp_path)
        self.replace_line(path, "byteorder", "byteorder=big")
        with pytest.raises(vio.VolumeIOError, match="little"):
            vio.read_volume(str(path))

    def test_unknown_dtype(self, tmp_path):
        path = self.write_sample(tmp_path)
        self.replace_line(path, "dtype", "dtype=f64")
        with pytest.raises(vio.VolumeIOError, match="f64"):
            vio.read_volume(str(path))

    @pytest.mark.parametrize("spacing", ["nan,1,1", "inf,1,1"])
    def test_non_finite_spacing(self, tmp_path, spacing):
        path = self.write_sample(tmp_path)
        self.replace_line(path, "spacing", f"spacing={spacing}")
        with pytest.raises(ValueError, match="positive finite"):
            vio.read_volume(str(path))

    def test_malformed_line(self, tmp_path):
        path = self.write_sample(tmp_path)
        path.write_text(path.read_text() + "just some words\n")
        with pytest.raises(vio.VolumeIOError, match="key=value"):
            vio.read_volume(str(path))

    @pytest.mark.parametrize("size", [0, 8])
    def test_dims_beyond_int64_truncated(self, tmp_path, capsys, size):
        # 2**32 * 2**32 voxels: a product in int64 would wrap to 0 bytes.
        path = tmp_path / "huge.hdr"
        path.write_text("dims=4294967296,4294967296,1\ndtype=u8\n"
                        "data=huge.raw\n", encoding="ascii")
        (tmp_path / "huge.raw").write_bytes(bytes(size))
        with pytest.raises(vio.VolumeIOError, match="payload truncated"):
            vio.read_volume(str(path))
        assert main(["evaluate", "--fixed-labels", str(path),
                     "--moving-labels", str(path)]) == 2
        assert "payload truncated: header promises 18446744073709551616 " \
               "bytes" in capsys.readouterr().err

    def test_unknown_extension(self, tmp_path):
        target = tmp_path / "vol.pgm"
        target.write_bytes(b"")
        with pytest.raises(vio.VolumeIOError, match="format"):
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

    @pytest.mark.parametrize("pixdim", [0.0, -2.0, np.nan])
    def test_non_positive_pixdim_reads_as_one(self, tmp_path, pixdim):
        path = tmp_path / "vol.nii"
        path.write_bytes(nifti_bytes(spacing=(pixdim, 2.0, 1.0)))
        assert vio.read_volume(str(path)).spacing == (1.0, 2.0, 1.0)

    def test_infinite_pixdim_rejected(self, tmp_path):
        path = tmp_path / "vol.nii"
        path.write_bytes(nifti_bytes(spacing=(np.inf, 1.0, 1.0)))
        with pytest.raises(ValueError, match="positive finite"):
            vio.read_volume(str(path))

    def test_two_file_form_rejected(self, tmp_path):
        path = tmp_path / "two.nii"
        path.write_bytes(nifti_bytes(magic=b"ni1\x00"))
        with pytest.raises(vio.VolumeIOError, match="two-file"):
            vio.read_volume(str(path))

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.nii"
        path.write_bytes(nifti_bytes(magic=b"zzz\x00"))
        with pytest.raises(vio.VolumeIOError, match="magic"):
            vio.read_volume(str(path))

    def test_wrong_sizeof_hdr_rejected(self, tmp_path):
        path = tmp_path / "bad.nii"
        path.write_bytes(nifti_bytes(sizeof_hdr=1234))
        with pytest.raises(vio.VolumeIOError, match="sizeof_hdr"):
            vio.read_volume(str(path))

    def test_big_endian_detected(self, tmp_path):
        blob = bytearray(nifti_bytes())
        blob[0:4] = struct.pack(">i", 348)
        path = tmp_path / "be.nii"
        path.write_bytes(bytes(blob))
        with pytest.raises(vio.VolumeIOError, match="big-endian"):
            vio.read_volume(str(path))

    def test_four_dimensional_rejected(self, tmp_path):
        path = tmp_path / "4d.nii"
        path.write_bytes(nifti_bytes(ndim=4))
        with pytest.raises(vio.VolumeIOError, match="3D"):
            vio.read_volume(str(path))

    def test_unsupported_datatype_code(self, tmp_path):
        path = tmp_path / "f64.nii"
        payload = bytes(3 * 4 * 5 * 8)
        path.write_bytes(nifti_bytes(code=64, payload=payload))
        with pytest.raises(vio.VolumeIOError, match="code 64"):
            vio.read_volume(str(path))

    def test_low_vox_offset_rejected(self, tmp_path):
        path = tmp_path / "low.nii"
        path.write_bytes(nifti_bytes(vox_offset=200.0))
        with pytest.raises(vio.VolumeIOError, match="vox_offset"):
            vio.read_volume(str(path))

    @pytest.mark.parametrize("offset", [np.nan, np.inf])
    def test_non_finite_vox_offset(self, tmp_path, capsys, offset):
        path = tmp_path / "odd.nii"
        path.write_bytes(nifti_bytes(dims=(3, 3, 3), code=2,
                                     vox_offset=offset))
        assert main(["evaluate", "--fixed-labels", str(path),
                     "--moving-labels", str(path)]) == 2
        assert f"{path}: vox_offset {offset} is not a finite offset" \
            in capsys.readouterr().err

    def test_truncated_payload(self, tmp_path):
        data = np.zeros(59, dtype=np.float32)  # header promises 60
        path = tmp_path / "short.nii"
        path.write_bytes(nifti_bytes(dims=(3, 4, 5), payload=data.tobytes()))
        with pytest.raises(vio.VolumeIOError, match="truncated"):
            vio.read_volume(str(path))

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "stub.nii"
        path.write_bytes(b"\x00" * 100)
        with pytest.raises(vio.VolumeIOError, match="header"):
            vio.read_volume(str(path))


class TestLossyWriteRefusal:
    def test_label_beyond_f32_refused(self, tmp_path):
        # 2**24 + 1 is the smallest integer f32 rounds.
        data = np.zeros((3, 3, 3), dtype=np.int64)
        data[1, 1, 1] = 2 ** 24 + 1
        for name in ("x.hdr", "x.nii"):
            with pytest.raises(ValueError, match="exactly"):
                vio.write_volume(Volume3D(data, is_label=True),
                                 str(tmp_path / name))
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value, refusal", [
        (2 ** 31 - 1, "cannot be stored exactly"),
        (2 ** 31 + 256, r"lie in 0 .. 2\*\*31 - 1 = 2147483647"),
        (3_000_000_000, r"lie in 0 .. 2\*\*31 - 1 = 2147483647")])
    def test_labels_from_2_31_refused_on_both_sides(self, tmp_path, value,
                                                    refusal):
        # f32 holds 2**31 + 256 and 3e9 exactly, but labels become int32;
        # 2**31 - 1 rounds to 2**31 in f32.  A numpy warning would fail.
        data = np.zeros((2, 2, 2), dtype=np.int64)
        data[1, 1, 1] = value
        with pytest.raises(ValueError, match=refusal):
            vio.write_volume(Volume3D(data, is_label=True),
                             str(tmp_path / "x.hdr"))
        assert list(tmp_path.iterdir()) == []
        (tmp_path / "x.hdr").write_text("dims=2,2,2\ndtype=f32\nkind=label\n"
                                        "data=x.raw\n", encoding="ascii")
        (tmp_path / "x.raw").write_bytes(data.astype("<f4").tobytes())
        with pytest.raises(ValueError, match=r"2\*\*31 - 1 = 2147483647"):
            vio.read_volume(str(tmp_path / "x.hdr"))


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
        with pytest.raises(vio.VolumeIOError, match="components"):
            vio.read_volume(path)

    def test_volume_header_is_not_a_field(self, tmp_path):
        path = str(tmp_path / "vol.hdr")
        vio.write_volume(f32_volume(np.random.default_rng(10), (3, 3, 3)), path)
        with pytest.raises(vio.VolumeIOError, match="field"):
            vio.read_field(path)


# Every way a reader may refuse a file: anything else escaping it is a crash.
READ_ERRORS = (vio.VolumeIOError, ValueError, ArithmeticError, OSError)
READERS = (vio.read_volume, partial(vio.read_volume, as_labels=True),
           vio.read_field)
RAW_KEYS = ("dims", "spacing", "dtype", "byteorder", "components", "kind",
            "data")
HOSTILE = ("nan", "-4,5,6", "4,5,6,7", "99999999999999999999,1,1", "f64",
           "big", "", "inf,1,1", "0,1,1", "1,1", "label", "field", "3",
           "-1", "1e400,1,1", "nan,nan,nan", "field.raw", "vol.raw")
# The NIfTI header fields the reader interprets: sizeof_hdr, dim,
# datatype and bitpix, pixdim and vox_offset, magic.
NIFTI_FIELDS = tuple(range(0, 4)) + tuple(range(40, 56)) \
    + tuple(range(70, 112)) + tuple(range(344, 348))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """One well-formed file of every kind, for the fuzz tests to mutate."""
    root = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(11)
    vio.write_volume(f32_volume(rng, (3, 4, 5)), str(root / "vol.hdr"))
    vio.write_volume(Volume3D(rng.integers(0, 300, size=(3, 4, 5)),
                              is_label=True), str(root / "labels.hdr"))
    vio.write_field(DisplacementField(rng.uniform(-0.3, 0.3, size=(3, 4, 5, 3))),
                    str(root / "field.hdr"))
    vio.write_volume(f32_volume(rng, (3, 4, 5)), str(root / "vol.nii"))
    return root


def read_every_way(path):
    for read in READERS:
        try:
            read(path)
        except READ_ERRORS:
            pass


class TestHeaderFuzz:
    """Mutated headers are refused with the readers' own errors."""

    @settings(max_examples=300, deadline=None)
    @given(source=st.sampled_from(("vol", "labels", "field")),
           dropped=st.sets(st.sampled_from(RAW_KEYS)),
           # No "/" in a value, so "data" cannot name a file elsewhere.
           values=st.dictionaries(
               st.sampled_from(RAW_KEYS),
               st.sampled_from(HOSTILE) | st.text(
                   st.characters(exclude_categories=("Cs",),
                                 exclude_characters="/"), max_size=12)),
           junk=st.none() | st.tuples(
               st.integers(0, 200),
               st.binary(min_size=1, max_size=4).map(
                   lambda b: bytes(c | 0x80 for c in b))))
    def test_raw_header(self, fuzz_dir, source, dropped, values, junk):
        lines = (fuzz_dir / f"{source}.hdr").read_text().splitlines()
        fields = dict(line.split("=", 1) for line in lines)
        fields.update(values)
        text = "".join(f"{key}={value}\n" for key, value in fields.items()
                       if key not in dropped).encode("utf-8")
        if junk is not None:
            at, noise = junk
            text = text[:at] + noise + text[at:]
        path = fuzz_dir / "mutant.hdr"
        path.write_bytes(text)
        read_every_way(str(path))

    @settings(max_examples=300, deadline=None)
    @given(flips=st.lists(st.tuples(
        st.sampled_from(NIFTI_FIELDS) | st.integers(0, 351),
        st.integers(1, 255)), min_size=1, max_size=8))
    def test_nifti_header(self, fuzz_dir, flips):
        blob = bytearray((fuzz_dir / "vol.nii").read_bytes())
        for at, mask in flips:
            blob[at] ^= mask
        path = fuzz_dir / "mutant.nii"
        path.write_bytes(bytes(blob))
        read_every_way(str(path))

"""Volume and displacement-field file I/O.

Two on-disk forms are supported:

* a raw pair: a text header (``.hdr``, line-oriented ``key=value``) naming a
  binary little-endian payload file that sits next to it, and
* a NIfTI-1 single-file subset (``.nii``): 348-byte header plus the 4-byte
  extension flag, magic ``n+1\\0``, datatype codes 2 (u8), 4 (i16) and
  16 (f32), three spatial dimensions, spacing taken from ``pixdim``, no
  compression.  Data are stored with the first dimension varying fastest
  (Fortran order) as the format prescribes; scaling fields are ignored.

Raw header keys: ``dims`` (three comma-separated extents), ``dtype``
(``u8``/``i16``/``f32``), ``data`` (payload file name), and optionally
``spacing``, ``byteorder`` (``little`` only), ``components`` (1, or 3 for
displacement fields), ``kind`` (``intensity``/``label``/``field``).  Fields
are stored in normalized units as interleaved f32 triples; the header's
``voxel_factor`` records the per-axis factor that converts them to voxel
units.

A file that cannot be parsed raises a :class:`VolumeIOError` subclass,
so callers can separate file-format problems from OS-level ones.  The
payload is handed as stored to :class:`Volume3D` or
:class:`DisplacementField`, which convert and validate it once; data
they reject raises their :class:`ArithmeticError` (non-finite values)
or :class:`ValueError` (say, a fractional or negative label).
"""

import os

import numpy as np

from .geometry import DisplacementField, Volume3D

__all__ = [
    "VolumeIOError", "HeaderError", "BadMagicError", "TruncatedPayloadError",
    "UnsupportedFormatError", "UnsupportedDatatypeError",
    "UnsupportedDimensionError",
    "read_volume", "write_volume", "read_field", "write_field",
]


class VolumeIOError(Exception):
    """Base class for anything wrong with a volume file's content."""


class HeaderError(VolumeIOError):
    """Header present but malformed or inconsistent."""


class BadMagicError(HeaderError):
    """File does not start with the expected format signature."""


class TruncatedPayloadError(VolumeIOError):
    """Payload holds fewer bytes than the header promises."""


class UnsupportedFormatError(VolumeIOError):
    """Recognized but deliberately out-of-scope format variant."""


class UnsupportedDatatypeError(UnsupportedFormatError):
    """Datatype code outside the u8/i16/f32 subset."""


class UnsupportedDimensionError(UnsupportedFormatError):
    """Volume is not three-dimensional."""


_DTYPES = {"u8": np.dtype("<u1"), "i16": np.dtype("<i2"), "f32": np.dtype("<f4")}
_NIFTI_CODES = {2: "u8", 4: "i16", 16: "f32"}
_NIFTI_MAGIC = b"n+1\x00"
_NIFTI_TWOFILE = b"ni1\x00"


def _cast_for_write(data: np.ndarray, dtype: str) -> np.ndarray:
    """Cast to the payload dtype, refusing silently lossy integer casts."""
    out = _DTYPES[dtype]
    if dtype in ("u8", "i16"):
        info = np.iinfo(out)
        if np.any(data != np.round(data)):
            raise ValueError(f"non-integer values cannot be stored as {dtype}")
        if data.min(initial=0) < info.min or data.max(initial=0) > info.max:
            raise ValueError(f"values outside [{info.min}, {info.max}] "
                             f"cannot be stored as {dtype}")
    return np.ascontiguousarray(data).astype(out)


def _default_dtype(vol: Volume3D) -> str:
    if not vol.is_label:
        return "f32"
    return "u8" if vol.data.max(initial=0) <= 255 else "i16"


# ---------------------------------------------------------------------------
# Raw header + payload pair
# ---------------------------------------------------------------------------

def _parse_header(path: str) -> dict:
    fields = {}
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise HeaderError(f"{path}:{lineno}: expected key=value, "
                                  f"got {line!r}")
            key, _, value = line.partition("=")
            fields[key.strip()] = value.strip()
    return fields


def _header_triple(fields: dict, key: str, path: str, conv):
    try:
        parts = [conv(p) for p in fields[key].split(",")]
    except ValueError as exc:
        raise HeaderError(f"{path}: bad {key}: {fields[key]!r}") from exc
    if len(parts) != 3:
        raise HeaderError(f"{path}: {key} needs three values, "
                          f"got {fields[key]!r}")
    return tuple(parts)


def _read_raw(path: str):
    """Header dict plus the raw payload array, shaped but not converted."""
    fields = _parse_header(path)
    for key in ("dims", "dtype", "data"):
        if key not in fields:
            raise HeaderError(f"{path}: missing required key {key!r}")
    dims = _header_triple(fields, "dims", path, int)
    if any(d <= 0 for d in dims):
        raise HeaderError(f"{path}: dims must be positive, got {dims}")
    spacing = _header_triple(fields, "spacing", path, float) \
        if "spacing" in fields else (1.0, 1.0, 1.0)
    if fields.get("byteorder", "little") != "little":
        raise UnsupportedFormatError(
            f"{path}: only little-endian payloads are supported")
    dtype = fields["dtype"]
    if dtype not in _DTYPES:
        raise UnsupportedDatatypeError(f"{path}: unsupported dtype {dtype!r} "
                                       f"(expected one of u8, i16, f32)")
    try:
        components = int(fields.get("components", "1"))
    except ValueError as exc:
        raise HeaderError(f"{path}: bad components: "
                          f"{fields['components']!r}") from exc
    if components not in (1, 3):
        raise HeaderError(f"{path}: components must be 1 or 3, "
                          f"got {components}")

    payload_path = os.path.join(os.path.dirname(path) or ".", fields["data"])
    with open(payload_path, "rb") as fh:
        blob = fh.read()
    count = int(np.prod(dims)) * components
    need = count * _DTYPES[dtype].itemsize
    if len(blob) < need:
        raise TruncatedPayloadError(
            f"{payload_path}: payload truncated: header promises {need} "
            f"bytes, file holds {len(blob)}")
    if len(blob) > need:
        raise HeaderError(f"{payload_path}: payload holds {len(blob)} bytes "
                          f"but header promises {need}")
    flat = np.frombuffer(blob, dtype=_DTYPES[dtype], count=count)
    shape = dims + ((components,) if components == 3 else ())
    return fields, flat.reshape(shape), spacing


def _write_raw(path: str, payload: np.ndarray, fields: dict):
    lines = [f"{key}={value}" for key, value in fields.items()]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
    payload.tofile(os.path.join(os.path.dirname(path) or ".", fields["data"]))


# ---------------------------------------------------------------------------
# NIfTI-1 subset
# ---------------------------------------------------------------------------

def _read_nifti(path: str):
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 352:
        raise TruncatedPayloadError(f"{path}: shorter than a NIfTI-1 header "
                                    f"({len(blob)} bytes)")
    sizeof_hdr = int(np.frombuffer(blob, "<i4", count=1, offset=0)[0])
    if sizeof_hdr != 348:
        if int(np.frombuffer(blob, ">i4", count=1, offset=0)[0]) == 348:
            raise UnsupportedFormatError(
                f"{path}: big-endian NIfTI files are not supported")
        raise BadMagicError(f"{path}: not a NIfTI-1 file "
                            f"(sizeof_hdr={sizeof_hdr}, expected 348)")
    magic = blob[344:348]
    if magic == _NIFTI_TWOFILE:
        raise UnsupportedFormatError(
            f"{path}: two-file NIfTI (magic 'ni1') is not supported; "
            f"use the single-file 'n+1' form")
    if magic != _NIFTI_MAGIC:
        raise BadMagicError(f"{path}: bad NIfTI magic {magic!r}")

    dim = np.frombuffer(blob, "<i2", count=8, offset=40)
    ndim = int(dim[0])
    if ndim != 3:
        raise UnsupportedDimensionError(
            f"{path}: only 3D volumes are supported, got {ndim}D")
    dims = tuple(int(d) for d in dim[1:4])
    if any(d <= 0 for d in dims):
        raise HeaderError(f"{path}: non-positive extent in dim: {dims}")
    code = int(np.frombuffer(blob, "<i2", count=1, offset=70)[0])
    if code not in _NIFTI_CODES:
        raise UnsupportedDatatypeError(
            f"{path}: unsupported NIfTI datatype code {code} "
            f"(supported: 2=u8, 4=i16, 16=f32)")
    pixdim = np.frombuffer(blob, "<f4", count=8, offset=76)
    spacing = tuple(float(p) if p > 0 else 1.0 for p in pixdim[1:4])
    vox_offset = float(np.frombuffer(blob, "<f4", count=1, offset=108)[0])
    if vox_offset < 352:
        raise HeaderError(f"{path}: vox_offset {vox_offset} below the "
                          f"352-byte minimum")
    offset = int(vox_offset)

    dtype = _DTYPES[_NIFTI_CODES[code]]
    count = int(np.prod(dims))
    need = count * dtype.itemsize
    if len(blob) - offset < need:
        raise TruncatedPayloadError(
            f"{path}: payload truncated: need {need} bytes at offset "
            f"{offset}, file holds {len(blob) - offset}")
    flat = np.frombuffer(blob, dtype=dtype, count=count, offset=offset)
    # NIfTI stores the first dimension fastest.
    return flat.reshape(dims, order="F"), spacing


def _write_nifti(path: str, data: np.ndarray, spacing, dtype: str):
    code = {v: k for k, v in _NIFTI_CODES.items()}[dtype]
    payload = _cast_for_write(data, dtype)
    out = bytearray(352)  # header, then the 4-byte extension flag, all zero
    out[0:4] = np.int32(348).astype("<i4").tobytes()
    dim = np.zeros(8, dtype="<i2")
    dim[0] = 3
    dim[1:4] = data.shape
    dim[4:] = 1
    out[40:56] = dim.tobytes()
    out[70:72] = np.int16(code).astype("<i2").tobytes()
    out[72:74] = np.int16(payload.dtype.itemsize * 8).astype("<i2").tobytes()
    pixdim = np.zeros(8, dtype="<f4")
    pixdim[0] = 1.0
    pixdim[1:4] = spacing
    out[76:108] = pixdim.tobytes()
    out[108:112] = np.float32(352.0).astype("<f4").tobytes()
    out[344:348] = _NIFTI_MAGIC
    with open(path, "wb") as fh:
        fh.write(bytes(out))
        fh.write(payload.tobytes(order="F"))


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------

def _dispatch(path: str) -> str:
    ext = os.path.splitext(path)[1].lower()
    if ext == ".hdr":
        return "raw"
    if ext == ".nii":
        return "nifti"
    raise UnsupportedFormatError(
        f"{path}: unknown volume format {ext!r} (expected .hdr or .nii)")


def read_volume(path: str, as_labels=None) -> Volume3D:
    """Read a scalar volume; ``as_labels`` overrides the stored kind.

    The payload goes to :class:`Volume3D` as stored, which converts it
    once: intensities become float64, u8 and i16 labels keep their dtype,
    and f32 labels must be finite (else :class:`ArithmeticError`) and
    integer-valued (else :class:`ValueError`) and become int32.
    """
    if _dispatch(path) == "raw":
        fields, payload, spacing = _read_raw(path)
        if int(fields.get("components", "1")) != 1:
            raise HeaderError(f"{path}: scalar volume expected, header has "
                              f"components={fields['components']}")
        is_label = fields.get("kind", "intensity") == "label" \
            if as_labels is None else bool(as_labels)
    else:
        payload, spacing = _read_nifti(path)
        is_label = bool(as_labels)
    return Volume3D(payload, spacing=spacing, is_label=is_label)


def write_volume(vol: Volume3D, path: str, dtype: str = None) -> None:
    """Write a volume as a raw pair (``.hdr``) or NIfTI-1 file (``.nii``).

    The payload dtype defaults to f32 for intensity volumes and the
    smallest integer type that fits for label volumes; an explicit
    ``dtype`` must hold the data exactly or the write is refused.
    """
    if dtype is None:
        dtype = _default_dtype(vol)
    if dtype not in _DTYPES:
        raise UnsupportedDatatypeError(f"unsupported dtype {dtype!r} "
                                       f"(expected one of u8, i16, f32)")
    if _dispatch(path) == "nifti":
        _write_nifti(path, vol.data, vol.spacing, dtype)
        return
    payload = _cast_for_write(vol.data, dtype)
    spacing = ",".join(format(s, ".9g") for s in vol.spacing)
    extra = {
        "dims": ",".join(str(d) for d in vol.dims),
        "spacing": spacing,
        "dtype": dtype,
        "byteorder": "little",
        "components": "1",
        "kind": "label" if vol.is_label else "intensity",
        "data": os.path.basename(os.path.splitext(path)[0]) + ".raw",
    }
    _write_raw(path, payload, extra)


def read_field(path: str) -> DisplacementField:
    """Read a displacement field written by :func:`write_field`."""
    if _dispatch(path) != "raw":
        raise UnsupportedFormatError(
            f"{path}: fields use the raw header format (.hdr)")
    fields, payload, _ = _read_raw(path)
    if fields.get("kind") != "field" or payload.ndim != 4:
        raise HeaderError(f"{path}: not a displacement field "
                          f"(kind={fields.get('kind')!r})")
    return DisplacementField(payload)


def write_field(field: DisplacementField, path: str) -> None:
    """Write a field as interleaved f32 triples in normalized units."""
    if _dispatch(path) != "raw":
        raise UnsupportedFormatError(
            f"{path}: fields use the raw header format (.hdr)")
    counts = field.counts
    extra = {
        "dims": ",".join(str(d) for d in counts),
        "spacing": "1,1,1",
        "dtype": "f32",
        "byteorder": "little",
        "components": "3",
        "kind": "field",
        "units": "normalized",
        # Multiply component c by this to get voxel units.
        "voxel_factor": ",".join(format(c / 2.0, ".9g") for c in counts),
        "data": os.path.basename(os.path.splitext(path)[0]) + ".raw",
    }
    payload = field.vectors.astype("<f4")
    _write_raw(path, payload, extra)

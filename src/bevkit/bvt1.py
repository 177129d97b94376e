"""BVT1, the binary tensor container of the CLI.

Magic ``BVT1``, then a u32 little-endian rank, rank u32 dims, and a
row-major float32 payload.  The byte length must match the header
exactly.
"""

from __future__ import annotations

import io
import math
import struct

import numpy as np

from .errors import FormatError
from .text import _numeric_array

_BVT1_MAGIC = b"BVT1"
_BLOCK_ENTRIES = 2**18  # entries write_bvt1 casts at a time: 1 MB of float32


def write_bvt1(array: np.ndarray) -> bytes:
    """Encode an array as BVT1 bytes (float32 payload, row-major), casting the payload straight into them.

    The payload is cast in blocks along the first axis, each written into
    the result as it is made, so beside the result at most one block of
    about 1 MB exists: no float32 copy of the whole array is made, and a
    C-ordered float32 array, such as a volume of two float32 feature maps,
    is copied once, straight from its own memory.

    Raises:
        ValueError: not integers or floats of at most 64 bits (the dtype and shape half of the array rule, uncopied).
        FormatError: a rank-0 array, or a finite value that float32 cannot hold.
    """
    array = _numeric_array("array", array, None)
    if array.ndim < 1:
        raise FormatError("rank-0 tensors are not representable")
    header = _BVT1_MAGIC + struct.pack("<I", array.ndim)
    header += struct.pack(f"<{array.ndim}I", *array.shape)
    # a BytesIO that is the only holder of its initial bytes writes into them in
    # place and hands them over uncopied, so the result is allocated once
    out = io.BytesIO(bytes(len(header) + 4 * array.size))
    out.write(header)
    rows = max(1, _BLOCK_ENTRIES // max(1, math.prod(array.shape[1:])))
    try:  # the cast reports a finite value that becomes +-inf; an inf or NaN stays itself
        with np.errstate(over="raise"):
            for i in range(0, array.shape[0], rows):
                out.write(np.ascontiguousarray(array[i:i + rows], dtype="<f4"))
    except FloatingPointError:
        raise FormatError(f"value beyond the float32 range (max {np.finfo(np.float32).max:g})") from None
    return out.getvalue()


def read_bvt1(data: bytes) -> np.ndarray:
    """Decode BVT1 bytes into a float32 array.

    Raises:
        FormatError: bad magic, zero rank, or a byte length that does not
            match the declared dimensions exactly.
    """
    if len(data) < 8:
        raise FormatError(f"truncated header: {len(data)} bytes")
    if data[:4] != _BVT1_MAGIC:
        raise FormatError(f"bad magic {data[:4]!r}, expected {_BVT1_MAGIC!r}")
    (rank,) = struct.unpack_from("<I", data, 4)
    if rank == 0:
        raise FormatError("rank-0 tensors are not representable")
    if len(data) < 8 + 4 * rank:
        raise FormatError(f"truncated dimension list for rank {rank}")
    dims = struct.unpack_from(f"<{rank}I", data, 8)
    count = math.prod(dims)
    expected = 8 + 4 * rank + 4 * count
    if len(data) != expected:
        raise FormatError(
            f"payload length mismatch: {len(data)} bytes, header implies {expected}"
        )
    values = np.frombuffer(data, dtype="<f4", count=count, offset=8 + 4 * rank)
    return values.reshape(dims).copy()

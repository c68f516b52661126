"""The .npz grid-file contract: the arrays of an archive read without numpy,
whole or paged (read_npz), the cap on a member's declared size, and
load_grid, which builds a dynamics.GridMetricField from a grid file.  Only a
request that reads a grid file imports this module."""

from __future__ import annotations

import io
import math
import os
import re
import sys
import weakref
import zipfile
import zlib
from array import array

from . import dynamics

# .npy dtype codes read as floats: float64, float32 and the integers
_NPY_TYPECODES = {"f8": "d", "f4": "f", "i1": "b", "u1": "B", "i2": "h", "u2": "H",
                  "i4": "i", "u4": "I", "i8": "q", "u8": "Q"}
_FOREIGN_ORDER = ">" if sys.byteorder == "little" else "<"
MAX_NPZ_MEMBER_BYTES = 2**27  # 128 MiB: a float64 grid of up to 45^4 nodes


def _npy_header(read, name: str):
    """(header bytes, typecode, foreign byte order, shape, fortran_order, data
    bytes) of one .npy file; read(n) gives its next n bytes, and only the
    header is read."""
    head = read(12)
    if head[:6] != b"\x93NUMPY" or len(head) < 12 or head[6] not in (1, 2, 3):
        raise ValueError(f"array {name!r} is not in .npy format")
    start = 10 if head[6] == 1 else 12  # the header length takes 2 bytes in version 1, else 4
    end = start + int.from_bytes(head[8:start], "little")
    header = (head + read(max(end - 12, 0)))[start:end].decode("latin-1")
    descr = re.search(r"'descr':\s*'([<>|=]?)(\w+)'", header)
    order = re.search(r"'fortran_order':\s*(True|False)", header)
    dims = re.search(r"'shape':\s*\(([\d,\s]*)\)", header)
    if not (descr and order and dims):
        raise ValueError(f"array {name!r} has an unreadable .npy header")
    byteorder, code = descr.groups()
    typecode = _NPY_TYPECODES.get(code)
    if typecode is None:
        raise ValueError(f"array {name!r} has dtype {byteorder + code!r}; "
                         "expected float64, float32 or an integer type")
    shape = tuple(int(n) for n in dims.group(1).split(",") if n.strip())
    return (end, typecode, byteorder == _FOREIGN_ORDER, shape, order.group(1) == "True",
            math.prod(shape) * int(code[1:]))


def _check_size(name: str, shape, size: int, nbytes: int) -> None:
    if size != nbytes:
        raise ValueError(f"array {name!r} of shape {shape} holds {size} data bytes, "
                         f"expected {nbytes}")


def _read_npy(data: bytes, name: str):
    """(values, shape, fortran_order) of one .npy file; values is flat, in
    file order."""
    end, typecode, swap, shape, fortran, nbytes = _npy_header(io.BytesIO(data).read, name)
    body = memoryview(data)[end:]
    _check_size(name, shape, len(body), nbytes)
    if typecode == "d" and not swap:
        return body.cast("d"), shape, fortran
    values = array(typecode)
    values.frombytes(body)
    if swap:
        values.byteswap()
    return (values if typecode == "d" else array("d", values)), shape, fortran


_PAGE = 4096  # bytes a PagedArray reads at once; a member of at most one page is read whole


class PagedArray:
    """len() float64 numbers that indexing reads from the file descriptor fd
    (owned) at offset, with os.pread a 4 KiB page at a time, and keeps.
    close() drops the pages read and closes fd, as does dropping the array,
    so every read after close() raises."""

    def __init__(self, fd: int, offset: int, count: int):
        self.fd, self.offset, self.count, self.pages = fd, offset, count, {}
        self.close = weakref.finalize(self, _close, fd, self.pages)

    def __len__(self) -> int:
        return self.count

    def __getitem__(self, i: int) -> float:
        try:
            return self.pages[i >> 9][i & 511]  # 512 doubles a page
        except KeyError:
            return self._read(i >> 9)[i & 511]

    def _read(self, k: int):
        start = _PAGE * k
        size = min(_PAGE, 8 * self.count - start)
        if k < 0 or size <= 0:
            raise IndexError("PagedArray index out of range")
        if not self.close.alive:  # fd may name another file by now
            raise ValueError("PagedArray is closed")
        data = os.pread(self.fd, size, self.offset + start)
        if len(data) != size:
            raise dynamics.GridFileError(f"the file ends inside its data, at byte "
                                f"{self.offset + start + len(data)}; it changed during the run")
        page = self.pages[k] = memoryview(data).cast("d")
        return page


def _close(fd: int, pages: dict) -> None:
    pages.clear()
    os.close(fd)


def _paged_npy(zf, info, name: str):
    """(PagedArray, shape, fortran_order) of a stored .npy member of zf, an
    archive opened from a path, after one streamed pass over the member that
    checks its CRC; None if its data is not native float64."""
    with zf.open(info) as member:
        end, typecode, swap, shape, fortran, nbytes = _npy_header(member.read, name)
        if typecode != "d" or swap:
            return None
        size = 0
        while chunk := member.read(65536):  # zipfile checks the CRC at the end
            size += len(chunk)
    _check_size(name, shape, size, nbytes)
    fd = zf.fp.fileno()
    local = os.pread(fd, 30, info.header_offset)  # the local header, which zipfile checked
    end += (info.header_offset + 30 + int.from_bytes(local[26:28], "little")
            + int.from_bytes(local[28:30], "little"))  # + name and extra field lengths
    return PagedArray(os.dup(fd), end, nbytes // 8), shape, fortran


def read_npz(path, names) -> dict:
    """{name: (values, shape, fortran_order)} for the named arrays of an .npz
    archive as np.savez or np.savez_compressed write it.  values is flat in
    file order: a copy-free memoryview of native float64 data, or float32
    and integer data converted to float.  A member of more than one page
    that is stored uncompressed as native float64 in an archive opened from
    a path is a PagedArray instead (where os.pread exists), after one
    streamed pass that checks its CRC and keeps nothing; the caller closes
    it.  A member that declares more than MAX_NPZ_MEMBER_BYTES raises
    before it is read."""
    pageable = isinstance(path, (str, os.PathLike)) and hasattr(os, "pread")
    try:
        with zipfile.ZipFile(path) as zf:
            members = {info.filename: info for info in zf.infolist()}
            arrays = {}
            for name in names:
                info = members.get(f"{name}.npy")
                if info is None:
                    raise ValueError(f"missing array {name!r}")
                if info.file_size > MAX_NPZ_MEMBER_BYTES:
                    raise ValueError(f"array {name!r} declares {info.file_size} bytes; "
                                     f"the cap is {MAX_NPZ_MEMBER_BYTES}")
                npy = None
                if pageable and info.compress_type == zipfile.ZIP_STORED and info.file_size > _PAGE:
                    npy = _paged_npy(zf, info, name)
                arrays[name] = npy or _read_npy(zf.read(info), name)
    # a damaged archive, a corrupt deflate stream, an encrypted member
    # (RuntimeError) or an unknown compression method (NotImplementedError)
    except (zipfile.BadZipFile, zlib.error, EOFError, RuntimeError, NotImplementedError) as exc:
        raise ValueError(f"not a readable .npz archive ({exc})") from exc
    return arrays


def load_grid(path) -> dynamics.GridMetricField:
    """The grid of an .npz holding g of shape (4, n0, n1, n2, n3), origin of
    shape (4,) and a single-number spacing, each float64, float32 or
    integer, in either byte order and C or Fortran order.  From a path, a
    stored native float64 g of more than one page is paged (see read_npz);
    close the grid when done with it."""
    arrays = read_npz(path, ("g", "origin", "spacing"))
    g, shape, fortran = arrays["g"]
    origin, origin_shape, _ = arrays["origin"]
    spacing, spacing_shape, _ = arrays["spacing"]
    if origin_shape != (4,):
        raise ValueError(f"origin must be 4 finite numbers, got an array of shape {origin_shape}")
    if len(spacing) != 1:
        raise ValueError(f"spacing must be one number, got an array of shape {spacing_shape}")
    return dynamics.GridMetricField(g, shape, origin, spacing[0], fortran)

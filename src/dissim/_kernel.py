"""The compiled loops (``_kernel.c`` beside this file), built and loaded
at import, so forked workers inherit them.

``LIB`` is the library as a ctypes handle, or None where no C compiler
builds it or it does not load; ``wsolver`` then runs its dual QP in
Python.  ``SSD`` is the library's SSD step loop, bound to numpy's own
``cblas_dgemv`` and float64 exp loop, or None where either is missing or
the library was built without numpy's and Python's headers;
``thetasolver`` then runs its steps in Python.  Each path is chosen
once, here, and returns its Python loop's bits.

The compiler is Python's own (``sysconfig``'s CC, else ``cc``) with
``_FLAGS``.  The library is built once per source, flags, numpy version
and Python ABI into ``__pycache__/_kernel-<machine>-<crc32>.so``, written
under a temporary name and moved into place, so concurrent first imports
each see a whole file.  The compiler's output is captured, so a failed
build prints nothing.  A cached library loads without importing
``sysconfig`` or ``subprocess``, whose data would add 0.6 MB to every
process's peak memory.
"""

from __future__ import annotations

import ctypes
import os
import platform
import sys
import zlib
from pathlib import Path

import numpy as np

# Contraction must be off: GCC on aarch64 fuses a*b+c into one rounding
# by default, which would move the iterates; nothing reorders a sum
# without -ffast-math.
_FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
_SOURCE = Path(__file__).with_name("_kernel.c")
# ILP64 names only: the kernel passes 64-bit integers
_DGEMV_NAMES = ("scipy_cblas_dgemv64_", "cblas_dgemv64_")
# the CBLAS orders, as dissim_ssd_sample.phi_t_order holds them
_ROW_MAJOR, _COL_MAJOR = 101, 102


def _library_path(source: bytes) -> Path:
    """Where the library built from this source is cached.  The SSD half
    reads numpy's ufunc struct and Python's object header, so numpy's
    version and the interpreter's ABI tag are part of the name."""
    tag = zlib.crc32(b"\0".join([
        source, " ".join(_FLAGS).encode(), np.__version__.encode(),
        sys.implementation.cache_tag.encode(),
    ]))
    return _SOURCE.parent / "__pycache__" / f"_kernel-{platform.machine()}-{tag:08x}.so"


def _build(path: Path) -> bool:
    # imported here: only a build needs them
    import shlex
    import subprocess
    import sysconfig

    command = shlex.split(sysconfig.get_config_var("CC") or "cc")
    includes = ["-I", np.get_include(), "-I", sysconfig.get_path("include")]
    temporary = path.with_name(f"{path.stem}.{os.getpid()}.tmp")
    try:
        path.parent.mkdir(exist_ok=True)
        subprocess.run(
            [*command, *_FLAGS, *includes, "-o", str(temporary), str(_SOURCE),
             "-lm"],
            capture_output=True, check=True, timeout=120,
        )
        os.replace(temporary, path)
    except (OSError, subprocess.SubprocessError):
        return False
    finally:
        temporary.unlink(missing_ok=True)
    return True


def _load():
    try:
        path = _library_path(_SOURCE.read_bytes())
    except OSError:
        return None
    if not path.exists() and not _build(path):
        return None
    try:
        lib = ctypes.CDLL(str(path))
    except OSError:
        return None
    pointer, size, real = ctypes.c_void_p, ctypes.c_long, ctypes.c_double
    lib.dissim_qp_ascent.argtypes = [
        size, pointer, pointer, real, pointer, pointer, real, size,
    ]
    lib.dissim_qp_ascent.restype = ctypes.c_int
    lib.dissim_qp_sum.argtypes = [pointer, size]
    lib.dissim_qp_sum.restype = real
    return lib


class _Sample(ctypes.Structure):
    """``struct dissim_ssd_sample``: one sample as the SSD steps read it."""

    _fields_ = [
        ("phi", ctypes.c_void_p),
        ("phi_t", ctypes.c_void_p),
        ("table", ctypes.c_void_p),
        ("K", ctypes.c_int64),
        ("truth", ctypes.c_int64),
        ("phi_t_order", ctypes.c_int64),
        ("phi_t_ld", ctypes.c_int64),
    ]


def _bind_ssd(lib):
    """``lib``'s SSD step loop, bound to the ``cblas_dgemv`` that numpy
    calls and to np.exp's float64 loop, or None.

    The BLAS symbol is looked up on numpy's own ``_multiarray_umath``:
    opening a loaded library again maps nothing new, and its handle
    searches exactly the libraries numpy linked.
    """
    if lib is None or not hasattr(lib, "dissim_ssd_bind"):
        return None
    umath = (sys.modules.get("numpy._core._multiarray_umath")
             or sys.modules.get("numpy.core._multiarray_umath"))
    try:
        blas = ctypes.CDLL(umath.__file__)
    except (AttributeError, OSError):
        return None
    dgemv = next((getattr(blas, name) for name in _DGEMV_NAMES
                  if hasattr(blas, name)), None)
    if dgemv is None:
        return None
    lib.dissim_ssd_bind.argtypes = [ctypes.py_object, ctypes.c_void_p]
    if not lib.dissim_ssd_bind(np.exp, ctypes.cast(dgemv, ctypes.c_void_p)):
        return None
    steps = lib.dissim_ssd_steps
    pointer, size, real = ctypes.c_void_p, ctypes.c_long, ctypes.c_double
    steps.argtypes = [
        ctypes.POINTER(_Sample), pointer, size, size, pointer, size, size,
        size, real, real, ctypes.c_int, pointer,
    ]
    steps.restype = ctypes.c_int
    return steps


LIB = _load()
SSD = _bind_ssd(LIB)


def ssd_samples(views, d_theta: int):
    """The per-sample views as the SSD steps read them: a ctypes array of
    ``_Sample``, with the copies it points to.  None where some product
    of a step leaves ``cblas_dgemv`` in numpy (a latent space or d_theta
    of one) or a loss table is not a C-contiguous float64 array; the
    Python loop runs those sets.

    Each pointer is to the array numpy's own call reads: phi and the
    table in place, at the leading dimension numpy passes; a phi whose
    rows are not contiguous as the contiguous copies that numpy makes of
    it and of its transpose at every call.
    """
    rows = (_Sample * len(views))()
    copies = []
    for row, view in zip(rows, views):
        phi, table = view.phi, view.table
        K = phi.shape[0]
        if (K < 2 or d_theta < 2 or table.dtype != np.float64
                or not table.flags.c_contiguous):
            return None
        if phi.flags.c_contiguous and phi.flags.aligned:
            # phi.T is F-contiguous: numpy passes it column-major
            phi_t, order, ld = phi, _COL_MAJOR, d_theta
        else:
            phi = np.ascontiguousarray(phi)
            phi_t = np.ascontiguousarray(view.phi_t)
            order, ld = _ROW_MAJOR, K
            copies += [phi, phi_t]
        row.phi, row.phi_t, row.table = (
            phi.ctypes.data, phi_t.ctypes.data, table.ctypes.data)
        row.K, row.truth, row.phi_t_order, row.phi_t_ld = (
            K, view.truth_label, order, ld)
    return rows, copies


def address(arr: np.ndarray, shape: tuple, writes: bool, kernel: str,
            dtype=np.float64) -> int:
    """The data address of arr, once it is a C-contiguous array of this
    dtype and shape, and writeable where the kernel writes it;
    ValueError otherwise."""
    if (
        arr.dtype != dtype
        or arr.shape != shape
        or not arr.flags.c_contiguous
        or (writes and not arr.flags.writeable)
    ):
        raise ValueError(
            f"the {kernel} kernel needs a C-contiguous {np.dtype(dtype)} array "
            f"of shape {shape}{', writeable' if writes else ''}; got "
            f"{arr.dtype} {arr.shape}"
        )
    return arr.ctypes.data

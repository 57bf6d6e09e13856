"""The compiled loops (``_kernel.c`` beside this file), built and loaded
at import, so forked workers inherit them.

``LIB`` is the library as a ctypes handle, or None where no C compiler
builds it or it does not load; ``wsolver`` then runs its dual QP in
Python.  ``SSD`` is the library's SSD step loop, bound to numpy's own
``cblas_dgemv`` and float64 exp loop, or None where either is missing or
the library was built without numpy's and Python's headers;
``thetasolver`` then runs its steps in Python.  Each path is chosen
once, here, and returns its Python loop's bits.  The SSD steps take
only the sets ``ssd_samples`` accepts.  ``one_blas_thread`` sets numpy's
bundled OpenBLAS to one thread, for a forked pool worker.

The compiler is Python's own (``sysconfig``'s CC, else ``cc``) with
``_FLAGS``.  The library is built once per source, flags, numpy version
and Python ABI into ``__pycache__/_kernel-<machine>-<crc32>.so``, written
under a temporary name and moved into place, so concurrent first imports
each see a whole file (see ``_build`` for a build without the headers).
The compiler's output is captured, so a failed build prints nothing.  A
cached whole library loads without importing ``sysconfig`` or
``subprocess``, whose data would add 0.6 MB to every process's peak
memory.
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


def _library_path(source: bytes) -> Path:
    """Where the library built from this source is cached.  The SSD half
    reads numpy's ufunc struct and Python's object header, so numpy's
    version and the interpreter's ABI tag are part of the name."""
    tag = zlib.crc32(b"\0".join([
        source, " ".join(_FLAGS).encode(), np.__version__.encode(),
        sys.implementation.cache_tag.encode(),
    ]))
    return _SOURCE.parent / "__pycache__" / f"_kernel-{platform.machine()}-{tag:08x}.so"


def _build(path: Path) -> Path | None:
    """Build the library for ``path`` and return where it is; None where
    the build fails.  Without numpy's or Python's headers the SSD half is
    left out, and that library is built or found at ``<stem>-qp.so``, so
    the first import after the headers appear builds the whole one."""
    # imported here: only a library without the SSD half or a build needs it
    import sysconfig

    numpy_include, python_include = np.get_include(), sysconfig.get_path("include")
    if not (Path(numpy_include, "numpy", "ufuncobject.h").exists()
            and Path(python_include, "Python.h").exists()):
        path = path.with_name(f"{path.stem}-qp.so")
        if path.exists():
            return path
    import shlex
    import subprocess

    command = shlex.split(sysconfig.get_config_var("CC") or "cc")
    temporary = path.with_name(f"{path.stem}.{os.getpid()}.tmp")
    try:
        path.parent.mkdir(exist_ok=True)
        subprocess.run(
            [*command, *_FLAGS, "-I", numpy_include, "-I", python_include,
             "-o", str(temporary), str(_SOURCE), "-lm"],
            capture_output=True, check=True, timeout=120,
        )
        os.replace(temporary, path)
    except (OSError, subprocess.SubprocessError):
        return None
    finally:
        temporary.unlink(missing_ok=True)
    return path


def _load():
    try:
        path = _library_path(_SOURCE.read_bytes())
    except OSError:
        return None
    if not path.exists():
        path = _build(path)
        if path is None:
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
    return lib


class _Sample(ctypes.Structure):
    """``struct dissim_ssd_sample``: one sample as the SSD steps read it."""

    _fields_ = [
        ("phi", ctypes.c_void_p),
        ("table", ctypes.c_void_p),
        ("K", ctypes.c_int64),
        ("truth", ctypes.c_int64),
    ]


def _numpy_library():
    """numpy's own ``_multiarray_umath`` as a ctypes handle, or None.
    Opening a loaded library again maps nothing new, and its handle
    searches exactly the libraries numpy linked, so the BLAS symbols
    found on it are the ones numpy calls."""
    umath = (sys.modules.get("numpy._core._multiarray_umath")
             or sys.modules.get("numpy.core._multiarray_umath"))
    try:
        return ctypes.CDLL(umath.__file__)
    except (AttributeError, OSError):
        return None


def _bind_ssd(lib, blas):
    """``lib``'s SSD step loop, bound to the ``cblas_dgemv`` that numpy
    calls (looked up on ``blas``, numpy's own library) and to np.exp's
    float64 loop, or None."""
    if lib is None or blas is None or not hasattr(lib, "dissim_ssd_bind"):
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
        size, real, real, pointer,
    ]
    steps.restype = ctypes.c_int
    return steps


LIB = _load()
NUMPY = _numpy_library()
SSD = _bind_ssd(LIB, NUMPY)
# the thread count setter of the OpenBLAS that numpy bundles, or None
_SET_BLAS_THREADS = getattr(NUMPY, "scipy_openblas_set_num_threads64_", None)
if _SET_BLAS_THREADS is not None:
    _SET_BLAS_THREADS.argtypes, _SET_BLAS_THREADS.restype = [ctypes.c_int], None


def one_blas_thread() -> None:
    """Run this process's BLAS calls on one thread, where numpy's BLAS is
    its bundled OpenBLAS; do nothing under any other BLAS.  A forked pool
    worker calls it first, so that workers do not each start a BLAS
    thread pool on the same CPUs."""
    if _SET_BLAS_THREADS is not None:
        _SET_BLAS_THREADS(1)


def ssd_samples(views):
    """The per-sample views as the SSD steps read them, a ctypes array of
    ``_Sample`` that points into the views' own phi and tables; None
    unless every sample has a latent-dependent loss, a phi of at least
    two rows and columns (numpy calls other BLAS routines for a dimension
    of one), and phi and table C-contiguous, aligned float64 arrays.  The
    Python loop runs every other set.  A strided phi is not copied for
    the kernel: numpy's products on a copy round apart from its own.
    """
    rows = (_Sample * len(views))()
    for row, view in zip(rows, views):
        phi, table = view.phi, view.table
        if not (view.latent_dependent and min(phi.shape) >= 2
                and all(a.dtype == np.float64 and a.flags.c_contiguous
                        and a.flags.aligned for a in (phi, table))):
            return None
        row.phi, row.table = phi.ctypes.data, table.ctypes.data
        row.K, row.truth = phi.shape[0], view.truth_label
    return rows


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

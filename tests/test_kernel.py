"""Building, caching and loading the compiled kernels."""

import json
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import dissim._kernel as kernel
from helpers import src_env


def test_cache_name_tracks_source_numpy_and_python(monkeypatch):
    # the library reads numpy's ufunc struct and Python's object header:
    # a library built for another numpy or interpreter is never loaded
    source = b"int f(void) { return 0; }"
    base = kernel._library_path(source)
    assert base.parent.name == "__pycache__"
    assert kernel._library_path(source + b"\n") != base
    monkeypatch.setattr(np, "__version__", "1.24.4")
    assert kernel._library_path(source) != base
    monkeypatch.undo()
    other = types.SimpleNamespace(**{**vars(sys.implementation),
                                     "cache_tag": "cpython-310"})
    monkeypatch.setattr(sys, "implementation", other)
    assert kernel._library_path(source) != base
    monkeypatch.undo()
    assert kernel._library_path(source) == base


def run_import(prelude: str = "") -> dict:
    """``import dissim`` in a fresh process, after ``prelude``: the
    modules it then holds, the files it maps, and whether each kernel
    loaded."""
    code = prelude + (
        "import json, sys\n"
        "import dissim\n"
        "from dissim import _kernel\n"
        "maps = open('/proc/self/maps').read().split('\\n')\n"
        "print(json.dumps({\n"
        "    'modules': sorted(sys.modules),\n"
        "    'files': sorted({l.split(None, 5)[5] for l in maps\n"
        "                     if len(l.split(None, 5)) == 6}),\n"
        "    'qp': _kernel.LIB is not None, 'ssd': _kernel.SSD is not None,\n"
        "}))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          env=src_env(), timeout=300, check=True)
    return json.loads(proc.stdout)


needs_proc_maps = pytest.mark.skipif(
    not Path("/proc/self/maps").exists(), reason="needs /proc/self/maps")


@needs_proc_maps
def test_cached_import_loads_no_build_tools():
    # this process imported dissim, so the library is cached: a later
    # import loads it without sysconfig's data or subprocess
    assert kernel.LIB is not None
    if not hasattr(kernel.LIB, "dissim_ssd_bind"):
        pytest.skip("a library built without the headers looks for them "
                    "at every import")
    run = run_import()
    assert run["qp"]
    assert "sysconfig" not in run["modules"]
    assert "subprocess" not in run["modules"]


@needs_proc_maps
@pytest.mark.skipif(kernel.SSD is None, reason="the SSD kernel did not load")
def test_ssd_lookup_adds_no_module_and_no_mapping():
    # finding numpy's dgemv and exp loop opens numpy's own, loaded
    # library again: the import holds the same modules and maps the same
    # files as one where that lookup fails at its first step
    fail = (
        "import ctypes\n"
        "init = ctypes.CDLL.__init__\n"
        "def refuse(self, name, *args, **kwargs):\n"
        "    if '_multiarray_umath' in str(name):\n"
        "        raise OSError(name)\n"
        "    init(self, name, *args, **kwargs)\n"
        "ctypes.CDLL.__init__ = refuse\n"
    )
    bound, unbound = run_import(), run_import(fail)
    assert bound["ssd"] and not unbound["ssd"]
    assert unbound["qp"]
    assert bound["modules"] == unbound["modules"]
    assert bound["files"] == unbound["files"]

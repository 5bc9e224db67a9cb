"""Build and load the C hot loop of the index-space route kernels.

The kernel source (``_ckernel.c``) is compiled on first use with the
system C compiler into a content-addressed shared object under
``_ckernel_cache/`` (next to this file, ignored by git), then loaded
with :mod:`ctypes` — no build-time dependency, no third-party package.
Everything degrades gracefully: if there is no compiler, the build
fails, the platform is exotic, or ``REPRO_NO_CKERNEL=1`` is set, the
loader returns ``None`` and :mod:`repro.routing.compiled` falls back
to its pure-Python index-space loop, which is semantically identical (the
C kernel is an accelerator, never a behavior change — see the
equivalence notes in ``_ckernel.c``).

The compile-and-cache mechanics (including safety under concurrent
cold builds) live in :mod:`repro._ccompile`, shared with the stitch
kernel's loader (:mod:`repro.shard._kernel`).
"""

from __future__ import annotations

import ctypes
from pathlib import Path

from repro._ccompile import load_cached_library

__all__ = ["load_kernel"]

_SOURCE = Path(__file__).with_name("_ckernel.c")
_CACHE_DIR = Path(__file__).with_name("_ckernel_cache")

_sentinel = object()
_lib = _sentinel


def _load() -> "ctypes.CDLL | None":
    lib = load_cached_library(_SOURCE, _CACHE_DIR, "ckernel")
    if lib is None:
        return None
    try:
        fn = lib.ck_bottleneck_route
    except AttributeError:
        return None
    ptr = ctypes.c_void_p
    i64 = ctypes.c_int64
    f64 = ctypes.c_double
    fn.argtypes = [
        ptr, ptr, ptr, ptr,  # adj_off, adj_nbr, adj_edge, adj_lat
        ptr, ptr,            # bw, ar
        i64, i64,            # src, dst
        f64, f64,            # bw_need, lat_slack
        i64,                 # max_expansions
        ptr, ptr,            # out_path, out_path_len
        ptr, ptr, ptr,       # out_bbw, out_lat, out_expansions
    ]
    fn.restype = ctypes.c_int
    return lib


def load_kernel() -> "ctypes.CDLL | None":
    """The loaded kernel library, or ``None`` when unavailable.

    Memoized per process; the first call may invoke the C compiler
    (sub-second, once per source revision per machine).
    """
    global _lib
    if _lib is _sentinel:
        _lib = _load()
    return _lib

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

Building, caching and memoizing are :func:`repro._ccompile.kernel_loader`,
shared with the stitch kernel (:mod:`repro.shard._kernel`).
"""

from __future__ import annotations

from ctypes import c_double as f64, c_int, c_int64 as i64, c_void_p as ptr
from pathlib import Path

from repro import _ccompile

__all__ = ["load_kernel"]

#: The loaded kernel library, or ``None`` when unavailable (memoized).
load_kernel = _ccompile.kernel_loader(
    Path(__file__).with_name("_ckernel.c"),
    Path(__file__).with_name("_ckernel_cache"),
    "ck_bottleneck_route",
    (
        ptr, ptr, ptr, ptr,  # adj_off, adj_nbr, adj_edge, adj_lat
        ptr, ptr,            # bw, ar
        i64, i64,            # src, dst
        f64, f64,            # bw_need, lat_slack
        i64,                 # max_expansions
        ptr, ptr,            # out_path, out_path_len
        ptr, ptr, ptr,       # out_bbw, out_lat, out_expansions
    ),
    c_int,
)

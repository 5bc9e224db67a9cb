"""Build and load the batched stitch-routing C kernel.

``_stitchkernel.c`` is compiled on first use into ``_stitch_cache/``
keyed by the source's SHA-256, through the loader shared with
:mod:`repro.routing._cbuild` (:func:`repro._ccompile.kernel_loader`),
so concurrent cold starts (conformance fuzz processes,
:mod:`repro.shard.parallel` pod workers) never race on the build or
recompile per process.  The loader degrades to ``None`` — and
therefore to the semantically identical pure-Python wave driver in
:mod:`repro.shard.stitch` — on any failure or when
``REPRO_NO_CKERNEL=1`` is set (one switch disables every C accelerator
in the library).
"""

from __future__ import annotations

from ctypes import c_int64 as i64, c_void_p as ptr
from pathlib import Path

from repro import _ccompile

__all__ = ["load_stitch_kernel"]

#: The loaded kernel library, or ``None`` when unavailable (memoized).
load_stitch_kernel = _ccompile.kernel_loader(
    Path(__file__).with_name("_stitchkernel.c"),
    Path(__file__).with_name("_stitch_cache"),
    "sk_route_batch",
    (
        ptr, ptr, ptr, ptr,  # adj_off, adj_nbr, adj_edge, adj_lat
        ptr,                 # bw
        i64,                 # n_nodes
        ptr, ptr, ptr, ptr,  # src, dst, need, bound
        i64,                 # n_queries
        ptr, i64, ptr,       # out_nodes, out_cap, out_off
        ptr, ptr,            # status, total_pops
    ),
    i64,
)

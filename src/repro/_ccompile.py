"""The one loader for the runtime-compiled C kernels.

Both accelerator kernels (:mod:`repro.routing._cbuild`'s bottleneck
router and :mod:`repro.shard._kernel`'s batched stitch router) come
from :func:`kernel_loader`: compile the checked-in ``.c`` source on
first use with the system compiler into a shared object named after
the source's SHA-256, load it with :mod:`ctypes`, type its entry point
and memoize the library, or ``None`` — i.e. the bit-identical
pure-Python twin — on any failure or when ``REPRO_NO_CKERNEL=1`` is
set.  Whether a mapping uses a loaded kernel is the routing cache's
choice (:class:`repro.routing.cache.RoutingCache`), not the loader's.

The cache is safe under concurrent cold starts (BatchRunner cells,
:mod:`repro.shard.parallel` pod workers): each process compiles into a
pid-suffixed temp file and atomically renames it into place, and the
content-addressed name means a stale artifact can never be loaded for
a newer source.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import subprocess
from pathlib import Path
from typing import Callable

__all__ = ["kernel_loader", "CFLAGS"]

#: -ffp-contract=off forbids fused multiply-add contraction so every
#: double operation rounds exactly like the Python kernels'; -O2 keeps
#: the rest.  No -ffast-math, ever — it breaks IEEE comparisons.
CFLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off", "-fno-math-errno")


def _build(source: Path, so_path: Path) -> bool:
    compiler = os.environ.get("CC", "cc")
    tmp = so_path.with_name(f"{so_path.stem}.{os.getpid()}.tmp.so")
    cmd = [compiler, *CFLAGS, "-o", str(tmp), str(source)]
    try:
        subprocess.run(
            cmd, check=True, capture_output=True, timeout=120, cwd=str(source.parent)
        )
        os.replace(tmp, so_path)
        return True
    except (OSError, subprocess.SubprocessError):
        try:
            tmp.unlink(missing_ok=True)
        except OSError:
            pass
        return False


def kernel_loader(
    source: Path, cache_dir: Path, symbol: str, argtypes: tuple, restype
) -> Callable[[], "ctypes.CDLL | None"]:
    """A memoized zero-argument loader for *source*'s entry point *symbol*.

    Its first call builds ``<cache_dir>/<stem>_<sha256[:16]>.so``
    (*stem* without its leading underscore) unless that artifact
    exists, and loads it; it returns ``None`` when the kernel is
    disabled (``REPRO_NO_CKERNEL=1``), the source is unreadable, the
    build fails, or the artifact cannot be loaded or lacks *symbol*.
    """

    @functools.cache
    def load() -> "ctypes.CDLL | None":
        if os.environ.get("REPRO_NO_CKERNEL") == "1":
            return None
        try:
            source_bytes = source.read_bytes()
        except OSError:
            return None
        digest = hashlib.sha256(source_bytes).hexdigest()[:16]
        so_path = cache_dir / f"{source.stem.lstrip('_')}_{digest}.so"
        if not so_path.exists():
            try:
                cache_dir.mkdir(exist_ok=True)
            except OSError:
                return None
            if not _build(source, so_path):
                return None
        try:
            lib = ctypes.CDLL(str(so_path))
            fn = getattr(lib, symbol)
        except (OSError, AttributeError):
            return None
        fn.argtypes = list(argtypes)
        fn.restype = restype
        return lib

    return load

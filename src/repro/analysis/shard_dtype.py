"""Rule ``shard-kernel-dtype``: the server kernels must pin their dtype.

``repro/sharding/`` holds the only server kernels there are (one shard is
the default), and their whole contract is bit-identity across shard
counts (``tests/properties/test_props_sharding.py``), which only holds if
every per-shard accumulator, candidate buffer, and memmap states its
dtype explicitly — a bare ``np.zeros(shard_len)`` silently
accumulates one shard in float64 while its neighbors follow the run
policy, and the differential suite would only catch it for the dtypes it
happens to draw.  ``np.memmap`` is included on top of the usual bare
constructors: its default is *uint8*, so an unpinned memmap is not even
the wrong float — it reinterprets the file outright.

Same mechanics as ``bare-dtype`` (:class:`DtypeDisciplineChecker`),
scoped to ``repro/sharding/`` with the memmap constructor added.
"""

from __future__ import annotations

from repro.analysis.core import register
from repro.analysis.dtype_discipline import DtypeDisciplineChecker

__all__ = ["ShardKernelDtypeChecker"]


@register
class ShardKernelDtypeChecker(DtypeDisciplineChecker):
    rule = "shard-kernel-dtype"
    description = (
        "flag numpy array/memmap constructors without an explicit dtype= "
        "in the server kernels (repro/sharding/)"
    )
    hint = (
        "pin dtype= on every shard-sized buffer — bit-identity across "
        "shard counts depends on it (np.memmap defaults to uint8)"
    )

    hot_path_dirs = ("repro/sharding/",)
    hot_path_files = ()
    constructors = DtypeDisciplineChecker.constructors | {"numpy.memmap"}

    def _message(self, name: str) -> str:
        if name == "numpy.memmap":
            return (
                "np.memmap() without dtype= in a server kernel defaults "
                "to uint8 — it reinterprets the backing file outright"
            )
        return (
            f"{name.replace('numpy', 'np')}() without dtype= in a server "
            "kernel breaks bit-identity across shard counts"
        )

"""Buffer-cache (memory-copy) cost model (Pentium III era).

The paper distinguishes writes that stop at the I/O node's buffer cache
(``t^{bc}``) from writes flushed to disk (``t^{disk}``).  The buffer
cache is modelled as memory bandwidth plus a small per-operation cost:
a PIII-800 with PC100 SDRAM sustained roughly 300 MB/s for large
memcpys, and each distinct copied run pays a fixed overhead (function
call, page lookup) that penalises fragmented writes at small sizes —
the effect visible in the paper's small-matrix rows.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["MemoryModel"]

MB = 1_000_000


@dataclass(frozen=True)
class MemoryModel:
    """Memory-copy cost constants (era memcpy rate + per-run penalty)."""

    copy_Bps: float = 300 * MB
    per_run_s: float = 2e-6

    def copy_time(self, nbytes: int, runs: int = 1) -> float:
        """Time to copy ``nbytes`` in ``runs`` distinct contiguous runs."""
        if nbytes < 0 or runs < 0:
            raise ValueError("need nbytes >= 0 and runs >= 0")
        return runs * self.per_run_s + nbytes / self.copy_Bps

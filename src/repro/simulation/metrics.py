"""Breakdown records for the paper's two tables.

The evaluation reports two tables of phase timings (in microseconds):

* Table 1, per compute node: ``t_i`` (intersection + projections, paid
  at view-set), ``t_m`` (mapping the access extremities), ``t_g``
  (gathering non-contiguous view data), ``t_w^bc`` / ``t_w^disk`` (the
  whole write, to buffer cache / to disk).
* Table 2, per I/O node: ``t_sc^bc`` / ``t_sc^disk`` (scattering the
  received buffer into the subfile, to cache / to disk).

Two kinds of numbers flow into these records:

* **measured** — real wall-clock time of our algorithm implementations
  (intersection, mapping, gather), taken with ``perf_counter``; their
  *shape* across sizes and layouts is a property of the algorithms;
* **modelled** — device times from the era cost models
  (:mod:`repro.simulation`), marked ``modelled`` in the field
  comments, used wherever the paper's number is dominated by 2001
  hardware we do not have.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["WriteBreakdown", "ScatterBreakdown"]


@dataclass
class WriteBreakdown:
    """Per-compute-node write timing (paper Table 1), microseconds."""

    t_i: float = 0.0  # measured: intersection + projections at view set
    t_m: float = 0.0  # measured: mapping the access extremities
    t_g: float = 0.0  # measured: gather into the send buffer
    t_w_bc: float = 0.0  # modelled: full write, I/O nodes stop at cache
    t_w_disk: float = 0.0  # modelled: full write, flushed to disk


@dataclass
class ScatterBreakdown:
    """Per-I/O-node scatter timing (paper Table 2), microseconds."""

    t_sc_bc: float = 0.0  # modelled: scatter into the buffer cache
    t_sc_disk: float = 0.0  # modelled: scatter + flush to disk

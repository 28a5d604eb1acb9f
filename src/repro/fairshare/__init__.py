"""Max-min fair bandwidth allocation.

This package implements the sharing model the paper adopts (§4.2): "all else
being equal, the bottleneck link bandwidth will be shared equally by all
flows (not being bottlenecked elsewhere)" — i.e. **max-min fair share**
(Jaffe 1981), generalised with per-flow weights (for Remos *variable* flows,
which share "proportionally") and per-flow demand caps (for Remos *fixed*
flows, which never take more than they asked for).

The same engine is used twice, deliberately:

* :mod:`repro.netsim` calls it to decide the rates the simulated network
  actually gives concurrent flows, and
* :mod:`repro.core` calls it to *answer* Remos flow queries,

mirroring the paper's position that max-min fairness is simultaneously the
network's behaviour and the interface's model of it.

Resources are identified by arbitrary hashable keys — directed links, node
crossbars, anything with a capacity.
"""

from repro.fairshare.maxmin import Demand, MaxMinProblem, MaxMinResult, weighted_max_min
from repro.fairshare.allocator import (
    FlowRequest,
    StagedAllocation,
    allocate_three_stage,
)
from repro.fairshare.admission import admissible, admission_report

__all__ = [
    "Demand",
    "MaxMinProblem",
    "MaxMinResult",
    "weighted_max_min",
    "FlowRequest",
    "StagedAllocation",
    "allocate_three_stage",
    "admissible",
    "admission_report",
]

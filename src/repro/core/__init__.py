"""The paper's primary contribution: the LAACAD algorithm.

* :mod:`repro.core.config` — run configuration (k, alpha, epsilon, ...).
* :mod:`repro.core.dominating` — Algorithm 2: localized dominating-region
  computation via an expanding ring.
* Algorithm 1, the iterative deployment driver, runs through
  :class:`repro.api.Simulation` (:mod:`repro.api.deployers`; the
  message-passing variant's agents live in :mod:`repro.runtime.protocol`).
* :mod:`repro.core.convergence` — convergence tracking and stopping rules.
* :mod:`repro.core.minnode` — the Sec. IV-C transform towards min-node
  k-coverage.
"""

from repro.core.config import LaacadConfig
from repro.api.results import RoundStats
from repro.core.dominating import localized_dominating_region, LocalizedComputation
from repro.core.convergence import ConvergenceTracker
from repro.core.minnode import MinNodeSizer, MinNodeResult

__all__ = [
    "LaacadConfig",
    "RoundStats",
    "localized_dominating_region",
    "LocalizedComputation",
    "ConvergenceTracker",
    "MinNodeSizer",
    "MinNodeResult",
]

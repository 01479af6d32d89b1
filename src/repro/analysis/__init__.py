"""Soundness and adversary analysis.

The soundness condition of a dQMA protocol is a supremum over *all* proofs.
This package provides three complementary ways of evaluating that supremum on
concrete instances:

* exact optimisation over entangled proofs via the acceptance operator's
  largest eigenvalue (:func:`repro.protocols.chain.optimal_entangled_acceptance`,
  or Lanczos on the matrix-free operator,
  :func:`repro.protocols.chain.optimal_sweep_acceptance`),
* seesaw (alternating eigenvector) optimisation over separable proofs —
  the ``dQMA_sep,sep`` adversary (:mod:`repro.analysis.adversary`),
* structured searches over fingerprint-valued product proofs, which capture
  the natural cheating strategies (:mod:`repro.analysis.soundness`).
"""

from repro.analysis.adversary import (
    random_product_search,
    seesaw_separable_acceptance,
)
from repro.analysis.soundness import (
    SoundnessReport,
    StrategySearchResult,
    entangled_soundness_report,
    fingerprint_strategy_soundness,
    paper_bound_slack,
    repetition_soundness,
)

__all__ = [
    "random_product_search",
    "seesaw_separable_acceptance",
    "SoundnessReport",
    "StrategySearchResult",
    "entangled_soundness_report",
    "fingerprint_strategy_soundness",
    "paper_bound_slack",
    "repetition_soundness",
]

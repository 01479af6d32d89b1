"""Network substrate: topologies, spanning trees and distributed bookkeeping.

Networks in the paper are simple connected graphs whose nodes are verifiers;
a subset of *terminal* nodes hold the distributed inputs.  This package keeps
its own small graph core (:mod:`repro.network.graph`: adjacency dicts whose
traversal orders match networkx's), derives from it the quantities the
protocols need (radius, eccentricity, most-central terminal, path
extraction), and implements the spanning-tree construction of Section 3.3
with terminal truncation, so that every terminal becomes a leaf of the
verification tree.
"""

from repro.network.topology import (
    Network,
    binary_tree_network,
    complete_network,
    cycle_network,
    grid_network,
    path_network,
    random_graph_network,
    random_tree_network,
    star_network,
)
from repro.network.spanning_tree import VerificationTree, build_verification_tree

__all__ = [
    "Network",
    "binary_tree_network",
    "path_network",
    "star_network",
    "complete_network",
    "cycle_network",
    "grid_network",
    "random_graph_network",
    "random_tree_network",
    "VerificationTree",
    "build_verification_tree",
]

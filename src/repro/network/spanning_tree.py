"""Verification-tree construction (Section 3.3 of the paper).

For a network ``G`` with terminals ``u_1, ..., u_t`` the protocols on general
graphs work over a tree ``T`` rooted at the most central terminal ``u_1``,
whose leaves are the remaining terminals, with depth at most ``r + 1``.  The
construction of the paper starts from a BFS tree, truncates it below terminals
with no terminal descendants, and finally re-attaches any internal terminal
``u_i`` as a fresh leaf ``u_i'`` so that every terminal has degree one in the
verification tree.  (The paper notes a deterministic dMA protocol, Lemma 18,
certifies the tree; here the tree is constructed honestly by the library.)
Node and child orders follow the BFS discovery order of
:meth:`repro.network.graph.Graph.bfs_tree`, which the tree protocols compile in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.exceptions import TopologyError
from repro.network.graph import RootedTree
from repro.network.topology import Network, NodeId


@dataclass
class VerificationTree:
    """A rooted tree used by the general-graph protocols.

    Attributes
    ----------
    tree:
        The rooted tree as parent and children maps.
    root:
        The root node (the most central terminal by default).
    terminal_leaves:
        Mapping from each original terminal to the leaf of the tree that
        carries its input (either the terminal itself or its shadow leaf).
    shadow_of:
        Mapping from shadow leaves back to the original terminal they mirror.
    """

    tree: RootedTree
    root: NodeId
    terminal_leaves: Dict[NodeId, NodeId]
    shadow_of: Dict[NodeId, NodeId] = field(default_factory=dict)

    @property
    def nodes(self) -> List[NodeId]:
        """All nodes of the verification tree."""
        return list(self.tree.children)

    def children(self, node: NodeId) -> List[NodeId]:
        """Children of a node."""
        return list(self.tree.children[node])

    def parent(self, node: NodeId) -> Optional[NodeId]:
        """Parent of a node (``None`` for the root)."""
        return self.tree.parent[node]

    def is_leaf(self, node: NodeId) -> bool:
        """True when the node has no children."""
        return not self.tree.children[node]

    @property
    def leaves(self) -> List[NodeId]:
        """All leaves of the tree."""
        return [node for node, children in self.tree.children.items() if not children]

    @property
    def depth(self) -> int:
        """Length (in edges) of the longest root-to-leaf path."""
        return max(self.tree.depths.values())

    def path_from_root(self, node: NodeId) -> List[NodeId]:
        """The unique path from the root to the given node."""
        return self.tree.path_from_root(node)

    def path_between(self, leaf: NodeId) -> List[NodeId]:
        """Alias of :meth:`path_from_root`, named for call-site readability."""
        return self.path_from_root(leaf)

    def max_children(self) -> int:
        """Maximum number of children over internal nodes."""
        return max(map(len, self.tree.children.values()))

    def topological_order(self) -> List[NodeId]:
        """All nodes, every parent before its children (root first).

        This is the node order the tree-program compilers use: the engine's
        :class:`~repro.engine.jobs.TreeJob` requires parents to precede their
        children so the leaf-to-root contraction can run index-reversed.
        """
        return self.tree.topological_order()

    def terminal_path(self, terminal: NodeId) -> List[NodeId]:
        """Physical nodes on the tree path from the root to a terminal.

        Shadow leaves are folded back onto the original node they mirror, so
        the returned path can carry protocol registers on real network nodes
        (used by the relay protocol when it runs along a spanning-tree path).
        """
        if terminal not in self.terminal_leaves:
            raise TopologyError(f"{terminal!r} is not a terminal of this tree")
        path: List[NodeId] = []
        for node in self.path_from_root(self.terminal_leaves[terminal]):
            physical = self.shadow_of.get(node, node)
            if not path or path[-1] != physical:
                path.append(physical)
        return path

    def validate(self) -> None:
        """Check the structural invariants promised by the construction.

        The tree itself is an arborescence by construction
        (:meth:`~repro.network.graph.RootedTree.add_child` attaches only new
        nodes under known ones); this checks where the terminals sit.
        """
        if self.root != self.tree.root:
            raise TopologyError(f"root {self.root!r} is not the root of the tree")
        for terminal, leaf in self.terminal_leaves.items():
            if leaf == self.root:
                # The root terminal keeps its input and plays both the root
                # and the terminal roles (Section 3.3 / Algorithm 5).
                continue
            if not self.is_leaf(leaf):
                raise TopologyError(
                    f"terminal {terminal!r} is mapped to non-leaf {leaf!r}"
                )


def build_verification_tree(
    network: Network, root: Optional[NodeId] = None
) -> VerificationTree:
    """Construct the verification tree of Section 3.3 for a network.

    The root defaults to the most central terminal.  The returned tree has
    every terminal attached as a leaf: internal terminals are mirrored by a
    shadow leaf named ``(terminal, "shadow")`` whose protocol actions are
    executed by the original node, exactly as described in the paper.
    """
    if root is None:
        root = network.most_central_terminal()
    if root not in network.topology:
        raise TopologyError(f"root {root!r} is not a node of the network")

    bfs_tree = network.topology.bfs_tree(root)

    # Truncate every branch that holds no terminal: keep exactly the nodes on
    # root-to-terminal paths, in BFS discovery order (the truncation step of
    # the paper's construction).
    keep = {node for terminal in network.terminals for node in bfs_tree.path_from_root(terminal)}
    tree = RootedTree(root)
    for node, parent in bfs_tree.parent.items():
        if parent is not None and node in keep:
            tree.add_child(parent, node)

    terminal_leaves: Dict[NodeId, NodeId] = {}
    shadow_of: Dict[NodeId, NodeId] = {}

    for terminal in network.terminals:
        if terminal == root:
            # The root keeps its input; it plays both the root role and the
            # terminal role, as in the paper's protocols.
            terminal_leaves[terminal] = terminal
            continue
        if not tree.children[terminal]:
            terminal_leaves[terminal] = terminal
        else:
            shadow = (terminal, "shadow")
            tree.add_child(terminal, shadow)
            terminal_leaves[terminal] = shadow
            shadow_of[shadow] = terminal

    result = VerificationTree(tree=tree, root=root, terminal_leaves=terminal_leaves, shadow_of=shadow_of)
    result.validate()
    return result


"""Network topologies for distributed verification.

A :class:`Network` is a simple connected graph together with an ordered list
of *terminals* — the nodes that hold the distributed inputs ``x_1, ..., x_t``.
Node identifiers are arbitrary hashable values; the constructors below use
strings such as ``"v0"`` for paths and ``"leaf3"`` for stars.  The graph lives
in a :class:`~repro.network.graph.Graph`, whose traversal orders match
networkx's (see :mod:`repro.network.graph`).
"""

from __future__ import annotations

from typing import Any, Hashable, List, Optional, Sequence, Tuple

from repro.exceptions import TopologyError
from repro.network.graph import (
    Graph,
    balanced_binary_tree,
    complete_graph,
    cycle_graph,
    grid_graph,
)
from repro.utils.rng import RngLike, ensure_rng

NodeId = Hashable


class Network:
    """A connected verification network with designated terminal nodes.

    ``graph`` is any simple undirected graph read through ``nodes()`` and
    ``neighbors()`` — a :class:`~repro.network.graph.Graph` or a networkx
    graph; it is copied into :attr:`topology`, keeping its node and neighbour
    orders.
    """

    def __init__(self, graph: Any, terminals: Sequence[NodeId]) -> None:
        if getattr(graph, "is_directed", lambda: False)():
            raise TopologyError("network must be an undirected graph")
        self.topology = Graph.from_graph(graph)
        if not self.topology.nodes():
            raise TopologyError("network must contain at least one node")
        loops = [node for node in self.topology.nodes() if self.topology.has_edge(node, node)]
        if loops:
            raise TopologyError(f"network must be a simple graph: self-loops at {loops}")
        if not self.topology.is_connected():
            raise TopologyError("network must be connected")
        terminals = tuple(terminals)
        if len(terminals) == 0:
            raise TopologyError("network must have at least one terminal")
        if len(set(terminals)) != len(terminals):
            raise TopologyError(f"duplicate terminals: {terminals}")
        for terminal in terminals:
            if terminal not in self.topology:
                raise TopologyError(f"terminal {terminal!r} is not a node of the graph")
        self.terminals: Tuple[NodeId, ...] = terminals
        self._networkx: Any = None

    @property
    def graph(self) -> Any:
        """The network as a networkx graph, built on first access (needs networkx).

        Library code reads :attr:`topology`; this copy serves callers that want
        networkx's algorithms.
        """
        if self._networkx is None:
            import networkx

            self._networkx = networkx.Graph()
            self._networkx.add_nodes_from(self.topology.nodes())
            self._networkx.add_edges_from(self.topology.edges())
        return self._networkx

    # ------------------------------------------------------------- queries

    @property
    def nodes(self) -> List[NodeId]:
        """All nodes of the network."""
        return self.topology.nodes()

    @property
    def edges(self) -> List[Tuple[NodeId, NodeId]]:
        """All edges of the network."""
        return self.topology.edges()

    @property
    def num_nodes(self) -> int:
        """Number of nodes."""
        return len(self.topology.nodes())

    @property
    def num_terminals(self) -> int:
        """Number of terminals ``t``."""
        return len(self.terminals)

    def distance(self, u: NodeId, v: NodeId) -> int:
        """Graph distance between two nodes."""
        return len(self.topology.shortest_path(u, v)) - 1

    def eccentricity(self, node: NodeId) -> int:
        """Maximum distance from ``node`` to any other node."""
        return self.topology.eccentricity(node)

    @property
    def radius(self) -> int:
        """The network radius ``r = min_u max_v dist(u, v)`` (Section 2)."""
        return self.topology.radius()

    @property
    def diameter(self) -> int:
        """The network diameter."""
        return self.topology.diameter()

    @property
    def max_degree(self) -> int:
        """Maximum degree ``d_max`` (used by the LOCC conversion, Lemma 20)."""
        return max(map(self.topology.degree, self.topology.nodes()))

    def most_central_terminal(self) -> NodeId:
        """The terminal minimising its maximum distance to the other terminals.

        This is the node ``u_1`` chosen as tree root in Section 3.3.
        """
        best_terminal = None
        best_value = None
        for candidate in self.terminals:
            value = max(self.distance(candidate, other) for other in self.terminals)
            if best_value is None or value < best_value:
                best_value = value
                best_terminal = candidate
        return best_terminal

    def terminal_radius(self) -> int:
        """``min_{terminal u} max_{terminal v} dist(u, v)`` over terminals."""
        root = self.most_central_terminal()
        return max(self.distance(root, other) for other in self.terminals)

    def shortest_path(self, u: NodeId, v: NodeId) -> List[NodeId]:
        """A shortest path between two nodes, inclusive of both endpoints."""
        return self.topology.shortest_path(u, v)

    def neighbors(self, node: NodeId) -> List[NodeId]:
        """Neighbours of a node."""
        return self.topology.neighbors(node)

    def is_terminal(self, node: NodeId) -> bool:
        """True when the node holds an input."""
        return node in set(self.terminals)

    def with_terminals(self, terminals: Sequence[NodeId]) -> "Network":
        """The same graph with a different set of terminals."""
        return Network(self.topology, tuple(terminals))


def path_network(length: int, terminals: Optional[Sequence[NodeId]] = None) -> Network:
    """The path ``v0 - v1 - ... - v_length`` with terminals at the extremities.

    ``length`` is the number of edges ``r``; the path has ``r + 1`` nodes.
    """
    if length < 1:
        raise TopologyError("a path network needs length (number of edges) >= 1")
    names = [f"v{i}" for i in range(length + 1)]
    graph = Graph(names, zip(names, names[1:]))
    if terminals is None:
        terminals = (names[0], names[-1])
    return Network(graph, tuple(terminals))


def star_network(num_leaves: int, terminals: Optional[Sequence[NodeId]] = None) -> Network:
    """A star with a centre node and ``num_leaves`` leaves; leaves are terminals."""
    if num_leaves < 1:
        raise TopologyError("a star network needs at least one leaf")
    centre = "centre"
    leaves = [f"leaf{i}" for i in range(num_leaves)]
    graph = Graph([centre], ((centre, leaf) for leaf in leaves))
    if terminals is None:
        terminals = tuple(leaves)
    return Network(graph, tuple(terminals))


def complete_network(num_nodes: int, num_terminals: int) -> Network:
    """The complete graph on ``num_nodes`` nodes with the first ``num_terminals`` as terminals."""
    if num_nodes < 1:
        raise TopologyError("a complete network needs at least one node")
    if num_terminals < 1 or num_terminals > num_nodes:
        raise TopologyError("number of terminals must be between 1 and the node count")
    graph = Graph.from_graph(complete_graph(num_nodes), name=lambda i: f"n{i}")
    terminals = tuple(f"n{i}" for i in range(num_terminals))
    return Network(graph, terminals)


def cycle_network(num_nodes: int, num_terminals: int = 2) -> Network:
    """A cycle on ``num_nodes`` nodes with evenly spread terminals."""
    if num_nodes < 3:
        raise TopologyError("a cycle needs at least three nodes")
    if num_terminals < 1 or num_terminals > num_nodes:
        raise TopologyError("number of terminals must be between 1 and the node count")
    graph = Graph.from_graph(cycle_graph(num_nodes), name=lambda i: f"c{i}")
    stride = num_nodes // num_terminals
    terminals = tuple(f"c{(i * stride) % num_nodes}" for i in range(num_terminals))
    return Network(graph, terminals)


def binary_tree_network(depth: int, num_terminals: Optional[int] = None) -> Network:
    """A complete binary tree of the given depth; terminals sit at the leaves.

    ``num_terminals`` restricts the terminals to the first leaves in label
    order (all ``2^depth`` leaves when omitted).
    """
    if depth < 1:
        raise TopologyError("a binary tree network needs depth >= 1")
    graph = Graph.from_graph(balanced_binary_tree(depth), name=lambda i: f"b{i}")
    leaves = sorted(
        (node for node in graph.nodes() if graph.degree(node) == 1),
        key=lambda name: int(name[1:]),
    )
    if num_terminals is None:
        terminals: Sequence[NodeId] = leaves
    else:
        if num_terminals < 1 or num_terminals > len(leaves):
            raise TopologyError(
                f"number of terminals must be between 1 and the {len(leaves)} leaves"
            )
        terminals = leaves[:num_terminals]
    return Network(graph, tuple(terminals))


def grid_network(
    rows: int, cols: int, num_terminals: Optional[int] = None
) -> Network:
    """A ``rows x cols`` lattice; terminals default to the grid corners.

    Nodes are named ``g{row}_{col}``.  ``num_terminals`` restricts the
    terminals to the first corners in reading order (all four — or fewer on
    degenerate grids — when omitted).
    """
    if rows < 1 or cols < 1:
        raise TopologyError("a grid network needs at least one row and one column")
    if rows * cols < 2:
        raise TopologyError("a grid network needs at least two nodes")
    graph = Graph.from_graph(grid_graph(rows, cols), name=lambda node: f"g{node[0]}_{node[1]}")
    corner_coords = [(0, 0), (0, cols - 1), (rows - 1, 0), (rows - 1, cols - 1)]
    corners = []
    for coordinate in corner_coords:
        name = f"g{coordinate[0]}_{coordinate[1]}"
        if name not in corners:
            corners.append(name)
    if num_terminals is None:
        terminals: Sequence[NodeId] = corners
    else:
        if num_terminals < 1 or num_terminals > len(corners):
            raise TopologyError(
                f"number of terminals must be between 1 and the {len(corners)} corners"
            )
        terminals = corners[:num_terminals]
    return Network(graph, tuple(terminals))


def random_graph_network(
    num_nodes: int,
    num_terminals: int,
    extra_edge_probability: float = 0.2,
    rng: RngLike = None,
) -> Network:
    """A connected random graph: a random spanning tree plus chance chords.

    Connectedness is guaranteed by construction (a random recursive tree
    backbone); every non-tree pair then becomes an edge independently with
    ``extra_edge_probability``.  Terminals are chosen uniformly at random.
    """
    if num_nodes < 2:
        raise TopologyError("a random graph needs at least two nodes")
    if num_terminals < 1 or num_terminals > num_nodes:
        raise TopologyError("number of terminals must be between 1 and the node count")
    if not 0.0 <= extra_edge_probability <= 1.0:
        raise TopologyError("extra-edge probability must lie in [0, 1]")
    generator = ensure_rng(rng)
    graph = Graph(["t0"])
    for index in range(1, num_nodes):
        parent = int(generator.integers(0, index))
        graph.add_edge(f"t{parent}", f"t{index}")
    for i in range(num_nodes):
        for j in range(i + 1, num_nodes):
            u, v = f"t{i}", f"t{j}"
            if not graph.has_edge(u, v) and generator.random() < extra_edge_probability:
                graph.add_edge(u, v)
    node_names = [f"t{i}" for i in range(num_nodes)]
    chosen = generator.choice(num_nodes, size=num_terminals, replace=False)
    terminals = tuple(node_names[int(i)] for i in sorted(chosen))
    return Network(graph, terminals)


def random_tree_network(
    num_nodes: int, num_terminals: int, rng: RngLike = None
) -> Network:
    """A uniformly random labelled tree with randomly chosen terminals."""
    if num_nodes < 2:
        raise TopologyError("a random tree needs at least two nodes")
    if num_terminals < 1 or num_terminals > num_nodes:
        raise TopologyError("number of terminals must be between 1 and the node count")
    generator = ensure_rng(rng)
    # Build a random tree by attaching each new node to a uniformly random
    # earlier node (random recursive tree); connectedness is guaranteed.
    graph = Graph(["t0"])
    for index in range(1, num_nodes):
        parent = int(generator.integers(0, index))
        graph.add_edge(f"t{parent}", f"t{index}")
    node_names = [f"t{i}" for i in range(num_nodes)]
    chosen = generator.choice(num_nodes, size=num_terminals, replace=False)
    terminals = tuple(node_names[int(i)] for i in sorted(chosen))
    return Network(graph, terminals)

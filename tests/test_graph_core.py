"""Differential tests of the graph core (``repro.network.graph``) against networkx.

The core must keep networkx's traversal *orders*, not only its answers:
``best_strategy`` report cells are argmaxes over exactly tied strategies and
the tree protocols compile in ``topological_order()``, so another neighbour
order, shortest path or BFS child order can flip a label or change the last
bits of a number.  networkx is the oracle here (a ``dev`` dependency); the
library itself never imports it.

Two families of inputs:

* the zoo: every generator at several sizes, every topology the report sweeps
  (``default_soundness_topologies()``, ``default_noise_topologies()`` and
  ``network_zoo``) at t = 2..4, and the ℓ1-graph embeddings, each against the
  networkx construction the library used before it had its own core;
* Hypothesis graphs: connected graphs on at most 12 nodes (a random spanning
  tree plus chords) with shuffled node and edge insertion orders, handed to
  :class:`~repro.network.topology.Network` as networkx graphs.

Each is checked for node order, per-node neighbour order, ``edges()`` order,
the shortest path and distance of every ordered pair, eccentricities, radius,
diameter and connectivity, and, for every root, the verification tree, its
topological order and its depth against :func:`nx_verification_tree`.
"""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.l1_graphs import hamming_graph_embedding, hypercube_embedding, path_graph_embedding
from repro.experiments.topologies import (
    build_topology,
    default_noise_topologies,
    default_soundness_topologies,
    topology_label,
)
from repro.experiments.tree_soundness import network_zoo
from repro.network.graph import (
    Graph,
    balanced_binary_tree,
    complete_graph,
    cycle_graph,
    grid_graph,
    hypercube_graph,
    path_graph,
)
from repro.network.spanning_tree import build_verification_tree
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
from repro.utils.rng import ensure_rng

MAX_EXAMPLES = 60


# ----------------------------------------------------- networkx references


def nx_verification_tree(graph, terminals, root):
    """``build_verification_tree`` as it was written on networkx.

    One deliberate difference: the old code pruned through
    ``bfs.subgraph(keep)``, and networkx iterates an induced subgraph that
    keeps under half the nodes in *set* order, which for string nodes depends
    on the hash seed.  This reference filters the BFS tree in its own order,
    the order the core pins.
    """
    bfs = nx.bfs_tree(graph, root)
    keep = {node for terminal in terminals for node in nx.shortest_path(bfs, root, terminal)}
    tree = nx.DiGraph()
    tree.add_nodes_from(node for node in bfs if node in keep)
    tree.add_edges_from((u, v) for u, v in bfs.edges() if u in keep and v in keep)
    leaves = {}
    for terminal in terminals:
        if terminal != root and tree.out_degree(terminal) > 0:
            tree.add_edge(terminal, (terminal, "shadow"))
            leaves[terminal] = (terminal, "shadow")
        else:
            leaves[terminal] = terminal
    return tree, leaves


def nx_relabelled(graph, name):
    return nx.relabel_nodes(graph, {node: name(node) for node in graph.nodes()})


def nx_random_graph(num_nodes, seed, chord_probability):
    """The old random recursive tree (plus chords) on networkx, same draws."""
    generator = ensure_rng(seed)
    graph = nx.Graph()
    graph.add_node("t0")
    for index in range(1, num_nodes):
        graph.add_edge(f"t{int(generator.integers(0, index))}", f"t{index}")
    for i in range(num_nodes):
        for j in range(i + 1, num_nodes):
            u, v = f"t{i}", f"t{j}"
            if chord_probability and not graph.has_edge(u, v) and generator.random() < chord_probability:
                graph.add_edge(u, v)
    return graph


def nx_path(length):
    names = [f"v{i}" for i in range(length + 1)]
    graph = nx.Graph()
    graph.add_nodes_from(names)
    graph.add_edges_from(zip(names, names[1:]))
    return graph


def nx_star(num_leaves):
    graph = nx.Graph()
    graph.add_node("centre")
    graph.add_edges_from(("centre", f"leaf{i}") for i in range(num_leaves))
    return graph


def nx_grid(rows, cols):
    return nx_relabelled(nx.grid_2d_graph(rows, cols), lambda node: f"g{node[0]}_{node[1]}")


def nx_cycle(num_nodes):
    return nx_relabelled(nx.cycle_graph(num_nodes), lambda i: f"c{i}")


def nx_topology(descriptor):
    kind, *parameters = descriptor
    if kind == "grid":
        return nx_grid(*parameters)
    if kind == "ring":
        return nx_cycle(*parameters)
    num_nodes, seed = parameters
    return nx_random_graph(num_nodes, seed, 0.2)


def nx_tree_zoo(num_terminals):
    return {
        f"star-{num_terminals}": nx_star(num_terminals),
        "binary-depth2": nx_relabelled(nx.balanced_tree(2, 2), lambda i: f"b{i}"),
        "random-8": nx_random_graph(8, 4, 0.0),
    }


# ----------------------------------------------------------------- checks


def assert_same_adjacency(graph, reference):
    """Node order, every neighbour list and the edge list, all in order."""
    assert graph.nodes() == list(reference.nodes())
    for node in graph.nodes():
        assert graph.neighbors(node) == list(reference.neighbors(node)), node
        assert graph.degree(node) == reference.degree(node)
    assert graph.edges() == list(reference.edges())


def assert_matches_networkx(network, reference):
    assert_same_adjacency(network.topology, reference)
    assert network.nodes == list(reference.nodes())
    assert network.edges == list(reference.edges())
    assert network.topology.is_connected() and nx.is_connected(reference)
    for u in network.nodes:
        assert network.eccentricity(u) == nx.eccentricity(reference, u)
        distances = nx.single_source_shortest_path_length(reference, u)
        assert network.topology.distances(u) == distances
        for v in network.nodes:
            assert network.shortest_path(u, v) == nx.shortest_path(reference, u, v), (u, v)
            assert network.distance(u, v) == distances[v]
    assert network.radius == nx.radius(reference)
    assert network.diameter == nx.diameter(reference)
    assert network.max_degree == max(degree for _, degree in reference.degree())
    for root in network.nodes:
        assert_same_verification_tree(network, reference, root)


def assert_same_verification_tree(network, reference, root):
    tree = build_verification_tree(network, root=root)
    expected, leaves = nx_verification_tree(reference, network.terminals, root)
    assert nx.is_arborescence(expected)
    assert tree.nodes == list(expected.nodes())
    for node in tree.nodes:
        assert tree.children(node) == list(expected.successors(node))
        assert tree.parent(node) == next(iter(expected.predecessors(node)), None)
    assert tree.topological_order() == list(nx.topological_sort(expected))
    assert tree.depth == max(nx.single_source_shortest_path_length(expected, root).values())
    assert tree.terminal_leaves == leaves
    assert tree.leaves == [node for node in expected.nodes() if expected.out_degree(node) == 0]


# -------------------------------------------------------------------- zoo

ZOO = [
    (f"{topology_label(descriptor)}-t{t}", build_topology(descriptor, t), nx_topology(descriptor))
    for t in (2, 3, 4)
    for descriptor in dict.fromkeys(default_soundness_topologies() + default_noise_topologies())
] + [
    (f"{name}-t{t}", network, nx_tree_zoo(t)[name])
    for t in (2, 3, 4)
    for name, network in network_zoo(t)
]

SIZED = (
    [(f"path-{n}", path_network(n), nx_path(n)) for n in (1, 2, 5, 8)]
    + [(f"star-{n}", star_network(n), nx_star(n)) for n in (1, 2, 6)]
    + [(f"cycle-{n}", cycle_network(n), nx_cycle(n)) for n in (3, 4, 7, 10)]
    + [
        (f"grid-{r}x{c}", grid_network(r, c), nx_grid(r, c))
        for r, c in ((1, 2), (1, 5), (4, 1), (2, 5), (4, 4))
    ]
    + [
        (f"complete-{n}", complete_network(n, 1), nx_relabelled(nx.complete_graph(n), lambda i: f"n{i}"))
        for n in (1, 2, 5)
    ]
    + [
        (f"binary-{d}", binary_tree_network(d), nx_relabelled(nx.balanced_tree(2, d), lambda i: f"b{i}"))
        for d in (1, 2, 3)
    ]
    + [
        (f"random-graph-{n}-s{s}", random_graph_network(n, 2, rng=s), nx_random_graph(n, s, 0.2))
        for n, s in ((5, 0), (10, 7), (12, 11))
    ]
    + [
        (f"random-tree-{n}-s{s}", random_tree_network(n, 3, rng=s), nx_random_graph(n, s, 0.0))
        for n, s in ((6, 1), (11, 5))
    ]
)


@pytest.mark.parametrize(
    "network, reference", [case[1:] for case in ZOO + SIZED], ids=[case[0] for case in ZOO + SIZED]
)
def test_network_matches_networkx(network, reference):
    assert_matches_networkx(network, reference)


@pytest.mark.parametrize("n", [1, 2, 3, 6, 9])
def test_integer_generators_match_relabelled_networkx(n):
    # An identity relabelling still rebuilds the graph from edges(), which
    # reorders cycles and grids: node (1, 1) of the raw 3x3 grid lists
    # (0, 1), (2, 1), (1, 0), (1, 2); relabelled, (0, 1), (1, 0), (2, 1), (1, 2).
    # The library's networks were always relabelled.
    def relabelled(graph):
        return nx_relabelled(graph, lambda node: node)

    assert_same_adjacency(path_graph(n), nx.path_graph(n))
    assert_same_adjacency(complete_graph(n), relabelled(nx.complete_graph(n)))
    if n >= 3:
        assert_same_adjacency(cycle_graph(n), relabelled(nx.cycle_graph(n)))
    for rows in (1, 2, 3):
        assert_same_adjacency(grid_graph(rows, n), relabelled(nx.grid_2d_graph(rows, n)))


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_balanced_binary_tree_matches_networkx(depth):
    assert_same_adjacency(balanced_binary_tree(depth), nx.balanced_tree(2, depth))


@pytest.mark.parametrize("dimension", [2, 3, 4])
def test_hypercube_matches_networkx(dimension):
    assert_same_adjacency(hypercube_graph(dimension), nx.hypercube_graph(dimension))
    embedding = hypercube_embedding(dimension)
    assert_same_adjacency(embedding.graph, nx.hypercube_graph(dimension))
    assert embedding.verify()


def test_hamming_and_path_embeddings_match_networkx():
    embedding = hamming_graph_embedding([3, 2])
    vertices = list(embedding.graph.nodes())
    reference = nx.Graph()
    reference.add_nodes_from(vertices)
    reference.add_edges_from(
        (a, b) for a in vertices for b in vertices if a < b and sum(x != y for x, y in zip(a, b)) == 1
    )
    assert_same_adjacency(embedding.graph, reference)
    assert_same_adjacency(path_graph_embedding(5).graph, nx.path_graph(6))
    distances = nx.single_source_shortest_path_length(reference, (0, 0))
    for graph in (embedding.graph, reference):
        assert Graph.from_graph(graph).distances((0, 0)) == distances


def test_network_graph_is_a_networkx_copy():
    network = grid_network(2, 3)
    graph = network.graph
    assert isinstance(graph, nx.Graph)
    assert graph is network.graph
    assert list(graph.nodes()) == network.nodes
    assert sorted(map(sorted, graph.edges())) == sorted(map(sorted, network.edges))


# ------------------------------------------------------- hypothesis graphs


@st.composite
def connected_graphs(draw):
    """A random spanning tree plus chords, inserted in a shuffled order.

    Returns ``(nodes added up front, edges in insertion order, terminals)``;
    nodes not added up front enter the graph through their first edge.
    """
    n = draw(st.integers(1, 12))
    names = draw(st.permutations([f"n{i}" for i in range(n)]))
    tree = [(names[draw(st.integers(0, i - 1))], names[i]) for i in range(1, n)]
    pairs = [(names[i], names[j]) for i in range(n) for j in range(i + 1, n)]
    chords = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=2 * n)) if pairs else []
    edges = draw(st.permutations(tree + chords))
    flips = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    edges = [(v, u) if flip else (u, v) for (u, v), flip in zip(edges, flips)]
    upfront = names[: draw(st.integers(0 if edges else 1, n))]
    terminals = draw(st.permutations(names))[: draw(st.integers(1, min(4, n)))]
    return upfront, edges, tuple(terminals)


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(connected_graphs())
def test_generated_graphs_match_networkx(case):
    upfront, edges, terminals = case
    reference = nx.Graph()
    reference.add_nodes_from(upfront)
    reference.add_edges_from(edges)
    assert_same_adjacency(Graph(upfront, edges), reference)
    network = Network(reference, terminals)
    assert_matches_networkx(network, reference)
    assert_same_adjacency(network.with_terminals(terminals[:1]).topology, reference)

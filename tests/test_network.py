"""Tests for network topologies and the verification-tree construction (Section 3.3)."""

import networkx as nx
import pytest

from repro.exceptions import TopologyError
from repro.network.spanning_tree import build_verification_tree
from repro.network.topology import (
    Network,
    complete_network,
    cycle_network,
    grid_network,
    path_network,
    random_graph_network,
    random_tree_network,
    star_network,
)


class TestPathNetwork:
    def test_node_and_edge_counts(self):
        network = path_network(5)
        assert network.num_nodes == 6
        assert len(network.edges) == 5

    def test_terminals_are_extremities(self):
        network = path_network(4)
        assert network.terminals == ("v0", "v4")

    def test_radius_is_half_length(self):
        assert path_network(6).radius == 3
        assert path_network(5).radius == 3

    def test_distance(self):
        network = path_network(4)
        assert network.distance("v0", "v4") == 4

    def test_invalid_length(self):
        with pytest.raises(TopologyError):
            path_network(0)


class TestOtherTopologies:
    def test_star_network(self):
        network = star_network(4)
        assert network.num_terminals == 4
        assert network.radius == 1
        assert network.max_degree == 4

    def test_complete_network(self):
        network = complete_network(5, 3)
        assert network.radius == 1
        assert network.num_terminals == 3

    def test_cycle_network(self):
        network = cycle_network(6, 3)
        assert network.num_nodes == 6
        assert network.num_terminals == 3

    def test_random_tree_is_connected_tree(self):
        network = random_tree_network(12, 4, rng=0)
        assert nx.is_tree(network.graph)
        assert network.num_terminals == 4

    def test_random_tree_deterministic_for_seed(self):
        a = random_tree_network(10, 3, rng=5)
        b = random_tree_network(10, 3, rng=5)
        assert set(a.edges) == set(b.edges)
        assert a.terminals == b.terminals

    def test_grid_network_corners_are_terminals(self):
        network = grid_network(3, 4)
        assert network.num_nodes == 12
        assert network.terminals == ("g0_0", "g0_3", "g2_0", "g2_3")
        assert network.max_degree == 4

    def test_grid_network_restricted_terminals(self):
        network = grid_network(2, 2, num_terminals=3)
        assert network.num_terminals == 3
        with pytest.raises(TopologyError):
            grid_network(2, 2, num_terminals=5)
        with pytest.raises(TopologyError):
            grid_network(1, 1)

    def test_grid_network_degenerate_row(self):
        # A 1xN grid has only two distinct corners.
        network = grid_network(1, 4)
        assert network.terminals == ("g0_0", "g0_3")

    def test_random_graph_is_connected_and_deterministic(self):
        a = random_graph_network(10, 3, rng=2)
        b = random_graph_network(10, 3, rng=2)
        assert nx.is_connected(a.graph)
        assert set(a.edges) == set(b.edges)
        assert a.terminals == b.terminals
        # The tree backbone guarantees at least n - 1 edges.
        assert len(a.edges) >= 9

    def test_random_graph_rejects_bad_parameters(self):
        with pytest.raises(TopologyError):
            random_graph_network(1, 1)
        with pytest.raises(TopologyError):
            random_graph_network(5, 6)
        with pytest.raises(TopologyError):
            random_graph_network(5, 2, extra_edge_probability=1.5)


class TestNetworkValidation:
    def test_disconnected_graph_rejected(self):
        graph = nx.Graph()
        graph.add_edge("a", "b")
        graph.add_node("c")
        with pytest.raises(TopologyError):
            Network(graph, ("a", "b"))

    def test_unknown_terminal_rejected(self):
        graph = nx.path_graph(3)
        with pytest.raises(TopologyError):
            Network(graph, (0, 99))

    def test_duplicate_terminals_rejected(self):
        graph = nx.path_graph(3)
        with pytest.raises(TopologyError):
            Network(graph, (0, 0))

    @pytest.mark.parametrize(
        "graph",
        [nx.Graph([("a", "a"), ("a", "b")]), nx.DiGraph([("a", "b"), ("b", "a")])],
        ids=["self-loop", "directed"],
    )
    def test_non_simple_graphs_rejected(self, graph):
        # A self-loop would count twice in max_degree, the d_max of Lemma 20;
        # a directed graph would silently be read as undirected.
        with pytest.raises(TopologyError):
            Network(graph, ("a", "b"))

    def test_with_terminals(self):
        network = path_network(3)
        renamed = network.with_terminals(("v1", "v2"))
        assert renamed.terminals == ("v1", "v2")


class TestMostCentralTerminal:
    def test_path_center(self):
        network = path_network(4, terminals=("v0", "v2", "v4"))
        assert network.most_central_terminal() == "v2"

    def test_terminal_radius(self):
        network = path_network(4, terminals=("v0", "v2", "v4"))
        assert network.terminal_radius() == 2


class TestVerificationTree:
    def test_path_tree_is_the_path(self):
        network = path_network(4)
        tree = build_verification_tree(network, root="v0")
        assert tree.depth == 4
        assert tree.leaves == ["v4"]

    def test_star_tree_rooted_at_terminal(self):
        network = star_network(3)
        tree = build_verification_tree(network)
        assert tree.root in network.terminals
        assert set(tree.leaves) <= set(network.terminals)
        tree.validate()

    def test_all_terminals_mapped_to_leaves_or_root(self):
        network = random_tree_network(10, 4, rng=3)
        tree = build_verification_tree(network)
        for terminal, leaf in tree.terminal_leaves.items():
            assert leaf == tree.root or tree.is_leaf(leaf)

    def test_internal_terminal_gets_shadow_leaf(self):
        # A path with a terminal in the middle: the middle terminal must be
        # mirrored by a shadow leaf.
        network = path_network(4, terminals=("v0", "v2", "v4"))
        tree = build_verification_tree(network, root="v0")
        assert tree.terminal_leaves["v2"] != "v2"
        shadow = tree.terminal_leaves["v2"]
        assert tree.shadow_of[shadow] == "v2"
        assert tree.is_leaf(shadow)

    def test_depth_at_most_terminal_radius_plus_one(self):
        network = random_tree_network(14, 5, rng=8)
        tree = build_verification_tree(network)
        assert tree.depth <= network.terminal_radius() + 1

    def test_non_terminal_branches_are_pruned(self):
        # Star with only 2 of 4 leaves as terminals: the other leaves are not
        # part of the verification tree.
        network = star_network(4, terminals=("leaf0", "leaf1"))
        tree = build_verification_tree(network)
        assert "leaf2" not in tree.nodes
        assert "leaf3" not in tree.nodes

    def test_children_and_parent_relations(self):
        network = path_network(3)
        tree = build_verification_tree(network, root="v0")
        assert tree.children("v0") == ["v1"]
        assert tree.parent("v1") == "v0"
        assert tree.parent("v0") is None

    def test_invalid_root_rejected(self):
        network = path_network(3)
        with pytest.raises(TopologyError):
            build_verification_tree(network, root="missing")

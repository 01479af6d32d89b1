"""The graph core: the protocols' breadth-first work on insertion-ordered adjacency dicts.

Traversals keep networkx 3's orders (neighbours, ``edges()``, bidirectional ``shortest_path``,
BFS children, Kahn's topological order); generators add each node's edges to later neighbours,
as ``relabel_nodes`` leaves them.  Tied report labels hang on it: tests/test_graph_core.py pins it.
"""

from itertools import combinations, product
from typing import Any, Callable, Dict, Hashable, Iterable, List, Optional, Tuple

from repro.exceptions import TopologyError

Node = Hashable


class Graph:
    """A simple undirected graph stored as an insertion-ordered adjacency dict."""

    def __init__(self, nodes: Iterable[Node] = (), edges: Iterable[Tuple[Node, Node]] = ()) -> None:
        self._adj: Dict[Node, Dict[Node, None]] = {node: {} for node in nodes}
        for u, v in edges:
            self.add_edge(u, v)

    @classmethod
    def from_graph(cls, graph: Any, name: Callable[[Node], Node] = lambda node: node) -> "Graph":
        """Copy a graph read through ``nodes()`` and ``neighbors()``, nodes renamed by ``name``."""
        copy = cls()
        copy._adj = {name(node): dict.fromkeys(map(name, graph.neighbors(node))) for node in graph.nodes()}
        return copy

    def add_edge(self, u: Node, v: Node) -> None:
        self._adj.setdefault(u, {})[v] = None
        self._adj.setdefault(v, {})[u] = None

    def __contains__(self, node: object) -> bool:
        return node in self._adj

    def nodes(self) -> List[Node]:
        return list(self._adj)

    def neighbors(self, node: Node) -> List[Node]:
        return list(self._adj[node])

    def degree(self, node: Node) -> int:
        return len(self._adj[node])

    def has_edge(self, u: Node, v: Node) -> bool:
        return u in self._adj and v in self._adj[u]

    def edges(self) -> List[Tuple[Node, Node]]:
        position = {node: index for index, node in enumerate(self._adj)}
        return [(u, v) for u, near in self._adj.items() for v in near if position[v] >= position[u]]

    def bfs_tree(self, root: Node) -> "RootedTree":
        tree, frontier = RootedTree(root), [root]
        for node in frontier:
            for other in self._adj[node]:
                if other not in tree.parent:
                    tree.add_child(node, other)
                    frontier.append(other)
        return tree

    def distances(self, source: Node) -> Dict[Node, int]:
        return self.bfs_tree(source).depths

    def eccentricity(self, node: Node) -> int:
        return max(self.distances(node).values())

    def radius(self) -> int:
        return min(map(self.eccentricity, self._adj))

    def diameter(self) -> int:
        return max(map(self.eccentricity, self._adj))

    def is_connected(self) -> bool:
        return len(self.distances(next(iter(self._adj)))) == len(self._adj)

    def shortest_path(self, source: Node, target: Node) -> List[Node]:
        """networkx's bidirectional BFS: grow the smaller fringe (forward on ties) until they touch."""
        trees, fringes = (RootedTree(source), RootedTree(target)), [[source], [target]]
        meet = source if source == target else None
        while meet is None and fringes[0] and fringes[1]:
            side = int(len(fringes[0]) > len(fringes[1]))
            level, fringes[side] = fringes[side], []
            for node, step in ((node, step) for node in level for step in self._adj.get(node, ())):
                if step not in trees[side].parent:
                    trees[side].add_child(node, step)
                    fringes[side].append(step)
                if step in trees[1 - side].parent:
                    meet = step
                    break
        if meet not in self._adj:
            raise TopologyError(f"no path between {source!r} and {target!r}")
        return trees[0].path_from_root(meet) + trees[1].path_from_root(meet)[-2::-1]


class RootedTree:
    """A rooted tree as parent and children maps; :meth:`add_child` keeps it an arborescence."""

    def __init__(self, root: Node) -> None:
        self.root = root
        self.parent: Dict[Node, Optional[Node]] = {root: None}
        self.children: Dict[Node, List[Node]] = {root: []}
        self.depths: Dict[Node, int] = {root: 0}

    def add_child(self, parent: Node, child: Node) -> None:
        if child in self.parent or parent not in self.parent:
            raise TopologyError(f"cannot attach {child!r} under {parent!r}: not an arborescence")
        self.parent[child] = parent
        self.children[parent].append(child)
        self.children[child] = []
        self.depths[child] = self.depths[parent] + 1

    def topological_order(self) -> List[Node]:
        order = [self.root]
        for node in order:
            order.extend(self.children[node])
        return order

    def path_from_root(self, node: Node) -> List[Node]:
        path = [node]
        while self.parent[path[-1]] is not None:
            path.append(self.parent[path[-1]])
        return path[::-1]


def path_graph(n: int) -> Graph:
    return Graph(range(n), ((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    return Graph(range(n), [(0, 1), (0, n - 1)] + [(i, i + 1) for i in range(1, n - 1)])


def complete_graph(n: int) -> Graph:
    return Graph(range(n), combinations(range(n), 2))


def balanced_binary_tree(depth: int) -> Graph:
    return Graph(range(2 ** (depth + 1) - 1), (((i - 1) // 2, i) for i in range(1, 2 ** (depth + 1) - 1)))


def grid_graph(rows: int, cols: int) -> Graph:
    nodes = dict.fromkeys((i, j) for i in range(rows) for j in range(cols))
    return Graph(nodes, ((a, b) for a in nodes for b in ((a[0] + 1, a[1]), (a[0], a[1] + 1)) if b in nodes))


def hypercube_graph(dimension: int) -> Graph:
    nodes = list(product((0, 1), repeat=dimension))
    return Graph(nodes, ((x, x[:i] + (1,) + x[i + 1 :]) for x in nodes for i in range(dimension) if not x[i]))

"""Directed trees with named vertices and named edges.

An n-tree has vertices 1..n and directed edges named 1..n-1 (edge names are
written 1', 2', ... in prose; here they are plain ints).  Neither endpoints
nor orientation are constrained by the names, so an n-tree is a labeled tree
plus an orientation of each edge plus a bijection from names to edges.  The
sign of a tree is defined relative to any root r:

* orient all edges away from r (the standard orientation); an edge whose
  actual direction disagrees is "reversed",
* let pi be the permutation listing r followed by the standard-orientation
  head of edge 1, edge 2, ... (every non-root vertex occurs exactly once),
* sign(T) = (-1)^{#reversed} * sign(pi).

The result does not depend on r; ``tree_sign`` fixes r = 1 so that the
reported witness data is deterministic.
"""

import heapq
import random
from collections import namedtuple
from dataclasses import dataclass


@dataclass(frozen=True)
class NTree:
    """Directed tree on vertices 1..n, edges stored as edges[name-1] = (tail, head)."""
    n: int
    edges: tuple

    def __post_init__(self):
        n = self.n
        if n < 1:
            raise ValueError("need at least one vertex")
        if len(self.edges) != n - 1:
            raise ValueError("an %d-tree needs exactly %d edges" % (n, n - 1))
        seen = set()
        for tail, head in self.edges:
            if not (1 <= tail <= n and 1 <= head <= n):
                raise ValueError("edge endpoint out of range")
            if tail == head:
                raise ValueError("loops are not allowed")
            pair = frozenset((tail, head))
            if pair in seen:
                raise ValueError("parallel edges are not allowed")
            seen.add(pair)
        # connectivity (n-1 edges + connected == tree)
        if n > 1:
            adj = self.adjacency()
            stack = [1]
            visited = {1}
            while stack:
                v = stack.pop()
                for w, _ in adj[v]:
                    if w not in visited:
                        visited.add(w)
                        stack.append(w)
            if len(visited) != n:
                raise ValueError("edges do not form a connected tree")

    def edge(self, name):
        return self.edges[name - 1]

    def edge_names(self):
        return range(1, self.n)

    def adjacency(self):
        """vertex -> list of (neighbor, edge name) pairs."""
        adj = {v: [] for v in range(1, self.n + 1)}
        for name in self.edge_names():
            t, h = self.edge(name)
            adj[t].append((h, name))
            adj[h].append((t, name))
        return adj

    def incident_edges(self, vertex):
        return [name for name in self.edge_names() if vertex in self.edge(name)]

    def sinks(self):
        """Vertices with no outgoing edge."""
        tails = {t for t, _ in self.edges}
        return sorted(set(range(1, self.n + 1)) - tails)

    def to_json(self):
        return {"n": self.n,
                "edges": [{"id": name, "tail": t, "head": h}
                          for name, (t, h) in zip(self.edge_names(), self.edges)]}

    @classmethod
    def from_json(cls, data):
        n = data["n"]
        slots = [None] * (n - 1)
        for rec in data["edges"]:
            name = rec["id"]
            if not 1 <= name < n:
                raise ValueError("edge id %r is outside 1..%d" % (name, n - 1))
            if slots[name - 1] is not None:
                raise ValueError("edge id %d is repeated" % name)
            slots[name - 1] = (rec["tail"], rec["head"])
        if any(e is None for e in slots):
            raise ValueError("edge ids must cover 1..n-1")
        return cls(n, tuple(slots))

    def to_dot(self):
        lines = ["digraph tree {"]
        for v in range(1, self.n + 1):
            lines.append("  %d;" % v)
        for name in self.edge_names():
            t, h = self.edge(name)
            lines.append('  %d -> %d [label="%d"];' % (t, h, name))
        lines.append("}")
        return "\n".join(lines)


TreeSignData = namedtuple("TreeSignData", ["root", "permutation", "reversed_edges", "sign"])


def _permutation_sign(perm):
    inv = 0
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                inv += 1
    return -1 if inv % 2 else 1


def _sign_data(tree, root):
    n = tree.n
    adj = tree.adjacency()
    # distance order from the root tells us which endpoint is the far one
    parent = {root: None}
    order = [root]
    stack = [root]
    while stack:
        v = stack.pop()
        for w, name in adj[v]:
            if w not in parent:
                parent[w] = v
                order.append(w)
                stack.append(w)
    reversed_edges = []
    heads = []
    for name in tree.edge_names():
        t, h = tree.edge(name)
        # standard head: the endpoint whose tree-parent is the other endpoint
        standard_head = h if parent.get(h) == t else t
        heads.append(standard_head)
        if standard_head != h:
            reversed_edges.append(name)
    perm = (root,) + tuple(heads)
    sign = (-1) ** len(reversed_edges) * _permutation_sign(perm)
    return TreeSignData(root, perm, frozenset(reversed_edges), sign)


def tree_sign(tree):
    """Sign of the tree with the witness data (root fixed at vertex 1)."""
    return _sign_data(tree, 1)


def reverse_edge(tree, name):
    """Same tree with one edge's orientation flipped."""
    t, h = tree.edge(name)
    edges = list(tree.edges)
    edges[name - 1] = (h, t)
    return NTree(tree.n, tuple(edges))


def slide_edge(tree, moving, along):
    """Slide edge `moving` along edge `along`.

    The two edges must share exactly one vertex q; the q-endpoint of the
    moving edge is replaced by the other endpoint of `along`, keeping the
    moving edge's orientation relative to its untouched endpoint.
    """
    if moving == along:
        raise ValueError("cannot slide an edge along itself")
    a = tree.edge(moving)
    b = tree.edge(along)
    shared = set(a) & set(b)
    if len(shared) != 1:
        raise ValueError("edges %d and %d do not share a vertex" % (moving, along))
    q = shared.pop()
    r = b[0] if b[1] == q else b[1]
    t, h = a
    new_edge = (r, h) if t == q else (t, r)
    edges = list(tree.edges)
    edges[moving - 1] = new_edge
    return NTree(tree.n, tuple(edges))


def basic_tree(n):
    """The path 1 -> 2 -> ... -> n with edge j = (j, j+1)."""
    return NTree(n, tuple((j, j + 1) for j in range(1, n)))


def _broom(m, s1, s2):
    """Directed path through the non-sink vertices, then leaves s1 and s2.

    Path edges are named 1..m-3 along the path; the edges into s1 and s2 get
    the last two names m-2 and m-1.
    """
    if m < 3:
        raise ValueError("broom needs at least 3 vertices")
    rest = [v for v in range(1, m + 1) if v != s1 and v != s2]
    edges = []
    for t in range(len(rest) - 1):
        edges.append((rest[t], rest[t + 1]))
    hub = rest[-1]
    edges.append((hub, s1))
    edges.append((hub, s2))
    return NTree(m, tuple(edges))


def _path_through(m, last):
    """Directed path visiting [1..m] with `last` at the end, others ascending."""
    order = [v for v in range(1, m + 1) if v != last] + [last]
    return NTree(m, tuple((order[t], order[t + 1]) for t in range(m - 1)))


@dataclass(frozen=True)
class TreeSequence:
    """A tuple (T_1, ..., T_n) where T_i is an i-tree.

    The sequence is immutable, so its sign is computed once, here.
    """
    trees: tuple

    def __post_init__(self):
        s = 1
        for i, tree in enumerate(self.trees, start=1):
            if tree.n != i:
                raise ValueError("entry %d must be an %d-tree" % (i, i))
            s *= tree_sign(tree).sign
        object.__setattr__(self, "_sign", s)

    @property
    def order(self):
        return len(self.trees)

    def tree(self, level):
        return self.trees[level - 1]

    def sign(self):
        return self._sign

    def to_json(self):
        return {"order": self.order, "trees": [t.to_json() for t in self.trees]}

    @classmethod
    def from_json(cls, data):
        return cls(tuple(NTree.from_json(t) for t in data["trees"]))


def basic_sequence(n):
    return TreeSequence(tuple(basic_tree(i) for i in range(1, n + 1)))


def swap_sequence(n, i, j):
    """Tree sequence with twin sink leaves i and j at the top level.

    Levels 3..n-1 are brooms whose sinks are the two largest vertex names,
    matching the edge naming of the level above (the edges into the sinks
    carry the two largest edge names).
    """
    if not (1 <= i < j <= n):
        raise ValueError("need 1 <= i < j <= n")
    if n < 2:
        raise ValueError("swap sequence needs order >= 2")
    trees = [basic_tree(1), basic_tree(2)]
    for m in range(3, n):
        trees.append(_broom(m, m - 1, m))
    if n >= 3:
        trees.append(_broom(n, i, j))
    return TreeSequence(tuple(trees))


def leafchain_sequence(n, i):
    """Tree sequence whose top level is a directed path ending at leaf i.

    The edge into the sink carries the largest edge name, so every lower
    level reduces to the basic tree.
    """
    if not (1 <= i <= n):
        raise ValueError("sink out of range")
    trees = [basic_tree(m) for m in range(1, n)]
    trees.append(_path_through(n, i))
    return TreeSequence(tuple(trees))


def canonical_sequence(kind, n, i=None, j=None):
    """Dispatcher for the named constructions: basic, swap, leafchain."""
    if kind == "basic":
        return basic_sequence(n)
    if kind == "swap":
        if i is None or j is None:
            raise ValueError("swap sequence needs i and j")
        return swap_sequence(n, i, j)
    if kind == "leafchain":
        if i is None:
            raise ValueError("leafchain sequence needs i")
        return leafchain_sequence(n, i)
    raise ValueError("unknown canonical kind %r" % kind)


def _tree_from_pruefer(n, seq):
    degree = [1] * (n + 1)
    for v in seq:
        degree[v] += 1
    edges = []
    leaves = [v for v in range(1, n + 1) if degree[v] == 1]
    heapq.heapify(leaves)
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u = heapq.heappop(leaves)
    w = heapq.heappop(leaves)
    edges.append((u, w))
    return edges


def random_tree(n, rng):
    """Uniformly random n-tree.

    Uniform Pruefer sequence for the underlying labeled tree, then an
    independent fair coin per edge for orientation and a uniform permutation
    of the edge names.  ``rng`` is a random.Random (or anything with
    randrange/shuffle), so a fixed seed reproduces the tree.
    """
    if n < 1:
        raise ValueError("need at least one vertex")
    if n == 1:
        return NTree(1, ())
    if n == 2:
        pairs = [(1, 2)]
    else:
        seq = [rng.randrange(1, n + 1) for _ in range(n - 2)]
        pairs = _tree_from_pruefer(n, seq)
    names = list(range(1, n))
    rng.shuffle(names)
    slots = [None] * (n - 1)
    for name, (u, v) in zip(names, pairs):
        if rng.randrange(2):
            u, v = v, u
        slots[name - 1] = (u, v)
    return NTree(n, tuple(slots))


def random_sequence(n, seed):
    """Seeded random tree sequence of order n."""
    rng = random.Random(seed)
    return TreeSequence(tuple(random_tree(i, rng) for i in range(1, n + 1)))

"""Admissible edge labelings of trees and their signed enumeration.

Vertices of an n-tree carry integer labels k_1..k_n; the working quantity is
always the shifted label k_v + v.  An edge labeling l_1..l_{n-1} (shifted:
l_e + e) is admissible for (T, k) when every edge e = (p, q) satisfies

    min(k_p+p, k_q+q) <= l_e + e < max(k_p+p, k_q+q),

which is impossible if the endpoint labels coincide.  An edge whose tail
carries the larger label is an inversion.

A tree-sequence labeling chain (T_1..T_n, l_1..l_n) fixes l_n = k and asks
l_{i-1} to be admissible for (T_i, l_i); its sign is (-1)^{#inversions}
times the product of the tree signs.  ``signed_count`` evaluates the signed
total without materializing the chains, by a memoized recursion over levels.

The "weak" machinery pins selected edges to the labels of selected vertices
(one pinned edge per chosen vertex, exclusions keeping the pin unique) and
is what finite differences of the signed count turn into: applying the
forward difference in the coordinates of a vertex set R turns the level-m
admissibility into weak R-admissibility.

A witness's sign depends only on its pin assignment and its dominating
choice, never on the values of its free edges: the maximum endpoint of an
edge is fixed by the vertex labels when they differ, and when they coincide
the edge has an empty value list unless it is pinned, in which case the
assignment or the dominating choice names the maximum.  So ``_pin_terms``
yields each valid pin assignment once, with one value list per edge and the
signed weight summed over its dominating choices; ``RestrictedCounter``
multiplies that weight into the sum over the value product, and the two
witness functions expand the same terms into records.

Counters with a pinned or filtered level m (``RestrictedCounter``,
``signed_count_filtered``) read the levels below m from a ``SequenceCounter``
they are handed, so every pinning of one tree sequence can share one plain
memo.  Without one they make a fresh counter.
"""

from collections import namedtuple
from dataclasses import dataclass
from functools import partial
from itertools import combinations, product


@dataclass(frozen=True)
class AdmissibleLabeling:
    labels: tuple            # l_1..l_{n-1}, unshifted
    inversions: frozenset    # edge names


@dataclass(frozen=True)
class GTTreeSequence:
    levels: tuple            # (l_1, ..., l_n), level i is an i-tuple, l_n = k
    inversions: tuple        # sorted tuple of (level, edge name) pairs
    sign: int

    def to_json(self):
        return {"levels": [list(l) for l in self.levels],
                "inversions": [list(p) for p in self.inversions],
                "sign": self.sign}


def shifted_vertex_labels(k):
    """k_v + v for v = 1..n, as a dict."""
    return {v: kv + v for v, kv in enumerate(k, start=1)}


def inversion_edges(tree, k):
    """Edge names whose tail label exceeds the head label.

    Returns None when some edge has equal endpoint labels (no admissible
    labeling exists at all in that case).
    """
    lab = shifted_vertex_labels(k)
    out = []
    for name in tree.edge_names():
        t, h = tree.edge(name)
        if lab[t] == lab[h]:
            return None
        if lab[t] > lab[h]:
            out.append(name)
    return frozenset(out)


def _edge_triples(tree):
    """(name, tail, head) for every edge, in name order."""
    return tuple((name,) + tree.edge(name) for name in tree.edge_names())


def _incidence(n, edges):
    """vertex -> names of its incident edges, ascending."""
    return [()] + [tuple(name for name, t, h in edges if v == t or v == h)
                   for v in range(1, n + 1)]


def _ranges_and_parity(edges, values):
    """Per-edge unshifted admissible values and whether the number of
    inversions is odd, in one pass; (None, False) if an edge is blocked."""
    ranges = []
    odd = False
    for name, t, h in edges:
        a = values[t - 1] + t
        b = values[h - 1] + h
        if a < b:
            ranges.append(range(a - name, b - name))
        elif a > b:
            ranges.append(range(b - name, a - name))
            odd = not odd
        else:
            return None, False
    return ranges, odd


def _edge_ranges(tree, k):
    """Per-edge unshifted admissible values, or None if an edge is blocked."""
    return _ranges_and_parity(_edge_triples(tree), k)[0]


def admissible_labelings(tree, k):
    """All admissible labelings of (tree, k), lexicographic in l."""
    ranges = _edge_ranges(tree, k)
    if ranges is None:
        return []
    inv = inversion_edges(tree, k)
    return [AdmissibleLabeling(l, inv) for l in product(*ranges)]


class SequenceCounter:
    """Signed enumeration of labeling chains over one tree sequence.

    Memo tables are shared across evaluation points, which is what makes
    grid sweeps cheap: the level-i table is keyed by the level-i vector.
    Level 2 is one edge, whose signed width needs no table.
    """

    def __init__(self, seq):
        self.seq = seq
        self.tree_sign = seq.sign()
        self._order = seq.order
        self._edges = [None] + [_edge_triples(tree) for tree in seq.trees]
        self._memo = [None] + [dict() for _ in range(seq.order)]

    def _raw(self, level, values):
        if level == 2:
            ((_, t, h),) = self._edges[2]
            return values[h - 1] + h - values[t - 1] - t
        if level == 1:
            return 1
        memo = self._memo[level]
        try:
            return memo[values]
        except KeyError:
            pass
        ranges, odd = _ranges_and_parity(self._edges[level], values)
        total = 0
        if ranges is not None:
            raw = self._raw
            below = level - 1
            for l in product(*ranges):
                total += raw(below, l)
            if odd:
                total = -total
        memo[values] = total
        return total

    def __call__(self, k):
        k = tuple(k)
        if len(k) != self._order:
            raise ValueError("k must have length %d" % self._order)
        return self.tree_sign * self._raw(self._order, k)


def signed_count(seq, k):
    """Signed number of labeling chains for (seq, k)."""
    return SequenceCounter(seq)(k)


def enumerate_sequences(seq, k):
    """All labeling chains, sorted lexicographically on (l_1, l_2, ...).

    Each chain records per-level inversions and its sign including the tree
    sequence sign.  Materializes the whole set; use signed_count for totals.
    """
    n = seq.order
    k = tuple(k)
    base_sign = seq.sign()
    out = []

    def descend(level, values, levels_acc, inv_acc):
        if level == 1:
            levels = tuple(reversed(levels_acc + [values]))
            inversions = tuple(sorted(inv_acc))
            sign = base_sign * (-1) ** len(inversions)
            out.append(GTTreeSequence(levels, inversions, sign))
            return
        tree = seq.tree(level)
        ranges = _edge_ranges(tree, values)
        if ranges is None:
            return
        inv = inversion_edges(tree, values)
        tagged = [(level, e) for e in sorted(inv)]
        for l in product(*ranges):
            descend(level - 1, l, levels_acc + [values], inv_acc + tagged)

    descend(n, k, [], [])
    out.sort(key=lambda g: g.levels)
    return out


# --- weak admissibility -------------------------------------------------


@dataclass(frozen=True)
class WeakWitness:
    """One weakly R-admissible labeling with its bookkeeping.

    ``assignment`` maps each pinned vertex r to its pinned edge i(r);
    ``dominating`` maps each doubly pinned edge to the endpoint chosen as the
    edge's maximum.  ``min_pinned`` lists the r in R that sit at the minimum
    of their own pinned edge (each contributes -1 to the sign, on top of the
    -1 per inversion edge).  ``strict`` marks injective assignments.
    """
    labels: tuple
    assignment: tuple        # sorted tuple of (vertex, edge name)
    dominating: tuple        # sorted tuple of (edge name, vertex)
    inversions: frozenset
    min_pinned: frozenset
    sign: int
    strict: bool


# One valid pin assignment.  ``slots`` holds the unshifted values of every
# edge in name order (a single value for a pinned edge); ``choices`` holds
# (dominating, inversions, min_pairs, sign) per dominating choice, where
# min_pairs are the (vertex, edge) pins whose vertex is the edge's minimum;
# ``weight`` is the sum of the choice signs.
PinTerm = namedtuple("PinTerm", ["assignment", "slots", "choices", "weight"])


def _vertex_assignments(edges, incident, R):
    """Vertex mode: each r in R pins one incident edge; labels of R are
    excluded from the free edges."""
    marked = frozenset(R)
    for choice in product(*(incident[r] for r in R)):
        yield tuple(zip(R, choice)), marked


def _edge_assignments(edges, incident, R):
    """Edge mode: each edge in R is pinned by one endpoint, injectively;
    labels of the chosen endpoints are excluded from the free edges."""
    for targets in product(*(edges[e - 1][1:] for e in R)):
        marked = frozenset(targets)
        if len(marked) == len(targets):
            yield tuple(sorted(zip(targets, R))), marked


def _pin_terms(edges, values, assignments):
    """The valid pin assignments at one level, as PinTerms.

    ``assignments`` yields (pairs, marked): the (vertex, edge) pins and the
    vertices whose labels the free edges avoid.  A pinned edge carries its
    vertex's label; two pins of one edge must agree; no other pinned edge
    at a pinned vertex may carry that vertex's label.  Assignments leaving
    some free edge without values are skipped.
    """
    lab = (0,) + tuple(x + v for v, x in enumerate(values, start=1))
    spans = []               # (name, low label, high label, low endpoint)
    top = {}                 # edge with distinct endpoint labels -> maximum
    inversions = []
    ties = []                # (name, tail) of edges with equal end labels
    for name, t, h in edges:
        a, b = lab[t], lab[h]
        if a > b:
            top[name] = t
            inversions.append(name)
            spans.append((name, b, a, h))
        elif a < b:
            top[name] = h
            spans.append((name, a, b, t))
        else:
            ties.append((name, t))
            spans.append((name, a, b, t))
    for pairs, marked in assignments:
        pinned = _pins(edges, lab, pairs)
        if pinned is None:
            continue
        pins, shared = pinned
        slots = []
        for name, lo, hi, low in spans:
            if name in pins:
                slots.append((lab[pins[name]] - name,))
                continue
            if low in marked:
                lo += 1
            if lo >= hi:
                break
            slots.append(range(lo - name, hi - name))
        else:
            choices = []
            doubly = sorted(shared)
            for dom in product(*(shared[e] for e in doubly)):
                dominating = tuple(zip(doubly, dom))
                maxima = dict(dominating)
                inv = inversions + [name for name, t in ties
                                    if maxima.get(name, pins[name]) == t]
                min_pairs = [(v, e) for v, e in pairs
                             if top.get(e, maxima.get(e, v)) != v]
                sign = -1 if (len(inv) + len(min_pairs)) % 2 else 1
                choices.append((dominating, inv, min_pairs, sign))
            yield PinTerm(tuple(sorted(pairs)), tuple(slots), tuple(choices),
                          sum(c[3] for c in choices))


def _pins(edges, lab, pairs):
    """(edge -> first pinning vertex, doubly pinned edge -> both vertices)
    for a valid assignment, None for an invalid one."""
    pins = {}
    shared = {}
    for v, e in pairs:
        if e not in pins:
            pins[e] = v
        elif lab[pins[e]] != lab[v]:
            return None
        else:
            shared[e] = (pins[e], v)
    assigned = dict(pairs)
    for u, e in pairs:
        _, t, h = edges[e - 1]
        v = h if u == t else t
        if lab[v] == lab[u] and assigned.get(v, e) != e:
            return None          # a second pinned edge at v carries its label
    return pins, shared


def _pin_set(R, mode, n):
    """R sorted, once it is checked to name distinct vertices (mode
    "vertex") or edges (mode "edge") of an n-tree."""
    R = tuple(sorted(R))
    top = n if mode == "vertex" else n - 1
    if len(set(R)) != len(R) or any(not 1 <= r <= top for r in R):
        raise ValueError("R must consist of distinct %s of a %d-tree"
                         % ("vertices" if mode == "vertex" else "edge names",
                            n))
    return R


def _witness_records(terms, min_index):
    """Expand PinTerms into sorted WeakWitness records; ``min_index`` picks
    the vertex (0) or the edge (1) of each minimum pin for ``min_pinned``."""
    out = []
    for term in terms:
        for labels in product(*term.slots):
            for dominating, inv, min_pairs, sign in term.choices:
                out.append(WeakWitness(
                    labels, term.assignment, dominating, frozenset(inv),
                    frozenset(p[min_index] for p in min_pairs), sign,
                    not dominating))
    out.sort(key=lambda w: (w.labels, w.assignment, w.dominating))
    return out


def weak_admissible_witnesses(tree, k, R):
    """All weak witnesses for the vertex set R (R empty: plain admissibility).

    For each r in R exactly one incident edge carries the label k_r + r; the
    other edges obey the usual open-ended interval but may not touch the
    label of any endpoint that lies in R.  Edges pinned from both sides earn
    one witness per choice of dominating endpoint.
    """
    R = _pin_set(R, "vertex", tree.n)
    edges = _edge_triples(tree)
    incident = _incidence(tree.n, edges)
    return _witness_records(
        _pin_terms(edges, tuple(k), _vertex_assignments(edges, incident, R)),
        0)


def edge_admissible_witnesses(tree, k, edge_set):
    """Witnesses for the edge-pinned variant: each edge r in edge_set carries
    the label of one of its endpoints t(r), the map t is injective, and the
    pinned edge of each chosen vertex is unique.  Remaining edges follow the
    usual interval, avoiding the labels of chosen endpoints."""
    edge_set = _pin_set(edge_set, "edge", tree.n)
    edges = _edge_triples(tree)
    return _witness_records(
        _pin_terms(edges, tuple(k), _edge_assignments(edges, None, edge_set)),
        1)


class _LevelWalk:
    """Signed enumeration with level m replaced by ``self._transition``.

    Levels above m are walked with this walk's own memo; the transition at
    m reads level m-1 through ``below(labels)``, which is the plain counter
    ``plain`` (a fresh one when None) shared with every other walk over
    the same tree sequence.
    """

    def __init__(self, seq, m, plain=None):
        if not 2 <= m <= seq.order:
            raise ValueError("restriction level out of range")
        if plain is None:
            plain = SequenceCounter(seq)
        elif plain.seq != seq:
            raise ValueError("plain counter is for another tree sequence")
        self.seq = seq
        self.m = m
        self.tree_sign = plain.tree_sign
        self._plain = plain
        self._below = partial(plain._raw, m - 1)
        self._memo = [None] + [dict() for _ in range(seq.order)]

    def _count(self, level, values):
        memo = self._memo[level]
        try:
            return memo[values]
        except KeyError:
            pass
        if level == self.m:
            total = self._transition(values, self._below)
        else:
            ranges, odd = _ranges_and_parity(self._plain._edges[level], values)
            total = 0
            if ranges is not None:
                count = self._count
                below = level - 1
                for l in product(*ranges):
                    total += count(below, l)
                if odd:
                    total = -total
        memo[values] = total
        return total

    def _total(self, k):
        k = tuple(k)
        order = self._plain._order
        if len(k) != order:
            raise ValueError("k must have length %d" % order)
        return self.tree_sign * self._count(order, k)


class RestrictedCounter(_LevelWalk):
    """Signed enumeration with one level replaced by a pinned variant.

    mode "vertex": level m uses weak R-admissibility (R a set of vertices of
    T_m); mode "edge": level m uses the edge-pinned variant (R a set of edge
    names of T_m).  Levels other than m are ordinary; those below m are
    read from ``plain`` (see ``_LevelWalk``).
    """

    ASSIGNMENTS = {"vertex": _vertex_assignments, "edge": _edge_assignments}

    def __init__(self, seq, m, R, mode="vertex", plain=None):
        if mode not in self.ASSIGNMENTS:
            raise ValueError("unknown mode %r" % (mode,))
        super().__init__(seq, m, plain)
        self.R = _pin_set(R, mode, m)
        self.mode = mode
        self._edges = self._plain._edges[m]
        self._incident = _incidence(m, self._edges)
        self._assignments = self.ASSIGNMENTS[mode]

    def _transition(self, values, below):
        """Sum of weight * below(labels) over the pin terms at level m."""
        edges = self._edges
        terms = _pin_terms(edges, values,
                           self._assignments(edges, self._incident, self.R))
        total = 0
        for term in terms:
            if term.weight:
                total += term.weight * sum(map(below, product(*term.slots)))
        return total

    def __call__(self, k):
        # not inherited, so wrapping it (bench/tracer.py does) times
        # restricted counts only, not filtered ones
        return self._total(k)


def restricted_signed_count(seq, k, m, R=(), mode="vertex", plain=None):
    """Signed count with level m pinned on the vertex set (or edge set) R."""
    return RestrictedCounter(seq, m, R, mode=mode, plain=plain)(k)


def size_restricted_signed_count(seq, k, m, rho):
    """Sum of vertex-restricted counts over all rho-subsets R of [m]."""
    plain = SequenceCounter(seq)
    if rho == 0:
        return plain(k)
    return sum(restricted_signed_count(seq, k, m, R, mode="vertex",
                                       plain=plain)
               for R in combinations(range(1, m + 1), rho))


class _FilteredCounter(_LevelWalk):
    """Level m keeps only labelings whose given edge pairs carry distinct
    shifted labels."""

    def __init__(self, seq, m, distinct_pairs, plain=None):
        super().__init__(seq, m, plain)
        self.pairs = [tuple(p) for p in distinct_pairs]

    def _transition(self, values, below):
        ranges, odd = _ranges_and_parity(self._plain._edges[self.m], values)
        if ranges is None:
            return 0
        pairs = self.pairs
        total = 0
        for l in product(*ranges):
            if all(l[a - 1] + a != l[b - 1] + b for a, b in pairs):
                total += below(l)
        return -total if odd else total


def signed_count_filtered(seq, k, level, distinct_pairs, plain=None):
    """Signed count keeping only chains where the given edge pairs of
    T_level carry distinct labels (shifted comparison, l_e + e).  A level
    outside 2..n has no edge pairs to filter, so the count is plain."""
    if not 2 <= level <= seq.order:
        return (plain or SequenceCounter(seq))(k)
    return _FilteredCounter(seq, level, distinct_pairs, plain)._total(k)

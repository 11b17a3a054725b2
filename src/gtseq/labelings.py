"""Admissible edge labelings of trees and their signed enumeration.

Vertices of an n-tree carry integer labels k_1..k_n; the working quantity is
always the shifted label k_v + v.  An edge labeling l_1..l_{n-1} (shifted:
l_e + e) is admissible for (T, k) when every edge e = (p, q) satisfies

    min(k_p+p, k_q+q) <= l_e + e < max(k_p+p, k_q+q),

which is impossible if the endpoint labels coincide.  An edge whose tail
carries the larger label is an inversion.  So the values of edge e = (t, h)
form the generalized interval ``intervals.slot(k_t + t - e, k_h + h - e - 1)``:
empty at a tie and inverted exactly at an inversion (``_edge_slots``).

A tree-sequence labeling chain (T_1..T_n, l_1..l_n) fixes l_n = k and asks
l_{i-1} to be admissible for (T_i, l_i); its sign is (-1)^{#inversions}
times the product of the tree signs.  ``enumerate_sequences`` lists the
chains by ``intervals.row_walk``, one row choice per level; ``signed_count``
evaluates the signed total without them, by a memoized recursion over levels.

The "weak" machinery pins selected edges to the labels of selected vertices
(one pinned edge per chosen vertex, exclusions keeping the pin unique) and
is what finite differences of the signed count turn into: applying the
forward difference in the coordinates of a vertex set R turns the level-m
admissibility into weak R-admissibility.

A witness's sign depends only on its pin assignment and its dominating
choice, never on the values of its free edges: the maximum endpoint of an
edge is fixed by the vertex labels when they differ, and when they coincide
the edge has an empty value list unless it is pinned, in which case the
assignment or the dominating choice names the maximum.  ``_pin_terms``
yields each valid pin assignment once, with one value list per edge, its
dominating choices and the signed weight summed over them; the two witness
functions expand these terms into records.  It is the reference route: the
tests check the counter's pinned level against it.

``RestrictedCounter`` computes the same weights and value lists without
records, splitting the work by what it depends on:

* the plan (``_compile_plan``), compiled once per counter, reduces each pin
  assignment to one state code per edge: free with the marks of its two
  ends, or pinned by its tail or head with the mark of the other end.  An
  assignment pinning an edge from both ends has weight 0 and is left out;
* the per-values setup (``_pin_options``: per edge and state, the value
  slot and whether it adds a minimum pin or a tie inversion, plus the
  inversion parity of the labels) is built once per level and values and
  stored in the plain counter's ``_setups``, so every pinning of one tree
  sequence, in either mode, reuses it;
* per (values, assignment) only the signed weight and the slot box remain,
  both read from the setup through the state codes.

Counters with a pinned or filtered level m (``RestrictedCounter``,
``FilteredCounter``) are ``SequenceCounter`` walks with one memoized level
step: they differ only at level m, which is their ``_transition``, and
below m, where every box is summed by a plain ``SequenceCounter`` they are
handed, so every pinning of one tree sequence can share one plain memo.
Without one they make a fresh counter.  Box sums over a memo table
(``intervals.table_sum``) run at C speed when every entry is present and
compute only the missing ones otherwise.
"""

from collections import namedtuple
from dataclasses import dataclass
from functools import partial
from itertools import combinations, product
from math import prod
from operator import getitem

from .intervals import row_walk, slot, table_sum


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


def _edge_slots(tree, k):
    """Per edge e = (t, h), in name order, the slot of its unshifted values,
    slot(k_t + t - e, k_h + h - e - 1): None when the end labels tie, and
    inverted when the tail label is the larger."""
    return [slot(k[t - 1] + t - e, k[h - 1] + h - e - 1)
            for e, t, h in _edge_triples(tree)]


def inversion_edges(tree, k):
    """Edge names whose tail label exceeds the head label.

    Returns None when some edge has equal endpoint labels (no admissible
    labeling exists at all in that case).
    """
    slots = _edge_slots(tree, k)
    if None in slots:
        return None
    return frozenset(e for e, (_, inverted) in enumerate(slots, 1)
                     if inverted)


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


def _range_sum(r):
    """Sum of a step-1 range."""
    return (r.start + r.stop - 1) * len(r) // 2


def admissible_labelings(tree, k):
    """All admissible labelings of (tree, k), lexicographic in l."""
    inv = inversion_edges(tree, k)
    if inv is None:
        return []
    members = [members for members, _ in _edge_slots(tree, k)]
    return [AdmissibleLabeling(l, inv) for l in product(*members)]


class SequenceCounter:
    """Signed enumeration of labeling chains over one tree sequence.

    Memo tables are shared across evaluation points, which is what makes
    grid sweeps cheap: the level-i table is keyed by the level-i vector.
    Level 2 is one edge, whose signed width needs no table, and a level-3
    entry sums that width over a box in closed form.  ``_setups`` holds, per
    level, the per-values setup of a pinned level (``_pin_options``), which
    every ``RestrictedCounter`` handed this counter shares.
    """

    def __init__(self, seq):
        self.seq = seq
        self.tree_sign = seq.sign()
        self._order = seq.order
        self._edges = [None] + [_edge_triples(tree) for tree in seq.trees]
        self._memo = [None] + [dict() for _ in range(seq.order)]
        self._setups = [None] + [dict() for _ in range(seq.order)]

    def _raw(self, level, values):
        if level == 2:
            ((_, t, h),) = self._edges[2]
            return values[h - 1] + h - values[t - 1] - t
        if level == 1:
            return 1
        memo = self._memo[level]
        total = memo.get(values)
        if total is None:
            ranges, odd = _ranges_and_parity(self._edges[level], values)
            total = 0 if ranges is None else self._box(level - 1, ranges)
            if odd:
                total = -total
            memo[values] = total
        return total

    def _box(self, level, ranges):
        """Sum of the level-``level`` count over product(*ranges)."""
        if level >= 3:
            return table_sum(self._memo[level], self._raw, level, ranges)
        if level == 1:
            return prod(map(len, ranges))
        # level 2: sum of l_h + h - l_t - t over the box, in closed form
        ((_, t, h),) = self._edges[2]
        rt, rh = ranges[t - 1], ranges[h - 1]
        wt, wh = len(rt), len(rh)
        return _range_sum(rh) * wt - _range_sum(rt) * wh + (h - t) * wt * wh

    def _pin_setup(self, level, values):
        """The shared per-values setup of pinned level ``level``."""
        setups = self._setups[level]
        setup = setups.get(values)
        if setup is None:
            setup = setups[values] = _pin_options(self._edges[level], values)
        return setup

    def __call__(self, k):
        return self._signed(k)

    def _signed(self, k):
        """The signed count at k, which every counter class's ``__call__``
        returns."""
        k = tuple(k)
        total = self._memo[self._order].get(k)
        if total is None:
            if len(k) != self._order:
                raise ValueError("k must have length %d" % self._order)
            total = self._raw(self._order, k)
        return self.tree_sign * total


def signed_count(seq, k):
    """Signed number of labeling chains for (seq, k)."""
    return SequenceCounter(seq)(k)


def _chain_rows(seq, values):
    """The one choice of the level below ``values``: edge e of the tree at
    level len(values) ranges over its slot of admissible values."""
    yield None, 1, _edge_slots(seq.tree(len(values)), values)


def enumerate_sequences(seq, k):
    """All labeling chains, sorted lexicographically on (l_1, l_2, ...).

    Each chain records per-level inversions and its sign including the tree
    sequence sign.  Materializes the whole set; use signed_count for totals.
    """
    base_sign = seq.sign()
    # the walk tags an inversion by its row, one below the level of its tree
    return sorted((GTTreeSequence(levels, tuple([(i + 1, e) for i, e in inv]),
                                  base_sign * sign)
                   for levels, _, inv, sign in row_walk(
                       partial(_chain_rows, seq), tuple(k))),
                  key=lambda g: g.levels)


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


def _edge_state(t, h, pin, marked):
    """State code of edge (t, h) under one assignment: free, by the marks
    of its ends (0-3: tail marked + 2 * head marked), pinned by the tail
    (4, 5: head unmarked, marked) or pinned by the head (6, 7: tail
    unmarked, marked)."""
    if pin is None:
        return (t in marked) + 2 * (h in marked)
    if pin == t:
        return 4 + (h in marked)
    return 6 + (t in marked)


def _compile_plan(edges, assignments):
    """The values-independent part of each pin assignment, as a tuple of
    per-edge state codes (``_edge_state``).

    An assignment that pins an edge from both ends is left out.  That edge
    needs tied end labels, and its two dominating choices cancel: taking
    the tail adds the tie inversion, and either way the other end is a
    minimum pin, so the weight ``_pin_terms`` gives it is 0 at all values.
    Every other pinned edge has one pinning end, so a marked other end pins
    another edge, which ``_pins`` forbids when the edge's labels tie.
    """
    plan = []
    for pairs, marked in assignments:
        pin = {}
        for v, e in pairs:
            if e in pin:
                break
            pin[e] = v
        else:
            plan.append(tuple(_edge_state(t, h, pin.get(name), marked)
                              for name, t, h in edges))
    return tuple(plan)


# Per state: 1 when pinning at that end adds a minimum pin or a tie
# inversion, for an edge whose low end is its tail (also a tie) or head.
_LOW_TAIL = (0, 0, 0, 0, 1, 1, 0, 0)
_LOW_HEAD = (0, 0, 0, 0, 0, 0, 1, 1)


def _pin_options(edges, values):
    """The per-values setup of a pinned level, as (odd, options, bits).

    ``odd`` is the parity of the edges whose tail label exceeds the head
    label.  For the edge named e and a state s (``_edge_state``),
    ``options[e - 1][s]`` is the edge's slot of unshifted values (a
    one-value range when pinned), or None when the state admits no value:
    a free edge whose interval is empty once a marked low end is excluded,
    or an edge pinned at a tie whose other end pins another edge.
    ``bits[e - 1][s]`` is 1 when the pin adds a minimum pin or a tie
    inversion to the sign.
    """
    lab = (0,) + tuple(x + v for v, x in enumerate(values, start=1))
    odd = 0
    options = []
    bits = []
    for name, t, h in edges:
        a, b = lab[t] - name, lab[h] - name
        tail, head = range(a, a + 1), range(b, b + 1)
        iv = slot(a, b - 1)
        if iv is None:
            options.append((None, None, None, None, tail, None, head, None))
            bits.append(_LOW_TAIL)
            continue
        free, inverted = iv
        odd ^= inverted
        low_mark = 2 if inverted else 1
        bits.append(_LOW_HEAD if inverted else _LOW_TAIL)
        cut = free[1:] or None
        options.append(tuple(cut if s & low_mark else free for s in range(4))
                       + (tail, tail, head, head))
    return odd, tuple(options), tuple(bits)


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


class _LevelWalk(SequenceCounter):
    """A ``SequenceCounter`` whose level m is ``self._transition``.

    Two steps differ from the plain walk: ``_raw`` at level m memoizes the
    transition, and ``_box`` below m sums the plain counter ``plain`` (a
    fresh one when None), which every walk over the same tree sequence may
    share.  Above m the plain level step runs on this walk's own memo.  The
    tree sequence data (edges, per-values pin setups, sign, order) come from
    ``plain``; ``SequenceCounter.__init__`` is not called, so a wrapper on
    it (bench/tracer.py counts memo entries that way) sees plain counters
    only.
    """

    def __init__(self, seq, m, plain=None):
        if not 2 <= m <= seq.order:
            raise ValueError("restriction level out of range")
        if plain is None:
            plain = SequenceCounter(seq)
        elif plain.seq != seq:
            raise ValueError("plain counter is for another tree sequence")
        self.m = m
        self._plain = plain
        self.seq, self.tree_sign, self._order = (plain.seq, plain.tree_sign,
                                                 plain._order)
        self._edges, self._setups = plain._edges, plain._setups
        self._memo = [None] + [dict() for _ in range(plain._order)]

    def _raw(self, level, values):
        if level != self.m:
            return SequenceCounter._raw(self, level, values)
        memo = self._memo[level]
        total = memo.get(values)
        if total is None:
            total = memo[values] = self._transition(values)
        return total

    def _box(self, level, ranges):
        if level < self.m:
            return self._plain._box(level, ranges)
        return table_sum(self._memo[level], self._raw, level, ranges)


class RestrictedCounter(_LevelWalk):
    """Signed enumeration with one level replaced by a pinned variant.

    mode "vertex": level m uses weak R-admissibility (R a set of vertices of
    T_m); mode "edge": level m uses the edge-pinned variant (R a set of edge
    names of T_m).  Levels other than m are ordinary; those below m are
    read from ``plain`` (see ``_LevelWalk``).  The pin assignments are
    compiled once into ``_plan``; the per-values setup of level m comes
    from ``plain``, shared with every other pinning of the sequence.
    """

    ASSIGNMENTS = {"vertex": _vertex_assignments, "edge": _edge_assignments}

    def __init__(self, seq, m, R, mode="vertex", plain=None):
        if mode not in self.ASSIGNMENTS:
            raise ValueError("unknown mode %r" % (mode,))
        super().__init__(seq, m, plain)
        self.R = _pin_set(R, mode, m)
        self.mode = mode
        edges = self._edges[m]
        self._plan = _compile_plan(edges, self.ASSIGNMENTS[mode](
            edges, _incidence(m, edges), self.R))

    def _transition(self, values):
        """Sum over the plan of the signed weight times the level m-1 count
        summed over the slot box."""
        odd, options, bits = self._pin_setup(self.m, values)
        box = self._box
        below = self.m - 1
        total = 0
        for states in self._plan:
            slots = list(map(getitem, options, states))
            if None in slots:
                continue
            if (odd + sum(map(getitem, bits, states))) & 1:
                total -= box(below, slots)
            else:
                total += box(below, slots)
        return total

    def __call__(self, k):
        # not inherited, and not through SequenceCounter.__call__, so a
        # wrapper on either (bench/tracer.py wraps both) times restricted
        # counts only, not plain or filtered ones
        return self._signed(k)


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


class FilteredCounter(_LevelWalk):
    """Signed enumeration keeping only chains whose level-m labeling gives
    the listed edge pairs of T_m distinct shifted labels.  One counter
    serves a whole grid, sharing its memo above m across the points."""

    def __init__(self, seq, m, distinct_pairs, plain=None):
        super().__init__(seq, m, plain)
        self.pairs = [tuple(p) for p in distinct_pairs]

    def _transition(self, values):
        ranges, odd = _ranges_and_parity(self._edges[self.m], values)
        if ranges is None:
            return 0
        pairs = self.pairs
        below = self._plain._raw
        level = self.m - 1
        total = 0
        for l in product(*ranges):
            if all(l[a - 1] + a != l[b - 1] + b for a, b in pairs):
                total += below(level, l)
        return -total if odd else total

    def __call__(self, k):
        # its own, like RestrictedCounter.__call__
        return self._signed(k)


def signed_count_filtered(seq, k, level, distinct_pairs, plain=None):
    """Signed count keeping only chains where the given edge pairs of
    T_level carry distinct labels (shifted comparison, l_e + e).  A level
    outside 2..n has no edge pairs to filter, so the count is plain."""
    if not 2 <= level <= seq.order:
        return (plain or SequenceCounter(seq))(k)
    return FilteredCounter(seq, level, distinct_pairs, plain)(k)

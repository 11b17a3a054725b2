"""Admissible edge labelings of trees and their signed enumeration.

Vertices of an n-tree carry integer labels k_1..k_n; the working quantity is
always the shifted label k_v + v.  An edge labeling l_1..l_{n-1} (shifted:
l_e + e) is admissible for (T, k) when every edge e = (p, q) satisfies

    min(k_p+p, k_q+q) <= l_e + e < max(k_p+p, k_q+q),

which is impossible if the endpoint labels coincide.  An edge whose tail
carries the larger label is an inversion.  So the values of edge e = (t, h)
form the generalized interval ``intervals.slot(k_t + t - e, k_h + h - e - 1)``,
empty at a tie and inverted exactly at an inversion.  ``_level_slots``
states this rule once, as the slot form ((t, t - e), (h, h - e - 1)) per
edge, a level's one row choice.  ``intervals.form_rows`` evaluates it for
``inversion_edges``, ``admissible_labelings``, the chain rows and the
family walks.  The two other computing routes read the forms themselves:
the fill derives its stencils from them, and ``_pin_options``, whose
pinned states are not plain slots, reads them directly.  The reference routes
(``_pin_terms`` and the two witness functions) read the tree instead, so
the tests hold the counters to an independent reading of each level.

A tree-sequence labeling chain (T_1..T_n, l_1..l_n) fixes l_n = k and asks
l_{i-1} to be admissible for (T_i, l_i); its sign is (-1)^{#inversions}
times the product of the tree signs.  Its rows are ``form_rows`` over each
level's forms (``_sequence_slots``): ``enumerate_sequences`` walks them
(``intervals.row_walk``) and ``signed_count`` counts through them
(``intervals.row_count``).  ``SequenceCounter.sweep`` fills the same memo
tables for a whole grid at once through ``intervals.sweep``, which hands
the points missing from the top table to ``intervals.fill``; the fill
writes every level into the per-level memo, which later point calls and
every family walk handed the counter read.

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
functions expand these terms into records, the reference route that the
tests hold the counters' pinned level to.  ``PinnedFamily`` computes the
same weights and value lists without records, split by what they depend on:

* the plan (``_compile_plan``), compiled once per pinning, reduces each pin
  assignment to one state code per edge: free with the marks of its two
  ends, or pinned by its tail or head with the mark of the other end.  An
  assignment pinning an edge from both ends has weight 0 and is left out;
* the per-values setup (``_pin_options``: per edge and state, the value
  slot and whether it adds a minimum pin or a tie inversion, plus the
  inversion parity of the labels) is built from the level's slot forms once
  per values, when the family walk first reaches them, and every member
  of the family reads it;
* per (values, assignment) only the signed weight and the slot box remain.

One walk per pinned level (``_LevelWalk``) evaluates all the pinnings
(``PinnedFamily``) or distinct-label filters (``FilteredFamily``) of one
level m together, memoizing a tuple of their values: above m they share
the plain step, and below m the plain counter they are handed, which every
family of the tree sequence can share.  ``RestrictedCounter`` and
``FilteredCounter`` are the one-member families.
"""

from collections import namedtuple
from dataclasses import dataclass
from functools import partial
from itertools import product
from operator import getitem, neg

from .intervals import (bottom_row, box_sum, form_rows, row_count, row_walk,
                        slot, sweep)


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


def _edge_triples(tree):
    """(name, tail, head) for every edge, in name order."""
    return tuple((name,) + tree.edge(name) for name in tree.edge_names())


def _level_slots(edges):
    """The edge rule, stated once: the level's one row choice, edge
    e = (t, h) taking coordinate e of the level below over the slot form
    ((t, t - e), (h, h - e - 1)), slot(l_t + t - e, l_h + h - e - 1)."""
    return (tuple(((t, t - e), (h, h - e - 1)) for e, t, h in edges),)


def _sequence_slots(seq):
    """Each level's slot forms of a tree sequence, level i at index i."""
    return [None] + [_level_slots(_edge_triples(tree)) for tree in seq.trees]


def _tree_rows(tree, k):
    """The one row choice of the edge slots at the labels k, checked to be
    n labels, listed only when no edge has equal end labels."""
    forms = _level_slots(_edge_triples(tree))
    return form_rows(lambda level: forms, bottom_row(tree.n, k))


def inversion_edges(tree, k):
    """Edge names whose tail label exceeds the head label, or None when
    some edge has equal end labels (then no labeling is admissible)."""
    for _, _, slots in _tree_rows(tree, k):
        return frozenset(e for e, (_, inverted) in enumerate(slots, 1)
                         if inverted)
    return None


def _incidence(n, edges):
    """vertex -> names of its incident edges, ascending."""
    return [()] + [tuple(name for name, t, h in edges if v == t or v == h)
                   for v in range(1, n + 1)]


def admissible_labelings(tree, k):
    """All admissible labelings of (tree, k), lexicographic in l."""
    for _, _, slots in _tree_rows(tree, k):
        inv = frozenset(e for e, (_, flip) in enumerate(slots, 1) if flip)
        return [AdmissibleLabeling(l, inv)
                for l in product(*(members for members, _ in slots))]
    return []


class SequenceCounter:
    """Signed enumeration of labeling chains over one tree sequence.

    The counter builds each level's slot forms (``_level_slots``) once, and
    its rows are ``intervals.form_rows`` over them.  The level-i memo table,
    keyed by the level-i vector, is shared across evaluation points and
    filled one point at a time by ``__call__``, through
    ``intervals.row_count``, or one box at a time by ``sweep``, through
    ``intervals.sweep``.  ``_box`` is ``intervals.box_sum`` over them.
    """

    def __init__(self, seq):
        if seq.order < 1:
            raise ValueError("a tree sequence needs order at least 1")
        self.seq = seq
        self.tree_sign = seq.sign()
        self._order = seq.order
        self._forms = _sequence_slots(seq)
        self._memo = [None] + [dict() for _ in range(seq.order)]
        self._rows = partial(form_rows, self._forms.__getitem__)
        self._box = partial(box_sum, self._memo, self._raw)

    def _raw(self, level, values):
        return row_count(self._rows, self._memo, level, values)

    def __call__(self, k):
        return self.tree_sign * self._count(tuple(k))

    def _count(self, k):
        if len(k) != self._order:
            raise ValueError("k must have length %d" % self._order)
        return self._raw(self._order, k)

    def sweep(self, points):
        """The signed counts at ``points``, in order, with ``_count``, the
        count before the tree sign, as the point step."""
        sign = self.tree_sign
        return [sign * total for total in sweep(
            self._forms.__getitem__, self._memo, self._order, points,
            self._count)]


def signed_count(seq, k):
    """Signed number of labeling chains for (seq, k)."""
    return SequenceCounter(seq)(k)


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
                       partial(form_rows, _sequence_slots(seq).__getitem__),
                       bottom_row(seq.order, k))),
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


def _pin_options(forms, values):
    """The per-values setup of a pinned level, read from its slot forms
    (``_level_slots``), as (odd, options, bits).

    ``odd`` is the parity of the edges whose tail label exceeds the head
    label.  For the edge named e, with slot form ((a, s), (b, t)), and a
    state (``_edge_state``), ``options[e - 1][state]`` is the edge's slot of
    unshifted values (a one-value range when pinned: x_a + s by the tail,
    x_b + t + 1 by the head), or None when the state admits no value: a
    free edge whose interval is empty once a marked low end is excluded, or
    an edge pinned at a tie whose other end pins another edge.
    ``bits[e - 1][state]`` is 1 when the pin adds a minimum pin or a tie
    inversion to the sign.
    """
    odd = 0
    options = []
    bits = []
    for (a, s), (b, t) in forms[0]:
        lo, hi = values[a - 1] + s, values[b - 1] + t
        tail, head = range(lo, lo + 1), range(hi + 1, hi + 2)
        iv = slot(lo, hi)
        if iv is None:
            options.append((None, None, None, None, tail, None, head, None))
            bits.append(_LOW_TAIL)
            continue
        free, inverted = iv
        odd ^= inverted
        low_mark = 2 if inverted else 1
        bits.append(_LOW_HEAD if inverted else _LOW_TAIL)
        cut = free[1:] or None
        options.append(tuple(cut if state & low_mark else free
                             for state in range(4))
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


class _LevelWalk:
    """One walk for a family of members that differ only at level m, with
    one tuple of member values per memo entry from level m up.

    Level m is ``_transition``, every member's value at once.  Above m all
    members take the same plain step, taken once on the tuples column-wise,
    so each entry is still its own member's count.  Below m the transition
    reads ``plain`` (a fresh ``SequenceCounter`` when None).  The walk's own
    memos are not ``SequenceCounter`` memos, which bench/tracer.py counts.
    """

    def __init__(self, seq, m, plain, members):
        if not 2 <= m <= seq.order:
            raise ValueError("restriction level out of range")
        if plain is None:
            plain = SequenceCounter(seq)
        elif plain.seq != seq:
            raise ValueError("plain counter is for another tree sequence")
        self.m, self._plain, self._forms = m, plain, plain._forms
        self.seq, self.tree_sign, self._order = seq, plain.tree_sign, seq.order
        self._memo = {level: {} for level in range(m, seq.order + 1)}
        self._zeros = (0,) * members

    def _raw(self, level, values):
        memo = self._memo[level]
        entry = memo.get(values)
        if entry is None:
            if level == self.m:
                entry = self._transition(values)
            else:
                entry = self._zeros
                for _, _, slots in self._plain._rows(values):
                    box, inverted = zip(*slots)
                    entry = self._box(level - 1, box)
                    if inverted.count(True) % 2:
                        entry = tuple(map(neg, entry))
            memo[values] = entry
        return entry

    def _box(self, level, ranges):
        """Member-wise sums of the level-``level`` tuples over
        product(*ranges), computing only the missing ones."""
        memo = self._memo[level]
        try:
            entries = list(map(memo.__getitem__, product(*ranges)))
        except KeyError:
            entries = [self._raw(level, l) for l in product(*ranges)]
        return tuple(map(sum, zip(*entries)))

    def __call__(self, k):
        """The members' signed counts at k, in member order."""
        entry = self._raw(self._order, bottom_row(self._order, k))
        return entry if self.tree_sign > 0 else tuple(map(neg, entry))


class PinnedFamily(_LevelWalk):
    """Signed enumerations with level m pinned by each R of ``sets``: in
    mode "vertex" weak R-admissibility (R a set of vertices of T_m), in mode
    "edge" the edge-pinned variant (R a set of edge names of T_m).  Each
    member runs its own compiled plan on the level's one shared setup."""

    ASSIGNMENTS = {"vertex": _vertex_assignments, "edge": _edge_assignments}

    def __init__(self, seq, m, sets, mode="vertex", plain=None):
        if mode not in self.ASSIGNMENTS:
            raise ValueError("unknown mode %r" % (mode,))
        super().__init__(seq, m, plain, len(sets))
        self.sets = [_pin_set(R, mode, m) for R in sets]
        self.mode = mode
        edges = _edge_triples(seq.tree(m))
        self._plans = [_compile_plan(edges, self.ASSIGNMENTS[mode](
            edges, _incidence(m, edges), R)) for R in self.sets]

    def _transition(self, values):
        """Per member, the sum over its plan of the signed weight times the
        level m-1 count summed over the slot box."""
        odd, options, bits = _pin_options(self._forms[self.m], values)
        box, below = self._plain._box, self.m - 1
        totals = []
        for plan in self._plans:
            total = 0
            for states in plan:
                slots = list(map(getitem, options, states))
                if None in slots:
                    continue
                if (odd + sum(map(getitem, bits, states))) & 1:
                    total -= box(below, slots)
                else:
                    total += box(below, slots)
            totals.append(total)
        return tuple(totals)


class RestrictedCounter(PinnedFamily):
    """Signed enumeration with level m pinned by R, the one-member family."""

    def __init__(self, seq, m, R, mode="vertex", plain=None):
        super().__init__(seq, m, [R], mode, plain)

    def __call__(self, k):
        # its own, and not SequenceCounter.__call__, so that a wrapper on
        # either (bench/tracer.py wraps both) times restricted counts only
        return PinnedFamily.__call__(self, k)[0]


class FilteredFamily(_LevelWalk):
    """Signed enumerations keeping, per member, only the chains whose
    level-m labeling gives each edge pair of T_m in ``pair_lists[i]``
    distinct shifted labels."""

    def __init__(self, seq, m, pair_lists, plain=None):
        super().__init__(seq, m, plain, len(pair_lists))
        self.pair_lists = [[tuple(p) for p in pairs] for pairs in pair_lists]
        for pair in (p for pairs in self.pair_lists for p in pairs):
            if len(pair) != 2 or not 1 <= min(pair) < max(pair) < m:
                raise ValueError("pair %r is not two distinct edge names of"
                                 " a %d-tree" % (pair, m))

    def _transition(self, values):
        """Each level m-1 labeling's count, added to every member whose
        pairs it keeps apart."""
        below, level = self._plain._raw, self.m - 1
        members = list(enumerate(self.pair_lists))
        totals = list(self._zeros)
        for _, _, slots in self._plain._rows(values):
            box, inverted = zip(*slots)
            for l in product(*box):
                count = below(level, l)
                if count:
                    for i, pairs in members:
                        if all(l[a - 1] + a != l[b - 1] + b
                               for a, b in pairs):
                            totals[i] += count
            if inverted.count(True) % 2:
                totals = list(map(neg, totals))
        return tuple(totals)


class FilteredCounter(FilteredFamily):
    """The one-member ``FilteredFamily``: only chains whose level-m labeling
    gives the listed edge pairs of T_m distinct shifted labels."""

    def __init__(self, seq, m, distinct_pairs, plain=None):
        super().__init__(seq, m, [distinct_pairs], plain)

    def __call__(self, k):
        # its own, like RestrictedCounter.__call__
        return FilteredFamily.__call__(self, k)[0]


def signed_count_filtered(seq, k, level, distinct_pairs, plain=None):
    """Signed count keeping only chains where the given edge pairs of
    T_level carry distinct labels (shifted comparison, l_e + e).  A level
    outside 2..n has no edge pairs to filter, so the count is plain."""
    if not 2 <= level <= seq.order:
        return (plain or SequenceCounter(seq))(k)
    return FilteredCounter(seq, level, distinct_pairs, plain)(k)

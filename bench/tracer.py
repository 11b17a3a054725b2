"""Traced launcher: run one gtseq command with per-layer spans and counts.

    PYTHONPATH=src python3 bench/tracer.py OUT_PREFIX gtseq-arguments...

The benchmark starts this file in place of the ``gtseq`` entry point when it
traces.  It imports ``gtseq.cli`` (timing the import), wraps the public names
listed in ``WRAPS`` at runtime, calls ``gtseq.cli.main`` with the remaining
arguments and exits with its code.  Nothing under ``src/`` changes: a wrapper
replaces a function wherever a gtseq module or class binds it, so callers
resolve the wrapper exactly as they resolved the function.

Two kinds of wrapper:

* span: records calls, inclusive time and self time (duration minus the time
  covered by child spans).  A recursive call of the same name records no
  span of its own, so only the outermost call is timed;
* count: records calls only, for hot lookups whose timing would cost more
  than the work they do.

Either kind may test a memo before the call (``hit``, outermost calls only)
or add a work count (``items``).  On exit the process writes
``OUT_PREFIX.json``: per-name totals, the first ``SPAN_CAP`` spans to start
as [id, name, start, end, parent id] and a snapshot of the memo tables.  Pool
workers forked by ``verify all`` inherit the wrappers and write
``OUT_PREFIX.<pid>.json`` when they exit.
"""

import functools
import importlib
import json
import multiprocessing.util
import os
import sys
import time
import weakref

SPAN_CAP = 1000


def _memo_of(module, table):
    return lambda: getattr(sys.modules["gtseq." + module], table)


_alpha_memo = _memo_of("monotone", "_alpha_memo")
_count_memo = _memo_of("patterns", "_count_memo")


def _terms(args, result):
    return len(args[0].terms)


def _length(args, result):
    return len(result)


# (group, kind, "module:qualified name", hit(*args), items(args, result))
WRAPS = [
    *[("operators.build", "span", "operators:" + name, None, None)
      for name in ("OperatorExpression.__init__", "OperatorExpression.__add__",
                   "OperatorExpression.__sub__", "OperatorExpression.__neg__",
                   "OperatorExpression.__mul__", "OperatorExpression.__pow__",
                   "identity", "zero", "shift", "delta", "small_delta",
                   "elementary_symmetric", "v_operator", "v_inverse",
                   "parse_operator")],
    ("operators.apply", "span", "operators:apply_operator", None, _terms),
    ("operators.lattice", "count", "operators:LatticeFunction.__call__",
     lambda self, point: tuple(point) in self.memo, None),
    ("operators.product_formula", "span", "operators:product_formula",
     None, None),
    ("operators.determinant", "span", "operators:binomial_determinant",
     None, None),
    ("labelings.counter", "span", "labelings:SequenceCounter.__call__",
     lambda self, k: tuple(k) in self._memo[self.seq.order], None),
    ("labelings.restricted", "span", "labelings:RestrictedCounter.__call__",
     None, None),
    ("labelings.filtered", "span", "labelings:signed_count_filtered",
     None, None),
    ("labelings.witnesses", "span", "labelings:weak_admissible_witnesses",
     None, _length),
    ("labelings.witnesses", "span", "labelings:edge_admissible_witnesses",
     None, _length),
    *[("trees.build", "span", "trees:" + name, None, None)
      for name in ("basic_tree", "random_tree", "basic_sequence",
                   "swap_sequence", "leafchain_sequence", "canonical_sequence",
                   "random_sequence", "tree_sign", "TreeSequence.sign")],
    ("trees.edge_lookups", "count", "trees:NTree.edge", None, None),
    ("trees.edge_lookups", "count", "trees:NTree.incident_edges", None, None),
    ("monotone.alpha", "span", "monotone:alpha",
     lambda n, k: n == 1 or tuple(k) in _alpha_memo(), None),
    *[("monotone.extension", "span", "monotone:" + name, None, None)
      for name in ("extension_signed_count", "extension_three_relaxed",
                   "enumerate_extension")],
    ("monotone.operator_route", "span", "monotone:alpha_via_operator",
     None, None),
    *[("monotone.property", "span", "monotone:" + name, None, None)
      for name in ("check_alpha_property", "property_one_residual",
                   "property_two_residual", "property_three_residual",
                   "property_four_residual")],
    *[("monotone.refined", "span", "monotone:" + name, None, None)
      for name in ("refined_asm", "refined_direct", "refined_via_first",
                   "refined_via_last", "doubly_refined_asm",
                   "doubly_refined_direct", "doubly_refined_entry",
                   "linear_system_residuals",
                   "doubly_refined_identity_residuals")],
    ("patterns.count", "span", "patterns:signed_pattern_count",
     lambda k: len(k) == 1 or tuple(k) in _count_memo(), None),
    ("patterns.count", "span", "patterns:shift_decomposition_counts",
     None, None),
    ("patterns.enumerate", "span", "patterns:enumerate_patterns",
     None, _length),
    ("paths.signed", "span", "paths:signed_families", None, None),
    ("paths.signed", "span", "paths:enumerate_families", None, None),
    ("paths.nonintersecting", "span", "paths:count_nonintersecting",
     None, None),
    *[("intervals.calls", "count", "intervals:" + name, None, None)
      for name in ("interval", "left_anchored_identity",
                   "right_anchored_identity", "containment_dichotomy",
                   "right_anchored_dichotomy")],
]

# Memo-owning classes: entries are summed over every instance, each read
# when the instance dies or, if it is still alive, when the process exits.
INSTANCE_MEMOS = {
    "labelings.SequenceCounter": ("_memo", lambda m: sum(map(len, m[1:]))),
    "operators.LatticeFunction": ("memo", len),
}

# Module-level memo tables: (module, attribute, key or None).
MODULE_MEMOS = {
    "patterns._count_memo": ("patterns", "_count_memo", None),
    "monotone._alpha_memo": ("monotone", "_alpha_memo", None),
    "monotone._strict_memo": ("monotone", "_strict_memo", None),
    "monotone._ext_memos[2]": ("monotone", "_ext_memos", 2),
    "monotone._ext_memos[3]": ("monotone", "_ext_memos", 3),
    "monotone._ext_memos[4]": ("monotone", "_ext_memos", 4),
}


class Recorder:
    """Per-process span and count totals, kept in memory until exit."""

    def __init__(self, prefix):
        self.prefix = prefix
        self.path = prefix + ".json"
        self.import_s = 0.0
        self.watched = {}   # label -> (live instances, memo attribute, size)
        self.reset()

    def reset(self):
        # name -> [calls, self_s, total_s, lookups, hits, items]
        self.stats = {}
        self.stack = []     # open spans: [child seconds, span id]
        self.active = set()
        self.spans = []
        self.next_id = 0
        self.dead_entries = {}
        for live, _, _ in self.watched.values():
            live.clear()

    def entry(self, name):
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0.0, 0, 0, 0]
        return st

    def span(self, name, fn, hit=None, items=None):
        rec = self
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = rec.entry(name)
            st[0] += 1
            if name in rec.active:
                return fn(*args, **kwargs)
            if hit is not None:
                st[3] += 1
                st[4] += bool(hit(*args))
            rec.active.add(name)
            frame = [0.0, rec.next_id]
            rec.next_id += 1
            span = None
            if len(rec.spans) < SPAN_CAP:
                # Kept in start order, so every kept span's parent is kept.
                span = [frame[1], name, None, None,
                        rec.stack[-1][1] if rec.stack else None]
                rec.spans.append(span)
            rec.stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                rec.stack.pop()
                rec.active.discard(name)
                took = end - start
                st[1] += took - frame[0]
                st[2] += took
                if rec.stack:
                    rec.stack[-1][0] += took
                if span is not None:
                    span[2:4] = start, end
            if items is not None:
                st[5] += items(args, result)
            return result
        return wrapper

    def count(self, name, fn, hit=None, items=None):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = rec.entry(name)
            st[0] += 1
            if hit is not None:
                st[3] += 1
                st[4] += bool(hit(*args))
            result = fn(*args, **kwargs)
            if items is not None:
                st[5] += items(args, result)
            return result
        return wrapper

    def watch(self, label, cls, attr, size):
        rec = self
        live = weakref.WeakSet()
        self.watched[label] = (live, attr, size)
        init = cls.__init__

        def died(memo):
            rec.dead_entries[label] = rec.dead_entries.get(label, 0) \
                + size(memo)

        def wrapped_init(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            live.add(obj)
            # The finalizer holds the memo, not the instance, and runs when
            # the instance dies; it is not run again at interpreter exit.
            weakref.finalize(obj, died, getattr(obj, attr)).atexit = False
        cls.__init__ = wrapped_init

    def memo_snapshot(self):
        memo = {}
        for label, (live, attr, size) in self.watched.items():
            memo[label] = self.dead_entries.get(label, 0) + sum(
                size(getattr(obj, attr)) for obj in list(live))
        for label, (module, attr, key) in MODULE_MEMOS.items():
            table = getattr(sys.modules.get("gtseq." + module), attr, None)
            if table is not None and key is not None:
                table = table.get(key)
            if table is not None:
                memo[label] = len(table)
        return memo

    def dump(self):
        doc = {"pid": os.getpid(), "import_s": self.import_s,
               "stats": self.stats, "memo": self.memo_snapshot(),
               "spans": self.spans}
        with open(self.path, "w") as fh:
            json.dump(doc, fh)

    def child_start(self):
        """Pool worker after fork: start empty and write a file at exit."""
        self.reset()
        self.import_s = 0.0
        self.path = "%s.%d.json" % (self.prefix, os.getpid())
        multiprocessing.util.Finalize(None, self.dump, exitpriority=100)


def _rebind(old, new):
    """Replace ``old`` by ``new`` in every gtseq module and class namespace."""
    for name, module in list(sys.modules.items()):
        if name != "gtseq" and not name.startswith("gtseq."):
            continue
        for attr, value in list(vars(module).items()):
            if value is old:
                setattr(module, attr, new)
            elif isinstance(value, type) and value.__module__ == name:
                for cattr, cvalue in list(vars(value).items()):
                    if cvalue is old:
                        setattr(value, cattr, new)
            elif isinstance(value, dict):
                for key, entry in list(value.items()):
                    if entry is old:
                        value[key] = new


def install(rec):
    """Wrap every name in WRAPS, every verify suite and the memo owners."""
    for group, kind, target, hit, items in WRAPS:
        module_name, qualname = target.split(":")
        owner = importlib.import_module("gtseq." + module_name)
        *path, last = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        fn = getattr(owner, last)
        make = rec.span if kind == "span" else rec.count
        _rebind(fn, make("%s:%s" % (group, qualname), fn, hit, items))
    verify = importlib.import_module("gtseq.verify")
    for suite, fn in list(verify.SUITES.items()):
        _rebind(fn, rec.span("verify.suite:" + suite, fn))
    for label, (attr, size) in INSTANCE_MEMOS.items():
        module_name, cls = label.split(".")
        owner = importlib.import_module("gtseq." + module_name)
        rec.watch(label, getattr(owner, cls), attr, size)
    multiprocessing.util.register_after_fork(rec, Recorder.child_start)


def main(argv):
    rec = Recorder(argv[0])
    started = time.perf_counter()
    cli = importlib.import_module("gtseq.cli")
    rec.import_s = time.perf_counter() - started
    install(rec)
    try:
        code = rec.span("cli.main", cli.main)(argv[1:])
    finally:
        rec.dump()
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

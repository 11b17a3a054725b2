"""The benchmark tracer (bench/tracer.py) wraps gtseq functions and reads
gtseq memo tables by name.  Every name it lists must resolve on the current
package, so that renaming a traced function fails here rather than in a
traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from gtseq import monotone, patterns
from gtseq.trees import basic_sequence, basic_tree

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"

# One small instance per memo-owning class the tracer watches.
INSTANCES = {
    "labelings.SequenceCounter": lambda cls: cls(basic_sequence(2)),
    "operators.LatticeFunction": lambda cls: cls(1, lambda k: 0),
}


# Arguments and object count for every target whose items callback is the
# tracer's _length, which needs a sized result.
SIZED = {
    "patterns:enumerate_patterns": (((0, 2),), 3),
    "labelings:weak_admissible_witnesses": ((basic_tree(2), (0, 2), ()), 3),
    "labelings:edge_admissible_witnesses": ((basic_tree(2), (0, 2), ()), 3),
}


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("gtseq_bench_tracer",
                                                  TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _gtseq_module(name):
    return importlib.import_module("gtseq." + name)


def _resolve(target):
    module_name, qualname = target.split(":")
    owner = _gtseq_module(module_name)
    for part in qualname.split("."):
        assert hasattr(owner, part), target
        owner = getattr(owner, part)
    return owner


def test_tracer_wrap_targets_resolve(tracer):
    assert tracer.WRAPS
    for _, _, target, _, _ in tracer.WRAPS:
        assert callable(_resolve(target)), target


def test_tracer_module_memos_resolve(tracer):
    assert tracer.MODULE_MEMOS
    for label, (module_name, attr, key) in tracer.MODULE_MEMOS.items():
        table = getattr(_gtseq_module(module_name), attr)
        if key is not None:
            table = table[key]
        assert isinstance(table, dict), label


# One cold count per module memo table the tracer reads.
MODULE_COUNTS = {
    "patterns._count_memo": lambda: patterns.signed_pattern_count((0, 2, 4)),
    "monotone._alpha_memo": lambda: monotone.alpha(3, (0, 2, 4)),
    "monotone._strict_memo":
        lambda: monotone.strict_row_patterns(3, (0, 2, 4)),
    "monotone._ext_memos[2]":
        lambda: monotone.extension_signed_count(2, 3, (0, 2, 4)),
    "monotone._ext_memos[3]":
        lambda: monotone.extension_signed_count(3, 3, (0, 2, 4)),
    "monotone._ext_memos[4]":
        lambda: monotone.extension_signed_count(4, 3, (0, 2, 4)),
}


def test_tracer_module_memos_are_the_live_tables(tracer):
    # a name left bound to an orphaned dict would read 0 entries in the
    # bench without an error, so each table must fill from one cold count
    assert set(tracer.MODULE_MEMOS) == set(MODULE_COUNTS)
    for label, (module_name, attr, key) in tracer.MODULE_MEMOS.items():
        table = getattr(_gtseq_module(module_name), attr)
        if key is not None:
            table = table[key]
        table.clear()
        MODULE_COUNTS[label]()
        assert table, label
    assert patterns._count_memo is patterns._family.table
    assert monotone._alpha_memo is monotone.EXTENSIONS[1].table
    for variant in (2, 3, 4):
        assert (monotone._ext_memos[variant]
                is monotone.EXTENSIONS[variant].table)


def test_tracer_instance_memos_resolve(tracer):
    assert set(tracer.INSTANCE_MEMOS) == set(INSTANCES)
    for label, (attr, size) in tracer.INSTANCE_MEMOS.items():
        module_name, cls = label.split(".")
        instance = INSTANCES[label](getattr(_gtseq_module(module_name), cls))
        assert size(getattr(instance, attr)) >= 0, label


def test_tracer_length_targets_return_sized_results(tracer):
    targets = {target for _, _, target, _, items in tracer.WRAPS
               if items is tracer._length}
    assert targets == set(SIZED)
    for target, (args, want) in SIZED.items():
        result = _resolve(target)(*args)
        assert tracer._length(args, result) == want, target

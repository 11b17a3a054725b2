"""gtseq command line: counts, verification sweeps, artifacts, conversions.

Subcommands:

  count    product | det | gtseq | patterns | alpha | paths, at one point
  verify   one named suite or "all", its checks spread over --workers
           processes; prints a JSON report, exit 1 on violations
  emit     tree (json or dot), pattern, ssyt, paths (json or svg)
  convert  pattern-to-ssyt, ssyt-to-pattern, pattern-to-treeseq,
           treeseq-to-pattern, reading JSON from a file or standard input
  apply    a difference/shift operator expression to a named function at
           one point

Each subcommand's names are the keys of one table below (``COUNTS``,
``EMITS``, ``CONVERSIONS``, ``FUNCTIONS``, ``VERIFY_FLAGS``), which both the
parser's choices and the dispatch read.  Suite names are not a parser choice
list: ``cmd_verify`` checks them against ``verify.SUITES``.  Each command
imports the gtseq modules it runs inside its own function, so a process
loads only what its subcommand executes; ``verify`` loads them all.

Output depends on the arguments alone: no environment variable or file is
consulted, all numbers are exact integers and reports are printed with
sorted keys, so identical flags and seeds give identical output except for
the wallTime field, and for the worker count that ``verify all`` echoes,
whose default is the number of CPUs the process may run on.  A bad
argument exits 2 with a message on stderr.
"""

import argparse
import json
import os
import re
import sys


class UsageError(ValueError):
    pass


def parse_k(text):
    try:
        return tuple(int(p) for p in text.strip().split(","))
    except ValueError:
        raise argparse.ArgumentTypeError("expected comma-separated integers")


def parse_grid(text):
    m = re.fullmatch(r"(-?\d+)\.\.(-?\d+)", text)
    if not m:
        raise argparse.ArgumentTypeError("expected lo..hi, like -2..2")
    lo, hi = int(m.group(1)), int(m.group(2))
    if lo > hi:
        raise argparse.ArgumentTypeError("grid lower bound exceeds upper")
    return lo, hi


def at_least(lo):
    """An argparse type: an integer no smaller than lo."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError("expected an integer")
        if value < lo:
            raise argparse.ArgumentTypeError("must be at least %d" % lo)
        return value
    return parse


# --- count -------------------------------------------------------------------


def _sequence_for(args, n):
    from .trees import canonical_sequence, random_sequence
    spec = args.sequence
    if spec == "basic":
        return canonical_sequence("basic", n)
    if spec == "random":
        if args.seed is None:
            raise UsageError("--sequence random needs --seed")
        return random_sequence(n, args.seed)
    m = re.fullmatch(r"swap:(\d+),(\d+)", spec)
    if m:
        return canonical_sequence("swap", n, int(m.group(1)), int(m.group(2)))
    m = re.fullmatch(r"leafchain:(\d+)", spec)
    if m:
        return canonical_sequence("leafchain", n, int(m.group(1)))
    raise UsageError("unknown sequence spec %r" % spec)


def _count_product(args):
    from .operators import product_formula
    return product_formula(args.k)


def _count_det(args):
    from .operators import binomial_determinant
    return binomial_determinant(args.k)


def _count_gtseq(args):
    from .labelings import signed_count
    return signed_count(_sequence_for(args, len(args.k)), args.k)


def _count_patterns(args):
    from .patterns import signed_pattern_count
    return signed_pattern_count(args.k)


def _count_alpha(args):
    from .monotone import alpha
    return alpha(len(args.k), args.k)


def _count_paths(args):
    from .paths import count_nonintersecting, signed_families
    if args.variant == "nonintersecting":
        return count_nonintersecting(args.k)
    return signed_families(args.k, args.variant)


COUNTS = {
    "product": _count_product,
    "det": _count_det,
    "gtseq": _count_gtseq,
    "patterns": _count_patterns,
    "alpha": _count_alpha,
    "paths": _count_paths,
}


def cmd_count(args):
    if args.n not in (None, len(args.k)):
        raise UsageError("--n disagrees with the length of --k")
    print(COUNTS[args.what](args))
    return 0


# --- verify ------------------------------------------------------------------

# flag -> the suite parameters it sets; a suite takes the first it accepts
VERIFY_FLAGS = {
    "n": ("n_max", "n"),
    "grid": ("bound", "bound3", "general_bound"),
    "trees": ("trees",),
    "seed": ("seed",),
}


def cmd_verify(args):
    import inspect
    from .verify import SUITES, run_all, run_suite
    if args.suite != "all" and args.suite not in SUITES:
        raise UsageError("unknown suite %r (choose from %s)"
                         % (args.suite, ", ".join(("all", *SUITES))))
    flags = {flag: getattr(args, flag) for flag in VERIFY_FLAGS
             if getattr(args, flag) is not None}
    workers = args.workers or len(os.sched_getaffinity(0))
    if args.suite == "all":
        if flags:
            raise UsageError("verify all runs at the fixed default bounds;"
                             " only --workers applies")
        report = run_all(workers=workers)
    else:
        accepted = inspect.signature(SUITES[args.suite]).parameters
        kwargs = {}
        for flag, value in flags.items():
            names = [p for p in VERIFY_FLAGS[flag] if p in accepted]
            if not names:
                raise UsageError("suite %s does not take --%s"
                                 % (args.suite, flag))
            if flag == "grid":
                lo, value = value
                if lo != -value:
                    raise UsageError("--grid must be symmetric around 0 for"
                                     " this suite")
            kwargs[names[0]] = value
        report = run_suite(args.suite, workers=workers, **kwargs)

    print(json.dumps(report, sort_keys=True, indent=2))
    return 0 if not report["violations"] else 1


# --- emit --------------------------------------------------------------------


def _random_tree(args):
    if args.seed is None:
        raise UsageError("emit tree --kind random needs --seed")
    import random
    from .trees import random_tree
    return random_tree(args.n, random.Random(args.seed))


def _basic_tree(args):
    from .trees import basic_tree
    return basic_tree(args.n)


TREE_KINDS = {"basic": _basic_tree, "random": _random_tree}


def _emit_tree(args):
    tree = TREE_KINDS[args.kind](args)
    if args.format == "dot":
        return tree.to_dot()
    return json.dumps(tree.to_json(), sort_keys=True)


def _emit_pattern(args):
    from .patterns import enumerate_patterns, signed_pattern_count
    doc = {"k": list(args.k), "signedCount": signed_pattern_count(args.k),
           "patterns": [p.to_json()
                        for p in enumerate_patterns(args.k)[:args.limit]]}
    return json.dumps(doc, sort_keys=True)


def _emit_ssyt(args):
    from .patterns import enumerate_patterns, is_classic, pattern_to_tableau
    tableaux = [[list(r) for r in pattern_to_tableau(p)]
                for p in enumerate_patterns(args.k) if is_classic(p)]
    return json.dumps({"k": list(args.k), "tableaux": tableaux[:args.limit]},
                      sort_keys=True)


def _emit_paths(args):
    from .paths import enumerate_families, family_to_svg
    families = list(enumerate_families(args.k, args.variant))
    if args.format == "svg":
        if not 0 <= args.index < len(families):
            raise UsageError("--index out of range (%d families)"
                             % len(families))
        return family_to_svg(families[args.index])
    doc = {"k": list(args.k), "variant": args.variant,
           "families": [f.to_json() for f in families[:args.limit]]}
    return json.dumps(doc, sort_keys=True)


# artifact -> (the formats it writes, json among them; its emitter)
EMITS = {
    "tree": (("json", "dot"), _emit_tree),
    "pattern": (("json",), _emit_pattern),
    "ssyt": (("json",), _emit_ssyt),
    "paths": (("json", "svg"), _emit_paths),
}


def cmd_emit(args):
    formats, emitter = EMITS[args.artifact]
    if args.format not in formats:
        raise UsageError("emit %s writes only %s, not %s"
                         % (args.artifact, " or ".join(formats), args.format))
    if args.artifact != "tree" and args.k is None:
        raise UsageError("emit %s needs --k" % args.artifact)
    print(emitter(args))
    return 0


# --- convert -----------------------------------------------------------------


def _read_json(path):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as err:
        raise UsageError("cannot read input: %s" % err)


def _pattern(data):
    from .patterns import make_pattern
    return make_pattern([tuple(r) for r in data["rows"]])


def _pattern_to_ssyt(data):
    from .patterns import pattern_to_tableau
    pat = _pattern(data)
    return {"rows": [list(r) for r in pattern_to_tableau(pat)],
            "n": pat.order}


def _pattern_to_treeseq(data):
    from .patterns import pattern_to_chain
    seq, chain = pattern_to_chain(_pattern(data))
    return {"trees": seq.to_json(), "chain": chain.to_json()}


def _ssyt_to_pattern(data):
    from .patterns import tableau_to_pattern
    return tableau_to_pattern([tuple(r) for r in data["rows"]],
                              data["n"]).to_json()


def _treeseq_to_pattern(data):
    from .labelings import GTTreeSequence
    from .patterns import chain_to_pattern
    chain = GTTreeSequence(tuple(tuple(l) for l in data["levels"]),
                           tuple(tuple(p) for p in data.get("inversions", ())),
                           data.get("sign", 1))
    return chain_to_pattern(chain).to_json()


CONVERSIONS = {
    "pattern-to-ssyt": _pattern_to_ssyt,
    "ssyt-to-pattern": _ssyt_to_pattern,
    "pattern-to-treeseq": _pattern_to_treeseq,
    "treeseq-to-pattern": _treeseq_to_pattern,
}


def cmd_convert(args):
    data = _read_json(args.input)
    try:
        out = CONVERSIONS[args.direction](data)
    except (KeyError, TypeError) as err:
        raise UsageError("malformed input document: %s" % err)
    print(json.dumps(out, sort_keys=True))
    return 0


# --- apply -------------------------------------------------------------------

def _product_function():
    from .operators import product_formula
    return product_formula


def _patterns_function():
    from .patterns import PATTERN_FAMILY
    return PATTERN_FAMILY


def _alpha_function():
    from .monotone import EXTENSIONS
    return EXTENSIONS[1]


# function name -> its lattice function, loaded when applied: a counted
# family as itself, so that apply_at sweeps every point it reaches
FUNCTIONS = {
    "product": _product_function,
    "patterns": _patterns_function,
    "alpha": _alpha_function,
}


def cmd_apply(args):
    from .operators import parse_operator
    f = FUNCTIONS[args.function]()
    print(parse_operator(args.operator, len(args.at)).apply(f, args.at))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gtseq",
        description="Signed enumeration of tree-sequence labelings, patterns,"
                    " monotone triangle extensions, and lattice paths.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="evaluate one count at a point")
    p.add_argument("what", choices=COUNTS)
    p.add_argument("--k", type=parse_k, required=True,
                   help="comma-separated integers, like 0,2;"
                        " write --k=-1,0,2 when the first entry is negative")
    p.add_argument("--n", type=int)
    p.add_argument("--sequence", default="basic",
                   help="basic | swap:i,j | leafchain:i | random (gtseq only)")
    p.add_argument("--seed", type=int)
    p.add_argument("--variant", default="classic",
                   choices=("classic", "general", "nonintersecting"),
                   help="paths only")
    p.set_defaults(fn=cmd_count)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", help="all, or a name in gtseq.verify.SUITES")
    p.add_argument("--n", type=at_least(1), help="cap on the order")
    p.add_argument("--grid", type=parse_grid, help="like -2..2")
    p.add_argument("--trees", type=at_least(1),
                   help="random sequences per order")
    p.add_argument("--seed", type=int)
    p.add_argument("--workers", type=at_least(1),
                   help="processes to run the checks on (default: the CPUs"
                        " this process may use); the report is the same at"
                        " any count")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("emit", help="print an artifact")
    p.add_argument("artifact", choices=EMITS)
    p.add_argument("--format", default="json",
                   help="; ".join("%s: %s" % (name, "|".join(formats))
                                  for name, (formats, _) in EMITS.items()))
    p.add_argument("--n", type=int, default=3, help="tree order")
    p.add_argument("--kind", default="basic", choices=TREE_KINDS)
    p.add_argument("--seed", type=int)
    p.add_argument("--k", type=parse_k)
    p.add_argument("--variant", default="classic",
                   choices=("classic", "general"))
    p.add_argument("--limit", type=at_least(0))
    p.add_argument("--index", type=int, default=0,
                   help="which family the svg shows")
    p.set_defaults(fn=cmd_emit)

    p = sub.add_parser("convert", help="convert between artifact encodings")
    p.add_argument("direction", choices=CONVERSIONS)
    p.add_argument("--input", default="-", help="JSON file, - for stdin")
    p.set_defaults(fn=cmd_convert)

    p = sub.add_parser("apply", help="apply an operator expression")
    p.add_argument("--operator", required=True,
                   help="like 'D^3 k1', 'V(k1,k2)', 'e(2; D k1, D k2)',"
                        " 'E^-1 k1 E k2' (juxtaposition composes)")
    p.add_argument("--function", default="product", choices=FUNCTIONS)
    p.add_argument("--at", type=parse_k, required=True,
                   help="evaluation point; --at=-1,0 form for negatives")
    p.set_defaults(fn=cmd_apply)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as err:
        print("gtseq: %s" % err, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

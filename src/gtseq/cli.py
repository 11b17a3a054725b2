"""gtseq command line: counts, verification sweeps, artifacts, conversions.

Subcommands:

  count    product | det | gtseq | patterns | alpha | paths, at one point
  verify   one named suite or "all"; prints a JSON report, exit 1 on
           violations
  emit     tree (json or dot), pattern, ssyt, paths (json or svg)
  convert  pattern-to-ssyt, ssyt-to-pattern, pattern-to-treeseq,
           treeseq-to-pattern, reading JSON from a file or standard input
  apply    a difference/shift operator expression to a named function at
           one point

Configuration: the environment variable GTSEQ_CONFIG may point to a file of
``key = value`` lines (``#`` comments allowed).  Recognized keys: grid (like
``-2..2``), nMax, trees, seed, workers.  Values from the file are soft
defaults that suites without the matching knob ignore; command line flags
override the file.  All numbers are exact integers and reports are printed
with sorted keys, so identical flags and seeds imply identical output
except for the wallTime field.
"""

import argparse
import inspect
import json
import os
import re
import sys

from .labelings import GTTreeSequence, signed_count
from .monotone import alpha, alpha_function
from .operators import (OperatorParseError, binomial_determinant,
                        lattice_function, parse_operator, product_formula)
from .paths import count_nonintersecting, enumerate_families, family_to_svg, \
    signed_families
from .patterns import (chain_to_pattern, enumerate_patterns, is_classic,
                       make_pattern, pattern_to_chain, pattern_to_tableau,
                       signed_pattern_count, tableau_to_pattern)
from .trees import (NTree, basic_tree, canonical_sequence, random_sequence,
                    random_tree)
from .verify import SUITES, run_all, run_suite

CONFIG_KEYS = ("grid", "nMax", "trees", "seed", "workers")


class UsageError(Exception):
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


def load_config():
    path = os.environ.get("GTSEQ_CONFIG")
    if not path:
        return {}
    config = {}
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise UsageError("%s:%d: expected key = value"
                                     % (path, lineno))
                key, value = (p.strip() for p in line.split("=", 1))
                if key not in CONFIG_KEYS:
                    raise UsageError("%s:%d: unknown key %r" % (path, lineno,
                                                                key))
                config[key] = value
    except OSError as err:
        raise UsageError("cannot read config: %s" % err)
    return config


def _config_int(config, key):
    if key not in config:
        return None
    try:
        return int(config[key])
    except ValueError:
        raise UsageError("config key %s must be an integer" % key)


def _config_grid(config):
    if "grid" not in config:
        return None
    try:
        return parse_grid(config["grid"])
    except argparse.ArgumentTypeError as err:
        raise UsageError("config key grid: %s" % err)


def _sequence_for(args, n):
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


def cmd_count(args, config):
    k = args.k
    if args.what == "product":
        print(product_formula(k))
    elif args.what == "det":
        print(binomial_determinant(k))
    elif args.what == "patterns":
        print(signed_pattern_count(k))
    elif args.what == "alpha":
        n = args.n if args.n is not None else len(k)
        if n != len(k):
            raise UsageError("--n disagrees with the length of --k")
        print(alpha(n, k))
    elif args.what == "gtseq":
        seq = _sequence_for(args, len(k))
        print(signed_count(seq, k))
    elif args.what == "paths":
        if args.variant == "nonintersecting":
            print(count_nonintersecting(k))
        else:
            print(signed_families(k, args.variant))
    return 0


def _grid_bound(grid, flag):
    lo, hi = grid
    if lo != -hi:
        raise UsageError("%s must be symmetric around 0 for this suite" % flag)
    return hi


def cmd_verify(args, config):
    name = args.suite
    # Explicit flags are binding; values picked up from the config file are
    # soft defaults that suites without the matching knob simply ignore.
    grid = args.grid if args.grid is not None else _config_grid(config)
    n_cap = args.n if args.n is not None else _config_int(config, "nMax")
    trees = args.trees if args.trees is not None else _config_int(config,
                                                                  "trees")
    seed = args.seed if args.seed is not None else _config_int(config, "seed")
    workers = args.workers if args.workers is not None \
        else _config_int(config, "workers")

    if name == "all":
        if any(v is not None for v in (args.grid, args.n, args.trees,
                                       args.seed)):
            raise UsageError("verify all runs at the fixed default bounds;"
                             " only --workers applies")
        report = run_all(workers=workers)
    else:
        fn = SUITES[name]
        accepted = inspect.signature(fn).parameters
        kwargs = {}

        def put(value, flag, *names):
            if value is None:
                return
            for candidate in names:
                if candidate in accepted:
                    kwargs[candidate] = value
                    return
            if getattr(args, flag) is not None:
                raise UsageError("suite %s does not take --%s" % (name, flag))

        put(n_cap, "n", "n_max", "n")
        bound_knobs = ("bound", "bound3", "general_bound")
        if grid is not None and any(b in accepted for b in bound_knobs):
            grid = _grid_bound(grid, "--grid" if args.grid is not None
                               else "config key grid")
        put(grid, "grid", *bound_knobs)
        put(trees, "trees", "trees")
        put(seed, "seed", "seed")
        if args.workers is not None:
            raise UsageError("--workers only applies to verify all")
        report = run_suite(name, **kwargs)

    print(json.dumps(report, sort_keys=True, indent=2))
    return 0 if not report["violations"] else 1


def _emit_tree(args):
    if args.kind == "basic":
        tree = basic_tree(args.n)
    elif args.kind == "random":
        if args.seed is None:
            raise UsageError("emit tree --kind random needs --seed")
        import random as _random
        tree = random_tree(args.n, _random.Random(args.seed))
    else:
        raise UsageError("unknown tree kind %r" % args.kind)
    if args.format == "dot":
        print(tree.to_dot())
    else:
        print(json.dumps(tree.to_json(), sort_keys=True))


def cmd_emit(args, config):
    if args.artifact == "tree":
        _emit_tree(args)
        return 0
    k = args.k
    if k is None:
        raise UsageError("emit %s needs --k" % args.artifact)
    if args.artifact == "pattern":
        pats = enumerate_patterns(k)
        if args.limit is not None:
            pats = pats[:args.limit]
        doc = {"k": list(k), "signedCount": signed_pattern_count(k),
               "patterns": [p.to_json() for p in pats]}
        print(json.dumps(doc, sort_keys=True))
    elif args.artifact == "ssyt":
        tableaux = []
        for p in enumerate_patterns(k):
            if is_classic(p):
                tableaux.append([list(r) for r in pattern_to_tableau(p)])
        if args.limit is not None:
            tableaux = tableaux[:args.limit]
        print(json.dumps({"k": list(k), "tableaux": tableaux}, sort_keys=True))
    elif args.artifact == "paths":
        families = list(enumerate_families(k, args.variant))
        if args.format == "svg":
            idx = args.index
            if not 0 <= idx < len(families):
                raise UsageError("--index out of range (%d families)"
                                 % len(families))
            print(family_to_svg(families[idx]))
        else:
            if args.limit is not None:
                families = families[:args.limit]
            doc = {"k": list(k), "variant": args.variant,
                   "families": [f.to_json() for f in families]}
            print(json.dumps(doc, sort_keys=True))
    return 0


def _read_json(path):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as err:
        raise UsageError("cannot read input: %s" % err)


def cmd_convert(args, config):
    data = _read_json(args.input)
    try:
        if args.direction == "pattern-to-ssyt":
            pat = make_pattern([tuple(r) for r in data["rows"]])
            tab = pattern_to_tableau(pat)
            out = {"rows": [list(r) for r in tab], "n": pat.order}
        elif args.direction == "ssyt-to-pattern":
            pat = tableau_to_pattern([tuple(r) for r in data["rows"]],
                                     data["n"])
            out = pat.to_json()
        elif args.direction == "pattern-to-treeseq":
            pat = make_pattern([tuple(r) for r in data["rows"]])
            seq, chain = pattern_to_chain(pat)
            out = {"trees": seq.to_json(), "chain": chain.to_json()}
        elif args.direction == "treeseq-to-pattern":
            chain = GTTreeSequence(
                tuple(tuple(l) for l in data["levels"]),
                tuple(tuple(p) for p in data.get("inversions", ())),
                data.get("sign", 1))
            out = chain_to_pattern(chain).to_json()
        else:
            raise UsageError("unknown direction %r" % args.direction)
    except (KeyError, TypeError) as err:
        raise UsageError("malformed input document: %s" % err)
    except ValueError as err:
        raise UsageError(str(err))
    print(json.dumps(out, sort_keys=True))
    return 0


def cmd_apply(args, config):
    k = args.at
    n = len(k)
    names = {"product": product_formula,
             "patterns": signed_pattern_count}
    if args.function == "alpha":
        f = alpha_function(n)
    elif args.function in names:
        f = lattice_function(n, names[args.function])
    else:
        raise UsageError("unknown function %r" % args.function)
    try:
        op = parse_operator(args.operator, n)
    except OperatorParseError as err:
        raise UsageError(str(err))
    print(op.apply(f, k))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gtseq",
        description="Signed enumeration of tree-sequence labelings, patterns,"
                    " monotone triangle extensions, and lattice paths.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="evaluate one count at a point")
    p.add_argument("what", choices=("product", "det", "gtseq", "patterns",
                                    "alpha", "paths"))
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
    p.add_argument("suite", choices=tuple(SUITES) + ("all",))
    p.add_argument("--n", type=int, help="cap on the order")
    p.add_argument("--grid", type=parse_grid, help="like -2..2")
    p.add_argument("--trees", type=int, help="random sequences per order")
    p.add_argument("--seed", type=int)
    p.add_argument("--workers", type=int, help="verify all only")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("emit", help="print an artifact")
    p.add_argument("artifact", choices=("tree", "pattern", "ssyt", "paths"))
    p.add_argument("--format", default="json",
                   help="tree: json|dot; paths: json|svg")
    p.add_argument("--n", type=int, default=3, help="tree order")
    p.add_argument("--kind", default="basic", help="tree: basic|random")
    p.add_argument("--seed", type=int)
    p.add_argument("--k", type=parse_k)
    p.add_argument("--variant", default="classic",
                   choices=("classic", "general"))
    p.add_argument("--limit", type=int)
    p.add_argument("--index", type=int, default=0,
                   help="which family the svg shows")
    p.set_defaults(fn=cmd_emit)

    p = sub.add_parser("convert", help="convert between artifact encodings")
    p.add_argument("direction", choices=("pattern-to-ssyt", "ssyt-to-pattern",
                                         "pattern-to-treeseq",
                                         "treeseq-to-pattern"))
    p.add_argument("--input", default="-", help="JSON file, - for stdin")
    p.set_defaults(fn=cmd_convert)

    p = sub.add_parser("apply", help="apply an operator expression")
    p.add_argument("--operator", required=True,
                   help="like 'D^3 k1', 'V(k1,k2)', 'e(2; D k1, D k2)',"
                        " 'E^-1 k1 E k2' (juxtaposition composes)")
    p.add_argument("--function", default="product",
                   help="product | patterns | alpha")
    p.add_argument("--at", type=parse_k, required=True,
                   help="evaluation point; --at=-1,0 form for negatives")
    p.set_defaults(fn=cmd_apply)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config()
        return args.fn(args, config)
    except UsageError as err:
        print("gtseq: %s" % err, file=sys.stderr)
        return 2
    except ValueError as err:
        print("gtseq: %s" % err, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

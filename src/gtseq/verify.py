"""Verification suites: sweep identities over bounded grids, report violations.

A suite is a body registered with ``@suite(name)``.  Every parameter of the
body has a default.  A body checks its points through one or more units:
generators that yield once per checked point, that point's violation
records, a list or tuple that is empty when the point passes.  A record is
a JSON-ready dict naming the offending input and both sides of the failed
comparison; a unit builds it only on the failing branch, so a passing point
costs one resume.  A call that checks several points at once yields once
per point it covers, through ``_spread``.  A plain body is itself the
suite's one unit.  A body registered with ``split=True`` instead yields its
units as ``(size, points)`` pairs, where ``points`` is a unit not yet
started and ``size`` estimates its work; the units of one body share no
state that one of them changes, so they can run in any order and in any
process.  The suites split this way are theorem-main (its determinant half
and its tree half, each per order n), independence and shift-antisym (per
n: the references at one n serve every sequence), and prop-first,
prop-second and rho-zero (per n and tree sequence).  Those three evaluate
every pinning, or every distinct-label filter, of one level of a tree
sequence in one walk (``labelings.PinnedFamily``, ``FilteredFamily``), then
yield per pinning, then per point; prop-first's reference differences come
from one subset transform of the swept corner values (``_differences``).

The decorator returns the suite function, which ``SUITES[name]``, the
module-level ``suite_*`` name and ``run_suite(name)`` all reach, and which
keeps the body's signature.  Called with any of the body's parameters, it
binds the defaults, runs the units and returns the report: the suite name,
the parameters under camelCase names (``n_max`` becomes ``nMax``), the
number of points checked, the violations in the order the units yield them,
and the wall time.  A suite passes when its violation list is empty;
parameters at which the body checks no point raise ValueError.  To add a
suite, write one such body under ``@suite``: the command line maps its flags
onto the signature's parameters.  ``run_all`` runs every suite at its
default parameters, which is the full check behind the command line's
``verify all``.

One runner (``_run``) serves both a suite function and ``run_all``.  With
one worker, one unit in all, or one unit larger than all the others
together, it runs the units in order in the calling process and imports no
pool module.  Otherwise it forks a pool of ``min(workers, units)``
processes and submits the largest units first (a plain body's unit counts
as larger than any split one, so the suites that cannot be split start
first, and never outweigh the rest of ``run_all``).  It puts each unit's points and violations
back in body order, so a report is the same at any worker count, apart
from its times.  The suite functions take the worker count as the keyword
``workers``, which is not a suite parameter and stays out of the report;
it defaults to 1, so a library call forks nothing.  In ``run_all``, whose
units all share one pool, a suite report's wall time is the time its units
ran, summed.

Default parameters are chosen so the whole chain finishes in about half a
second on one core while still covering every identity the library claims:
the signed main count against the product formula over seeded random tree
sequences, the determinant form, shift antisymmetry and sequence
independence, the difference-operator annihilators, the pinned-level
propositions, the four monotone triangle extensions against both operator
products, the refined count routes and their linear system, the lattice
path models, the interval identities, and the four-part decomposition.
"""

import functools
import inspect
import math
import time
from itertools import combinations, product
from operator import sub

from .intervals import (containment_dichotomy, left_anchored_identity,
                        right_anchored_dichotomy, right_anchored_identity)
from .labelings import FilteredFamily, PinnedFamily, SequenceCounter
from .monotone import (alpha, alpha_function, alpha_operator,
                       check_alpha_property, doubly_refined_asm,
                       doubly_refined_identity_residuals,
                       enumerate_extension, extension_signed_count,
                       extension_three_relaxed, linear_system_residuals,
                       refined_asm)
from .operators import (LatticeFunction, apply_at, binomial_determinants,
                        delta, elementary_symmetric, product_formula,
                        small_delta)
from .paths import count_nonintersecting, signed_families
from .patterns import (shift_decomposition_counts, signed_pattern_count,
                       swap_shift)
from .trees import basic_sequence, random_sequence


def _cube(bound, n):
    return product(range(-bound, bound + 1), repeat=n)


def _seeded_sequences(n, trees, seed):
    return [(seed + 13 * n + t, random_sequence(n, seed + 13 * n + t))
            for t in range(trees)]


def _sequences(n, trees, seed):
    """The basic sequence of order n, as seed 0, then the seeded ones."""
    return [(0, basic_sequence(n))] + _seeded_sequences(n, trees, seed)


SUITES = {}
_PLANS = {}     # suite name -> (name, bound arguments, units) of a call


def _camel(name):
    head, *rest = name.split("_")
    return head + "".join(part.capitalize() for part in rest)


def suite(name, split=False):
    """Register a body as the suite ``name`` (see the module docstring) and
    return the suite function that runs it."""
    def register(body):
        signature = inspect.signature(body)

        def plan(*args, **kwargs):
            params = signature.bind(*args, **kwargs)
            params.apply_defaults()
            arguments = params.arguments
            units = (list(body(**arguments)) if split
                     else [(math.inf, body(**arguments))])
            return name, arguments, units

        @functools.wraps(body)
        def run(*args, workers=1, **kwargs):
            started = time.perf_counter()
            (report,) = _run([plan(*args, **kwargs)], workers)
            report["wallTime"] = round(time.perf_counter() - started, 3)
            return report

        SUITES[name] = run
        _PLANS[name] = plan
        return run
    return register


def _check(points):
    """(points checked, violations, seconds) of one unit, run here."""
    started = time.perf_counter()
    count = 0
    violations = []
    for count, records in enumerate(points, 1):
        if records:
            violations += records
    return count, violations, time.perf_counter() - started


_pool_units = ()    # in a pool worker: the units of the run that forked it


def _adopt(units):
    global _pool_units
    _pool_units = units


def _check_unit(i):
    return _check(_pool_units[i][1])


def _check_all(units, workers):
    """``_check`` of each unit, in order: here when one process suffices
    or the largest unit's size exceeds the others' combined, else on a fork
    pool of at most ``workers`` processes that takes the largest units
    first."""
    processes = min(workers, len(units))
    sizes = sorted(size for size, _ in units)
    # a unit larger than all the others together would keep the pool
    # waiting on it, so the pool's fixed cost buys nothing
    if processes < 2 or sizes[-1] > sum(sizes[:-1]):
        return [_check(points) for _, points in units]
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context
    # Forked workers inherit the units through the initializer's arguments,
    # which fork does not pickle, and the module state of this process, so
    # memos and patched names carry over.  gtseq starts no thread of its
    # own, which keeps the fork safe.
    with ProcessPoolExecutor(processes, mp_context=get_context("fork"),
                             initializer=_adopt,
                             initargs=(units,)) as pool:
        order = sorted(range(len(units)), key=lambda i: -units[i][0])
        futures = {i: pool.submit(_check_unit, i) for i in order}
        return [futures[i].result() for i in range(len(units))]


def _run(plans, workers):
    """The reports of the planned suite calls ``[(name, bound arguments,
    units)]``, all their units run through one ``_check_all``; each report's
    wall time is its units' time, summed."""
    results = iter(_check_all(
        [unit for _, _, units in plans for unit in units], workers))
    reports = []
    for name, arguments, units in plans:
        mine = [next(results) for _ in units]
        points = sum(count for count, _, _ in mine)
        if not points:
            raise ValueError("suite %s checks no point at %s" % (
                name, ", ".join("%s=%r" % item for item in arguments.items())))
        reports.append({
            "suite": name,
            "parameters": {_camel(key): value
                           for key, value in arguments.items()},
            "pointsChecked": points,
            "violations": [v for _, violations, _ in mine for v in violations],
            "wallTime": round(sum(seconds for _, _, seconds in mine), 3)})
    return reports


def _spread(count, records):
    """The yields of one call that checked ``count`` points at once: the
    call's violation records at its first point, none at the others."""
    for i in range(count):
        yield () if i else records


def _determinants(n, bound):
    dets = binomial_determinants([range(-bound, bound + 1)] * n)
    for k, lhs in zip(_cube(bound, n), dets):
        rhs = product_formula(k)
        yield () if lhs == rhs else [{"check": "determinant", "n": n,
                                      "k": list(k), "lhs": lhs, "rhs": rhs}]


def _tree_sequences(n, bound, trees, seed):
    grid = list(_cube(bound, n))
    wanted = list(map(product_formula, grid))
    for s, seq in _seeded_sequences(n, trees, seed):
        swept = SequenceCounter(seq).sweep(grid)
        for k, lhs, rhs in zip(grid, swept, wanted):
            yield () if lhs == rhs else [{"check": "treeSequence", "n": n,
                                          "seed": s, "k": list(k),
                                          "lhs": lhs, "rhs": rhs}]


@suite("theorem-main", split=True)
def suite_theorem_main(n_max=4, bound=2, trees=5, seed=7,
                       det_n_max=5, det_bound=3):
    """Signed chain count == product formula == binomial determinant."""
    for n in range(1, det_n_max + 1):
        yield (2 * det_bound + 1) ** n, _determinants(n, det_bound)
    for n in range(1, n_max + 1):
        yield (trees * (2 * bound + 1) ** n,
               _tree_sequences(n, bound, trees, seed))


def _independence(n, bound, trees, seed):
    grid = list(_cube(bound, n))
    swept = [(s, SequenceCounter(seq).sweep(grid))
             for s, seq in _seeded_sequences(n, trees, seed)]
    for i, k in enumerate(grid):
        reference = signed_pattern_count(k)
        yield [{"n": n, "seed": s, "k": list(k),
                "lhs": got, "rhs": reference}
               for s, values in swept
               if (got := values[i]) != reference]


@suite("independence", split=True)
def suite_independence(n_max=4, bound=2, trees=5, seed=7):
    """Every tree sequence yields the same count as the path-tree stack."""
    for n in range(1, n_max + 1):
        yield (trees * (2 * bound + 1) ** n,
               _independence(n, bound, trees, seed))


def _shift_antisym(n, bound):
    functions = (("product", product_formula),
                 ("patterns", signed_pattern_count))
    for k in _cube(bound, n):
        at_k = [(name, f, f(k)) for name, f in functions]
        for i, j in combinations(range(1, n + 1), 2):
            kp = swap_shift(k, i, j)
            yield [{"function": name, "n": n, "k": list(k), "i": i, "j": j,
                    "lhs": a, "rhs": -b}
                   for name, f, a in at_k if a + (b := f(kp)) != 0]


@suite("shift-antisym", split=True)
def suite_shift_antisym(n_max=4, bound=2):
    """f(k) = -f(k') under (k_i,k_j) -> (k_j+j-i, k_i+i-j), both counts."""
    for n in range(2, n_max + 1):
        yield n * (n - 1) // 2 * (2 * bound + 1) ** n, _shift_antisym(n, bound)


def _annihilated(n, bound, ops):
    """Each (fields, op) of ops applied over the cube to both grid counts,
    one call per operator and count; yields per point the records of the
    operators that do not kill a count there."""
    grid = list(_cube(bound, n))
    functions = (("signedCount", LatticeFunction(n, signed_pattern_count)),
                 ("alpha", alpha_function(n)))
    swept = [(fname, fields, apply_at(op, f, grid))
             for fname, f in functions for fields, op in ops]
    for i, k in enumerate(grid):
        yield [{"function": fname, "n": n, **fields, "k": list(k),
                "value": values[i]}
               for fname, fields, values in swept if values[i] != 0]


@suite("delta-n")
def suite_delta_n(n_max=4, bound=2):
    """The n-th forward difference in any coordinate kills both counts."""
    for n in range(1, n_max + 1):
        yield from _annihilated(n, bound, [({"coordinate": c + 1},
                                            delta(n, c) ** n)
                                           for c in range(n)])


@suite("e-rho")
def suite_e_rho(n_max=4, bound=2):
    """Elementary symmetric polynomials in the differences annihilate."""
    for n in range(1, n_max + 1):
        ops = []
        for rho in range(1, n + 1):
            ops.append(({"family": "forward", "rho": rho},
                        elementary_symmetric(rho, [delta(n, c)
                                                   for c in range(n)])))
            ops.append(({"family": "backward", "rho": rho},
                        elementary_symmetric(rho, [small_delta(n, c)
                                                   for c in range(n)])))
        yield from _annihilated(n, bound, ops)


def _differences(values):
    """The forward differences at k in every coordinate set R, listed by
    the bitmask of R, given the values f(k + 1_S) listed by the bitmask of
    S: one subset (Moebius) transform, in place, turns the entry of each R
    into the sum over the subsets S of R of (-1)^(|R| - |S|) f(k + 1_S)."""
    size = len(values)
    half = 1
    while half < size:
        # the masks holding bit ``half`` take their partner without it
        for low in range(0, size, 2 * half):
            high = low + half
            values[high:high + half] = map(sub, values[high:high + half],
                                           values[low:high])
        half *= 2
    return values


def _subsets(m):
    """The non-empty subsets of 1..m, by size, then lexicographically."""
    return [R for size in range(1, m + 1)
            for R in combinations(range(1, m + 1), size)]


def _prop_first(n, bound, s, seq):
    counter = SequenceCounter(seq)
    # the corner box [-bound, bound + 1]^n, swept once: the corner values
    # are read from its row-major values, and the pinned and filtered
    # families below read the tables it fills
    swept = counter.sweep(product(range(-bound, bound + 2), repeat=n))
    # bit i of a mask steps coordinate i + 1, (2 bound + 2)^(n - 1 - i)
    # entries of the box
    strides = [(2 * bound + 2) ** (n - 1 - i) for i in range(n)]
    offsets = [sum(stride for i, stride in enumerate(strides) if mask >> i & 1)
               for mask in range(1 << n)]
    sets = _subsets(n)
    pinned = PinnedFamily(seq, n, sets, mode="vertex", plain=counter)
    rows = []
    for k in _cube(bound, n):
        at = sum((x + bound) * stride for x, stride in zip(k, strides))
        rows.append((k, _differences([swept[at + offset]
                                      for offset in offsets]), pinned(k)))
    for i, R in enumerate(sets):
        mask = sum(1 << (c - 1) for c in R)
        for k, differences, values in rows:
            got, want = values[i], differences[mask]
            yield () if got == want else [
                {"check": "difference", "n": n, "seed": s,
                 "R": list(R), "k": list(k), "lhs": got, "rhs": want}]
    for level in range(3, n + 1):
        pairs = list(combinations(range(1, level), 2))
        filtered = FilteredFamily(seq, level, [[pair] for pair in pairs],
                                  plain=counter)
        # the empty difference is the count itself
        columns = [(k, differences[0], filtered(k))
                   for k, differences, _ in rows]
        for i, pair in enumerate(pairs):
            for k, want, values in columns:
                got = values[i]
                yield () if got == want else [
                    {"check": "distinctFilter", "n": n, "seed": s,
                     "level": level, "pair": list(pair),
                     "k": list(k), "lhs": got, "rhs": want}]


@suite("prop-first", split=True)
def suite_prop_first(n_max=4, bound=1, trees=2, seed=11):
    """Top-level vertex pinning computes iterated forward differences.

    Also sweeps the distinct-label filter, which must not change the count.
    """
    for n in range(2, n_max + 1):
        for s, seq in _sequences(n, trees, seed):
            yield (2 ** n * (2 * bound + 1) ** n,
                   _prop_first(n, bound, s, seq))


def _prop_second(n, bound, s, seq):
    plain = SequenceCounter(seq)
    cube = list(_cube(bound, n))
    for m in range(3, n + 1):
        sets = _subsets(m - 1)
        by_edge = PinnedFamily(seq, m, sets, mode="edge", plain=plain)
        by_vertex = PinnedFamily(seq, m - 1, sets, mode="vertex", plain=plain)
        rows = [(k, by_edge(k), by_vertex(k)) for k in cube]
        for i, R in enumerate(sets):
            for k, edge_values, vertex_values in rows:
                a, b = edge_values[i], vertex_values[i]
                yield () if a == b else [
                    {"n": n, "seed": s, "m": m, "R": list(R),
                     "k": list(k), "lhs": a, "rhs": b}]


@suite("prop-second", split=True)
def suite_prop_second(n_max=4, bound=1, trees=2, seed=11):
    """Edge pinning at a level equals vertex pinning one level down."""
    for n in range(3, n_max + 1):
        for s, seq in _sequences(n, trees, seed):
            yield (2 ** n * (2 * bound + 1) ** n,
                   _prop_second(n, bound, s, seq))


def _rho_zero(n, bound, s, seq):
    plain = SequenceCounter(seq)
    cube = list(_cube(bound, n))
    for m in range(2, n + 1):
        # the subsets come by size, so each rho sums one slice of them
        family = PinnedFamily(seq, m, _subsets(m), mode="vertex", plain=plain)
        rows = [(k, family(k)) for k in cube]
        stop = 0
        for rho in range(1, m + 1):
            start, stop = stop, stop + math.comb(m, rho)
            for k, values in rows:
                value = sum(values[start:stop])
                yield () if value == 0 else [
                    {"n": n, "seed": s, "m": m, "rho": rho,
                     "k": list(k), "value": value}]


@suite("rho-zero", split=True)
def suite_rho_zero(n_max=4, bound=1, trees=1, seed=11):
    """Summing vertex pinnings over all subsets of one size gives zero."""
    for n in range(2, n_max + 1):
        for s, seq in _sequences(n, trees, seed):
            yield n * (2 * bound + 1) ** n, _rho_zero(n, bound, s, seq)


@suite("extensions-agree")
def suite_extensions_agree(bound3=2, lo4=0, hi4=3):
    """alpha, the four extensions, and both operator products all agree.

    Variant 1's counter is alpha itself, so variant 1 is checked through the
    signed sum of its object stream instead, on the n=3 grid only; the n=4
    stream would add about half the suite's time again.  Both operator
    forms are built once per n and applied to one shared product-formula
    lattice function.
    """
    for n in range(1, 5):
        got, want = alpha(n, tuple(range(1, n + 1))), _asm_count(n)
        yield () if got == want else [{"check": "staircase", "n": n,
                                       "lhs": got, "rhs": want}]
    grids = [(3, list(_cube(bound3, 3))),
             (4, list(product(range(lo4, hi4 + 1), repeat=4)))]
    for n, grid in grids:
        # (the fields naming a route, the route as a function of k)
        routes = [({"check": "extension", "variant": variant},
                   functools.partial(extension_signed_count, variant, n))
                  for variant in (2, 3, 4)]
        if n == 3:
            routes.insert(0, ({"check": "extension", "variant": 1},
                              lambda k: sum(obj.sign for obj in
                                            enumerate_extension(1, 3, k))))
        routes.append(({"check": "extensionThreeRelaxed"},
                       functools.partial(extension_three_relaxed, n)))
        product_fn = LatticeFunction(n, product_formula)
        routes += [({"check": "operator", "form": form},
                    dict(zip(grid, apply_at(alpha_operator(n, form),
                                            product_fn, grid))).__getitem__)
                   for form in ("threeTerm", "deltaDelta")]
        for k in grid:
            base = alpha(n, k)
            yield [dict(fields, n=n, k=list(k), lhs=got, rhs=base)
                   for fields, route in routes if (got := route(k)) != base]


@suite("alpha-props")
def suite_alpha_props(n_max=4, bound=2):
    """The four listed alpha properties, pointwise on the cube."""
    for n in range(1, n_max + 1):
        for prop in ("P1", "P2", "P3", "P4"):
            if prop == "P1" and n < 2:
                continue
            report = check_alpha_property(prop, n, _cube(bound, n))
            yield from _spread(report["pointsChecked"],
                               [dict(v, property=prop, n=n)
                                for v in report["violations"]])


def _asm_count(n):
    """A_n = prod_{j<n} (3j+1)!/(n+j)!, the n x n alternating sign matrices."""
    return (math.prod(math.factorial(3 * j + 1) for j in range(n))
            // math.prod(math.factorial(n + j) for j in range(n)))


def _refined_asm_counts(n):
    """The refined counts A(n, i) = C(n+i-2, i-1) (2n-i-1)!/(n-i)!
    prod_{j<n-1} (3j+1)!/(n+j)! for i = 1..n (Zeilberger 1996)."""
    top = math.prod(math.factorial(3 * j + 1) for j in range(n - 1))
    bottom = math.prod(math.factorial(n + j) for j in range(n - 1))
    return tuple(math.comb(n + i - 2, i - 1) * math.factorial(2 * n - i - 1)
                 * top // (math.factorial(n - i) * bottom)
                 for i in range(1, n + 1))


FROZEN_DOUBLY = {
    2: ((0, 1), (1, 0)),
    3: ((0, 1, 1), (1, 1, 1), (1, 1, 0)),
    4: ((0, 2, 3, 2), (2, 4, 5, 3), (3, 5, 4, 2), (2, 3, 2, 0)),
}


@suite("refined")
def suite_refined(n_max=4):
    """Refined count routes, the closed form, linear system, symmetry."""
    for n in range(1, n_max + 1):
        try:
            vec = refined_asm(n).vector
        except AssertionError as err:
            yield [{"check": "routes", "n": n, "error": str(err)}]
            continue
        records = []
        want = _refined_asm_counts(n)
        if vec != want:
            records.append({"check": "closedForm", "n": n, "lhs": list(vec),
                            "rhs": list(want)})
        if vec != tuple(reversed(vec)):
            records.append({"check": "symmetry", "n": n, "lhs": list(vec)})
        yield records
        residuals = linear_system_residuals(n, vec)
        yield from _spread(len(residuals), [
            {"check": "linearSystem", "n": n, "residuals": residuals}]
            if any(r != 0 for r in residuals) else ())


@suite("doubly-refined")
def suite_doubly_refined(n_max=4):
    """Doubly refined routes, frozen matrices, and the difference identity."""
    for n in range(1, n_max + 1):
        try:
            counts = doubly_refined_asm(n)
        except AssertionError as err:
            yield [{"check": "routes", "n": n, "error": str(err)}]
            continue
        records = []
        if n in FROZEN_DOUBLY and counts.matrix != FROZEN_DOUBLY[n]:
            records.append({"check": "frozen", "n": n,
                            "lhs": [list(r) for r in counts.matrix],
                            "rhs": [list(r) for r in FROZEN_DOUBLY[n]]})
        yield records
        for where, r in doubly_refined_identity_residuals(n):
            yield () if r == 0 else [{"check": "identity", "n": n,
                                      "indices": list(where), "residual": r}]


@suite("paths")
def suite_paths(n_max=3, classic_hi=3, general_bound=2):
    """Path family totals against the product formula, all three models."""
    for n in range(1, n_max + 1):
        for k in product(range(classic_hi + 1), repeat=n):
            if any(a > b for a, b in zip(k, k[1:])):
                continue
            want = product_formula(k)
            yield [{"model": name, "n": n, "k": list(k),
                    "lhs": value, "rhs": want}
                   for name, value in (
                       ("classic", signed_families(k, "classic")),
                       ("nonintersecting", count_nonintersecting(k)))
                   if value != want]
        for k in _cube(general_bound, n):
            value = signed_families(k, "general")
            want = product_formula(k)
            yield () if value == want else [{"model": "general", "n": n,
                                             "k": list(k),
                                             "lhs": value, "rhs": want}]


@suite("intervals")
def suite_intervals(bound=5):
    """Both symmetric difference identities and both dichotomies."""
    checks = (("leftAnchored", left_anchored_identity),
              ("rightAnchored", right_anchored_identity),
              ("containment", containment_dichotomy),
              ("rightDichotomy", right_anchored_dichotomy))
    for x, y, z in _cube(bound, 3):
        yield [{"check": name, "x": x, "y": y, "z": z}
               for name, check in checks if not check(x, y, z)]


@suite("decomposition")
def suite_decomposition(n=3, bound=2):
    """The four-part split negates componentwise under the adjacent swap."""
    for i in range(1, n):
        for k in _cube(bound, n):
            left = shift_decomposition_counts(k, i)
            right = shift_decomposition_counts(swap_shift(k, i, i + 1), i)
            total = sum(left.values())
            want = signed_pattern_count(k)
            records = [] if total == want else [
                {"check": "total", "k": list(k), "i": i,
                 "lhs": total, "rhs": want}]
            yield records + [{"check": "component", "k": list(k), "i": i,
                              "part": list(key),
                              "lhs": left[key], "rhs": -right[key]}
                             for key in left if left[key] != -right[key]]


def run_suite(name, workers=1, **params):
    try:
        fn = SUITES[name]
    except KeyError:
        raise ValueError("unknown suite %r" % name)
    return fn(workers=workers, **params)


def run_all(workers=1):
    """Run every suite at its defaults, all units through one pool;
    aggregate into one report (suite name "all")."""
    started = time.perf_counter()
    names = list(SUITES)
    reports = _run([_PLANS[name]() for name in names], workers)
    return {"suite": "all",
            "parameters": {"suites": names, "workers": workers},
            "pointsChecked": sum(r["pointsChecked"] for r in reports),
            "violations": [{"suite": r["suite"], **v}
                           for r in reports for v in r["violations"]],
            "wallTime": round(time.perf_counter() - started, 3),
            "reports": reports}

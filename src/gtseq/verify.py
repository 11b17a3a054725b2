"""Verification suites: sweep identities over bounded grids, report violations.

A suite is a generator function registered with ``@suite(name)``.  Every
parameter of its body has a default, and the body yields once per checked
point: that point's violation records, a list or tuple that is empty when
the point passes.  A record is a JSON-ready dict naming the offending
input and both sides of the failed comparison; a body builds it only on
the failing branch, so a passing point costs one resume.  A call that
checks several points at once yields once per point it covers, through
``_spread``.

The decorator returns the suite function, which ``SUITES[name]``, the
module-level ``suite_*`` name and ``run_suite(name)`` all reach, and which
keeps the body's signature.  Called with any of the body's parameters, it
binds the defaults, runs the body and returns the report: the suite name,
the parameters under camelCase names (``n_max`` becomes ``nMax``), the
number of points checked, the violations in the order yielded, and the
wall time.  A suite passes when its violation list is empty; parameters
at which the body yields no point raise ValueError.  To add a
suite, write one such generator under ``@suite``: the command line maps
its flags onto the signature's parameters.  ``run_all`` chains every suite
at its default parameters, which is the full check behind the command
line's ``verify all``.

Default parameters are chosen so the whole chain finishes in minutes on one
core while still covering every identity the library claims: the signed
main count against the product formula over seeded random tree sequences,
the determinant form, shift antisymmetry and sequence independence, the
difference-operator annihilators, the pinned-level propositions, the four
monotone triangle extensions against both operator products, the refined
count routes and their linear system, the lattice path models, the interval
identities, and the four-part decomposition.
"""

import functools
import inspect
import time
from itertools import combinations, product

from .intervals import (containment_dichotomy, left_anchored_identity,
                        right_anchored_dichotomy, right_anchored_identity)
from .labelings import FilteredCounter, RestrictedCounter, SequenceCounter
from .monotone import (alpha, alpha_function, alpha_operator,
                       check_alpha_property, doubly_refined_asm,
                       doubly_refined_identity_residuals,
                       enumerate_extension, extension_signed_count,
                       extension_three_relaxed, linear_system_residuals,
                       refined_asm)
from .operators import (apply_operator, binomial_determinant, delta,
                        elementary_symmetric, lattice_function,
                        product_formula, small_delta)
from .paths import count_nonintersecting, signed_families
from .patterns import (shift_decomposition_counts, signed_pattern_count,
                       swap_shift)
from .trees import basic_sequence, random_sequence


def _cube(bound, n):
    return product(range(-bound, bound + 1), repeat=n)


def _seeded_sequences(n, trees, seed):
    return [(seed + 13 * n + t, random_sequence(n, seed + 13 * n + t))
            for t in range(trees)]


SUITES = {}


def _camel(name):
    head, *rest = name.split("_")
    return head + "".join(part.capitalize() for part in rest)


def suite(name):
    """Register a generator body as the suite ``name`` (see the module
    docstring) and return the suite function that runs it."""
    def register(body):
        signature = inspect.signature(body)

        @functools.wraps(body)
        def run(*args, **kwargs):
            params = signature.bind(*args, **kwargs)
            params.apply_defaults()
            started = time.perf_counter()
            points = 0
            violations = []
            for points, records in enumerate(body(**params.arguments), 1):
                if records:
                    violations += records
            if not points:
                raise ValueError("suite %s checks no point at %s" % (
                    name, ", ".join("%s=%r" % item
                                    for item in params.arguments.items())))
            return {"suite": name,
                    "parameters": {_camel(key): value
                                   for key, value in params.arguments.items()},
                    "pointsChecked": points, "violations": violations,
                    "wallTime": round(time.perf_counter() - started, 3)}

        SUITES[name] = run
        return run
    return register


def _spread(count, records):
    """The yields of one call that checked ``count`` points at once: the
    call's violation records at its first point, none at the others."""
    for i in range(count):
        yield () if i else records


@suite("theorem-main")
def suite_theorem_main(n_max=4, bound=2, trees=5, seed=7,
                       det_n_max=5, det_bound=3):
    """Signed chain count == product formula == binomial determinant."""
    for n in range(1, det_n_max + 1):
        for k in _cube(det_bound, n):
            lhs = binomial_determinant(k)
            rhs = product_formula(k)
            yield () if lhs == rhs else [{"check": "determinant", "n": n,
                                          "k": list(k),
                                          "lhs": lhs, "rhs": rhs}]
    for n in range(1, n_max + 1):
        for s, seq in _seeded_sequences(n, trees, seed):
            counter = SequenceCounter(seq)
            for k in _cube(bound, n):
                lhs = counter(k)
                rhs = product_formula(k)
                yield () if lhs == rhs else [{"check": "treeSequence", "n": n,
                                              "seed": s, "k": list(k),
                                              "lhs": lhs, "rhs": rhs}]


@suite("independence")
def suite_independence(n_max=4, bound=2, trees=5, seed=7):
    """Every tree sequence yields the same count as the path-tree stack."""
    for n in range(1, n_max + 1):
        counters = [(s, SequenceCounter(seq))
                    for s, seq in _seeded_sequences(n, trees, seed)]
        for k in _cube(bound, n):
            reference = signed_pattern_count(k)
            yield [{"n": n, "seed": s, "k": list(k),
                    "lhs": got, "rhs": reference}
                   for s, counter in counters
                   if (got := counter(k)) != reference]


@suite("shift-antisym")
def suite_shift_antisym(n_max=4, bound=2):
    """f(k) = -f(k') under (k_i,k_j) -> (k_j+j-i, k_i+i-j), both counts."""
    functions = (("product", product_formula),
                 ("patterns", signed_pattern_count))
    for n in range(2, n_max + 1):
        for k in _cube(bound, n):
            for i, j in combinations(range(1, n + 1), 2):
                kp = swap_shift(k, i, j)
                yield [{"function": name, "n": n, "k": list(k), "i": i, "j": j,
                        "lhs": a, "rhs": -b}
                       for name, f in functions
                       if (a := f(k)) + (b := f(kp)) != 0]


def _grid_functions(n):
    return (("signedCount", lattice_function(n, signed_pattern_count)),
            ("alpha", alpha_function(n)))


@suite("delta-n")
def suite_delta_n(n_max=4, bound=2):
    """The n-th forward difference in any coordinate kills both counts."""
    for n in range(1, n_max + 1):
        functions = _grid_functions(n)
        ops = [delta(n, c) ** n for c in range(n)]
        for k in _cube(bound, n):
            yield [{"function": fname, "n": n, "coordinate": c, "k": list(k),
                    "value": value}
                   for fname, f in functions
                   for c, op in enumerate(ops, start=1)
                   if (value := apply_operator(op, f, k)) != 0]


@suite("e-rho")
def suite_e_rho(n_max=4, bound=2):
    """Elementary symmetric polynomials in the differences annihilate."""
    for n in range(1, n_max + 1):
        functions = _grid_functions(n)
        ops = []
        for rho in range(1, n + 1):
            ops.append(("forward", rho,
                        elementary_symmetric(rho, [delta(n, c)
                                                   for c in range(n)])))
            ops.append(("backward", rho,
                        elementary_symmetric(rho, [small_delta(n, c)
                                                   for c in range(n)])))
        for k in _cube(bound, n):
            yield [{"function": fname, "family": family, "rho": rho, "n": n,
                    "k": list(k), "value": value}
                   for fname, f in functions
                   for family, rho, op in ops
                   if (value := apply_operator(op, f, k)) != 0]


def _corner_values(counter, k):
    """counter(k + 1_S) for every subset S of the coordinates, listed by the
    bitmask of S: one counter call per corner of the unit cube at k."""
    return [counter(tuple(x + (mask >> i & 1) for i, x in enumerate(k)))
            for mask in range(1 << len(k))]


def _difference_masks(coords):
    """The bitmasks of the subsets S of ``coords``, split by the sign
    (-1)^(|coords| - |S|) into (plus, minus)."""
    plus, minus = [], []
    for size in range(len(coords) + 1):
        for S in combinations(coords, size):
            mask = sum(1 << (c - 1) for c in S)
            (minus if (len(coords) - size) % 2 else plus).append(mask)
    return plus, minus


def _difference_in(corners, masks):
    """The forward difference at k in the coordinates R that ``masks``
    was built from, given the ``_corner_values`` at k: the sum over the
    subsets S of R of (-1)^(|R| - |S|) counter(k + 1_S)."""
    plus, minus = masks
    return (sum(map(corners.__getitem__, plus))
            - sum(map(corners.__getitem__, minus)))


@suite("prop-first")
def suite_prop_first(n_max=4, bound=1, trees=2, seed=11):
    """Top-level vertex pinning computes iterated forward differences.

    Also sweeps the distinct-label filter, which must not change the count.
    """
    for n in range(2, n_max + 1):
        seqs = [(0, basic_sequence(n))] + _seeded_sequences(n, trees, seed)
        for s, seq in seqs:
            counter = SequenceCounter(seq)
            corners = {k: _corner_values(counter, k) for k in _cube(bound, n)}
            for size in range(1, n + 1):
                for R in combinations(range(1, n + 1), size):
                    pinned = RestrictedCounter(seq, n, R, mode="vertex",
                                               plain=counter)
                    masks = _difference_masks(R)
                    for k in _cube(bound, n):
                        want = _difference_in(corners[k], masks)
                        got = pinned(k)
                        yield () if got == want else [
                            {"check": "difference", "n": n, "seed": s,
                             "R": list(R), "k": list(k),
                             "lhs": got, "rhs": want}]
            for level in range(3, n + 1):
                for pair in combinations(range(1, level), 2):
                    filtered = FilteredCounter(seq, level, [pair],
                                               plain=counter)
                    for k in _cube(bound, n):
                        got = filtered(k)
                        want = counter(k)
                        yield () if got == want else [
                            {"check": "distinctFilter", "n": n, "seed": s,
                             "level": level, "pair": list(pair),
                             "k": list(k), "lhs": got, "rhs": want}]


@suite("prop-second")
def suite_prop_second(n_max=4, bound=1, trees=2, seed=11):
    """Edge pinning at a level equals vertex pinning one level down."""
    for n in range(3, n_max + 1):
        seqs = [(0, basic_sequence(n))] + _seeded_sequences(n, trees, seed)
        for s, seq in seqs:
            plain = SequenceCounter(seq)
            for m in range(3, n + 1):
                for size in range(1, m):
                    for R in combinations(range(1, m), size):
                        by_edge = RestrictedCounter(seq, m, R, mode="edge",
                                                    plain=plain)
                        by_vertex = RestrictedCounter(seq, m - 1, R,
                                                      mode="vertex",
                                                      plain=plain)
                        for k in _cube(bound, n):
                            a, b = by_edge(k), by_vertex(k)
                            yield () if a == b else [
                                {"n": n, "seed": s, "m": m, "R": list(R),
                                 "k": list(k), "lhs": a, "rhs": b}]


@suite("rho-zero")
def suite_rho_zero(n_max=4, bound=1, trees=1, seed=11):
    """Summing vertex pinnings over all subsets of one size gives zero."""
    for n in range(2, n_max + 1):
        seqs = [(0, basic_sequence(n))] + _seeded_sequences(n, trees, seed)
        for s, seq in seqs:
            plain = SequenceCounter(seq)
            for m in range(2, n + 1):
                for rho in range(1, m + 1):
                    counters = [RestrictedCounter(seq, m, R, mode="vertex",
                                                  plain=plain)
                                for R in combinations(range(1, m + 1), rho)]
                    for k in _cube(bound, n):
                        value = sum(c(k) for c in counters)
                        yield () if value == 0 else [
                            {"n": n, "seed": s, "m": m, "rho": rho,
                             "k": list(k), "value": value}]


@suite("extensions-agree")
def suite_extensions_agree(bound3=2, lo4=0, hi4=3):
    """alpha, the four extensions, and both operator products all agree.

    Variant 1's counter is alpha itself, so variant 1 is checked through the
    signed sum of its object stream instead, on the n=3 grid only; the n=4
    stream would add about half the suite's time again.  Both operator
    forms are built once per n and applied to one shared product-formula
    lattice function.
    """
    staircase = {1: 1, 2: 2, 3: 7, 4: 42}
    for n, want in staircase.items():
        got = alpha(n, tuple(range(1, n + 1)))
        yield () if got == want else [{"check": "staircase", "n": n,
                                       "lhs": got, "rhs": want}]
    grids = [(3, _cube(bound3, 3)),
             (4, product(range(lo4, hi4 + 1), repeat=4))]
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
        product_fn = lattice_function(n, product_formula)
        routes += [({"check": "operator", "form": form},
                    functools.partial(apply_operator, alpha_operator(n, form),
                                      product_fn))
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


FROZEN_REFINED = {1: (1,), 2: (1, 1), 3: (2, 3, 2), 4: (7, 14, 14, 7)}

FROZEN_DOUBLY = {
    2: ((0, 1), (1, 0)),
    3: ((0, 1, 1), (1, 1, 1), (1, 1, 0)),
    4: ((0, 2, 3, 2), (2, 4, 5, 3), (3, 5, 4, 2), (2, 3, 2, 0)),
}


@suite("refined")
def suite_refined(n_max=4):
    """Refined count routes, frozen small values, linear system, symmetry."""
    for n in range(1, n_max + 1):
        try:
            vec = refined_asm(n).vector
        except AssertionError as err:
            yield [{"check": "routes", "n": n, "error": str(err)}]
            continue
        records = []
        if n in FROZEN_REFINED and vec != FROZEN_REFINED[n]:
            records.append({"check": "frozen", "n": n, "lhs": list(vec),
                            "rhs": list(FROZEN_REFINED[n])})
        if vec != tuple(reversed(vec)):
            records.append({"check": "symmetry", "n": n, "lhs": list(vec)})
        yield records
        residuals = linear_system_residuals(n)
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


def run_suite(name, **params):
    try:
        fn = SUITES[name]
    except KeyError:
        raise ValueError("unknown suite %r" % name)
    return fn(**params)


def run_all(workers=None):
    """Run every suite; aggregate into one report (suite name "all")."""
    started = time.perf_counter()
    names = list(SUITES)
    if workers and workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(run_suite, names))
    else:
        reports = [run_suite(name) for name in names]
    return {"suite": "all",
            "parameters": {"suites": names, "workers": workers or 1},
            "pointsChecked": sum(r["pointsChecked"] for r in reports),
            "violations": [{"suite": r["suite"], **v}
                           for r in reports for v in r["violations"]],
            "wallTime": round(time.perf_counter() - started, 3),
            "reports": reports}

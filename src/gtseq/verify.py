"""Verification suites: sweep identities over bounded grids, report violations.

Each suite returns a JSON-ready report with the suite name, the parameters
it ran with, the number of points checked, a list of violations (offending
input together with both sides of the failed comparison) and the wall time.
A suite passes when its violation list is empty.  ``run_suite`` dispatches
by name and ``run_all`` chains every suite at its default parameters, which
is the full check behind the command line's ``verify all``.

Default parameters are chosen so the whole chain finishes in minutes on one
core while still covering every identity the library claims: the signed
main count against the product formula over seeded random tree sequences,
the determinant form, shift antisymmetry and sequence independence, the
difference-operator annihilators, the pinned-level propositions, the four
monotone triangle extensions against both operator products, the refined
count routes and their linear system, the lattice path models, the interval
identities, and the four-part decomposition.
"""

import time
from itertools import combinations, product

from .intervals import (containment_dichotomy, left_anchored_identity,
                        right_anchored_dichotomy, right_anchored_identity)
from .labelings import (RestrictedCounter, SequenceCounter,
                        signed_count_filtered)
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


def _finish(name, parameters, points, violations, started):
    return {"suite": name, "parameters": parameters, "pointsChecked": points,
            "violations": violations,
            "wallTime": round(time.perf_counter() - started, 3)}


def suite_theorem_main(n_max=4, bound=2, trees=5, seed=7,
                       det_n_max=5, det_bound=3):
    """Signed chain count == product formula == binomial determinant."""
    started = time.perf_counter()
    points = 0
    violations = []
    for n in range(1, det_n_max + 1):
        for k in _cube(det_bound, n):
            points += 1
            lhs = binomial_determinant(k)
            rhs = product_formula(k)
            if lhs != rhs:
                violations.append({"check": "determinant", "n": n,
                                   "k": list(k), "lhs": lhs, "rhs": rhs})
    for n in range(1, n_max + 1):
        for s, seq in _seeded_sequences(n, trees, seed):
            counter = SequenceCounter(seq)
            for k in _cube(bound, n):
                points += 1
                lhs = counter(k)
                rhs = product_formula(k)
                if lhs != rhs:
                    violations.append({"check": "treeSequence", "n": n,
                                       "seed": s, "k": list(k),
                                       "lhs": lhs, "rhs": rhs})
    parameters = {"nMax": n_max, "bound": bound, "trees": trees, "seed": seed,
                  "detNMax": det_n_max, "detBound": det_bound}
    return _finish("theorem-main", parameters, points, violations, started)


def suite_independence(n_max=4, bound=2, trees=5, seed=7):
    """Every tree sequence yields the same count as the path-tree stack."""
    started = time.perf_counter()
    points = 0
    violations = []
    for n in range(1, n_max + 1):
        counters = [(s, SequenceCounter(seq))
                    for s, seq in _seeded_sequences(n, trees, seed)]
        for k in _cube(bound, n):
            points += 1
            reference = signed_pattern_count(k)
            for s, counter in counters:
                got = counter(k)
                if got != reference:
                    violations.append({"n": n, "seed": s, "k": list(k),
                                       "lhs": got, "rhs": reference})
    parameters = {"nMax": n_max, "bound": bound, "trees": trees, "seed": seed}
    return _finish("independence", parameters, points, violations, started)


def suite_shift_antisym(n_max=4, bound=2):
    """f(k) = -f(k') under (k_i,k_j) -> (k_j+j-i, k_i+i-j), both counts."""
    started = time.perf_counter()
    points = 0
    violations = []
    for n in range(2, n_max + 1):
        for k in _cube(bound, n):
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    points += 1
                    kp = swap_shift(k, i, j)
                    for name, f in (("product", product_formula),
                                    ("patterns", signed_pattern_count)):
                        a, b = f(k), f(kp)
                        if a + b != 0:
                            violations.append({"function": name, "n": n,
                                               "k": list(k), "i": i, "j": j,
                                               "lhs": a, "rhs": -b})
    parameters = {"nMax": n_max, "bound": bound}
    return _finish("shift-antisym", parameters, points, violations, started)


def _grid_functions(n):
    return (("signedCount", lattice_function(n, signed_pattern_count)),
            ("alpha", alpha_function(n)))


def suite_delta_n(n_max=4, bound=2):
    """The n-th forward difference in any coordinate kills both counts."""
    started = time.perf_counter()
    points = 0
    violations = []
    for n in range(1, n_max + 1):
        functions = _grid_functions(n)
        ops = [delta(n, c) ** n for c in range(n)]
        for k in _cube(bound, n):
            points += 1
            for fname, f in functions:
                for c, op in enumerate(ops, start=1):
                    value = apply_operator(op, f, k)
                    if value != 0:
                        violations.append({"function": fname, "n": n,
                                           "coordinate": c, "k": list(k),
                                           "value": value})
    parameters = {"nMax": n_max, "bound": bound}
    return _finish("delta-n", parameters, points, violations, started)


def suite_e_rho(n_max=4, bound=2):
    """Elementary symmetric polynomials in the differences annihilate."""
    started = time.perf_counter()
    points = 0
    violations = []
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
            points += 1
            for fname, f in functions:
                for family, rho, op in ops:
                    value = apply_operator(op, f, k)
                    if value != 0:
                        violations.append({"function": fname, "family": family,
                                           "rho": rho, "n": n, "k": list(k),
                                           "value": value})
    parameters = {"nMax": n_max, "bound": bound}
    return _finish("e-rho", parameters, points, violations, started)


def _difference_in(counter, k, coords):
    if not coords:
        return counter(k)
    c, rest = coords[0], coords[1:]
    kp = list(k)
    kp[c - 1] += 1
    return (_difference_in(counter, tuple(kp), rest)
            - _difference_in(counter, k, rest))


def suite_prop_first(n_max=4, bound=1, trees=2, seed=11):
    """Top-level vertex pinning computes iterated forward differences.

    Also sweeps the distinct-label filter, which must not change the count.
    """
    started = time.perf_counter()
    points = 0
    violations = []
    for n in range(2, n_max + 1):
        seqs = [(0, basic_sequence(n))] + _seeded_sequences(n, trees, seed)
        for s, seq in seqs:
            counter = SequenceCounter(seq)
            for size in range(1, n + 1):
                for R in combinations(range(1, n + 1), size):
                    pinned = RestrictedCounter(seq, n, R, mode="vertex",
                                               plain=counter)
                    for k in _cube(bound, n):
                        points += 1
                        want = _difference_in(counter, k, list(R))
                        got = pinned(k)
                        if got != want:
                            violations.append({"check": "difference", "n": n,
                                               "seed": s, "R": list(R),
                                               "k": list(k),
                                               "lhs": got, "rhs": want})
            for level in range(3, n + 1):
                for pair in combinations(range(1, level), 2):
                    for k in _cube(bound, n):
                        points += 1
                        got = signed_count_filtered(seq, k, level, [pair],
                                                    plain=counter)
                        want = counter(k)
                        if got != want:
                            violations.append({"check": "distinctFilter",
                                               "n": n, "seed": s,
                                               "level": level,
                                               "pair": list(pair),
                                               "k": list(k),
                                               "lhs": got, "rhs": want})
    parameters = {"nMax": n_max, "bound": bound, "trees": trees, "seed": seed}
    return _finish("prop-first", parameters, points, violations, started)


def suite_prop_second(n_max=4, bound=1, trees=2, seed=11):
    """Edge pinning at a level equals vertex pinning one level down."""
    started = time.perf_counter()
    points = 0
    violations = []
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
                            points += 1
                            a, b = by_edge(k), by_vertex(k)
                            if a != b:
                                violations.append({"n": n, "seed": s, "m": m,
                                                   "R": list(R), "k": list(k),
                                                   "lhs": a, "rhs": b})
    parameters = {"nMax": n_max, "bound": bound, "trees": trees, "seed": seed}
    return _finish("prop-second", parameters, points, violations, started)


def suite_rho_zero(n_max=4, bound=1, trees=1, seed=11):
    """Summing vertex pinnings over all subsets of one size gives zero."""
    started = time.perf_counter()
    points = 0
    violations = []
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
                        points += 1
                        value = sum(c(k) for c in counters)
                        if value != 0:
                            violations.append({"n": n, "seed": s, "m": m,
                                               "rho": rho, "k": list(k),
                                               "value": value})
    parameters = {"nMax": n_max, "bound": bound, "trees": trees, "seed": seed}
    return _finish("rho-zero", parameters, points, violations, started)


def suite_extensions_agree(bound3=2, lo4=0, hi4=3):
    """alpha, the four extensions, and both operator products all agree.

    Variant 1's counter is alpha itself, so variant 1 is checked through the
    signed sum of its object stream instead, on the n=3 grid only; the n=4
    stream would add about half the suite's time again.  Both operator
    forms are built once per n and applied to one shared product-formula
    lattice function.
    """
    started = time.perf_counter()
    points = 0
    violations = []
    staircase = {1: 1, 2: 2, 3: 7, 4: 42}
    for n, want in staircase.items():
        points += 1
        got = alpha(n, tuple(range(1, n + 1)))
        if got != want:
            violations.append({"check": "staircase", "n": n,
                               "lhs": got, "rhs": want})
    grids = [(3, _cube(bound3, 3)),
             (4, product(range(lo4, hi4 + 1), repeat=4))]
    for n, grid in grids:
        forms = [(form, alpha_operator(n, form))
                 for form in ("threeTerm", "deltaDelta")]
        product_fn = lattice_function(n, product_formula)
        for k in grid:
            points += 1
            base = alpha(n, k)
            extensions = [(variant, extension_signed_count(variant, n, k))
                          for variant in (2, 3, 4)]
            if n == 3:
                streamed = sum(obj.sign for obj in enumerate_extension(1, n, k))
                extensions.insert(0, (1, streamed))
            for variant, got in extensions:
                if got != base:
                    violations.append({"check": "extension", "variant": variant,
                                       "n": n, "k": list(k),
                                       "lhs": got, "rhs": base})
            got = extension_three_relaxed(n, k)
            if got != base:
                violations.append({"check": "extensionThreeRelaxed", "n": n,
                                   "k": list(k), "lhs": got, "rhs": base})
            for form, op in forms:
                got = apply_operator(op, product_fn, k)
                if got != base:
                    violations.append({"check": "operator", "form": form,
                                       "n": n, "k": list(k),
                                       "lhs": got, "rhs": base})
    parameters = {"bound3": bound3, "lo4": lo4, "hi4": hi4}
    return _finish("extensions-agree", parameters, points, violations, started)


def suite_alpha_props(n_max=4, bound=2):
    """The four listed alpha properties, pointwise on the cube."""
    started = time.perf_counter()
    points = 0
    violations = []
    for n in range(1, n_max + 1):
        for prop in ("P1", "P2", "P3", "P4"):
            if prop == "P1" and n < 2:
                continue
            report = check_alpha_property(prop, n, _cube(bound, n))
            points += report["pointsChecked"]
            for v in report["violations"]:
                v = dict(v)
                v["property"] = prop
                v["n"] = n
                violations.append(v)
    parameters = {"nMax": n_max, "bound": bound}
    return _finish("alpha-props", parameters, points, violations, started)


FROZEN_REFINED = {1: (1,), 2: (1, 1), 3: (2, 3, 2), 4: (7, 14, 14, 7)}

FROZEN_DOUBLY = {
    2: ((0, 1), (1, 0)),
    3: ((0, 1, 1), (1, 1, 1), (1, 1, 0)),
    4: ((0, 2, 3, 2), (2, 4, 5, 3), (3, 5, 4, 2), (2, 3, 2, 0)),
}


def suite_refined(n_max=4):
    """Refined count routes, frozen small values, linear system, symmetry."""
    started = time.perf_counter()
    points = 0
    violations = []
    for n in range(1, n_max + 1):
        points += 1
        try:
            vec = refined_asm(n).vector
        except AssertionError as err:
            violations.append({"check": "routes", "n": n, "error": str(err)})
            continue
        if n in FROZEN_REFINED and vec != FROZEN_REFINED[n]:
            violations.append({"check": "frozen", "n": n, "lhs": list(vec),
                               "rhs": list(FROZEN_REFINED[n])})
        if vec != tuple(reversed(vec)):
            violations.append({"check": "symmetry", "n": n, "lhs": list(vec)})
        residuals = linear_system_residuals(n)
        points += len(residuals)
        if any(r != 0 for r in residuals):
            violations.append({"check": "linearSystem", "n": n,
                               "residuals": residuals})
    parameters = {"nMax": n_max}
    return _finish("refined", parameters, points, violations, started)


def suite_doubly_refined(n_max=4):
    """Doubly refined routes, frozen matrices, and the difference identity."""
    started = time.perf_counter()
    points = 0
    violations = []
    for n in range(1, n_max + 1):
        points += 1
        try:
            counts = doubly_refined_asm(n)
        except AssertionError as err:
            violations.append({"check": "routes", "n": n, "error": str(err)})
            continue
        if n in FROZEN_DOUBLY and counts.matrix != FROZEN_DOUBLY[n]:
            violations.append({"check": "frozen", "n": n,
                               "lhs": [list(r) for r in counts.matrix],
                               "rhs": [list(r) for r in FROZEN_DOUBLY[n]]})
        row_sums = tuple(sum(r) for r in counts.matrix)
        if row_sums != refined_asm(n).vector:
            violations.append({"check": "marginal", "n": n,
                               "lhs": list(row_sums),
                               "rhs": list(refined_asm(n).vector)})
        residuals = doubly_refined_identity_residuals(n)
        points += len(residuals)
        for where, r in residuals:
            if r != 0:
                violations.append({"check": "identity", "n": n,
                                   "indices": list(where), "residual": r})
    parameters = {"nMax": n_max}
    return _finish("doubly-refined", parameters, points, violations, started)


def suite_paths(n_max=3, classic_hi=3, general_bound=2):
    """Path family totals against the product formula, all three models."""
    started = time.perf_counter()
    points = 0
    violations = []
    for n in range(1, n_max + 1):
        for k in product(range(classic_hi + 1), repeat=n):
            if any(a > b for a, b in zip(k, k[1:])):
                continue
            points += 1
            want = product_formula(k)
            for name, value in (
                    ("classic", signed_families(k, "classic")),
                    ("nonintersecting", count_nonintersecting(k))):
                if value != want:
                    violations.append({"model": name, "n": n, "k": list(k),
                                       "lhs": value, "rhs": want})
        for k in _cube(general_bound, n):
            points += 1
            value = signed_families(k, "general")
            want = product_formula(k)
            if value != want:
                violations.append({"model": "general", "n": n, "k": list(k),
                                   "lhs": value, "rhs": want})
    parameters = {"nMax": n_max, "classicHi": classic_hi,
                  "generalBound": general_bound}
    return _finish("paths", parameters, points, violations, started)


def suite_intervals(bound=5):
    """Both symmetric difference identities and both dichotomies."""
    started = time.perf_counter()
    points = 0
    violations = []
    rng = range(-bound, bound + 1)
    checks = (("leftAnchored", left_anchored_identity),
              ("rightAnchored", right_anchored_identity),
              ("containment", containment_dichotomy),
              ("rightDichotomy", right_anchored_dichotomy))
    for x in rng:
        for y in rng:
            for z in rng:
                points += 1
                for name, check in checks:
                    if not check(x, y, z):
                        violations.append({"check": name, "x": x, "y": y,
                                           "z": z})
    parameters = {"bound": bound}
    return _finish("intervals", parameters, points, violations, started)


def suite_decomposition(n=3, bound=2):
    """The four-part split negates componentwise under the adjacent swap."""
    started = time.perf_counter()
    points = 0
    violations = []
    for i in range(1, n):
        for k in _cube(bound, n):
            points += 1
            left = shift_decomposition_counts(k, i)
            right = shift_decomposition_counts(swap_shift(k, i, i + 1), i)
            total = sum(left.values())
            if total != signed_pattern_count(k):
                violations.append({"check": "total", "k": list(k), "i": i,
                                   "lhs": total,
                                   "rhs": signed_pattern_count(k)})
            for key in left:
                if left[key] != -right[key]:
                    violations.append({"check": "component", "k": list(k),
                                       "i": i, "part": list(key),
                                       "lhs": left[key], "rhs": -right[key]})
    parameters = {"n": n, "bound": bound}
    return _finish("decomposition", parameters, points, violations, started)


SUITES = {
    "theorem-main": suite_theorem_main,
    "independence": suite_independence,
    "shift-antisym": suite_shift_antisym,
    "delta-n": suite_delta_n,
    "e-rho": suite_e_rho,
    "prop-first": suite_prop_first,
    "prop-second": suite_prop_second,
    "rho-zero": suite_rho_zero,
    "extensions-agree": suite_extensions_agree,
    "alpha-props": suite_alpha_props,
    "refined": suite_refined,
    "doubly-refined": suite_doubly_refined,
    "paths": suite_paths,
    "intervals": suite_intervals,
    "decomposition": suite_decomposition,
}


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
    violations = []
    points = 0
    for report in reports:
        points += report["pointsChecked"]
        for v in report["violations"]:
            tagged = {"suite": report["suite"]}
            tagged.update(v)
            violations.append(tagged)
    return {"suite": "all",
            "parameters": {"suites": names, "workers": workers or 1},
            "pointsChecked": points,
            "violations": violations,
            "wallTime": round(time.perf_counter() - started, 3),
            "reports": reports}

"""Lattice path families tied to the product formula.

Three models share the starting points (0,0), (-1,1), ..., (-n+1,n-1):

* nonintersecting: east/north unit steps to (1, k_i+i-1), final step east,
  paths pairwise vertex-disjoint, k weakly increasing and nonnegative.
  The count equals the binomial determinant and hence the product formula.
* classic signed: east/north steps to (0, k_{pi_i}+pi_i-1) for an arbitrary
  permutation pi, no disjointness, family sign = sgn(pi).  Intersecting
  families cancel in pairs, so the signed total is again the product
  formula (k nonnegative).
* general signed: any k in Z^n.  An endpoint at or above its start is
  reached by an ordinary east/north path.  An endpoint strictly below by
  more than the east distance is reached by a descent path: one south step
  first, then south (0,-1) and diagonal (1,-1) steps only, every diagonal
  step contributing -1.  Between those regimes no path exists; the signed
  per-pair count is the polynomially extended binomial, so the signed total
  over all families is the product formula everywhere.

The general grammar fixes a reading of the informal description "require
these paths to start with a step of the form (0,-1)": the initial south
step is mandatory for every below-start path and east steps are traded for
diagonals after it.  The per-pair signed count under this reading is
binom(r+d, r) with r the east distance and d the rise, matching the
determinant entries for every integer d, which is the calibration that
pinned the grammar down.
"""

from dataclasses import dataclass
from itertools import combinations, permutations, product

from .operators import product_formula
from .trees import _permutation_sign

STEP_MOVES = {"E": (1, 0), "N": (0, 1), "S": (0, -1), "D": (1, -1)}


def starting_points(n):
    return [(-i + 1, i - 1) for i in range(1, n + 1)]


@dataclass(frozen=True)
class PathFamily:
    n: int
    pi: tuple                # pi[i-1] = index of the end point path i hits
    paths: tuple             # per path, a tuple of step names
    sign: int

    def to_json(self):
        return {"pi": list(self.pi),
                "paths": [list(p) for p in self.paths],
                "sign": self.sign}


def path_vertices(i, steps):
    """Vertices visited by path i (1-based start index)."""
    x, y = -i + 1, i - 1
    out = [(x, y)]
    for s in steps:
        dx, dy = STEP_MOVES[s]
        x, y = x + dx, y + dy
        out.append((x, y))
    return out


def _words(first, a, second, b):
    """All step words with a letters ``first`` and b letters ``second``,
    lexicographic with ``first`` before ``second``: the positions of
    ``first`` run through their combinations in order."""
    out = []
    for chosen in combinations(range(a + b), a):
        word = [second] * (a + b)
        for p in chosen:
            word[p] = first
        out.append(tuple(word))
    return out


def _pair_paths(i, end, general):
    """Step words from start i to the end point, per the variant's grammar:
    east/north words, or for an end below the start a forced south step
    followed by r diagonals and the extra south steps."""
    x0, y0 = -i + 1, i - 1
    x1, y1 = end
    r, d = x1 - x0, y1 - y0
    if r < 0:
        return []
    if d >= 0:
        return _words("E", r, "N", d)
    extra = -d - 1 - r
    if general and extra >= 0:
        return [("S",) + w for w in _words("D", r, "S", extra)]
    return []


def _step_sign(steps):
    return (-1) ** steps.count("D")


def _assert_box(k, n, steps_by_path):
    lo = min(min(k) - n, 0)
    hi = max(max(k) + n, n - 1)
    for i, steps in enumerate(steps_by_path, start=1):
        for x, y in path_vertices(i, steps):
            if not (-n + 1 <= x <= 1 and lo <= y <= hi):
                raise AssertionError("path vertex (%d, %d) left the box" % (x, y))


def classic_end_points(k):
    return [(0, kv + i) for i, kv in enumerate(k)]


def _pair_words(k, variant):
    """Per start i and end point j (both from 0), the variant's step words,
    once the variant and k are checked."""
    if variant not in ("classic", "general"):
        raise ValueError("variant must be classic or general")
    general = variant == "general"
    if not general and any(kv < 0 for kv in k):
        raise ValueError("classic model needs nonnegative k")
    ends = classic_end_points(k)
    return [[_pair_paths(i, end, general) for end in ends]
            for i in range(1, len(k) + 1)]


def enumerate_families(k, variant="classic"):
    """Stream every signed family of the classic or general model."""
    k = tuple(k)
    n = len(k)
    words = _pair_words(k, variant)
    for pi in permutations(range(1, n + 1)):
        base = _permutation_sign(pi)
        for steps_by_path in product(*(words[i][j - 1]
                                       for i, j in enumerate(pi))):
            _assert_box(k, n, steps_by_path)
            sign = base
            for steps in steps_by_path:
                sign *= _step_sign(steps)
            yield PathFamily(n, pi, tuple(steps_by_path), sign)


def signed_families(k, variant="classic"):
    """Signed total over all families; equals the product formula.

    Computed by summing each start/end pair's signed path count first and
    expanding over permutations, which adds up the same family signs as the
    stream without materializing them.
    """
    k = tuple(k)
    n = len(k)
    pair_total = [[sum(map(_step_sign, w)) for w in row]
                  for row in _pair_words(k, variant)]
    total = 0
    for pi in permutations(range(n)):
        term = _permutation_sign(tuple(p + 1 for p in pi))
        for i in range(n):
            term *= pair_total[i][pi[i]]
            if term == 0:
                break
        total += term
    return total


def count_nonintersecting(k):
    """Vertex-disjoint east/north families onto (1, k_i+i-1), final step east."""
    k = tuple(k)
    n = len(k)
    if any(kv < 0 for kv in k) or any(a > b for a, b in zip(k, k[1:])):
        raise ValueError("need 0 <= k_1 <= ... <= k_n")
    ends = classic_end_points(k)
    # vertex sets of every path from start i to end j, built once
    vertex_sets = [[[frozenset(path_vertices(i, w + ("E",)))
                     for w in _pair_paths(i, end, False)]
                    for end in ends]
                   for i in range(1, n + 1)]
    count = 0
    for pi in permutations(range(n)):
        choice_lists = [vertex_sets[i][j] for i, j in enumerate(pi)]
        for family in product(*choice_lists):
            if all(a.isdisjoint(b) for a, b in combinations(family, 2)):
                count += 1
    return count


def tail_swap(family, a, b):
    """Swap the tails of paths a and b after their first shared vertex.

    This is one step of the intersecting-family involution: the result
    connects the same points under the transposed permutation and carries
    the opposite sign.  Raises ValueError when the paths never meet.
    """
    va = path_vertices(a, family.paths[a - 1])
    vb = path_vertices(b, family.paths[b - 1])
    pos_b = {v: idx for idx, v in enumerate(vb)}
    meet = None
    for ia, v in enumerate(va):
        if v in pos_b:
            meet = (ia, pos_b[v])
            break
    if meet is None:
        raise ValueError("paths %d and %d do not intersect" % (a, b))
    ia, ib = meet

    def steps_from(vertices):
        out = []
        for (x0, y0), (x1, y1) in zip(vertices, vertices[1:]):
            for name, (dx, dy) in STEP_MOVES.items():
                if (x1 - x0, y1 - y0) == (dx, dy):
                    out.append(name)
                    break
            else:
                raise ValueError("non-unit gap in path")
        return tuple(out)

    new_a = steps_from(va[:ia + 1] + vb[ib + 1:])
    new_b = steps_from(vb[:ib + 1] + va[ia + 1:])
    paths = list(family.paths)
    paths[a - 1], paths[b - 1] = new_a, new_b
    pi = list(family.pi)
    pi[a - 1], pi[b - 1] = pi[b - 1], pi[a - 1]
    sign = _permutation_sign(tuple(pi))
    for steps in paths:
        sign *= _step_sign(steps)
    return PathFamily(family.n, tuple(pi), tuple(paths), sign)


def family_to_svg(family, cell=24):
    """Tiny standalone SVG rendering of one family (plumbing for figures)."""
    all_vertices = [path_vertices(i, s)
                    for i, s in enumerate(family.paths, start=1)]
    xs = [x for verts in all_vertices for x, _ in verts]
    ys = [y for verts in all_vertices for _, y in verts]
    x0, x1 = min(xs) - 1, max(xs) + 1
    y0, y1 = min(ys) - 1, max(ys) + 1
    width = (x1 - x0) * cell
    height = (y1 - y0) * cell

    def sx(x):
        return (x - x0) * cell

    def sy(y):
        return (y1 - y) * cell

    parts = ['<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d">'
             % (width, height)]
    for gx in range(x0, x1 + 1):
        parts.append('<line x1="%d" y1="0" x2="%d" y2="%d" stroke="#ddd"/>'
                     % (sx(gx), sx(gx), height))
    for gy in range(y0, y1 + 1):
        parts.append('<line x1="0" y1="%d" x2="%d" y2="%d" stroke="#ddd"/>'
                     % (sy(gy), width, sy(gy)))
    colors = ["#d33", "#36c", "#2a2", "#a3a", "#c82", "#088"]
    for idx, verts in enumerate(all_vertices):
        pts = " ".join("%d,%d" % (sx(x), sy(y)) for x, y in verts)
        parts.append('<polyline points="%s" fill="none" stroke="%s" '
                     'stroke-width="2"/>' % (pts, colors[idx % len(colors)]))
        parts.append('<circle cx="%d" cy="%d" r="3" fill="%s"/>'
                     % (sx(verts[0][0]), sy(verts[0][1]),
                        colors[idx % len(colors)]))
    parts.append("</svg>")
    return "\n".join(parts)

"""Signed enumeration of labeling chains over tree sequences.

The product formula

    prod_{1 <= i < j <= n} (k_j - k_i + j - i) / (j - i)

counts, with signs, several families built on an integer vector k: chains
of admissible edge labelings over a sequence of directed trees, generalized
triangular patterns, and lattice path families.  The monotone triangle
count alpha(n; k) arises from the same machinery through a difference
operator product.  Everything is exact integer arithmetic; enumerators and
counting recursions are kept separate so each can check the other.

Import the submodule that holds a name, like ``from gtseq.monotone import
alpha``: the package itself re-exports nothing, so a process loads only the
modules it uses.
"""

__version__ = "0.1.0"

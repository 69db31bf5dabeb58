"""Every small diagram of one recipe, once per class under relabelling.

The recipe is that of ``random_diagrams``, enumerated instead of drawn:

* n labels, each a complex factor of size 1 (the trivial C) or 2;
* every set of one to k horizontal edges (a, r) – (b, r), a < b, each
  with its j-mirror, the vertical edge (r, a) – (r, b);
* a vertex in each cell these edges touch, the jmap, grading signs from a
  two-colouring and KO-dimension 0, as ``mirrored_diagram`` builds them.

A permutation of the labels maps a draw to one that is the same diagram up
to names, so each class is keyed by the least (sizes, sorted edge triples)
over the n! permutations and built from that key.  A class is kept when
``validate`` accepts it.  The enumeration is deterministic: classes come in
key order.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, permutations, product

from kra import KrajewskiDiagram

from random_diagrams import mirrored_diagram


def _relabelled(sizes: tuple, triples: tuple, perm: tuple) -> tuple:
    """(sizes, sorted edge triples) with label i renamed perm[i]."""
    moved = [0] * len(sizes)
    for i, size in enumerate(sizes):
        moved[perm[i]] = size
    edges = sorted((min(perm[a], perm[b]), max(perm[a], perm[b]), perm[r]) for a, b, r in triples)
    return tuple(moved), tuple(edges)


@lru_cache(maxsize=None)
def census_keys(n: int, k: int) -> tuple[tuple, ...]:
    """The key of each class of n labels and one to k edge pairs, sorted."""
    triples = [(a, b, r) for a, b in combinations(range(n), 2) for r in range(n)]
    perms = list(permutations(range(n)))
    keys = set()
    for sizes in product((1, 2), repeat=n):
        for count in range(1, k + 1):
            for drawn in combinations(triples, count):
                keys.add(min(_relabelled(sizes, drawn, p) for p in perms))
    return tuple(sorted(keys))


@lru_cache(maxsize=None)
def census(n: int, k: int) -> tuple[tuple[tuple, KrajewskiDiagram], ...]:
    """(key, validated diagram) of each class that ``validate`` accepts."""
    built = ((key, mirrored_diagram(*key)) for key in census_keys(n, k))
    return tuple((key, d) for key, d in built if d is not None)

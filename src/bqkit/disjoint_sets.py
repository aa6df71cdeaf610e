"""Disjoint sets (union-find) over hashable items, with path halving.

Shared by the homotopy relation, whose congruence closure runs on path
numbers and whose fingerprint closes Homotopic pairs of classes on class
numbers within a hom-set, by the support splittings of ideals and by
the connectivity check of Gamma.  Coset enumeration
keeps its own, because its coincidence processing must keep the smaller
label and merge table rows as it unites.

``union`` halves the paths of both items inline, as ``find`` would: the
congruence closure calls it once per pending pair, about 14,000 times
on the 3382 paths of the commutative 6 x 6 grid.
"""

from __future__ import annotations


class DisjointSets:
    """A partition of a fixed set of items, coarsened by ``union``."""

    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        """The root of the class of x."""
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, x, y):
        """Merge the classes of x and y, hanging x's root under y's.

        Returns (absorbed root, surviving root), or None when x and y
        were in one class already.
        """
        parent = self.parent
        # the two finds of ``find``, inline
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        while parent[y] != y:
            parent[y] = y = parent[parent[y]]
        if x == y:
            return None
        parent[x] = y
        return x, y

    def classes(self):
        """The classes as lists in item order, ordered by first member."""
        out = {}
        for x in self.parent:
            out.setdefault(self.find(x), []).append(x)
        return list(out.values())

"""Disjoint sets (union-find) over hashable items, with path halving.

Shared by the homotopy relation, whose congruence closure runs on path
numbers and whose fingerprint closes Homotopic pairs of classes on class
numbers within a hom-set, by the support splittings of ideals and by
the connectivity check of Gamma.  Coset enumeration
keeps its own, because its coincidence processing must keep the smaller
label and merge table rows as it unites.
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
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return None
        self.parent[rx] = ry
        return rx, ry

    def classes(self):
        """The classes as lists in item order, ordered by first member."""
        out = {}
        for x in self.parent:
            out.setdefault(self.find(x), []).append(x)
        return list(out.values())

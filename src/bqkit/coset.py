"""Capped coset enumeration over the trivial subgroup.

A homotopy certifier after the abelianization: if the presented group is
finite within the coset cap, the completed table is the regular action,
so a word is trivial in the group exactly when it fixes the start coset.
"""

from __future__ import annotations

DEFAULT_MAX_COSETS = 10_000


class CosetTable:
    """Completed coset table of the trivial subgroup (regular action)."""

    def __init__(self, ngens, rows, start):
        self.ngens = ngens
        self.rows = rows
        self.start = start

    @property
    def order(self):
        return len(self.rows)

    def act(self, coset, word):
        """Apply a word (tuple of signed 1-based generator indices)."""
        for letter in word:
            col = 2 * (abs(letter) - 1) + (0 if letter > 0 else 1)
            coset = self.rows[coset][col]
        return coset

    def is_nontrivial(self, word) -> bool:
        return self.act(self.start, word) != self.start

    def verify(self, relators) -> bool:
        """Consistency: inverses invert and every relator fixes every coset,
        so the table is a genuine action of the presented group."""
        for c in range(len(self.rows)):
            for i in range(self.ngens):
                if self.rows[self.rows[c][2 * i]][2 * i + 1] != c:
                    return False
                if self.rows[self.rows[c][2 * i + 1]][2 * i] != c:
                    return False
        for rel in relators:
            for c in range(len(self.rows)):
                if self.act(c, rel) != c:
                    return False
        return True


def enumerate_cosets(ngens, relators):
    """Enumerate the cosets of the trivial subgroup; None past
    ``DEFAULT_MAX_COSETS`` cosets.

    relators are tuples of signed 1-based generator indices.  Letters are
    columns 2i (generator i+1) and 2i+1 (its inverse).
    """
    nletters = 2 * ngens
    labels = []
    neighbors = []

    def new_vertex():
        labels.append(len(labels))
        neighbors.append([None] * nletters)
        return len(labels) - 1

    def find(c):
        while labels[c] != c:
            labels[c] = labels[labels[c]]
            c = labels[c]
        return c

    def unify(c1, c2):
        stack = [(c1, c2)]
        while stack:
            a, b = stack.pop()
            a, b = find(a), find(b)
            if a == b:
                continue
            a, b = min(a, b), max(a, b)
            labels[b] = a
            for d in range(nletters):
                n1 = neighbors[a][d]
                n2 = neighbors[b][d]
                if n1 is None:
                    neighbors[a][d] = n2
                elif n2 is not None:
                    stack.append((n1, n2))

    def follow(c, d):
        c = find(c)
        if neighbors[c][d] is None:
            n = new_vertex()
            neighbors[c][d] = n
            neighbors[n][d ^ 1] = c
        return find(neighbors[c][d])

    letter_rels = []
    for rel in relators:
        letter_rels.append(tuple(2 * (abs(x) - 1) + (0 if x > 0 else 1)
                                 for x in rel))

    start = new_vertex()
    to_visit = 0
    while to_visit < len(labels):
        if len(labels) > DEFAULT_MAX_COSETS:
            return None
        c = to_visit
        if find(c) == c:
            for rel in letter_rels:
                cur = c
                for d in rel:
                    cur = follow(cur, d)
                unify(cur, c)
                if find(c) != c:
                    break
            if find(c) == c:
                for d in range(nletters):
                    follow(c, d)
        to_visit += 1

    live = sorted({find(c) for c in range(len(labels))})
    renumber = {c: i for i, c in enumerate(live)}
    rows = []
    for c in live:
        rows.append([renumber[find(neighbors[c][d])] for d in range(nletters)])
    return CosetTable(ngens, rows, renumber[find(start)])

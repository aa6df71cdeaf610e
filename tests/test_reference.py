"""The sparse echelon rows of ``ideal._HomSpace`` and the pending-list
congruence closure of ``HomotopyRelation`` against the dense rows and the
pairwise rescan-to-fixpoint closure they replaced, kept here as
reference implementations.

The closures are compared by their partitions of the paths, not only by
fingerprints: a closure that misses a cancellation can still produce the
same fingerprint, because ``decide`` certifies the pairs it left apart.
"""

import random
from importlib import resources

from conftest import make_random_bound_quiver

from bqkit import ideal as ideal_module
from bqkit.dsl import parse_source
from bqkit.homotopy import homotopy_relation
from bqkit.ideal import Relation, close_ideal
from bqkit.quiver import Path, enumerate_paths, paths_between

SEEDS = range(60)
CHARS = (0, 2, 3)


class DenseHomSpace:
    """Echelon basis of one hom-pair subspace with dense coefficient rows."""

    def __init__(self, quiver, fld, x, y):
        self.quiver = quiver
        self.fld = fld
        self.x = x
        self.y = y
        self.paths = paths_between(quiver, x, y)
        self.index = {p: i for i, p in enumerate(self.paths)}
        self.rows = {}  # pivot index -> coefficient list

    def vector(self, r: Relation):
        vec = [self.fld.zero] * len(self.paths)
        for p, c in r.terms:
            vec[self.index[p]] = c
        return vec

    def relation(self, vec) -> Relation:
        terms = [(self.paths[i], c) for i, c in enumerate(vec)
                 if not self.fld.is_zero(c)]
        return Relation(self.x, self.y, tuple(terms))

    def _lead(self, vec):
        for i in range(len(vec) - 1, -1, -1):
            if not self.fld.is_zero(vec[i]):
                return i
        return None

    def reduce(self, vec):
        fld = self.fld
        vec = list(vec)
        for i in range(len(vec) - 1, -1, -1):
            if i in self.rows and not fld.is_zero(vec[i]):
                c = vec[i]
                row = self.rows[i]
                for k in range(i + 1):
                    vec[k] = fld.sub(vec[k], fld.mul(c, row[k]))
        return vec

    def insert(self, vec) -> bool:
        fld = self.fld
        vec = self.reduce(vec)
        lead = self._lead(vec)
        if lead is None:
            return False
        inv = fld.inv(vec[lead])
        vec = [fld.mul(inv, c) for c in vec]
        for row in self.rows.values():
            if len(row) > lead and not fld.is_zero(row[lead]):
                c = row[lead]
                for k in range(lead + 1):
                    row[k] = fld.sub(row[k], fld.mul(c, vec[k]))
        self.rows[lead] = vec
        return True

    def basis_relations(self):
        return tuple(self.relation(self.rows[p]) for p in sorted(self.rows))

    def contains(self, r: Relation) -> bool:
        return self._lead(self.reduce(self.vector(r))) is None

    @property
    def dim(self):
        return len(self.rows)


def pairwise_closure(quiver, generating_pairs):
    """Rescan every class pairwise until nothing merges."""
    paths = enumerate_paths(quiver)
    arrow = {a.name: a for a in quiver.arrows}
    parent = {p: p for p in paths}

    def find(p):
        while parent[p] != p:
            parent[p] = parent[parent[p]]
            p = parent[p]
        return p

    def union(p, q):
        rp, rq = find(p), find(q)
        if rp != rq:
            parent[rp] = rq
            return True
        return False

    for u, v in generating_pairs:
        union(u, v)
    changed = True
    while changed:
        changed = False
        classes = {}
        for p in paths:
            classes.setdefault(find(p), []).append(p)
        for members in classes.values():
            for i in range(len(members)):
                for j in range(i + 1, len(members)):
                    p, q = members[i], members[j]
                    if (p.source, p.target) != (q.source, q.target):
                        continue
                    for a in quiver.arrows_from(p.target):
                        ap = Path(p.source, a.target, p.arrows + (a.name,))
                        aq = Path(q.source, a.target, q.arrows + (a.name,))
                        if union(ap, aq):
                            changed = True
                    for b in quiver.arrows_into(p.source):
                        pb = Path(b.source, p.target, (b.name,) + p.arrows)
                        qb = Path(b.source, q.target, (b.name,) + q.arrows)
                        if union(pb, qb):
                            changed = True
                    if p.arrows and q.arrows and p.arrows != q.arrows:
                        if p.arrows[0] == q.arrows[0]:
                            mid = arrow[p.arrows[0]].target
                            tp = Path(mid, p.target, p.arrows[1:])
                            tq = Path(mid, q.target, q.arrows[1:])
                            if union(tp, tq):
                                changed = True
                        if p.arrows[-1] == q.arrows[-1]:
                            mid = arrow[p.arrows[-1]].source
                            ip = Path(p.source, mid, p.arrows[:-1])
                            iq = Path(q.source, mid, q.arrows[:-1])
                            if union(ip, iq):
                                changed = True
    return {p: find(p) for p in paths}


def partition(classes):
    """The classes of a {path: class root} map, independent of the roots."""
    groups = {}
    for p, root in classes.items():
        groups.setdefault(root, set()).add(p)
    return {frozenset(g) for g in groups.values()}


def random_ideals():
    for char in CHARS:
        for seed in SEEDS:
            yield make_random_bound_quiver(random.Random(seed), char=char)


def example_ideals():
    data = resources.files("bqkit") / "data" / "examples"
    for name, ideals in (("exple1.bq", "IJ"), ("twobypass.bq", ("I0", "I1", "I2"))):
        ws = parse_source((data / name).read_text(encoding="utf-8"))
        for ideal_name in ideals:
            for char in CHARS:
                yield ws.ideal(ideal_name, char)


def all_ideals():
    yield from random_ideals()
    yield from example_ideals()


def test_sparse_rows_match_dense_rows(monkeypatch):
    ideals = list(all_ideals())
    monkeypatch.setattr(ideal_module, "_HomSpace", DenseHomSpace)
    for ideal in ideals:
        dense = close_ideal(ideal.quiver, ideal.field, ideal.generators)
        assert dense._basis_snapshot() == ideal._basis_snapshot()


def test_worklist_closure_matches_pairwise_closure():
    for ideal in all_ideals():
        h = homotopy_relation(ideal)
        reference = pairwise_closure(h.quiver, h.generating_pairs)
        assert partition(h._path_classes) == partition(reference)

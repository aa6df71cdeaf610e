"""The coordinate closure of ``ideal.close_ideal`` on sparse rows, the
pending-list congruence closure and the per-class fingerprint of
``HomotopyRelation`` against the Relation-based closure on dense rows,
the pairwise rescan-to-fixpoint closure and the all-pairs fingerprint
they replaced, kept here as reference implementations.

The partition that ``HomotopyRelation`` keeps per hom-set is compared
with the pair dict it replaced, built from ``combinations`` and sorted
into ``fingerprint_key``, through ``fingerprint_key``, ``pair_status``
and ``relations_equal``.

The congruence closures are compared by their partitions of the paths,
not only by fingerprints: a closure that misses a cancellation can still
produce the same fingerprint, because ``decide`` certifies the pairs it
left apart.

The homotopy search's rewrites are compared with the split enumeration
they replaced, move for move, so the search visits the same walks in the
same order and returns the same chains.

``transform.apply_automorphism`` maps basis rows in coordinates, one
hom-set at a time; it is compared with the Relation-based version it
replaced, which multiplies arrow images one arrow at a time and closes
the images of the minimal relations again.
"""

import random
import re
from importlib import resources
from itertools import combinations

import pytest
from conftest import make_random_bound_quiver, twobypass_chain

from bqkit.disjoint_sets import DisjointSets
from bqkit.dsl import parse_source
from bqkit.errors import HomotopyError, UnresolvedError
from bqkit.fields import Field
from bqkit.gamma import tau_schedule
from bqkit.homotopy import (DIFFERENT, EQUAL, HOMOTOPIC, NOT_HOMOTOPIC,
                            UNKNOWN, Decision, HomotopyRelation,
                            fingerprint_key, homotopy_relation,
                            relations_equal)
from bqkit.ideal import (Ideal, Relation, add_relations, close_ideal,
                         mul_relations, relation_of_path, scale_relation)
from bqkit.quiver import (FORWARD, INVERSE, Path, Walk, enumerate_paths,
                          find_bypasses, path_key, paths_between,
                          trivial_path, walk_of_path)
from bqkit.transform import (Dilatation, Transvection, apply_automorphism,
                             as_path_automorphism)

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


def relation_closure(quiver, fld, generators):
    """Two-sided closure on dense rows, by multiplying every relation whose
    insertion grows a span with each arrow on both sides."""
    gens = [g for g in generators if not g.is_zero]
    spaces = {}

    def insert(rel):
        key = (rel.source, rel.target)
        if key not in spaces:
            spaces[key] = DenseHomSpace(quiver, fld, *key)
        return spaces[key].insert(spaces[key].vector(rel))

    def arrow(a):
        return relation_of_path(quiver, fld, Path(a.source, a.target, (a.name,)))

    todo = [g for g in gens if insert(g)]
    while todo:
        rel = todo.pop()
        grown = [mul_relations(quiver, fld, arrow(a), rel)
                 for a in quiver.arrows_from(rel.target)]
        grown += [mul_relations(quiver, fld, rel, arrow(a))
                  for a in quiver.arrows_into(rel.source)]
        todo.extend(g for g in grown if insert(g))
    return Ideal(quiver, fld, gens, spaces)


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


def test_sparse_rows_match_dense_rows():
    for ideal in all_ideals():
        dense = relation_closure(ideal.quiver, ideal.field, ideal.generators)
        assert dense._basis_snapshot() == ideal._basis_snapshot()


def test_worklist_closure_matches_pairwise_closure():
    for ideal in all_ideals():
        h = homotopy_relation(ideal)
        reference = pairwise_closure(h.quiver, h.generating_pairs)
        assert partition(h._path_classes) == partition(reference)


def split_rewrites(h, w, cap):
    """The search's moves by enumerating every split p = y * s * x of every
    pattern p -> q and substituting y^-1 * q * x^-1 for each occurrence
    of s in w (at each visit of the vertex before x when s is empty).
    A nonempty s only gives walks that an empty split gave before it, so
    every move yielded is ``(i, y, x, q)``, the move of ``_rewrites``."""
    def invert(letters):
        return tuple((name, -d) for name, d in reversed(letters))

    def end(name, d):
        a = h.quiver.arrow(name)
        return a.target if d == FORWARD else a.source

    letters = w.letters
    n = len(letters)
    vertices = [w.source] + [end(name, d) for name, d in letters]
    produced = set()
    for psrc, pdst in h._replacement_patterns():
        np_ = len(psrc)
        first = h.quiver.arrow(psrc[0][0])
        pverts = [first.source if psrc[0][1] == FORWARD else first.target]
        pverts += [end(name, d) for name, d in psrc]
        for a_idx in range(np_ + 1):
            for b_idx in range(a_idx, np_ + 1):
                y = psrc[:a_idx]
                s = psrc[a_idx:b_idx]
                x = psrc[b_idx:]
                replacement = invert(y) + pdst + invert(x)
                if s:
                    positions = [i for i in range(n - len(s) + 1)
                                 if letters[i:i + len(s)] == s]
                else:
                    positions = [i for i in range(n + 1)
                                 if vertices[i] == pverts[a_idx]]
                for i in positions:
                    raw = letters[:i] + replacement + letters[i + len(s):]
                    nxt = Walk(w.source, w.target, raw).reduced()
                    if nxt == w or len(nxt.letters) > cap:
                        continue
                    if nxt in produced:
                        continue
                    produced.add(nxt)
                    assert not s
                    yield nxt, (i, y, x, pdst)


def random_reduced_walk(quiver, rng, length, start=None):
    at = start if start is not None else rng.choice(quiver.vertices)
    source = at
    letters = []
    for _ in range(length):
        steps = [((a.name, FORWARD), a.target) for a in quiver.arrows_from(at)]
        steps += [((a.name, INVERSE), a.source) for a in quiver.arrows_into(at)]
        if letters:
            steps = [st for st in steps
                     if st[0] != (letters[-1][0], -letters[-1][1])]
        if not steps:
            break
        letter, at = rng.choice(steps)
        letters.append(letter)
    return Walk(source, at, tuple(letters))


def coded_rewrites(h, w, cap):
    """``h._rewrites`` on the coded walk w, its results decoded."""
    for nxt, move in h._rewrites(w.source, h._encode(w.letters), cap):
        yield h._decode(w.source, nxt), move


def assert_same_rewrites(h, walks):
    for w in walks:
        assert w.is_reduced()
        for cap in sorted({len(w), len(w) + 1, len(w) + 4, h.default_cap}):
            expected = list(split_rewrites(h, w, cap))
            assert list(coded_rewrites(h, w, cap)) == expected, (w, cap)


def test_loop_insertion_matches_split_rewrites_on_random_quivers():
    for k, ideal in enumerate(random_ideals()):
        h = homotopy_relation(ideal)
        rng = random.Random(k)
        walks = [random_reduced_walk(h.quiver, rng, rng.randint(0, 6))
                 for _ in range(3)]
        assert_same_rewrites(h, walks)


def test_loop_insertion_matches_split_rewrites_on_i0_chains():
    rng = random.Random(4)
    for units in (1, 2):
        h = homotopy_relation(twobypass_chain(units))
        assert h._replacement_patterns()
        walks = [random_reduced_walk(h.quiver, rng, length)
                 for length in range(0, 11) for _ in range(2)]
        assert_same_rewrites(h, walks)


PAIRS = 6


def test_loop_insertion_search_matches_split_search():
    """Same decisions, chains included, on two-unit I0 walk pairs: u, and
    u with two loops p * q^-1 (p != q, from one minimal relation each)
    inserted."""
    ideal = twobypass_chain(2)
    loops = {}
    for rel in ideal.minimal_relations():
        loops.setdefault(rel.source, []).append(rel.support())
    rng = random.Random(11)
    pairs = []
    while len(pairs) < PAIRS:
        u = random_reduced_walk(ideal.quiver, rng, rng.randint(2, 6),
                                start=ideal.quiver.vertices[0])
        visits = [u.source] + [ideal.quiver.arrow(n).target if d == FORWARD
                               else ideal.quiver.arrow(n).source
                               for n, d in u.letters]
        spots = [i for i, x in enumerate(visits) if x in loops]
        if not spots:
            continue
        letters = u.letters
        for i in sorted(rng.sample(spots, min(2, len(spots))), reverse=True):
            p, q = rng.sample(rng.choice(loops[visits[i]]), 2)
            loop = walk_of_path(p).letters + walk_of_path(q).inverse().letters
            letters = letters[:i] + loop + letters[i:]
        pairs.append((u, Walk(u.source, u.target, letters)))
    new = HomotopyRelation(ideal)
    ref = HomotopyRelation(ideal)
    expanded = []

    def reference_rewrites(source, w, cap):
        # the search runs on coded walks: decode each one for the split
        # enumeration and encode what it yields
        expanded.append(w)
        for nxt, move in split_rewrites(ref, ref._decode(source, w), cap):
            yield ref._encode(nxt.letters), move

    ref._rewrites = reference_rewrites
    for u, v in pairs:
        d = new.decide(u, v, want_chain=True)
        assert d.is_homotopic and d.chain
        expanded.clear()
        assert d == ref.decide(u, v, want_chain=True)
        assert expanded  # the reference search ran


def pairwise_fingerprint(h):
    """Decide every parallel pair in different congruence classes, then
    close the Homotopic pairs transitively over class roots."""
    classes = h._path_classes
    tags = {}
    decided = []
    for x in h.quiver.vertices:
        for y in h.quiver.vertices:
            paths = paths_between(h.quiver, x, y)
            walks = [walk_of_path(p) for p in paths]
            for i in range(len(paths)):
                for j in range(i + 1, len(paths)):
                    u, v = paths[i], paths[j]
                    if classes[u] == classes[v]:
                        tags[(u, v)] = HOMOTOPIC
                        continue
                    d = h.decide(walks[i], walks[j], want_chain=False)
                    tags[(u, v)] = d.status
                    decided.append((u, v))
    roots = DisjointSets(classes.values())
    for u, v in decided:
        if tags[(u, v)] == HOMOTOPIC:
            roots.union(classes[u], classes[v])
    for u, v in decided:
        if roots.find(classes[u]) == roots.find(classes[v]):
            if tags[(u, v)] == NOT_HOMOTOPIC:
                raise HomotopyError("inconsistent certificates for %s and %s"
                                    % (u, v))
            tags[(u, v)] = HOMOTOPIC
    return tags


def test_class_fingerprint_matches_pairwise_fingerprint():
    ideals = list(all_ideals()) + [twobypass_chain(units) for units in (1, 2, 3)]
    for ideal in ideals:
        h = HomotopyRelation(ideal)
        expected = list(pairwise_fingerprint(h).items())
        assert list(h.fingerprint.items()) == expected


SQUARE = """
quiver square {
  vertices: 1 2 3;
  arrow a1: 1 -> 2; arrow a2: 1 -> 2;
  arrow b1: 2 -> 3; arrow b2: 2 -> 3;
}
ideal I over square(0) { rel b1*a1 - b2*a2; rel b1*a2 - b2*a1; }
quiver three {
  vertices: 1 2;
  arrow x: 1 -> 2; arrow y: 1 -> 2; arrow z: 1 -> 2;
}
"""


def scripted_relation(monkeypatch, ideal, script):
    """The relation built when every pair of classes has the same abelian
    image and ``decide`` answers from ``script`` (written paths to
    status, Unknown if absent); returns it and the decided pairs.  The
    patches stay until ``monkeypatch`` is undone."""
    calls = []

    def decide(self, u, v, cap=None, want_chain=True):
        pair = (u.to_text(), v.to_text())
        calls.append(pair)
        return Decision(script.get(pair, UNKNOWN))

    monkeypatch.setattr(HomotopyRelation, "abelian_image", lambda self, u, v: ())
    monkeypatch.setattr(HomotopyRelation, "decide", decide)
    return HomotopyRelation(ideal), calls


def scripted_fingerprint(monkeypatch, ideal, script):
    """The fingerprint of ``scripted_relation``, keyed by written paths,
    and the decided pairs."""
    h, calls = scripted_relation(monkeypatch, ideal, script)
    return {(u.to_text(), v.to_text()): tag
            for (u, v), tag in h.fingerprint.items()}, calls


def test_fingerprint_decides_per_pair_of_classes(monkeypatch):
    ws = parse_source(SQUARE)
    square = ws.ideal("I")
    # hom-set 1 -> 3: classes {b1*a1, b2*a2} and {b1*a2, b2*a1}; member
    # pairs in order: (b1*a1, b1*a2), (b1*a1, b2*a1), (b1*a2, b2*a2),
    # (b2*a1, b2*a2)
    cross = [("b1*a1", "b1*a2"), ("b1*a1", "b2*a1"),
             ("b1*a2", "b2*a2"), ("b2*a1", "b2*a2")]
    inside = [("b1*a1", "b2*a2"), ("b1*a2", "b2*a1")]

    # Unknown on the first member pair, Homotopic on the second
    tags, calls = scripted_fingerprint(
        monkeypatch, square, {cross[0]: UNKNOWN, cross[1]: HOMOTOPIC})
    assert [c for c in calls if c in cross] == cross[:2]
    assert all(tags[p] == HOMOTOPIC for p in cross + inside)
    assert tags[("a1", "a2")] == tags[("b1", "b2")] == UNKNOWN

    # all Unknown stays Unknown, after trying every member pair
    tags, calls = scripted_fingerprint(monkeypatch, square, {})
    assert [c for c in calls if c in cross] == cross
    assert all(tags[p] == UNKNOWN for p in cross)
    assert all(tags[p] == HOMOTOPIC for p in inside)

    # two certified Homotopic pairs of classes upgrade the third
    zero = close_ideal(ws.quiver("three"), Field(0), [])
    tags, calls = scripted_fingerprint(
        monkeypatch, zero, {("x", "y"): HOMOTOPIC, ("y", "z"): HOMOTOPIC})
    assert calls == [("x", "y"), ("x", "z"), ("y", "z")]
    assert list(tags.items()) == [(("x", "y"), HOMOTOPIC),
                                  (("x", "z"), HOMOTOPIC),
                                  (("y", "z"), HOMOTOPIC)]

    # a Not-homotopic answer inside a Homotopic root is inconsistent
    with pytest.raises(HomotopyError):
        scripted_fingerprint(monkeypatch, zero, {
            ("x", "y"): HOMOTOPIC, ("y", "z"): HOMOTOPIC,
            ("x", "z"): NOT_HOMOTOPIC})


def grid_ideal(n):
    """The commutative n x n grid over Q: every square r*d - d*r."""
    lines = ["quiver grid {", "  vertices: %s;" % " ".join(
        "v%d_%d" % (i, j) for i in range(n) for j in range(n))]
    rels = []
    for i in range(n):
        for j in range(n):
            if j + 1 < n:
                lines.append("  arrow r%d_%d: v%d_%d -> v%d_%d;"
                             % (i, j, i, j, i, j + 1))
            if i + 1 < n:
                lines.append("  arrow d%d_%d: v%d_%d -> v%d_%d;"
                             % (i, j, i, j, i + 1, j))
            if i + 1 < n and j + 1 < n:
                rels.append("rel d%d_%d*r%d_%d - r%d_%d*d%d_%d;"
                            % (i, j + 1, i, j, i + 1, j, i, j))
    lines.append("}")
    lines.append("ideal I over grid(0) { %s }" % " ".join(rels))
    return parse_source("\n".join(lines)).ideal("I")


def pair_dict(h):
    """The pair dict the relation kept before it kept a partition: every
    pair of parallel paths from ``combinations`` of each hom-set, with
    its status in the all-pairs reference."""
    tags = pairwise_fingerprint(h)
    return {pair: tags[pair]
            for x in h.quiver.vertices for y in h.quiver.vertices
            for pair in combinations(paths_between(h.quiver, x, y), 2)}


def sorted_key(h, tags):
    """``fingerprint_key`` as the sort of the pair dict's items."""
    for (u, v), tag in tags.items():
        if tag == UNKNOWN:
            raise UnresolvedError(
                "fingerprint contains an Unknown pair (%s, %s)" % (u, v))
    return tuple(sorted(((path_key(h.quiver, u), path_key(h.quiver, v)), tag)
                        for (u, v), tag in tags.items()))


def walked_relations_equal(tags1, tags2):
    """``relations_equal`` as a walk over the pair dicts."""
    unknown_pair = None
    for pair, tag1 in tags1.items():
        tag2 = tags2[pair]
        if UNKNOWN in (tag1, tag2):
            if unknown_pair is None:
                unknown_pair = pair
            continue
        if tag1 != tag2:
            return (DIFFERENT, pair)
    if unknown_pair is not None:
        return (UNKNOWN, unknown_pair)
    return (EQUAL, None)


def test_partition_matches_pair_dict(monkeypatch):
    ideals = (list(all_ideals()) + [twobypass_chain(units) for units in (1, 2, 3)]
              + [grid_ideal(4)])
    relations = []
    for ideal in ideals:
        h = HomotopyRelation(ideal)
        relations.append((h, pair_dict(h)))
    # Unknown pairs come from scripted decisions on the square, next to
    # its real relation: (a1, a2) is Unknown in every scripted one, and
    # the second script makes the cross pairs of 1 -> 3 Homotopic, which
    # the real relation certifies Not-homotopic
    square = parse_source(SQUARE).ideal("I")
    h = HomotopyRelation(square)
    relations.append((h, pair_dict(h)))
    for script in ({}, {("b1*a1", "b2*a1"): HOMOTOPIC}):
        h, _ = scripted_relation(monkeypatch, square, script)
        relations.append((h, pair_dict(h)))
        monkeypatch.undo()

    for h, tags in relations:
        assert list(h.fingerprint.items()) == list(tags.items())
        try:
            expected = sorted_key(h, tags)
        except UnresolvedError as exc:
            with pytest.raises(UnresolvedError, match=re.escape(str(exc))):
                fingerprint_key(h)
        else:
            assert fingerprint_key(h) == expected
        for (u, v), tag in tags.items():
            assert h.pair_status(u, v) == h.pair_status(v, u) == tag

    by_quiver = {}
    for h, tags in relations:
        by_quiver.setdefault(h.quiver, []).append((h, tags))
    outcomes = {}
    for group in by_quiver.values():
        for h1, tags1 in group:
            for h2, tags2 in group:
                result = relations_equal(h1, h2)
                assert result == walked_relations_equal(tags1, tags2)
                outcomes.setdefault(result[0], set()).add(
                    None if result[1] is None
                    else tuple(p.to_text() for p in result[1]))
    assert outcomes[EQUAL] == {None}
    assert outcomes[UNKNOWN] >= {("a1", "a2")}
    # a certified difference after an earlier Unknown pair is the witness
    assert ("b1*a1", "b1*a2") in outcomes[DIFFERENT]


def relation_image(auto, rel):
    """phi(rel), multiplying the arrow images of each path one arrow at a
    time."""
    quiver, fld = auto.quiver, auto.field
    out = Relation(rel.source, rel.target, ())
    for p, c in rel.terms:
        acc = relation_of_path(quiver, fld, trivial_path(quiver, p.source))
        for name in p.arrows:
            acc = mul_relations(quiver, fld, auto.images[name], acc)
        out = add_relations(quiver, fld, out, scale_relation(quiver, fld, c, acc))
    return out


def closure_apply_automorphism(phi, ideal):
    """phi(I) as the closure of the images of the minimal relations."""
    auto = as_path_automorphism(phi, ideal.quiver, ideal.field)
    gens = [relation_image(auto, r) for r in ideal.minimal_relations()]
    image = close_ideal(ideal.quiver, ideal.field, gens)
    assert image.total_dim() == ideal.total_dim()
    return image


APPLY_CHARS = (0, 2, 3, 5)


def apply_corpus():
    """The random ideals of ``random_ideals`` and every example ideal,
    each in characteristics 0, 2, 3 and 5."""
    for char in APPLY_CHARS:
        for seed in SEEDS:
            yield make_random_bound_quiver(random.Random(seed), char=char)
    data = resources.files("bqkit") / "data" / "examples"
    for name, ideals in (("exple1.bq", "IJ"), ("twobypass.bq", ("I0", "I1", "I2"))):
        ws = parse_source((data / name).read_text(encoding="utf-8"))
        for ideal_name in ideals:
            for char in APPLY_CHARS:
                yield ws.ideal(ideal_name, char)


def some_dilatation(quiver, fld):
    """Arrow k scaled by the k-th of a fixed cycle of nonzero scalars (the
    identity over F_2, whose only nonzero scalar is 1)."""
    if fld.char == 0:
        cycle = [fld.scalar(2), fld.scalar(-1), fld.scalar(1, 3), fld.scalar(5)]
    else:
        cycle = list(fld.nonzero_elements())
        cycle = cycle[1:] + cycle[:1]
    return Dilatation(tuple((a.name, cycle[k % len(cycle)])
                            for k, a in enumerate(quiver.arrows)))


def test_coordinate_images_match_closure_of_relation_images():
    checked = 0
    for ideal in apply_corpus():
        quiver, fld = ideal.quiver, ideal.field
        phis = [Transvection(bypass, tau) for bypass in find_bypasses(quiver)
                for tau in tau_schedule(fld)]
        phis.append(some_dilatation(quiver, fld))
        for phi in phis:
            image = apply_automorphism(phi, ideal)
            expected = closure_apply_automorphism(phi, ideal)
            assert image._basis_snapshot() == expected._basis_snapshot(), phi
            # an image ideal's generators are its basis rows, which
            # close to it
            rebuilt = relation_closure(quiver, fld, image.generators)
            assert rebuilt._basis_snapshot() == image._basis_snapshot()
            auto = as_path_automorphism(phi, quiver, fld)
            for r in ideal.minimal_relations():
                assert auto.apply_to_relation(r) == relation_image(auto, r)
            checked += 1
    assert checked > 1000

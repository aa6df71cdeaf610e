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

``homotopy._reduction_steps`` frees a walk in one pass over a stack; it
is compared with the version that rescans the walk after each deletion.

The homotopy search's rewrites are compared with the split enumeration
they replaced, move for move, and ``_move_to``, which names the first
move from a walk to a given child without building the others, with
those rewrites.  The level-by-level search is compared with the FIFO
search that expands every walk it pops, run on the split enumeration:
the same decisions and chains, also with the state cap patched around
the point where the FIFO search reaches its goal.

``transform.apply_automorphism`` maps basis rows in coordinates, one
hom-set at a time; it is compared with the Relation-based version it
replaced, which multiplies arrow images one arrow at a time and closes
the images of the minimal relations again.

Over Q the field keeps integral scalars as ints; ``close_ideal`` on
generators with fractional coefficients is compared with the dense
closure run in ``FractionField``, the all-``Fraction`` arithmetic it
replaced.  The presentation reads each path's chord word from its
arrows; it is compared with the chord words of ``walk_of_path``.
"""

import random
import re
from collections import deque
from fractions import Fraction
from importlib import resources
from itertools import chain, combinations

import pytest
from conftest import make_random_bound_quiver, twobypass_chain

from bqkit import homotopy
from bqkit.disjoint_sets import DisjointSets
from bqkit.dsl import parse_source
from bqkit.errors import HomotopyError, UnresolvedError
from bqkit.fields import Field
from bqkit.gamma import tau_schedule
from bqkit.homotopy import (DIFFERENT, EQUAL, HOMOTOPIC, NOT_HOMOTOPIC,
                            UNKNOWN, Decision, HomotopyRelation,
                            _expand_rewrite, _free_reduce_word, _invert_word,
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


class FractionField:
    """Characteristic-0 arithmetic with every scalar a ``Fraction``."""

    char = 0
    zero = Fraction(0)
    one = Fraction(1)

    def scalar(self, num, den=1):
        return Fraction(num, den)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        return 1 / a

    def is_zero(self, a):
        return a == 0


FRACTIONS = (Fraction(3, 5), Fraction(-7, 4), Fraction(1, 3))


def fractional_generators(ideal):
    """The generators with their terms scaled by 3/5, -7/4 and 1/3 in turn."""
    fld = ideal.field
    scales = iter(FRACTIONS * sum(len(g.terms) for g in ideal.generators))
    return [Relation(g.source, g.target,
                     tuple((p, fld.mul(c, next(scales))) for p, c in g.terms))
            for g in ideal.generators]


def test_int_scalars_close_like_fractions():
    for ideal in all_ideals():
        if ideal.field.char:
            continue
        gens = fractional_generators(ideal)
        got = close_ideal(ideal.quiver, ideal.field, gens)
        want = relation_closure(ideal.quiver, FractionField(), gens)
        assert got._basis_snapshot() == want._basis_snapshot()
        for r in got.minimal_relations():
            for _, c in r.terms:
                assert type(c) is int or (type(c) is Fraction
                                          and c.denominator != 1)


def walk_relators(h):
    """The relators from the chord words of ``walk_of_path``."""
    relators = []
    for u, v in h.generating_pairs:
        word = _free_reduce_word(
            h.tree.chord_word(walk_of_path(u))
            + _invert_word(h.tree.chord_word(walk_of_path(v))))
        if word:
            relators.append(word)
    return tuple(relators)


def test_relators_from_path_arrows_match_walk_relators():
    for ideal in all_ideals():
        h = homotopy_relation(ideal)
        assert h.presentation.relators == walk_relators(h)


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


def random_quiver_walks():
    """Per random ideal, its relation and three random reduced walks."""
    for k, ideal in enumerate(random_ideals()):
        h = homotopy_relation(ideal)
        rng = random.Random(k)
        yield h, [random_reduced_walk(h.quiver, rng, rng.randint(0, 6))
                  for _ in range(3)]


def i0_chain_walks():
    """Per chain of one and two I0 units, its relation and random reduced
    walks of lengths 0 to 10."""
    rng = random.Random(4)
    for units in (1, 2):
        h = homotopy_relation(twobypass_chain(units))
        assert h._replacement_patterns()
        yield h, [random_reduced_walk(h.quiver, rng, length)
                  for length in range(0, 11) for _ in range(2)]


def test_loop_insertion_matches_split_rewrites_on_random_quivers():
    for h, walks in random_quiver_walks():
        assert_same_rewrites(h, walks)


def test_loop_insertion_matches_split_rewrites_on_i0_chains():
    for h, walks in i0_chain_walks():
        assert_same_rewrites(h, walks)


def test_move_to_matches_rewrites():
    """For every child of a walk, ``_move_to`` gives the move by which
    ``_rewrites`` first yields it; for the walk itself and for the
    grandchildren through its first three children that are not
    children, it gives None."""
    for h, walks in chain(random_quiver_walks(), i0_chain_walks()):
        longest = max((len(loop) for _, loop, _ in h._insertion_rules),
                      default=0)
        for walk in walks:
            w = h._encode(walk.letters)
            # no rewrite of w is longer than w and a loop
            children = dict(h._rewrites(walk.source, w, len(w) + longest))
            for g, move in children.items():
                assert h._move_to(w, g) == move, (walk, g)
            assert h._move_to(w, w) is None
            for g in list(children)[:3]:
                for gg, _ in h._rewrites(walk.source, g, len(g) + longest):
                    if gg != w and gg not in children:
                        assert h._move_to(w, gg) is None, (walk, gg)


def rescanning_reduction_steps(walk: Walk):
    """The delete-steps that ``homotopy._reduction_steps`` replaced: after
    each deletion it scans the walk again from its start for the first
    cancelling pair."""
    steps = []
    cur = walk
    while True:
        letters = cur.letters
        hit = None
        for i in range(len(letters) - 1):
            if letters[i][0] == letters[i + 1][0] and letters[i][1] == -letters[i + 1][1]:
                hit = i
                break
        if hit is None:
            return tuple(steps)
        nxt = Walk(cur.source, cur.target,
                   letters[:hit] + letters[hit + 2:])
        steps.append(homotopy.MoveStep("delete", hit, (), nxt))
        cur = nxt


def random_walk(quiver, rng, length):
    """A random walk that may step back along the letter before it."""
    at = source = rng.choice(quiver.vertices)
    letters = []
    for _ in range(length):
        steps = [((a.name, FORWARD), a.target) for a in quiver.arrows_from(at)]
        steps += [((a.name, INVERSE), a.source) for a in quiver.arrows_into(at)]
        letter, at = rng.choice(steps)
        letters.append(letter)
    return Walk(source, at, tuple(letters))


def test_stack_reduction_steps_match_rescanning():
    """The one-pass ``_reduction_steps`` gives the steps of the rescanning
    version on random walks and on nested cancellations w*u*u^-1*w^-1
    and w*u*u^-1, ending at the free reduction."""
    rng = random.Random(9)
    quivers = [make_random_bound_quiver(random.Random(seed)).quiver
               for seed in SEEDS]
    quivers.append(twobypass_chain(2).quiver)
    walks = []
    for quiver in quivers:
        walks += [random_walk(quiver, rng, rng.randint(0, 12))
                  for _ in range(4)]
        for _ in range(2):
            w = random_reduced_walk(quiver, rng, rng.randint(1, 5))
            u = random_reduced_walk(quiver, rng, rng.randint(1, 4),
                                    start=w.target)
            there = w.letters + u.letters + u.inverse().letters
            walks.append(Walk(w.source, w.target, there))
            walks.append(Walk(w.source, w.source,
                              there + w.inverse().letters))
    assert max(len(rescanning_reduction_steps(w)) for w in walks) >= 6
    for w in walks:
        steps = homotopy._reduction_steps(w)
        assert steps == rescanning_reduction_steps(w), w
        assert (steps[-1].result if steps else w) == w.reduced()


class FifoSearch:
    """The search that ``HomotopyRelation._bfs`` replaced, on ``Walk``
    letters with the split enumeration: a FIFO queue that expands every
    walk it pops, checking the state cap before each pop.  Set as the
    ``_bfs`` of a relation, it records the walks it expanded, and for a
    goal it reached, the goal's distance from the start and the number
    of walks seen before the pop that reached it."""

    def __init__(self, h):
        self.h = h
        self.expanded = 0
        self.distance = self.seen_at_hit = None

    def __call__(self, start, goal, cap, want_chain):
        self.expanded = 0
        self.distance = self.seen_at_hit = None
        cap = max(cap, len(start.letters), len(goal.letters))
        seen = {start: None}
        queue = deque([start])
        while queue:
            if len(seen) > homotopy.DEFAULT_MAX_STATES:
                return None, "max_states"
            w = queue.popleft()
            before = len(seen)
            self.expanded += 1
            for nxt, move in split_rewrites(self.h, w, cap):
                if nxt in seen:
                    continue
                seen[nxt] = (w, move)
                if nxt == goal:
                    moves = []
                    while seen[nxt] is not None:
                        moves.append(seen[nxt])
                        nxt = moves[-1][0]
                    self.distance, self.seen_at_hit = len(moves), before
                    steps = []
                    for prev, move in reversed(moves):
                        steps.extend(_expand_rewrite(prev, *move))
                    return tuple(steps) if want_chain else (), None
                queue.append(nxt)
        return None, "walk_length"


def insertion_pairs(ideal, rng, count, loops_per_pair):
    """Pairs (u, v) of walks from the first vertex: u a random reduced
    walk, and v u with loops p * q^-1 (p != q, from one minimal relation
    each) inserted at distinct visits."""
    loops = {}
    for rel in ideal.minimal_relations():
        loops.setdefault(rel.source, []).append(rel.support())
    pairs = []
    while len(pairs) < count:
        u = random_reduced_walk(ideal.quiver, rng, rng.randint(2, 6),
                                start=ideal.quiver.vertices[0])
        visits = [u.source] + [ideal.quiver.arrow(n).target if d == FORWARD
                               else ideal.quiver.arrow(n).source
                               for n, d in u.letters]
        spots = [i for i, x in enumerate(visits) if x in loops]
        if len(spots) < loops_per_pair:
            continue
        letters = u.letters
        for i in sorted(rng.sample(spots, loops_per_pair), reverse=True):
            p, q = rng.sample(rng.choice(loops[visits[i]]), 2)
            loop = walk_of_path(p).letters + walk_of_path(q).inverse().letters
            letters = letters[:i] + loop + letters[i:]
        pairs.append((u, Walk(u.source, u.target, letters)))
    return pairs


PAIRS = 6


def test_loop_insertion_search_matches_split_search():
    """Same decisions, chains included, as the FIFO search on the split
    enumeration, on two-unit I0 walk pairs with one or two loops
    inserted, whose goals lie at distances 1 and 2."""
    ideal = twobypass_chain(2)
    rng = random.Random(11)
    pairs = (insertion_pairs(ideal, rng, PAIRS, 1)
             + insertion_pairs(ideal, rng, PAIRS, 2))
    new = HomotopyRelation(ideal)
    ref = HomotopyRelation(ideal)
    ref._bfs = search = FifoSearch(ref)
    distances = set()
    for u, v in pairs:
        d = new.decide(u, v, want_chain=True)
        assert d.is_homotopic and d.chain
        assert d == ref.decide(u, v, want_chain=True)
        assert search.expanded  # the reference search ran
        distances.add(search.distance)
    assert distances == {1, 2}


def test_search_at_the_state_cap(monkeypatch):
    """With ``DEFAULT_MAX_STATES`` patched to 0, 1 and values around the
    number of walks seen when the FIFO search reaches a goal at distance
    2, every decision equals the FIFO search's: Unknown at the state
    cap, the goal found by expanding its parent's level, or found by the
    scan before that level is expanded."""
    ideal = twobypass_chain(2)
    near = insertion_pairs(ideal, random.Random(11), 1, 1)[0]
    far = insertion_pairs(ideal, random.Random(4), 1, 2)[0]
    new = HomotopyRelation(ideal)
    ref = HomotopyRelation(ideal)
    ref._bfs = search = FifoSearch(ref)
    ref.decide(*far)
    assert search.distance == 2
    hit = search.seen_at_hit
    rewrites = new._rewrites
    expanded = []

    def counted(*args):
        expanded.append(args)
        return rewrites(*args)

    new._rewrites = counted
    outcomes = set()
    for (u, v), caps in ((near, (0, 1)),
                         (far, (0, 1) + tuple(hit + k for k in
                                              (-1, 0, 1, 2, 8, 32, 128,
                                               512, 2048)))):
        for cap in caps:
            monkeypatch.setattr(homotopy, "DEFAULT_MAX_STATES", cap)
            expanded.clear()
            d = new.decide(u, v)
            assert d == ref.decide(u, v), cap
            # the start's level is expanded before a goal at distance 2
            outcomes.add(d.cap if d.is_unknown else
                         "expanded" if len(expanded) > 1 else "scanned")
    assert outcomes == {"max_states", "expanded", "scanned"}


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

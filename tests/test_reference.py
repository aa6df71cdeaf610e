"""The coordinate closure of ``ideal.close_ideal`` on sparse rows, the
pending-list congruence closure and the per-class fingerprint of
``HomotopyRelation`` against the Relation-based closure on dense rows,
the pairwise rescan-to-fixpoint closure and the all-pairs fingerprint
they replaced, kept here as reference implementations.

The partition that ``HomotopyRelation`` keeps per hom-set is compared
with the pair dict it replaced, built from ``combinations`` and sorted
into ``fingerprint_key``, through ``fingerprint_key``, ``pair_status``
and ``relations_equal``.

``close_ideal`` builds its rows from a reduced Gröbner basis in one
normal-form pass.  Besides the dense comparison, on grids, glued units
and cover ideals as well, the basis itself is checked with a reducer on
path arrows kept here: reduced, inside the ideal, every tip overlap's
S-element reducing to 0, and its tips dividing exactly the leading
paths of the rows.

The congruence closures are compared by their partitions of the paths,
not only by fingerprints: a closure that misses a cancellation can still
produce the same fingerprint, because ``decide`` certifies the pairs it
left apart.

``homotopy._reduction_steps`` frees a walk in one pass over a stack; it
is compared with the version that rescans the walk after each deletion.
``reduce_word`` on coded words is the one free reduction; it is compared
with the reduction on ``Walk`` letters that ``Walk.reduced`` made, and
``SpanningTree.chord_word`` of a reduced coded walk, which reduces
nothing, with the chord word of ``Walk`` letters it replaced.
``decide``, which reduces each coded walk once, is pinned on walk pairs
with backtracks by a digest recorded while it reduced ``Walk`` letters.

The homotopy search's rewrites are compared with the split enumeration
they replaced, move for move, and ``_move_to``, which names the first
move from a walk to a given child without building the others, with
those rewrites.  The insertion rules, built by conjugating one loop
along each pattern, are compared with the free reduction of every
cut's loop on ``Walk`` letters.  The level-by-level search is compared
with the FIFO search that expands every walk it pops, run on the split
enumeration: the same decisions and chains, also with the state cap
patched around the point where the FIFO search reaches its goal.

``transform.apply_automorphism`` maps basis rows in coordinates, one
hom-set at a time; it is compared with the Relation-based version it
replaced, which multiplies arrow images one arrow at a time and closes
the images of the minimal relations again.

``ideal.linear_combination`` sums c * r over its parts in one
``make_relation`` call; it is compared with the pairwise helpers it
replaced, ``add_relations`` and ``scale_relation``, kept here, on random
relations over Q, F_2 and F_3.  ``scale_relation`` multiplied without
coercing the scalar into the field, so over F_3 it kept 1/2 as a
``Fraction``, where ``linear_combination`` gives 2.

Over Q the field keeps integral scalars as ints; ``close_ideal`` on
generators with fractional coefficients is compared with the dense
closure run in ``FractionField``, the all-``Fraction`` arithmetic it
replaced.  The presentation reads each path's chord word from its
arrows; it is compared with the chord words of ``walk_of_path``.

Chord words, relators and coset words are tuples of chord numbers.  The
relators and the words of the coset certificates are compared with
those built on (chord name, +-1) letters, reduced and inverted there
and numbered only at the end, as they were built before the formats
were merged.

``HomotopyRelation`` is built on path numbers from the echelon rows
(``Ideal.support_pairs``).  Its generating pairs, relators, congruence
closure and ``fingerprint_key`` are compared with the build it replaced:
pairs from the supports of the ``Relation`` objects of
``minimal_relations``, relators from the arrows of ``Path`` pairs, the
closure extending through ``arrows_from`` and tables looked up by arrow
name, and the key computing each ``Path``'s ``path_key`` and looking it
up in ``h._where``.  ``DisjointSets.union``, which halves both paths
inline, is compared with two ``find`` calls and a link.

Ideals compare and hash by a snapshot of their echelon rows by path
number (``Ideal.rows``); that identity is compared with comparing
``minimal_relations``, and the dense reference ideals, whose rows are
coefficient lists, are compared with the sparse ones through
``minimal_relations`` too.  ``check_surjection`` reads generating pairs
and statuses by path number; it is compared with the lookup of the
``Path`` pairs of ``generating_pairs`` through ``pair_status``.

``GroupPresentation.exponents`` is the one count of a word's exponents
on the chord generators, and ``GroupPresentation.image`` its lattice
image.  The exponents of a loop's chord word are compared with the count
over the letters of the two walks by arrow name, and the image of each
path's chord word with the count over its word in
``SpanningTree.path_words``, the two counts they replaced.
"""

import hashlib
import random
import re
from collections import deque
from fractions import Fraction
from importlib import resources
from itertools import chain, combinations

import pytest
from conftest import (COMMUTATOR, TWO_BYPASS, grid_text, loop_chord_word,
                      make_random_bound_quiver, twobypass_chain)

from bqkit import homotopy
from bqkit.coset import enumerate_cosets
from bqkit.cover import universal_cover
from bqkit.disjoint_sets import DisjointSets
from bqkit.dsl import parse_path, parse_source
from bqkit.errors import HomotopyError, IdealError, UnresolvedError
from bqkit.fields import Field
from bqkit.gamma import (CONFIRMED, REFUTED, check_surjection,
                         explore_gamma, tau_schedule)
from bqkit.homotopy import (DIFFERENT, EQUAL, HOMOTOPIC, NOT_HOMOTOPIC,
                            UNKNOWN, Decision, GroupPresentation,
                            HomotopyRelation, _expand_rewrite, fingerprint_key,
                            homotopy_relation, relations_equal)
from bqkit.ideal import (Ideal, Relation, _groebner_basis, close_ideal,
                         ideals_equal, linear_combination, make_relation,
                         mul_relations, relation_of_path)
from bqkit.quiver import (FORWARD, INVERSE, Path, Walk, enumerate_paths,
                          find_bypasses, make_path, path_key, path_tables,
                          paths_between, trivial_path, walk_of_path)
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


def path_classes(h):
    """The {path: class root number} map of the relation's congruence
    closure, which keeps the root number of each path number."""
    return dict(zip(enumerate_paths(h.quiver), h._path_classes))


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


def closure_inputs():
    """``all_ideals()``, the grids 3 to 5, one to three glued ``I0`` and
    ``I2`` units in each characteristic of ``CHARS``, and the total ideals
    of the universal covers of a free unit and of one ``I0`` unit."""
    yield from all_ideals()
    for n in (3, 4, 5):
        yield parse_source(grid_text(n)).ideal("I")
    for unit in ("I0", "I2"):
        for units in (1, 2, 3):
            for char in CHARS:
                yield twobypass_chain(units, unit, char)
    free = parse_source(TWO_BYPASS + "ideal F over twobypass(0) "
                                     "{ rel d*a; rel f*e*c*b; }").ideal("F")
    for ideal, radius in ((free, 6), (twobypass_chain(1), 8)):
        yield universal_cover(ideal, radius=radius).total_ideal


def test_sparse_rows_match_dense_rows():
    for ideal in closure_inputs():
        dense = relation_closure(ideal.quiver, ideal.field, ideal.generators)
        assert dense.minimal_relations() == ideal.minimal_relations()


# b*a and c*b overlap in b, and their S-element c*b2*a2 - c2*b2*a has a
# tip that neither generator has: the generators are no Gröbner basis
OVERLAP = """
quiver line {
  vertices: 1 2 3 4;
  arrow a2: 1 -> 2; arrow b2: 2 -> 3; arrow c2: 3 -> 4;
  arrow a: 1 -> 2; arrow b: 2 -> 3; arrow c: 3 -> 4;
}
ideal I over line(0) { rel b*a - b2*a2; rel c*b - c2*b2; }
"""


def _inside(tip, arrows):
    """The positions of the arrows ``tip`` inside ``arrows``."""
    n = len(tip)
    return [s for s in range(len(arrows) - n + 1) if arrows[s:s + n] == tip]


def _top_reduce(quiver, fld, f, elements):
    """Reduce the leading path of {path: coeff} by {tip arrows: element}
    until it has no tip inside; the remainder."""
    f = dict(f)
    while f:
        lead = max(f, key=lambda p: path_key(quiver, p))
        hits = [(tip, s) for tip in elements for s in _inside(tip, lead.arrows)]
        if not hits:
            return f
        tip, s = hits[0]
        c = f[lead]
        for q, d in elements[tip].items():
            moved = make_path(quiver, lead.arrows[:s] + q.arrows
                              + lead.arrows[s + len(tip):])
            x = fld.sub(f.get(moved, fld.zero), fld.mul(c, d))
            if fld.is_zero(x):
                f.pop(moved, None)
            else:
                f[moved] = x
    return f


def test_groebner_basis_is_reduced_and_complete():
    """The basis that ``close_ideal`` closes from: monic, in the ideal, no
    tip inside another, every tip overlap's S-element reduces to 0, and
    the paths with a tip inside are the leading paths of the echelon
    rows.  On ``OVERLAP`` an S-element adds a tip."""
    overlaps = 0
    for ideal in chain(all_ideals(), [parse_source(OVERLAP).ideal("I")]):
        quiver, fld = ideal.quiver, ideal.field
        paths = enumerate_paths(quiver)
        index = path_tables(quiver)[0]
        basis = _groebner_basis(quiver, fld, [
            {index[p]: c for p, c in g.terms} for g in ideal.generators])
        elements = {}
        for t, row in basis.items():
            assert t == max(row) and row[t] == 1
            g = {paths[j]: c for j, c in row.items()}
            assert ideal.contains(make_relation(
                quiver, fld, paths[t].source, paths[t].target, g))
            elements[paths[t].arrows] = g
        for u, w in combinations(elements, 2):
            assert not _inside(u, w) and not _inside(w, u)
        for u, w in ((u, w) for u in elements for w in elements):
            for m in range(1, min(len(u), len(w))):
                if u[-m:] != w[:m]:
                    continue
                overlaps += 1
                s = {}
                for q, c in elements[u].items():
                    s[make_path(quiver, q.arrows + w[m:])] = c
                for q, c in elements[w].items():
                    p = make_path(quiver, u[:-m] + q.arrows)
                    s[p] = fld.sub(s.get(p, fld.zero), c)
                s = {p: c for p, c in s.items() if not fld.is_zero(c)}
                assert _top_reduce(quiver, fld, s, elements) == {}
        leads = {r.support()[-1] for r in ideal.minimal_relations()}
        assert leads == {p for p in paths
                         if any(_inside(tip, p.arrows) for tip in elements)}
    assert overlaps > 0
    tips = {r.support()[-1].arrows for r in parse_source(OVERLAP).ideal("I").generators}
    assert set(elements) - tips == {("a2", "b2", "c")}


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
        assert got.minimal_relations() == want.minimal_relations()
        for r in got.minimal_relations():
            for _, c in r.terms:
                assert type(c) is int or (type(c) is Fraction
                                          and c.denominator != 1)


def free_reduce_word(word):
    """Free reduction of a word of (name, +-1) letters."""
    out = []
    for g, e in word:
        if out and out[-1][0] == g and out[-1][1] == -e:
            out.pop()
        else:
            out.append((g, e))
    return tuple(out)


def invert_word(word):
    return tuple((g, -e) for g, e in reversed(word))


def walk_reduced(walk):
    """The free reduction on ``Walk`` letters that ``Walk.reduced`` made
    before ``reduce_word`` on coded words became the one reduction: a
    walk that is reduced already is returned as it is."""
    out = []
    for letter in walk.letters:
        if out and out[-1][0] == letter[0] and out[-1][1] == -letter[1]:
            out.pop()
        else:
            out.append(letter)
    if len(out) == len(walk.letters):
        return walk
    return Walk(walk.source, walk.target, tuple(out))


def walk_chord_word(tree, walk):
    """The chord word that ``SpanningTree.chord_word`` made from ``Walk``
    letters, reduced or not, before it read reduced coded words: the
    chord letters, last first, reduced."""
    index = tree.chord_index
    return homotopy.reduce_word([index[name] * d
                                 for name, d in reversed(walk.letters)
                                 if name in index])


def test_coded_reduction_and_chord_words_match_walk_letters():
    """On random walks with backtracks over ``closure_inputs()``, from
    every vertex: ``reduce_word`` of the coded walk is the coded
    ``walk_reduced``, and the coded ``chord_word`` of that reduced word,
    built with no reduction of its own, is ``walk_chord_word`` of the
    walk and of its reduction."""
    rng = random.Random(29)
    cancelled = with_chords = 0
    for ideal in closure_inputs():
        quiver = ideal.quiver
        tree = homotopy.spanning_tree(quiver, quiver.vertices[0])
        for _ in range(8):
            walk = random_walk(quiver, rng, rng.randint(0, 14))
            red = walk_reduced(walk)
            word = homotopy.reduce_word(tree.encode(walk.letters))
            assert word == tree.encode(red.letters), walk
            assert tree.decode(walk.source, word) == red
            chords = tree.chord_word(word)
            assert chords == walk_chord_word(tree, walk), walk
            assert chords == walk_chord_word(tree, red), walk
            cancelled += len(red) < len(walk)
            with_chords += bool(chords)
    assert cancelled > 1000 and with_chords > 500, (cancelled, with_chords)


def named_chord_word(tree, walk):
    """The chord word of a walk on (chord name, +-1) letters, in
    composition order."""
    return free_reduce_word([(name, d) for name, d in reversed(walk.letters)
                             if name in tree.chords])


def loop_word(tree, u, v):
    """The chord word of u * v^-1, reduced on (chord name, +-1) letters,
    then chord i of ``tree.chords`` numbered i."""
    word = free_reduce_word(named_chord_word(tree, u)
                            + invert_word(named_chord_word(tree, v)))
    return tuple((tree.chords.index(g) + 1) * e for g, e in word)


def walk_relators(h):
    """The relators from the chord words of ``walk_of_path``."""
    words = (loop_word(h.tree, walk_of_path(u), walk_of_path(v))
             for u, v in h.generating_pairs)
    return tuple(word for word in words if word)


def test_relators_from_path_arrows_match_walk_relators():
    for ideal in all_ideals():
        h = homotopy_relation(ideal)
        assert h.presentation.relators == walk_relators(h)


def coset_pairs(h, rng):
    """Parallel walk pairs: every pair of parallel paths, and random
    reduced walks from the base point against the tree walk to their
    target."""
    for u, v in h.fingerprint:
        yield walk_of_path(u), walk_of_path(v)
    for length in range(1, 13):
        for _ in range(3):
            u = random_reduced_walk(h.quiver, rng, length, h.base_point)
            yield u, h.tree.walk_from_root(u.target)


def test_coset_certificates_match_named_chord_words():
    """Every coset decision, with no chain wanted, on one I0 unit and on
    the random ideals whose pi1 is finite with relators: its certificate
    has the order of the table enumerated from ``walk_relators`` and the
    word ``loop_word`` of the reduced walks, and it acts on that table
    as the verdict says."""
    decided = {"I0": 0, "random": 0}
    ideals = [("I0", twobypass_chain(1))]
    ideals += [("random", ideal) for ideal in random_ideals()]
    for k, (where, ideal) in enumerate(ideals):
        h = homotopy_relation(ideal)
        gp = h.presentation
        if not gp.relators or gp.abelian_invariants[0]:
            continue
        relators = walk_relators(h)
        table = enumerate_cosets(len(gp.generators), relators)
        for u, v in coset_pairs(h, random.Random(k)):
            d = h.decide(u, v, want_chain=False)
            if d.certificate is None or d.certificate["kind"] not in (
                    "coset-action", "coset-trivial"):
                continue
            word = loop_word(h.tree, walk_reduced(u), walk_reduced(v))
            kind = ("coset-action" if table.is_nontrivial(word)
                    else "coset-trivial")
            assert d.certificate == {"kind": kind, "order": table.order,
                                     "word": word}, (u, v)
            decided[where] += 1
    assert decided["I0"] and decided["random"], decided


def test_worklist_closure_matches_pairwise_closure():
    for ideal in all_ideals():
        h = homotopy_relation(ideal)
        reference = pairwise_closure(h.quiver, h.generating_pairs)
        assert partition(path_classes(h)) == partition(reference)


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
                    nxt = walk_reduced(Walk(w.source, w.target, raw))
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
    tree = h.tree
    for nxt, move in h._rewrites(w.source, tree.encode(w.letters), cap):
        yield tree.decode(w.source, nxt), move


def assert_same_rewrites(h, walks):
    for w in walks:
        assert walk_reduced(w) == w
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


def reduced_cut_rules(h):
    """The rules ``_insertion_rules`` gave before it conjugated along the
    pattern: for each cut p = y * x, the free reduction of
    y^-1 * q * x^-1 on ``Walk`` letters, coded, anchored at the vertex
    between y and x read from the quiver's arrows."""
    def end(name, d):
        a = h.quiver.arrow(name)
        return a.target if d == FORWARD else a.source

    rules = []
    seen = set()
    for psrc, pdst in h._replacement_patterns():
        for cut in range(len(psrc) + 1):
            if cut:
                anchor = end(*psrc[cut - 1])
            else:
                anchor = end(psrc[0][0], -psrc[0][1])
            y, x = psrc[:cut], psrc[cut:]
            loop = h.tree.encode(free_reduce_word(
                invert_word(y) + pdst + invert_word(x)))
            if (anchor, loop) not in seen:
                seen.add((anchor, loop))
                rules.append((anchor, loop, (y, x, pdst)))
    return tuple(rules)


def test_insertion_rules_match_reduced_cut_loops():
    ideals = chain(all_ideals(),
                   (twobypass_chain(units) for units in (1, 2, 3)),
                   (make_random_bound_quiver(random.Random(seed),
                                             max_vertices=8)
                    for seed in range(20)))
    with_rules = 0
    for ideal in ideals:
        h = homotopy_relation(ideal)
        rules = h._insertion_rules
        assert rules == reduced_cut_rules(h), ideal.quiver.name
        with_rules += bool(rules)
    assert with_rules > 20


def test_move_to_matches_rewrites():
    """For every child of a walk, ``_move_to`` gives the move by which
    ``_rewrites`` first yields it; for the walk itself and for the
    grandchildren through its first three children that are not
    children, it gives None."""
    for h, walks in chain(random_quiver_walks(), i0_chain_walks()):
        longest = max((len(loop) for _, loop, _ in h._insertion_rules),
                      default=0)
        for walk in walks:
            w = h.tree.encode(walk.letters)
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
        assert (steps[-1].result if steps else w) == walk_reduced(w)


def visits(quiver, walk):
    """The vertices a walk is at, from its source on."""
    at = [walk.source]
    for name, d in walk.letters:
        a = quiver.arrow(name)
        at.append(a.target if d == FORWARD else a.source)
    return at


def with_backtracks(quiver, walk, rng, count):
    """The walk with ``count`` backtracks x * x^-1 inserted at random
    visits, one after the other."""
    for _ in range(count):
        i = rng.randrange(len(walk.letters) + 1)
        at = visits(quiver, walk)[i]
        steps = [(a.name, FORWARD) for a in quiver.arrows_from(at)]
        steps += [(a.name, INVERSE) for a in quiver.arrows_into(at)]
        x = rng.choice(steps)
        walk = Walk(walk.source, walk.target,
                    walk.letters[:i] + (x, (x[0], -x[1])) + walk.letters[i:])
    return walk


def unreduced_pairs(h, rng):
    """Parallel walk pairs with backtracks: the first four pairs of the
    fingerprint and its first Unknown pair, if any, as walks of paths,
    and random parallel pairs, each also against its own u."""
    quiver = h.quiver
    pairs = list(h.fingerprint)[:4]
    pairs += [pair for pair, status in h.fingerprint.items()
              if status == UNKNOWN][:1]
    for u, v in pairs:
        yield (with_backtracks(quiver, walk_of_path(u), rng, 1),
               with_backtracks(quiver, walk_of_path(v), rng, 2))
    for _ in range(4):
        u, v = random_parallel_pair(h, rng)
        yield with_backtracks(quiver, u, rng, 2), with_backtracks(quiver, v, rng, 1)
        yield with_backtracks(quiver, u, rng, 3), u


def decision_inputs():
    """The bundled examples, every third random ideal over Q, one ``I0``
    unit, one ``I2`` unit over F_3 and ``COMMUTATOR``."""
    yield from example_ideals()
    for seed in range(0, 60, 3):
        yield make_random_bound_quiver(random.Random(seed))
    yield twobypass_chain(1)
    yield twobypass_chain(1, "I2", 3)
    yield parse_source(COMMUTATOR).ideal("I")


# sha256 prefix of the (status, chain, certificate, cap) of every decision
# of test_decisions_on_unreduced_pairs_are_pinned, as decided when both
# walks were reduced as ``Walk`` letters
UNREDUCED_DECISIONS = "febb729b58b9e03c"


def test_decisions_on_unreduced_pairs_are_pinned():
    """``decide`` with and without a chain on walk pairs with backtracks:
    every status, certificate kind and the Unknown cap "walk_length"
    occur, and the outcomes, chains and certificates included, are
    those pinned in ``UNREDUCED_DECISIONS``."""
    outcomes = []
    kinds = set()
    for k, ideal in enumerate(decision_inputs()):
        h = HomotopyRelation(ideal)
        for u, v in unreduced_pairs(h, random.Random(k)):
            for want_chain in (True, False):
                d = h.decide(u, v, want_chain=want_chain)
                outcomes.append((d.status, d.chain, d.certificate, d.cap))
                kinds.add(d.certificate["kind"] if d.certificate
                          else "chain" if d.chain else d.cap or d.status)
    assert kinds == {"chain", HOMOTOPIC, "walk_length", "free",
                     "abelianization", "coset-trivial"}
    assert hashlib.sha256(repr(outcomes).encode()).hexdigest()[:16] \
        == UNREDUCED_DECISIONS


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

    def __call__(self, source, first, last, cap, want_chain):
        start = self.h.tree.decode(source, first)
        goal = self.h.tree.decode(source, last)
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
    classes = path_classes(h)
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


def built_while_exploring(monkeypatch, ideal):
    """Every relation that ``explore_gamma`` builds from the ideal."""
    built = []
    init = HomotopyRelation.__init__

    def record(self, *args):
        init(self, *args)
        built.append(self)

    with monkeypatch.context() as m:
        m.setattr(HomotopyRelation, "__init__", record)
        explore_gamma(ideal)
    return built


def class_inputs():
    """``all_ideals()``, one to three ``I0`` units and ``COMMUTATOR``."""
    yield from all_ideals()
    for units in (1, 2, 3):
        yield twobypass_chain(units)
    yield parse_source(COMMUTATOR).ideal("I")


def test_class_fingerprint_matches_pairwise_fingerprint(monkeypatch):
    relations = [HomotopyRelation(ideal) for ideal in class_inputs()]
    for ideal in (twobypass_chain(2, "I2", 2), twobypass_chain(1, "I2", 0)):
        explored = built_while_exploring(monkeypatch, ideal)
        assert len(explored) > 1
        relations += explored
    for h in relations:
        expected = list(pairwise_fingerprint(h).items())
        assert list(h.fingerprint.items()) == expected


def test_class_images_match_abelian_images():
    """On every hom-set with two or more classes, each member of a class
    has the class's image, and two classes have equal images exactly
    when the abelian image of their first paths' loop is zero."""
    outcomes = set()
    for ideal in class_inputs():
        h = homotopy_relation(ideal)
        image, words = h.presentation.image, h.tree.path_words
        index = path_tables(h.quiver)[0]
        for paths, labels, table in h._homs:
            if len(table) < 2:
                continue
            firsts = [paths[labels.index(k)] for k in range(len(table))]
            images = [image(words[index[p]]) for p in firsts]
            for p, k in zip(paths, labels):
                assert image(words[index[p]]) == images[k], p
            for (u, a), (v, b) in combinations(zip(firsts, images), 2):
                zero = not any(image(loop_chord_word(h, walk_of_path(u),
                                                     walk_of_path(v))))
                assert (a == b) == zero, (u, v)
                outcomes.add(zero)
    assert outcomes == {True, False}


def walk_loop_exponents(h, u, v):
    """Net chord exponents of the loop u * v^-1, counted over the letters
    of u and v by arrow name."""
    vec = [0] * len(h.presentation.generators)
    index = h.tree.chord_index
    for name, d in u.letters:
        if name in index:
            vec[index[name] - 1] += d
    for name, d in v.letters:
        if name in index:
            vec[index[name] - 1] -= d
    return vec


def path_word_class_image(h, n):
    """The lattice image of the chord exponents of the path numbered n,
    counted over its word in ``SpanningTree.path_words``."""
    exponents = [0] * len(h.presentation.generators)
    for c in h.tree.path_words[n]:
        exponents[c - 1] += 1
    return h.presentation.lattice.image(exponents)


def random_parallel_pair(h, rng):
    """A random reduced walk u and a walk v parallel to it: a random
    reduced walk from u's source, then the tree walks back to the base
    point and on to u's target."""
    tree = h.tree
    u = random_reduced_walk(h.quiver, rng, rng.randint(0, 8))
    r = random_reduced_walk(h.quiver, rng, rng.randint(0, 8), u.source)
    back = tree.walk_from_root(r.target).inverse()
    return u, Walk(u.source, u.target, r.letters + back.letters
                   + tree.walk_from_root(u.target).letters)


def test_word_exponents_and_images_match_walk_counts():
    """On ``closure_inputs()``, which holds ``all_ideals()`` and the
    word-dihedral input (two ``I0`` units over Q): the exponents of the
    chord word of u * v^-1 equal the count over the letters of u and v,
    for random parallel pairs, and for every path number the image of
    its chord word equals the count over that word."""
    rng = random.Random(7)
    nonzero = 0
    for ideal in closure_inputs():
        h = homotopy_relation(ideal)
        gp = h.presentation
        for _ in range(6):
            u, v = random_parallel_pair(h, rng)
            expected = walk_loop_exponents(h, u, v)
            assert gp.exponents(loop_chord_word(h, u, v)) == expected
            assert gp.exponents(loop_chord_word(
                h, walk_reduced(u), walk_reduced(v))) == expected
            nonzero += any(expected)
        for n, word in enumerate(h.tree.path_words):
            assert gp.image(word) == path_word_class_image(h, n), n
    assert nonzero > 100


@pytest.mark.parametrize("letter", [0, 3])
def test_word_letter_naming_no_generator_raises(letter):
    """A hand-made word with letter 0 or n + 1 raises when its exponents
    or its image are asked for, as a relator with such a letter does
    (``test_malformed_relator_letter_is_rejected``)."""
    gp = GroupPresentation(("g1", "g2"), ((1, -2),))
    for count in (gp.exponents, gp.image):
        with pytest.raises(HomotopyError,
                           match="names none of the 2 generators"):
            count((1, letter))


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
    """The relation built when every word has the same abelian image and
    ``decide`` answers from ``script`` (written paths to
    status, Unknown if absent); returns it and the decided pairs.  The
    patches stay until ``monkeypatch`` is undone."""
    calls = []

    def decide(self, u, v, cap=None, want_chain=True):
        pair = (u.to_text(), v.to_text())
        calls.append(pair)
        return Decision(script.get(pair, UNKNOWN))

    monkeypatch.setattr(GroupPresentation, "image", lambda self, word: ())
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


def add_relations(quiver, fld, a, b):
    """a + b, the pairwise sum that ``ideal.linear_combination`` replaced."""
    if (a.source, a.target) != (b.source, b.target):
        raise IdealError("cannot add relations in different hom-pairs")
    return make_relation(quiver, fld, a.source, a.target,
                         list(a.terms) + list(b.terms))


def scale_relation(quiver, fld, c, r):
    """c * r for a scalar c already in the field, the multiple that
    ``ideal.linear_combination`` replaced."""
    if fld.is_zero(c):
        return Relation(r.source, r.target, ())
    return Relation(r.source, r.target,
                    tuple((p, fld.mul(c, x)) for p, x in r.terms))


def random_relation(quiver, fld, rng, x, y):
    """A relation over about half the paths x -> y, with coefficients
    that are often zero, and fractions over Q."""
    terms = [(p, Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2))))
             for p in paths_between(quiver, x, y) if rng.random() < 0.5]
    if fld.char:
        terms = [(p, c.numerator) for p, c in terms]
    return make_relation(quiver, fld, x, y, terms)


@pytest.mark.parametrize("char", (0, 2, 3))
def test_linear_combination_matches_pairwise_sums(char):
    """One ``linear_combination`` call equals the sum of its parts added
    one at a time with ``scale_relation`` and ``add_relations``, on
    random relations of random quivers, zero scalars and zero relations
    included."""
    fld = Field(char)
    rng = random.Random(char)
    checked = 0
    for _ in range(40):
        quiver = make_random_bound_quiver(rng).quiver
        homs = [(x, y) for x in quiver.vertices for y in quiver.vertices
                if len(paths_between(quiver, x, y)) >= 2]
        if not homs:
            continue
        x, y = rng.choice(homs)
        parts = [(fld.scalar(rng.randint(-2, 2)),
                  random_relation(quiver, fld, rng, x, y))
                 for _ in range(rng.randint(0, 4))]
        pairwise = Relation(x, y, ())
        for c, r in parts:
            pairwise = add_relations(quiver, fld, pairwise,
                                     scale_relation(quiver, fld, c, r))
        assert linear_combination(quiver, fld, x, y, parts) == pairwise
        checked += 1
    assert checked >= 20


def test_linear_combination_coerces_scalars_into_the_field(exple1):
    """Over F_3 the scalar 1/2 is 2, so (1/2) * c*b is 2*c*b: each scalar
    is coerced before it multiplies, where ``scale_relation`` kept the
    Fraction and printed 0*c*b."""
    f3 = Field(3)
    cb = relation_of_path(exple1, f3, parse_path(exple1, "c*b"))
    half = linear_combination(exple1, f3, "1", "3", [(Fraction(1, 2), cb)])
    assert half == make_relation(exple1, f3, "1", "3", [(cb.terms[0][0], 2)])
    assert half.to_text(f3) == "2*c*b"
    assert scale_relation(exple1, f3, Fraction(1, 2), cb).to_text(f3) == "0*c*b"


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
            assert image.minimal_relations() == expected.minimal_relations(), phi
            # an image ideal's generators are the images of the source's
            # generators, in order, and they close to it
            auto = as_path_automorphism(phi, quiver, fld)
            assert list(image.generators) == [
                auto.apply_to_relation(g) for g in ideal.generators], phi
            rebuilt = relation_closure(quiver, fld, image.generators)
            assert rebuilt.minimal_relations() == image.minimal_relations()
            for r in ideal.minimal_relations():
                assert auto.apply_to_relation(r) == relation_image(auto, r)
            checked += 1
    assert checked > 1000


def identity_corpus():
    """``closure_inputs()``, each also closed again from its basis rows
    and from all but its last generator, and the ``apply_automorphism``
    images of ``apply_corpus()`` under every transvection of the tau
    schedule and one dilatation."""
    for ideal in closure_inputs():
        quiver, fld = ideal.quiver, ideal.field
        yield ideal
        yield close_ideal(quiver, fld, ideal.minimal_relations())
        yield close_ideal(quiver, fld, ideal.generators[:-1])
    for ideal in apply_corpus():
        quiver, fld = ideal.quiver, ideal.field
        for bypass in find_bypasses(quiver):
            for tau in tau_schedule(fld):
                yield apply_automorphism(Transvection(bypass, tau), ideal)
        yield apply_automorphism(some_dilatation(quiver, fld), ideal)


def test_ideal_identity_is_the_identity_of_minimal_relations():
    """``Ideal.__eq__`` and ``__hash__`` read the echelon rows by path
    number; they agree with comparing ``minimal_relations``, the rows as
    relations, on every pair of ideals on one quiver over one field
    (rows over different fields can print alike), and equal ideals hash
    equal.  The corpus has equal ideals closed from different generator
    sets and equal images of different ideals."""
    groups = {}
    for ideal in identity_corpus():
        groups.setdefault((ideal.quiver, ideal.field), []).append(ideal)
    equal_pairs = unequal_pairs = regenerated = 0
    for ideals in groups.values():
        for a, b in combinations(ideals, 2):
            same = a.minimal_relations() == b.minimal_relations()
            assert (a == b) == same == ideals_equal(a, b)
            if same:
                assert hash(a) == hash(b)
                equal_pairs += 1
                regenerated += a.generators != b.generators
            else:
                unequal_pairs += 1
    assert regenerated > 1000 and equal_pairs > regenerated
    assert unequal_pairs > 1000
    by_quiver = {}
    for quiver, fld in groups:
        by_quiver.setdefault(quiver, []).append(groups[quiver, fld][0])
    for ideals in by_quiver.values():
        for a, b in combinations(ideals, 2):
            assert a != b


def path_pair_surjection(source_ideal, target_ideal):
    """The (status, witness) of ``check_surjection`` as it was computed
    from ``Path`` pairs: the source's ``generating_pairs`` looked up in
    the target with ``pair_status``."""
    h_target = homotopy_relation(target_ideal)
    unknown_witness = None
    for u, v in homotopy_relation(source_ideal).generating_pairs:
        status = h_target.pair_status(u, v)
        if status == NOT_HOMOTOPIC:
            return REFUTED, (u, v)
        if status == UNKNOWN and unknown_witness is None:
            unknown_witness = (u, v)
    if unknown_witness is not None:
        return UNKNOWN, unknown_witness
    return CONFIRMED, None


def test_surjection_by_path_number_matches_path_pairs():
    """``check_surjection`` reads the generating pairs and statuses by
    path number; it gives the verdicts and witnesses of the ``Path``
    pair lookup on every ordered pair of ideals on one quiver over one
    field among the example ideals and the random ideals of one seed
    reduced to two generators, and along the Gamma edges of two ``I2``
    units over F_2."""
    groups = {}
    for ideal in example_ideals():
        groups.setdefault((ideal.quiver, ideal.field), []).append(ideal)
    for seed in range(20):
        ideal = make_random_bound_quiver(random.Random(seed), char=0)
        groups[ideal.quiver, ideal.field] = [ideal] + [
            close_ideal(ideal.quiver, ideal.field, ideal.generators[k:k + 1])
            for k in range(len(ideal.generators))]
    pairs = [(a, b) for ideals in groups.values() for a in ideals
             for b in ideals if a is not b]
    gamma = explore_gamma(twobypass_chain(2, "I2", 2))
    pairs += [(e.source_rep, e.target_rep) for e in gamma.edges]
    verdicts = set()
    for a, b in pairs:
        res = check_surjection(a, b)
        assert (res.status, res.witness) == path_pair_surjection(a, b)
        verdicts.add(res.status)
    assert verdicts == {CONFIRMED, REFUTED}


def row_generating_pairs(ideal):
    """The generating pairs as they were taken from ``minimal_relations``:
    every pair of support paths of each basis ``Relation``."""
    pairs = []
    for rel in ideal.minimal_relations():
        supp = rel.support()
        for i in range(len(supp)):
            for j in range(i + 1, len(supp)):
                pairs.append((supp[i], supp[j]))
    return tuple(pairs)


def path_relators(h, pairs):
    """The relators from the arrows of each generating ``Path`` pair."""
    index = h.tree.chord_index
    relators = []
    for u, v in pairs:
        word = homotopy.cancel_join(
            tuple(index[a] for a in reversed(u.arrows) if a in index),
            tuple(-index[a] for a in v.arrows if a in index))
        if word:
            relators.append(word)
    return tuple(relators)


def path_pair_closure(quiver, pairs):
    """The pending-list closure pushed from ``Path`` pairs looked up by
    their index, extending a merged pair through ``arrows_from`` and
    ``arrows_into`` and the tables of each arrow looked up by name, with
    union by find-then-link; the root number of each path number."""
    paths = enumerate_paths(quiver)
    index, after, before, head, tail = path_tables(quiver)
    sets = FindThenLink(range(len(paths)))
    by_first = [{p.arrows[0]: i} if p.arrows else {}
                for i, p in enumerate(paths)]
    by_last = [{p.arrows[-1]: i} if p.arrows else {}
               for i, p in enumerate(paths)]
    pending = [(index[u], index[v]) for u, v in pairs]
    while pending:
        i, j = pending.pop()
        merged = sets.union(i, j)
        if merged is None:
            continue
        rp, rq = merged
        p = paths[i]
        for a in quiver.arrows_from(p.target):
            pending.append((after[a.name][i], after[a.name][j]))
        for b in quiver.arrows_into(p.source):
            pending.append((before[b.name][i], before[b.name][j]))
        for table, cancel in ((by_first, tail), (by_last, head)):
            kept = table[rq]
            for a, u in table[rp].items():
                w = kept.setdefault(a, u)
                if w != u:
                    pending.append((cancel[u], cancel[w]))
            table[rp] = None
    return [sets.find(i) for i in range(len(paths))]


def path_lookup_key(h):
    """``fingerprint_key`` with each path looked up by ``Path``: its
    ``path_key`` and its (hom index, position) in ``h._where``."""
    quiver = h.quiver
    keys = [[path_key(quiver, p) for p in paths] for paths, _, _ in h._homs]
    items = []
    for u in enumerate_paths(quiver):
        k, i = h._where[u]
        _, labels, table = h._homs[k]
        row = table[labels[i]]
        items.extend(((keys[k][i], kv), row[b])
                     for kv, b in zip(keys[k][i + 1:], labels[i + 1:]))
    return tuple(items)


class FindThenLink(DisjointSets):
    """``DisjointSets`` whose union calls ``find`` twice, then links."""

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return None
        self.parent[rx] = ry
        return rx, ry


def number_build_inputs():
    """``closure_inputs()`` and 20 random quivers of up to 8 vertices."""
    yield from closure_inputs()
    for k in range(20):
        yield make_random_bound_quiver(random.Random(1000 + k),
                                       char=CHARS[k % 3], max_vertices=8)


def test_number_build_matches_path_build():
    """The relation built on path numbers from the echelon rows against
    the build from ``Relation`` supports and ``Path`` pairs: the same
    generating pairs, relators (in order), root number of every path
    number and fingerprint key."""
    keyed = 0
    for ideal in number_build_inputs():
        h = HomotopyRelation(ideal)
        pairs = row_generating_pairs(ideal)
        assert h.generating_pairs == pairs
        assert h.presentation.relators == path_relators(h, pairs)
        assert h._path_classes == path_pair_closure(h.quiver, pairs)
        if any(tag == UNKNOWN for tag in h.fingerprint.values()):
            with pytest.raises(UnresolvedError):
                fingerprint_key(h)
            continue
        assert fingerprint_key(h) == path_lookup_key(h)
        keyed += 1
    assert keyed > 200


def test_building_a_relation_reads_no_relation_objects(monkeypatch):
    """Building a relation and its key calls ``minimal_relations`` zero
    times; the spy counts the call of ``describe``."""
    ideals = [grid_ideal(5), twobypass_chain(2), twobypass_chain(2, "I2", 2)]
    ideals += list(example_ideals())
    calls = []
    minimal = Ideal.minimal_relations

    def spy(self):
        calls.append(self)
        return minimal(self)

    monkeypatch.setattr(Ideal, "minimal_relations", spy)
    for ideal in ideals:
        fingerprint_key(HomotopyRelation(ideal))
    assert calls == []
    ideals[0].describe()
    assert calls == [ideals[0]]


def test_inline_union_matches_find_then_link():
    """``DisjointSets.union`` halves both paths inline: the same results,
    parent maps and classes as two ``find`` calls and a link, over random
    unions and finds."""
    rng = random.Random(11)
    for n in (1, 2, 3, 8, 40, 300):
        items = [str(x) for x in range(n)] if n == 8 else list(range(n))
        new, old = DisjointSets(items), FindThenLink(items)
        for _ in range(4 * n):
            x, y = rng.choice(items), rng.choice(items)
            if rng.random() < 0.2:
                assert new.find(x) == old.find(x)
            else:
                assert new.union(x, y) == old.union(x, y)
            assert new.parent == old.parent
        assert new.classes() == old.classes()

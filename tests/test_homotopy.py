import hashlib
import importlib.util
import os
import random
from itertools import combinations

import pytest
from conftest import (decide_unknown, grid_text, loop_chord_word,
                      make_random_bound_quiver, reduced, twobypass_chain)

from bqkit import homotopy
from bqkit.dsl import parse_path, parse_quiver, parse_source, parse_walk
from bqkit.errors import HomotopyError, UnresolvedError
from bqkit.homotopy import (DIFFERENT, EQUAL, HOMOTOPIC, NOT_HOMOTOPIC,
                            GroupPresentation, cancel_join, conjugate,
                            fingerprint_key, homotopy_relation, invert_word,
                            reduce_word, relations_equal)
from bqkit.ideal import close_ideal
from bqkit.quiver import (FORWARD, INVERSE, Walk, enumerate_paths, hom_layout,
                          make_walk, paths_between, walk_of_path)
from bqkit.snf import RowLattice


def replay(chain, start, goal):
    cur = start
    for step in chain:
        cur = step.apply_to(cur)
        assert cur == step.result
    assert cur == goal


@pytest.fixture(scope="module")
def h_I(ideal_I):
    return homotopy_relation(ideal_I)


@pytest.fixture(scope="module")
def h_J(ideal_J):
    return homotopy_relation(ideal_J)


def test_walk_reduce(exple1):
    w = parse_walk(exple1, "a^-1*a")
    assert reduced(exple1, w).letters == ()
    w2 = parse_walk(exple1, "d*c*c^-1*c*b")
    assert reduced(exple1, w2) == parse_walk(exple1, "d*c*b")
    assert reduced(exple1, reduced(exple1, w2)) == reduced(exple1, w2)


def random_walk(quiver, rng, length, start, reduced):
    """A random walk from start; when reduced, it never steps back along
    the letter before it."""
    at = start
    letters = []
    for _ in range(length):
        steps = [((a.name, FORWARD), a.target) for a in quiver.arrows_from(at)]
        steps += [((a.name, INVERSE), a.source) for a in quiver.arrows_into(at)]
        if reduced and letters:
            back = (letters[-1][0], -letters[-1][1])
            steps = [st for st in steps if st[0] != back]
        if not steps:
            break
        letter, at = rng.choice(steps)
        letters.append(letter)
    return Walk(start, at, tuple(letters))


def test_word_operations_match_walk_operations():
    """On coded walks, ``invert_word`` is ``Walk.inverse``, ``cancel_join``
    and ``conjugate`` give the free reduction of the raw concatenation,
    and ``SpanningTree.decode`` inverts ``SpanningTree.encode``;
    ``chord_word`` maps reduced coded walks into reduced chord words,
    inverses to inverses and concatenation to concatenation in
    composition order.  Checked on random walks, reduced or not, of
    random quivers and of two glued I0 units.  ``reduce_word`` is
    compared with the free reduction on ``Walk`` letters in
    ``test_reference.py``."""
    rng = random.Random(11)
    ideals = [make_random_bound_quiver(random.Random(s)) for s in range(20)]
    ideals.append(twobypass_chain(2))
    cancelled = 0
    for ideal in ideals:
        h = homotopy_relation(ideal)
        quiver = ideal.quiver
        tree = h.tree
        chord_word = tree.chord_word
        codes = list(tree.letter_codes[0])
        for _ in range(20):
            u = random_walk(quiver, rng, rng.randint(0, 8),
                            rng.choice(quiver.vertices), rng.random() < 0.5)
            v = random_walk(quiver, rng, rng.randint(0, 8), u.target,
                            rng.random() < 0.5)
            uv = Walk(u.source, v.target, u.letters + v.letters)
            cu, cv = tree.encode(u.letters), tree.encode(v.letters)
            assert tree.decode(u.source, cu) == u
            assert reduce_word(cu) == tree.encode(reduced(quiver, u).letters)
            assert invert_word(cu) == tree.encode(u.inverse().letters)
            ru, rv = reduce_word(cu), reduce_word(cv)
            assert cancel_join(ru, rv) == reduce_word(cu + cv)
            assert reduce_word(cu + cv) == tree.encode(
                reduced(quiver, uv).letters)
            cancelled += len(ru) + len(rv) > len(cancel_join(ru, rv))
            for c in codes:
                assert conjugate(ru, c) == reduce_word((-c,) + ru + (c,))
            wu, wv = chord_word(ru), chord_word(rv)
            assert reduce_word(wu) == wu
            assert chord_word(tree.encode(reduced(quiver, u).letters)) == wu
            assert chord_word(invert_word(ru)) == invert_word(wu)
            assert chord_word(reduce_word(cu + cv)) == cancel_join(wv, wu)
    assert cancelled

def test_generating_pairs(h_I, h_J, exple1):
    assert h_I.generating_pairs == ()
    da = parse_path(exple1, "d*a")
    dcb = parse_path(exple1, "d*c*b")
    assert h_J.generating_pairs == ((da, dcb),)


def test_decide_homotopic_exple1(h_I, h_J, exple1):
    a = walk_of_path(parse_path(exple1, "a"))
    cb = walk_of_path(parse_path(exple1, "c*b"))

    under_J = h_J.decide(a, cb)
    assert under_J.status == HOMOTOPIC
    replay(under_J.chain, a, cb)

    under_I = h_I.decide(a, cb)
    assert under_I.status == NOT_HOMOTOPIC
    cert = under_I.certificate
    # pi1(Q, I) is free on the single chord, so the cheap free-groupoid
    # certificate fires; replay it through the abelianized lattice anyway
    assert cert["kind"] == "free"
    lattice = RowLattice(h_I.presentation.exponent_rows(),
                         len(h_I.presentation.generators))
    word = loop_chord_word(h_I, a, cb)
    assert any(lattice.image(h_I.presentation.exponents(word)))
    assert any(h_I.presentation.image(word))


def test_decide_reflexive(h_I, exple1):
    u = walk_of_path(parse_path(exple1, "d*a"))
    d = h_I.decide(u, u)
    assert d.status == HOMOTOPIC
    assert d.chain == ()


def test_decide_rejects_non_parallel(h_I, exple1):
    a = walk_of_path(parse_path(exple1, "a"))
    b = walk_of_path(parse_path(exple1, "b"))
    with pytest.raises(HomotopyError):
        h_I.decide(a, b)


def test_decide_unreduced_inputs(h_J, exple1):
    u = parse_walk(exple1, "d^-1*d*a")
    v = parse_walk(exple1, "c*b")
    d = h_J.decide(u, v)
    assert d.status == HOMOTOPIC
    replay(d.chain, u, v)


def test_fingerprint_exple1(h_I, h_J, exple1):
    a = parse_path(exple1, "a")
    cb = parse_path(exple1, "c*b")
    da = parse_path(exple1, "d*a")
    dcb = parse_path(exple1, "d*c*b")
    assert h_I.pair_status(a, cb) == NOT_HOMOTOPIC
    assert h_I.pair_status(da, dcb) == NOT_HOMOTOPIC
    assert h_J.pair_status(a, cb) == HOMOTOPIC
    assert h_J.pair_status(da, dcb) == HOMOTOPIC


def test_zero_ideal_fingerprint(exple1, rationals):
    zero = close_ideal(exple1, rationals, [])
    h = homotopy_relation(zero)
    for pair, tag in h.fingerprint.items():
        assert tag == NOT_HOMOTOPIC, pair


def test_pair_status_rejects_pairs_that_are_not_parallel(h_I, exple1,
                                                        twobypass):
    a = parse_path(exple1, "a")
    b = parse_path(exple1, "b")
    d = parse_path(exple1, "d")
    # e of twobypass runs 3 -> 4 like d of exple1, but is not a path of it
    e = parse_path(twobypass, "e")
    for u, v in ((a, b), (b, a), (d, e), (e, d)):
        with pytest.raises(HomotopyError, match="not a parallel path pair"):
            h_I.pair_status(u, v)


def test_fingerprint_is_a_read_only_view(h_J, ideal_I0):
    pair = next(iter(h_J.fingerprint))
    with pytest.raises(TypeError):
        h_J.fingerprint[pair] = NOT_HOMOTOPIC
    assert h_J.fingerprint[pair] == HOMOTOPIC
    # only u before v is a key
    assert pair[::-1] not in h_J.fingerprint
    for h in (h_J, homotopy_relation(ideal_I0),
              homotopy_relation(twobypass_chain(2))):
        q = h.quiver
        parallel = [pair for x in q.vertices for y in q.vertices
                    for pair in combinations(paths_between(q, x, y), 2)]
        assert len(h.fingerprint) == len(parallel)
        assert list(h.fingerprint) == parallel


def test_unknown_fingerprint_names_its_first_pair(monkeypatch, rationals):
    """The first Unknown pair in hom-set order, (x, y) in vertex order,
    is named, though (b1, b2) comes first in the order of the key."""
    q = parse_quiver("""quiver fork { vertices: 1 2 3;
                        arrow a: 1 -> 2; arrow b1: 2 -> 3; arrow b2: 2 -> 3; }""")
    decide_unknown(monkeypatch)
    h = homotopy.HomotopyRelation(close_ideal(q, rationals, []))
    with pytest.raises(UnresolvedError,
                       match=r"Unknown pair \(b1\*a, b2\*a\)$"):
        fingerprint_key(h)


def test_pi1_exple1(h_I, h_J):
    gp_I = h_I.presentation
    assert gp_I.generators == ("c",)
    assert gp_I.relators == ()
    assert gp_I.abelian_invariants == (1, ())

    gp_J = h_J.presentation
    assert gp_J.generators == ("c",)
    assert len(gp_J.relators) == 1
    assert gp_J.abelian_invariants == (0, ())
    # the single relator kills the single chord
    (rel,) = gp_J.relators
    assert [gp_J.generators[abs(c) - 1] for c in rel] == ["c"]


def test_pi1_two_bypass_I0(ideal_I0):
    h = homotopy_relation(ideal_I0)
    gp = h.presentation
    assert gp.abelian_invariants == (0, (2,))


def test_pi1_two_bypass_char0_I1_I2(ws5):
    for name in ("I1", "I2"):
        h = homotopy_relation(ws5.ideal(name))
        assert h.presentation.abelian_invariants == (0, ())


def test_pi1_two_bypass_char2(ws5):
    h0 = homotopy_relation(ws5.ideal("I0", char=2))
    assert h0.presentation.abelian_invariants == (0, (2,))
    h1 = homotopy_relation(ws5.ideal("I1", char=2))
    assert h1.presentation.abelian_invariants == (0, ())
    h2 = homotopy_relation(ws5.ideal("I2", char=2))
    assert h2.presentation.abelian_invariants == (1, ())


def test_abelianization_cases():
    """A presentation built by hand reads its own abelian invariants."""
    gp = GroupPresentation(("g",), ((1, 1),))
    assert gp.abelian_invariants == (0, (2,))
    assert not any(gp.lattice.image([2])) and any(gp.lattice.image([1]))
    assert GroupPresentation(("g",), ()).abelian_invariants == (1, ())
    gp = GroupPresentation(("g1", "g2"), ((1, -2),))
    assert gp.abelian_invariants == (1, ())


@pytest.mark.parametrize("letter", [0, 3, ("g1", 1)])
def test_malformed_relator_letter_is_rejected(letter):
    """A hand-made relator letter that names no generator raises when the
    exponent rows read it, not an IndexError and not a count against the
    last generator."""
    gp = GroupPresentation(("g1", "g2"), ((1, -2), (2, letter)))
    with pytest.raises(HomotopyError, match="names none of the 2 generators"):
        gp.exponent_rows()
    with pytest.raises(HomotopyError):
        gp.abelian_invariants


def test_abelian_invariants_independent_of_base_point(ideal_I0):
    invs = set()
    for x0 in ideal_I0.quiver.vertices:
        h = homotopy_relation(ideal_I0, x0)
        invs.add(h.presentation.abelian_invariants)
    assert invs == {(0, (2,))}


def test_relations_equal(h_I, h_J, ideal_I, exple1):
    assert relations_equal(h_I, h_I) == (EQUAL, None)
    again = homotopy.HomotopyRelation(ideal_I)
    assert relations_equal(h_I, again) == (EQUAL, None)
    status, witness = relations_equal(h_I, h_J)
    assert status == DIFFERENT
    a = parse_path(exple1, "a")
    cb = parse_path(exple1, "c*b")
    assert witness in {(a, cb), (cb, a)}


def test_relations_equal_quiver_mismatch(h_I, ideal_I0):
    with pytest.raises(HomotopyError):
        relations_equal(h_I, homotopy_relation(ideal_I0))


def test_fingerprint_key_is_canonical(ideal_I, ideal_J):
    k1 = fingerprint_key(homotopy_relation(ideal_I))
    k2 = fingerprint_key(homotopy.HomotopyRelation(ideal_I))
    assert k1 == k2
    assert fingerprint_key(homotopy_relation(ideal_I)) is k1
    assert k1 != fingerprint_key(homotopy_relation(ideal_J))


def test_homotopy_relation_is_kept_per_base_point(ideal_I0):
    x0, x1 = ideal_I0.quiver.vertices[:2]
    h = homotopy_relation(ideal_I0)
    assert homotopy_relation(ideal_I0, x0) is h
    assert homotopy_relation(ideal_I0, x1) is not h
    assert homotopy_relation(ideal_I0, x1).base_point == x1
    assert homotopy.HomotopyRelation(ideal_I0) is not h


def test_relations_share_the_hom_layout_of_their_quiver():
    """Equal ideals of one quiver object read one hom-set layout, and
    neither relation writes into it."""
    ideal = twobypass_chain(2)
    twin = close_ideal(ideal.quiver, ideal.field, ideal.generators)
    assert twin == ideal and twin is not ideal
    homs, where, at = hom_layout(ideal.quiver)
    snapshot = (homs, dict(where), at)
    relations = [homotopy.HomotopyRelation(ideal),
                 homotopy.HomotopyRelation(twin)]
    for h in relations:
        assert h._where is where
        assert all(built[0] is paths
                   for built, (paths, _, _) in zip(h._homs, homs))
        assert any(len(table) > 1 for _, _, table in h._homs)
    for h in relations:
        for paths, _, _ in homs:
            for u, v in combinations(paths, 2):
                h.pair_status(u, v)
        fingerprint_key(h)
    assert hom_layout(ideal.quiver)[0] is homs
    assert hom_layout(ideal.quiver)[2] is at
    assert (homs, where, at) == snapshot


def test_relations_share_the_spanning_tree_of_their_quiver():
    """The relations of different ideals on one quiver and base point read
    one ``SpanningTree``, with one alphabet of coded walks, one table of
    path words and one set of extension lists; another base point has a
    tree of its own.  A relation keeps no alphabet of its own.  A path's
    word is the chord word of its coded walk."""
    ideal = twobypass_chain(2)
    other = close_ideal(ideal.quiver, ideal.field, ideal.generators[:1])
    assert other != ideal
    h, h_other = homotopy.HomotopyRelation(ideal), homotopy_relation(other)
    tree = h.tree
    assert h_other.tree is tree
    assert h_other.tree.letter_codes is tree.letter_codes
    assert not any(hasattr(h, name) for name in ("letter_codes", "encode",
                                                  "decode"))
    assert h_other.tree.path_words is tree.path_words
    assert h_other.tree.extensions is tree.extensions
    x1 = ideal.quiver.vertices[1]
    assert homotopy_relation(ideal, x1).tree is not tree
    assert homotopy_relation(other, x1).tree is homotopy_relation(ideal, x1).tree
    fresh = homotopy.SpanningTree(ideal.quiver, tree.x0)
    assert fresh.chord_index == tree.chord_index
    for n, p in enumerate(enumerate_paths(ideal.quiver)):
        assert tree.path_words[n] == fresh.chord_word(
            fresh.encode(walk_of_path(p).letters))


def test_lattice_is_built_only_for_hom_sets_with_two_classes():
    """The grid has one class per hom-set, so its relation needs no Smith
    normal form; one I0 unit has hom-sets with two classes."""
    h = homotopy.HomotopyRelation(parse_source(grid_text(4)).ideal("I"))
    assert all(len(table) < 2 for _, _, table in h._homs)
    assert "lattice" not in h.presentation.__dict__
    h = homotopy.HomotopyRelation(twobypass_chain(1))
    assert any(len(table) > 1 for _, _, table in h._homs)
    assert "lattice" in h.presentation.__dict__


def test_unknown_fingerprint_raises_on_every_call(monkeypatch, ideal_I):
    """The failure is not kept: a second call raises as the first did."""
    # under I, a and c*b are two classes of one hom-set
    decide_unknown(monkeypatch)
    h = homotopy.HomotopyRelation(ideal_I)
    for _ in range(2):
        with pytest.raises(UnresolvedError, match="Unknown pair"):
            fingerprint_key(h)


def test_disconnected_quiver_rejected(rationals):
    q = parse_quiver("quiver off { vertices: 1 2; }")
    zero = close_ideal(q, rationals, [])
    with pytest.raises(HomotopyError, match="connected"):
        homotopy_relation(zero)


def test_congruence_property_seeded(ideal_J, exple1):
    # if u ~ v then w.u.w' ~ w.v.w' on recorded homotopic path pairs
    h = homotopy_relation(ideal_J)
    rng = random.Random(11)
    pairs = [(u, v) for (u, v), tag in h.fingerprint.items() if tag == HOMOTOPIC]
    for u, v in pairs:
        for a in exple1.arrows_from(u.target):
            wu = make_walk(exple1, tuple((n, FORWARD) for n in u.arrows) + ((a.name, FORWARD),))
            wv = make_walk(exple1, tuple((n, FORWARD) for n in v.arrows) + ((a.name, FORWARD),))
            d = h.decide(wu, wv)
            assert d.status == HOMOTOPIC
            replay(d.chain, wu, wv)


def test_spanning_tree_deterministic(ideal_I0):
    h1 = homotopy_relation(ideal_I0)
    h2 = homotopy.HomotopyRelation(ideal_I0)
    assert h1.tree.chords == h2.tree.chords
    assert h1.tree.chords == ("c", "f")


def test_never_both_under_cap_variation(h_J, exple1):
    a = walk_of_path(parse_path(exple1, "a"))
    cb = walk_of_path(parse_path(exple1, "c*b"))
    outcomes = set()
    for cap in (4, 6, 10, 16):
        outcomes.add(h_J.decide(a, cb, cap=cap).status)
    assert NOT_HOMOTOPIC not in outcomes
    assert HOMOTOPIC in outcomes


def test_chain_needing_context_insertion(h_J, exple1):
    # the trivial loop vs a relation loop: the start walk has no letters,
    # so the chain must manufacture the pattern out of cancelling pairs
    from bqkit.quiver import trivial_walk
    u = trivial_walk(exple1, "1")
    v = parse_walk(exple1, "b^-1*c^-1*a")
    d = h_J.decide(u, v)
    assert d.status == HOMOTOPIC
    replay(d.chain, u, v)
    back = h_J.decide(v, u)
    assert back.status == HOMOTOPIC
    replay(back.chain, v, u)


def test_coset_action_decides_when_the_search_cannot(monkeypatch, ideal_J,
                                                     exple1):
    """With no search states allowed, a default relation still proves
    a ~ c*b under J from the completed coset action of its trivial pi1,
    with or without a chain wanted; on two glued I0 units, whose pi1
    Z2 * Z2 is infinite, the coset enumeration hits its cap and the pair
    stays Unknown."""
    monkeypatch.setattr(homotopy, "DEFAULT_MAX_STATES", 0)
    # a fresh relation, with no decision memoized under the default cap
    h = homotopy.HomotopyRelation(ideal_J)
    a = parse_walk(exple1, "a")
    cb = parse_walk(exple1, "c*b")
    for want_chain in (False, True):
        d = h.decide(a, cb, want_chain=want_chain)
        assert d.is_homotopic and d.chain is None
        assert d.certificate["kind"] == "coset-trivial"

    chain2 = twobypass_chain(2)
    h2 = homotopy_relation(chain2)
    u = parse_walk(chain2.quiver, "d0^-1*b1^-1*c1^-1*a1*f0*e0*a0")
    v = parse_walk(chain2.quiver, "e0^-1*f0^-1*b1^-1*c1^-1*a1*d0*a0")
    assert not any(h2.presentation.image(loop_chord_word(h2, u, v)))
    for want_chain in (False, True):
        assert h2.decide(u, v, want_chain=want_chain).is_unknown


def test_chain_wanted_after_a_chainless_decision(ideal_J, exple1):
    """A chainless Homotopic answer (here from the coset action) is not
    handed to a later query that wants the chain."""
    h = homotopy_relation(ideal_J)
    a = parse_walk(exple1, "a")
    cb = parse_walk(exple1, "c*b")
    first = h.decide(a, cb, want_chain=False)
    assert first.is_homotopic and first.chain is None
    d = h.decide(a, cb, want_chain=True)
    assert d.is_homotopic and d.chain
    replay(d.chain, a, cb)


DIHEDRAL_PAIR = ("d0^-1*b1^-1*c1^-1*a1*f0*e0*a0",
                 "e0^-1*f0^-1*b1^-1*c1^-1*a1*d0*a0")


def test_unknown_names_the_cap_that_ended_the_search(monkeypatch):
    """On two glued I0 units no certifier decides the pair of ROADMAP
    item 4, and the Unknown answer says which cap ended the search."""
    chain2 = twobypass_chain(2)
    u, v = (parse_walk(chain2.quiver, text) for text in DIHEDRAL_PAIR)
    for want_chain in (False, True):
        d = homotopy.HomotopyRelation(chain2).decide(
            u, v, cap=1, want_chain=want_chain)
        assert d.is_unknown and d.cap == "walk_length"
    monkeypatch.setattr(homotopy, "DEFAULT_MAX_STATES", 0)
    for want_chain in (False, True):
        d = homotopy.HomotopyRelation(chain2).decide(
            u, v, want_chain=want_chain)
        assert d.is_unknown and d.cap == "max_states"
    # a decided pair names no cap
    h = homotopy.HomotopyRelation(chain2)
    assert h.decide(u, u).cap is None


def test_cap_zero_is_a_cap(monkeypatch):
    """Only None stands for the default cap: cap=0 reaches the search,
    which lifts it to the lengths of the two walks."""
    chain2 = twobypass_chain(2)
    u, v = (parse_walk(chain2.quiver, text) for text in DIHEDRAL_PAIR)
    caps = []
    search = homotopy.HomotopyRelation._bfs

    def spy(self, source, first, last, cap, want_chain):
        caps.append(cap)
        return search(self, source, first, last, cap, want_chain)

    monkeypatch.setattr(homotopy.HomotopyRelation, "_bfs", spy)
    for want_chain in (False, True):
        d = homotopy.HomotopyRelation(chain2).decide(
            u, v, cap=0, want_chain=want_chain)
        assert d.is_unknown and d.cap == "walk_length"
    assert caps == [0, 0]


FREE_RANK_ONE = """
quiver ext {
  vertices: 1 2 3 4 5;
  arrow a: 1 -> 3;
  arrow b: 1 -> 2;
  arrow c: 2 -> 3;
  arrow d: 3 -> 4;
  arrow g: 1 -> 5;
  arrow h: 5 -> 4;
}
ideal J over ext(0) { rel d*a - d*c*b; }
"""


def test_unknown_names_the_coset_cap(monkeypatch):
    """Two glued I0 units: pi1 = Z2 * Z2 has free rank 0 and is infinite,
    so the coset enumeration runs and stops at its cap, and an Unknown
    says so next to the search's cap.  With free rank 1 the enumeration
    is skipped and an Unknown names no coset cap."""
    monkeypatch.setattr(homotopy, "DEFAULT_MAX_STATES", 0)
    chain2 = twobypass_chain(2)
    u, v = (parse_walk(chain2.quiver, text) for text in DIHEDRAL_PAIR)
    for want_chain in (False, True):
        h = homotopy.HomotopyRelation(chain2)
        d = h.decide(u, v, want_chain=want_chain)
        assert d.is_unknown and d.cap == "max_states"
        assert d.coset_cap == homotopy.coset.DEFAULT_MAX_COSETS
        assert h._cosets is None
    assert homotopy.HomotopyRelation(chain2).decide(u, u).coset_cap is None
    ideal = parse_source(FREE_RANK_ONE).ideal("J")
    a, cb = (parse_walk(ideal.quiver, text) for text in ("a", "c*b"))
    for want_chain in (False, True):
        d = homotopy.HomotopyRelation(ideal).decide(a, cb,
                                                    want_chain=want_chain)
        assert d.is_unknown and d.cap == "max_states"
        assert d.coset_cap is None


def test_coset_enumeration_skipped_on_an_infinite_group(monkeypatch):
    """exple1's J with a free cycle g, h added: pi1 = <c, h | c> has
    relators and free rank 1, so it is infinite and a chainless decision
    that the abelianization leaves open goes from step 3 to the search
    without enumerating cosets."""
    def refuse(*args, **kwargs):
        raise AssertionError("coset enumeration on an infinite group")

    monkeypatch.setattr(homotopy.coset, "enumerate_cosets", refuse)
    ideal = parse_source(FREE_RANK_ONE).ideal("J")
    h = homotopy.HomotopyRelation(ideal)
    assert h.presentation.relators
    assert h.presentation.abelian_invariants[0] == 1
    a = parse_walk(ideal.quiver, "a")
    cb = parse_walk(ideal.quiver, "c*b")
    assert not any(h.presentation.image(loop_chord_word(h, a, cb)))
    d = h.decide(a, cb, want_chain=False)
    assert d.is_homotopic and d.certificate is None
    assert h._cosets is None


def test_insertion_cancels_across_a_used_up_loop():
    """Walks x * L1^-1 * L2^-1 * x^-1, where L = L1 * L2 is the loop of
    an insertion rule and x a letter, so that inserting L between L1^-1
    and L2^-1 cancels the loop completely, L1 against the letters before
    it and L2 against those after it (L1 or L2 may be empty), and then
    x against x^-1 across it.  Every result of the rule equals the free
    reduction of the raw concatenation."""
    h = homotopy.HomotopyRelation(twobypass_chain(2))
    letters, _, ends = h.tree.letter_codes
    cases = set()
    for anchor, loop, move in h._insertion_rules:
        h.__dict__["_insertion_rules"] = ((anchor, loop, move),)
        m = len(loop)
        inverse = [-c for c in reversed(loop)]
        for k in range(m + 1):
            middle = tuple(inverse[m - k:] + inverse[:m - k])
            for x in letters:
                w = (x,) + middle + (-x,)
                source = ends[-x]
                starts = [ends[-c] for c in w]
                if (starts[1:] != [ends[c] for c in w[:-1]]
                        or reduce_word(w) != w):
                    continue
                results = list(h._rewrites(source, w, 4 * m))
                # inserted at 1 + k, or at an earlier visit of the anchor
                assert () in [new for new, _ in results]
                for new, (i, *_) in results:
                    assert new == reduce_word(w[:i] + loop + w[i:])
                cases.add("all" if k in (0, m) else "split")
    assert cases == {"all", "split"}


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# sha256 prefixes of the (status, chain, certificate, cap) of the 100
# word-dihedral decisions of the benchmark, per run seed
WORD_DIHEDRAL_DIGESTS = {3: "fcae5caf450d05bf", 77: "37905faaef349107"}


def test_word_dihedral_decisions_are_pinned():
    """The benchmark's word-dihedral decisions, chains included, at two
    run seeds, which name the vertices and arrows differently."""
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", os.path.join(ROOT, "bench", "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for seed, digest in WORD_DIHEDRAL_DIGESTS.items():
        workload, inputs = workloads.setup("word-dihedral", seed, False)
        decisions, _ = workload.solve(inputs)
        assert len(decisions) == 100
        outcomes = [(d.status, d.chain, d.certificate, d.cap)
                    for d in decisions]
        assert hashlib.sha256(repr(outcomes).encode()).hexdigest()[:16] \
            == digest, seed

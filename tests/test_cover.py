import random
from fractions import Fraction
from itertools import islice

import pytest
from conftest import (TWO_BYPASS, make_random_bound_quiver, reduced,
                      twobypass_chain)

from bqkit.coset import DEFAULT_MAX_COSETS
from bqkit.cover import (GALOIS, NOT_GALOIS, TRUNCATED, CoverQuiver,
                         FiniteGroup, _Ball, _generated_order, check_covering,
                         factor_through_cover, is_galois, lift_dilatation,
                         lift_transvection, make_grading, smash_product,
                         theorem_b_pipeline, universal_cover)
from bqkit.dsl import parse_path, parse_quiver, parse_source
from bqkit.errors import CoverError
from bqkit.homotopy import (GroupPresentation, HomotopyRelation,
                            SpanningTree, homotopy_relation, reduce_word)
from bqkit.ideal import close_ideal
from bqkit.quiver import FORWARD, INVERSE, Arrow, Bypass, Quiver, Walk
from bqkit.transform import Dilatation, Transvection, apply_automorphism


def test_universal_cover_two_bypass_complete(ideal_I0):
    cov = universal_cover(ideal_I0, radius=8)
    assert cov.complete
    assert len(cov.total.vertices) == 10
    for x in cov.base_quiver.vertices:
        assert len(cov.fiber(x)) == 2
    report = check_covering(cov)
    assert report.ok, report.violations
    res = is_galois(cov)
    assert res.status == GALOIS
    assert res.group_order == 2


def reduced_walk_levels(quiver, x0):
    """The reduced walks from x0, listed one by one, as one list per
    length from 0 on: a reduced walk never uses the inverse of the letter
    before it."""
    level = [Walk(x0, x0, ())]
    while level:
        yield level
        longer = []
        for w in level:
            last = w.letters[-1] if w.letters else None
            for a in quiver.arrows:
                for letter, src, dst in (((a.name, FORWARD), a.source, a.target),
                                         ((a.name, INVERSE), a.target, a.source)):
                    if src == w.target and (last is None
                                            or letter != (last[0], -last[1])):
                        longer.append(Walk(x0, dst, w.letters + (letter,)))
        level = longer


def reduced_walk_count(quiver, x0, radius):
    """Number of reduced walks of length <= radius from x0."""
    levels = islice(reduced_walk_levels(quiver, x0), radius + 1)
    return sum(len(level) for level in levels)


def test_universal_cover_free_group_makes_no_decisions(monkeypatch):
    """With no relators, pi1 is free on the chords, so distinct reduced
    walks from the base point are distinct classes: the ball asks for no
    homotopy decision, abelian image or chord word."""
    ws = parse_source(TWO_BYPASS + "ideal F over twobypass(0) "
                                   "{ rel d*a; rel f*e*c*b; }")
    ideal = ws.ideal("F")
    h = homotopy_relation(ideal)
    assert not h.presentation.relators

    def refuse(what):
        def call(*args, **kwargs):
            raise AssertionError("universal_cover asked for " + what)
        return call

    monkeypatch.setattr(HomotopyRelation, "decide",
                        refuse("a homotopy decision"))
    monkeypatch.setattr(GroupPresentation, "image", refuse("an abelian image"))
    monkeypatch.setattr(SpanningTree, "chord_word", refuse("a chord word"))
    cov = universal_cover(ideal, radius=6)
    assert cov._ball.h is h
    expected = reduced_walk_count(ideal.quiver, ideal.quiver.vertices[0], 6)
    assert len(cov.total.vertices) == expected
    assert len(cov.total.arrows) == expected - 1


def test_ball_classes_hold_reduced_walks(ideal_I0):
    """Each step of the ball is classified as the reduced extension of the
    class representative, and the ball's index holds the coded word of
    every classified walk, reduced, with its class."""
    free = parse_source(TWO_BYPASS + "ideal F over twobypass(0) "
                                     "{ rel d*a; rel f*e*c*b; }").ideal("F")
    for ideal, radius in ((ideal_I0, 8), (free, 6)):
        ball = universal_cover(ideal, radius=radius)._ball
        h = ball.h
        for (index, name, d), target in ball.transitions.items():
            rep = ball.reps[index]
            a = ball.quiver.arrow(name)
            ext = reduced(ball.quiver,
                          Walk(rep.source, a.target if d == FORWARD
                               else a.source, rep.letters + ((name, d),)))
            if target is not None:
                assert ball.index[h.tree.encode(ext.letters)] == target
        for i, rep in enumerate(ball.reps):
            assert ball.index[h.tree.encode(rep.letters)] == i
        assert all(reduce_word(word) == word for word in ball.index)


def reference_deck_maps(cov):
    """(name, vertex map) of each chord's deck map, classifying with
    ``classify`` the reduced walk gamma^-1 * rep of every class rep,
    gamma the chord loop.  The walks are classified in a ball grown
    afresh, so no class the deck maps stored in the cover's ball is
    read back."""
    ball = _Ball(cov._ball.h, cov.radius)
    ball.grow()
    assert ball.reps == cov._ball.reps
    h = ball.h
    names = cov.total.vertices
    maps = []
    for chord in h.tree.chords:
        gamma_inv = h.tree.chord_loop(chord).inverse()
        vmap = {}
        for name, rep in zip(names, ball.reps):
            moved = reduced(h.quiver, Walk(h.base_point, rep.target,
                                           gamma_inv.letters + rep.letters))
            hit = ball.classify(moved)
            if hit is not None:
                vmap[name] = names[hit]
        maps.append(("g_%s" % chord, vmap))
    return maps


def test_deck_maps_match_classified_moved_walks(ideal_I0):
    """The deck maps, read by cancelling the coded chord loop against
    each class word, agree with classifying the reduced moved walks: on
    the free ideal truncated at radii 6 and 14, where some moved walks
    leave the ball, and on I0, which has relators, at radius 8."""
    free = parse_source(TWO_BYPASS + "ideal F over twobypass(0) "
                                     "{ rel d*a; rel f*e*c*b; }").ideal("F")
    for ideal, radius in ((free, 6), (free, 14), (ideal_I0, 8)):
        cov = universal_cover(ideal, radius=radius)
        assert cov.complete == (ideal is ideal_I0)
        got = [(g.name, g.vertex_map) for g in cov.action]
        assert got == reference_deck_maps(cov)
        assert len(got) == 2
        partial = any(len(vmap) < len(cov.total.vertices) for _, vmap in got)
        assert partial == (ideal is free)


def test_chord_word_fixes_a_reduced_walk_with_its_target():
    """The ball keys classes by reduced walk alone because, from a fixed
    base point to a fixed target, distinct reduced walks have distinct
    chord words: pi1 of a graph is free on the chords (Serre, *Trees*,
    ch. I).  Checked on random quivers from every base point and on one
    and two glued I0 units."""
    quivers = [make_random_bound_quiver(random.Random(seed)).quiver
               for seed in range(20)]
    quivers += [twobypass_chain(units).quiver for units in (1, 2)]
    with_chords = 0
    for quiver in quivers:
        for x0 in quiver.vertices:
            tree = SpanningTree(quiver, x0)
            with_chords += bool(tree.chords)
            seen = {}
            for level in reduced_walk_levels(quiver, x0):
                for w in level:
                    key = (w.target, tree.chord_word(tree.encode(w.letters)))
                    assert seen.setdefault(key, w) == w, (w, seen[key])
                if len(seen) > 300:
                    break
    assert with_chords
def test_universal_cover_trivial_group_is_identity(ideal_J):
    cov = universal_cover(ideal_J)
    assert cov.complete
    assert len(cov.total.vertices) == 4
    assert len(cov.total.arrows) == 4
    report = check_covering(cov)
    assert report.ok, report.violations
    res = is_galois(cov)
    assert res.status == GALOIS
    assert res.group_order == 1


def test_universal_cover_truncated_strip(ideal_I):
    cov6 = universal_cover(ideal_I, radius=6)
    assert not cov6.complete
    assert is_galois(cov6).status == TRUNCATED
    report = check_covering(cov6)
    assert report.ok, report.violations
    # the fiber grows with the radius: an infinite strip
    cov9 = universal_cover(ideal_I, radius=9)
    for x in cov6.base_quiver.vertices:
        assert len(cov9.fiber(x)) > len(cov6.fiber(x))


def test_unresolved_query_names_the_cap():
    """On two glued I0 units pi1 = Z2 * Z2 is infinite, so the coset
    action never completes, and the ball meets a pair that no certifier
    decides; the error names the cap that ended the search and the coset
    cap that ended the enumeration."""
    with pytest.raises(CoverError) as info:
        universal_cover(twobypass_chain(2))
    assert "the search stopped at its max_states cap" in str(info.value)
    assert ("the coset enumeration stopped at its cap of %d cosets"
            % DEFAULT_MAX_COSETS) in str(info.value)


def test_check_covering_detects_mutation(ideal_I0):
    cov = universal_cover(ideal_I0, radius=8)
    # delete one total arrow: local bijectivity must break at its endpoints
    dropped = cov.total.arrows[3]
    mutated = Quiver(cov.total.name, cov.total.vertices,
                     tuple(a for a in cov.total.arrows if a.name != dropped.name))
    cov.total = mutated
    cov.arrow_map = {k: v for k, v in cov.arrow_map.items() if k != dropped.name}
    cov.relations = tuple(r for r in cov.relations
                          if dropped.name not in
                          {n for p, _ in r.terms for n in p.arrows})
    cov.total_ideal = close_ideal(mutated, cov.field, list(cov.relations))
    report = check_covering(cov)
    assert not report.ok
    assert any("arrows at" in v for v in report.violations)


@pytest.mark.parametrize("radius", [2, 4, 6])
def test_check_covering_counts_rim_lifts_on_free_cover(radius):
    """On a truncated tree, relation lifts that run off the rim of the
    ball are counted, not reported as violations."""
    free = parse_source(TWO_BYPASS + "ideal F over twobypass(0) "
                                     "{ rel d*a; rel f*e*c*b; }").ideal("F")
    cov = universal_cover(free, radius=radius)
    assert not cov.complete
    report = check_covering(cov)
    assert report.ok, report.violations
    assert report.rim_lifts > 0


def double_cover_of_J(exple1, ideal_J):
    """The complete double cover of exple1 graded by deg(c) = 1, over
    J = <d*a - d*c*b>, which it does not respect: from 1_0, d*a lifts to
    4_0 but d*c*b to 4_1."""
    arrows = []
    for s, t in (("0", "1"), ("1", "0")):
        arrows += [Arrow("a_" + s, "1_" + s, "3_" + s),
                   Arrow("b_" + s, "1_" + s, "2_" + s),
                   Arrow("c_" + s, "2_" + s, "3_" + t),
                   Arrow("d_" + s, "3_" + s, "4_" + s)]
    vertices = tuple("%s_%s" % (x, s) for x in exple1.vertices for s in "01")
    total = Quiver("double", vertices, tuple(arrows))
    return CoverQuiver(total, ideal_J, {v: v[0] for v in vertices},
                       {a.name: a.name[0] for a in arrows}, [], True, None,
                       set(vertices), [], "custom")


def test_check_covering_reports_mismatched_lift_endpoints(exple1, ideal_J):
    cov = double_cover_of_J(exple1, ideal_J)
    with pytest.raises(CoverError, match="different vertices"):
        cov.lift_relation(ideal_J.minimal_relations()[0], "1_0")
    report = check_covering(cov)
    assert not report.ok
    assert any("different vertices" in v and v.endswith("from 1_0")
               for v in report.violations)
    assert any("different vertices" in v and v.endswith("from 4_0")
               for v in report.violations)
    assert not any(v.startswith("no ") for v in report.violations)


def test_smash_product_z2(exple1, ideal_I):
    group = FiniteGroup.cyclic(2)
    grading = make_grading(exple1, group, {"a": "1"})
    cov = smash_product(ideal_I, grading)
    assert cov.complete
    assert len(cov.total.vertices) == 8
    assert cov.total.is_connected()
    report = check_covering(cov)
    assert report.ok, report.violations
    res = is_galois(cov)
    assert res.status == GALOIS
    assert res.group_order == 2


def test_smash_product_trivial_group_identity(ideal_I):
    grading = make_grading(ideal_I.quiver, FiniteGroup.trivial(), {})
    cov = smash_product(ideal_I, grading)
    assert len(cov.total.vertices) == len(ideal_I.quiver.vertices)
    assert check_covering(cov).ok
    assert is_galois(cov).group_order == 1


def test_smash_rejects_inhomogeneous(exple1, ideal_J):
    group = FiniteGroup.cyclic(2)
    grading = make_grading(exple1, group, {"a": "1"})
    with pytest.raises(CoverError, match="homogeneous"):
        smash_product(ideal_J, grading)


def test_smash_disconnected_not_galois(exple1, ideal_I):
    # all degrees trivial in Z/2: two disjoint copies of the base
    grading = make_grading(exple1, FiniteGroup.cyclic(2), {})
    cov = smash_product(ideal_I, grading)
    res = is_galois(cov)
    assert res.status == NOT_GALOIS


def test_hand_built_non_galois_double_cover(rationals):
    # connected 2:1 cover of the one-loop graph with trivial deck group:
    # impossible over an acyclic quiver with relations lifted, so build the
    # classic asymmetric double cover of a two-cycle graph shape instead,
    # using two parallel chains glued unevenly
    base = parse_quiver("""
    quiver base {
      vertices: 1 2;
      arrow p: 1 -> 2;
      arrow q: 1 -> 2;
    }""")
    zero = close_ideal(base, rationals, [])
    total = Quiver("tot", ("u1", "u2", "v1", "v2"),
                   (Arrow("p_u", "u1", "u2"), Arrow("q_u", "u1", "v2"),
                    Arrow("p_v", "v1", "v2"), Arrow("q_v", "v1", "u2")))
    cov = CoverQuiver(total, zero,
                      {"u1": "1", "v1": "1", "u2": "2", "v2": "2"},
                      {"p_u": "p", "q_u": "q", "p_v": "p", "q_v": "q"},
                      [], True, None, set(total.vertices), [], "custom")
    assert check_covering(cov).ok
    res = is_galois(cov)
    # this double cover is regular (it is the orientation double cover),
    # so instead mutate it into an irregular one: swap one q-edge target
    total2 = Quiver("tot2", ("u1", "u2", "v1", "v2"),
                    (Arrow("p_u", "u1", "u2"), Arrow("q_u", "u1", "u2"),
                     Arrow("p_v", "v1", "v2"), Arrow("q_v", "v1", "v2")))
    cov2 = CoverQuiver(total2, zero,
                       {"u1": "1", "v1": "1", "u2": "2", "v2": "2"},
                       {"p_u": "p", "q_u": "q", "p_v": "p", "q_v": "q"},
                       [], True, None, set(total2.vertices), [], "custom")
    assert check_covering(cov2).ok
    assert not cov2.total.is_connected()
    assert is_galois(cov2).status == NOT_GALOIS


def test_lift_dilatation_identity(ideal_I):
    cov = universal_cover(ideal_I, radius=5)
    d = Dilatation(())
    m = lift_dilatation(cov, d)
    assert m.checks["squares"] == len(cov.total.arrows)
    assert m.checks["bijective"]
    reps = dict(zip(cov.total.vertices, cov._ball.reps))
    target_reps = dict(zip(m.target.total.vertices, m.target._ball.reps))
    for v, w in m.vertex_map.items():
        assert reps[v] == target_reps[w]


def test_lift_dilatation_rescale(exple1, ideal_I):
    cov = universal_cover(ideal_I, radius=5)
    d = Dilatation((("a", Fraction(2)),))
    m = lift_dilatation(cov, d)
    assert m.checks["bijective"]
    assert m.checks["squares"] == len(cov.total.arrows)
    assert m.checks["relations"] > 0


def test_lift_dilatation_equivariance_on_z2_cover(ideal_I0):
    cov = universal_cover(ideal_I0, radius=8)
    d = Dilatation((("a", Fraction(3)),))
    m = lift_dilatation(cov, d)
    assert m.checks["equivariance"] > 0
    assert m.checks["bijective"]


def test_lift_transvection_exple1(exple1, ideal_I, ideal_J, rationals):
    from bqkit.ideal import ideals_equal
    cov = universal_cover(ideal_I, radius=6)
    t = Transvection(Bypass("a", parse_path(exple1, "c*b")), Fraction(-1))
    m = lift_transvection(cov, t)
    assert ideals_equal(m.target.base_ideal, ideal_J)
    assert m.target.complete
    assert len(m.target.total.vertices) == 4
    assert m.checks["squares"] == len(cov.total.arrows)
    assert m.checks["skipped_arrows"] == []
    assert m.checks["relations"] > 0
    assert m.checks["equivariance"] > 0
    assert m.checks["kernel_abelianized"] == {
        "source_invariants": (1, ()),
        "target_invariants": (0, ()),
    }
    sizes = m.checks["fiber_sizes"]
    assert set(sizes) == set(m.target.total.vertices)


def test_lift_transvection_tau_zero_identity(ideal_I, exple1):
    cov = universal_cover(ideal_I, radius=5)
    t = Transvection(Bypass("a", parse_path(exple1, "c*b")), Fraction(0))
    m = lift_transvection(cov, t)
    assert sorted(m.vertex_map) == sorted(cov.total.vertices)
    for rel in m.arrow_images.values():
        assert len(rel.terms) == 1


def test_lift_transvection_two_bypass(twobypass, ideal_I0, ideal_I1):
    from bqkit.ideal import ideals_equal
    cov = universal_cover(ideal_I0, radius=8)
    t = Transvection(Bypass("a", parse_path(twobypass, "c*b")), Fraction(1))
    m = lift_transvection(cov, t)
    assert ideals_equal(m.target.base_ideal, ideal_I1)
    # Ker(lambda) = Z/2: every fiber of psi has two classes over it
    sizes = m.checks["fiber_sizes"]
    assert set(sizes.values()) == {2}


def test_lift_transvection_requires_homotopic_bypass(ideal_J, exple1):
    cov = universal_cover(ideal_J, radius=6)
    # J -> <da + ...> via tau=1 makes alpha NOT homotopic to u in the image?
    # applying phi_{a,cb,1} to J gives <da>, where a is not homotopic to cb
    t = Transvection(Bypass("a", parse_path(exple1, "c*b")), Fraction(1))
    with pytest.raises(CoverError, match="homotopic"):
        lift_transvection(cov, t)


def test_factor_through_smash(exple1, ideal_I):
    cov = universal_cover(ideal_I, radius=6)
    grading = make_grading(exple1, FiniteGroup.cyclic(2), {"a": "1"})
    target = smash_product(ideal_I, grading)
    m = factor_through_cover(cov, target)
    assert m.checks["squares"] == len(cov.total.arrows)
    assert m.checks["relations"] >= 0
    # fibers of the factor morphism over a vertex count ball classes
    assert sum(m.fiber_sizes().values()) == len(cov.total.vertices)


def test_factor_refuses_a_cover_that_splits_a_generating_pair(exple1,
                                                              ideal_J):
    cov = universal_cover(ideal_J, radius=6)
    with pytest.raises(CoverError, match="walk lifting is not constant"):
        factor_through_cover(cov, double_cover_of_J(exple1, ideal_J))


def test_generated_order_of_a_proper_subgroup(exple1, ideal_I):
    """In the Z/4 smash of I with deg(a) = 1, the deck map 1_0 -> 1_2
    generates the subgroup of order 2, and 1_0 -> 1_1 all of Z/4."""
    target = smash_product(ideal_I, make_grading(exple1, FiniteGroup.cyclic(4),
                                                 {"a": "1"}))
    galois = is_galois(target)
    assert galois.status == GALOIS and galois.group_order == 4
    decks = {g.name: g for g in galois.automorphisms}
    assert _generated_order([decks["deck_1_2"]], target) == 2
    assert _generated_order([decks["deck_1_1"]], target) == 4
    assert _generated_order([], target) == 1


def test_pipeline_identity(ideal_I0):
    target = universal_cover(ideal_I0, radius=8)
    res = theorem_b_pipeline(ideal_I0, target, radius=8)
    assert res.chain == []
    assert res.group_order == 2
    assert res.surjective
    assert res.kernel_report["image_order"] == 2
    assert res.commutes


def test_pipeline_to_trivial_smash_of_J(exple1, ideal_I, ideal_J):
    target = smash_product(ideal_J, make_grading(exple1, FiniteGroup.trivial(), {}))
    res = theorem_b_pipeline(ideal_I, target, radius=6)
    assert len(res.chain) == 1
    assert res.group_order == 1
    assert res.surjective
    assert res.kernel_report["source_invariants"] == (1, ())
    assert res.kernel_report["abelianized_index"] == 1
    assert res.commutes


def test_pipeline_to_z2_smash_of_I(exple1, ideal_I):
    grading = make_grading(exple1, FiniteGroup.cyclic(2), {"a": "1"})
    target = smash_product(ideal_I, grading)
    res = theorem_b_pipeline(ideal_I, target, radius=6)
    assert res.chain == []
    assert res.group_order == 2
    assert res.surjective
    # N has abelianized index 2 in Z = pi1(I)
    assert res.kernel_report["source_invariants"] == (1, ())
    assert res.kernel_report["abelianized_index"] == 2
    assert res.commutes


def test_group_and_grading_basics(exple1):
    g = FiniteGroup.cyclic(3)
    assert g.identity == "0"
    assert g.mul("1", "2") == "0"
    assert g.inv("1") == "2"
    grading = make_grading(exple1, g, {"a": "1", "d": "2"})
    assert grading.degree("b") == "0"
    assert grading.path_degree(parse_path(exple1, "d*a")) == "0"


def test_pipeline_to_z2_smash_of_I0_itself(twobypass, ideal_I0):
    # deg(c) = deg(f) = 1 makes both basis relations homogeneous and the
    # chord loops map onto Z/2, so the smash is a connected Galois cover
    # that realizes the universal cover of I0
    grading = make_grading(twobypass, FiniteGroup.cyclic(2), {"c": "1", "f": "1"})
    target = smash_product(ideal_I0, grading)
    assert target.total.is_connected()
    assert check_covering(target).ok
    galois = is_galois(target)
    assert galois.status == GALOIS and galois.group_order == 2

    res = theorem_b_pipeline(ideal_I0, target, radius=8)
    assert res.chain == []
    assert res.group_order == 2
    assert res.surjective
    assert res.commutes
    # pi1(I0) = Z/2 surjects onto Z/2, so N dies: the composite is an iso
    # on vertices (fiber size one everywhere)
    assert set(res.composite.fiber_sizes().values()) == {1}


def test_pipeline_with_chain_to_trivial_smash_of_I1(twobypass, ideal_I0, ideal_I1):
    target = smash_product(ideal_I1,
                           make_grading(twobypass, FiniteGroup.trivial(), {}))
    res = theorem_b_pipeline(ideal_I0, target, radius=8)
    assert len(res.chain) == 1
    assert res.group_order == 1
    assert res.surjective
    assert res.commutes
    assert res.kernel_report["source_invariants"] == (0, (2,))
    assert res.kernel_report["abelianized_index"] == 1
    # N = pi1(I0) = Z/2: the composite collapses both classes over a vertex
    assert set(res.composite.fiber_sizes().values()) == {2}


def test_pipeline_with_a_final_dilatation(twobypass, ideal_I0, ideal_I1):
    """The chain to d -> 2d of I1 is one transvection and a dilatation; the
    composite square holds over the whole chain."""
    scale_d = Dilatation((("d", Fraction(2)),))
    target_ideal = apply_automorphism(scale_d, ideal_I1)
    target = smash_product(target_ideal,
                           make_grading(twobypass, FiniteGroup.trivial(), {}))
    res = theorem_b_pipeline(ideal_I0, target, radius=8)
    assert [type(step) for step in res.chain] == [Transvection, Dilatation]
    assert res.chain[-1] == scale_d
    assert res.morphisms[1].checks["bijective"]
    assert res.surjective
    assert res.commutes


def test_explore_deterministic_shape(ideal_I2):
    from bqkit.gamma import explore_gamma

    g1 = explore_gamma(ideal_I2)
    g2 = explore_gamma(ideal_I2)
    assert [v.key for v in g1.vertices] == [v.key for v in g2.vertices]
    assert [(e.source, e.target) for e in g1.edges] == \
        [(e.source, e.target) for e in g2.edges]
    assert [v.ideal.describe() for v in g1.vertices] == \
        [v.ideal.describe() for v in g2.vertices]

"""Property tests for the structural facts the toolkit leans on."""

import random
from fractions import Fraction

from conftest import make_random_bound_quiver

from bqkit.cover import (NOT_GALOIS, CoverQuiver, check_covering,
                         factor_through_cover, is_galois, make_grading,
                         smash_product, universal_cover, FiniteGroup)
from bqkit.dsl import parse_quiver
from bqkit.fields import Field
from bqkit.gamma import explore_gamma, find_sources
from bqkit.homotopy import (EQUAL, HOMOTOPIC, NOT_HOMOTOPIC,
                            homotopy_relation, relations_equal)
from bqkit.ideal import (close_ideal, decompose_minimal, ideals_equal,
                         support_equivalence)
from bqkit.quiver import (Arrow, Path, Quiver, find_bypasses,
                          find_double_bypasses)
from bqkit.transform import (Transvection, apply_automorphism,
                             as_path_automorphism, compose,
                             identity_automorphism)


def test_support_equivalence_refines_homotopy():
    # u ==_F v implies u ~_I v on a seeded corpus
    rng = random.Random(31)
    for _ in range(25):
        ideal = make_random_bound_quiver(rng)
        h = homotopy_relation(ideal)
        for x in ideal.quiver.vertices:
            for y in ideal.quiver.vertices:
                for cls in support_equivalence(ideal, x, y):
                    for i in range(len(cls)):
                        for j in range(i + 1, len(cls)):
                            assert h.pair_status(cls[i], cls[j]) == HOMOTOPIC


def _normal_form_instance(rng):
    """A random ideal together with a bypass whose arrow is not homotopic
    to its path (the hypothesis of the minimal-relation transport lemma)."""
    for _ in range(80):
        ideal = make_random_bound_quiver(rng)
        h = homotopy_relation(ideal)
        for bypass in find_bypasses(ideal.quiver):
            a = ideal.quiver.arrow(bypass.arrow)
            ap = Path(a.source, a.target, (a.name,))
            if h.pair_status(ap, bypass.path) == NOT_HOMOTOPIC:
                return ideal, h, bypass
    raise AssertionError("corpus failed to produce an instance")


def test_minimal_relation_transport():
    # for alpha not~_I u, every minimal relation of I transports to a
    # minimal relation of phi(I) whose support extends it only by
    # companion paths v*u*w of its v*alpha*w terms
    rng = random.Random(17)
    fld = Field(0)
    found = 0
    while found < 10:
        ideal, h, bypass = _normal_form_instance(rng)
        tau = Fraction(rng.choice([1, -1, 2]))
        t = Transvection(bypass, tau)
        image = apply_automorphism(t, ideal)
        auto = as_path_automorphism(t, ideal.quiver, ideal.field)
        for r in ideal.minimal_relations():
            moved = auto.apply_to_relation(r)
            parts = decompose_minimal(image, moved)
            containing = [p for p in parts
                          if set(r.support()) & set(p.support())]
            if not set(moved.support()) - set(r.support()):
                continue  # transvection did not touch this relation
            assert len(containing) >= 1
            main = containing[0]
            extra = set(main.support()) - set(r.support())
            for path in extra:
                # each extra path is a companion v*u*w of some v*alpha*w
                assert bypass.arrow not in path.arrows
        found += 1


def test_supports_collapse_when_bypass_becomes_homotopic():
    # alpha ~_J u forces all paths of each minimal relation of I to be
    # pairwise ~_J equivalent
    rng = random.Random(23)
    fld = Field(0)
    checked = 0
    while checked < 10:
        ideal = make_random_bound_quiver(rng)
        h = homotopy_relation(ideal)
        hit = None
        for bypass in find_bypasses(ideal.quiver):
            a = ideal.quiver.arrow(bypass.arrow)
            ap = Path(a.source, a.target, (a.name,))
            if h.pair_status(ap, bypass.path) != NOT_HOMOTOPIC:
                continue
            for tau in (Fraction(1), Fraction(-1)):
                image = apply_automorphism(Transvection(bypass, tau), ideal)
                h_image = homotopy_relation(image)
                if h_image.pair_status(ap, bypass.path) == HOMOTOPIC:
                    hit = h_image
                    break
            if hit:
                break
        if hit is None:
            continue
        for r in ideal.minimal_relations():
            supp = r.support()
            for i in range(len(supp)):
                for j in range(i + 1, len(supp)):
                    assert hit.pair_status(supp[i], supp[j]) == HOMOTOPIC
        checked += 1


def test_successor_fingerprints_strictly_coarsen():
    from bqkit.gamma import successor_probe

    rng = random.Random(41)
    seen = 0
    while seen < 8:
        ideal = make_random_bound_quiver(rng)
        if not find_bypasses(ideal.quiver):
            continue
        h = homotopy_relation(ideal)
        for t, image, h_image in successor_probe(ideal, h).hits:
            homotopic_before = {pair for pair, tag in h.fingerprint.items()
                                if tag == HOMOTOPIC}
            homotopic_after = {pair for pair, tag in h_image.fingerprint.items()
                               if tag == HOMOTOPIC}
            assert homotopic_before < homotopic_after
            seen += 1


def test_fixed_tail_products_fix_the_ideal():
    # a product of transvections whose bypasses stay non-homotopic on both
    # sides cannot move the ideal (used in the source search)
    rng = random.Random(53)
    fld = Field(0)
    checked = 0
    while checked < 8:
        ideal = make_random_bound_quiver(rng)
        if find_double_bypasses(ideal.quiver):
            continue
        bypasses = find_bypasses(ideal.quiver)
        if len(bypasses) < 1:
            continue
        h = homotopy_relation(ideal)
        picks = [b for b in bypasses
                 if h.pair_status(
                     Path(ideal.quiver.arrow(b.arrow).source,
                          ideal.quiver.arrow(b.arrow).target,
                          (b.arrow,)), b.path) == NOT_HOMOTOPIC]
        if not picks:
            continue
        phi = identity_automorphism(ideal.quiver, fld)
        chosen = [Transvection(b, Fraction(rng.choice([1, -1, 2])))
                  for b in picks[:2]]
        for t in chosen:
            phi = compose(as_path_automorphism(t, ideal.quiver, fld), phi)
        image = apply_automorphism(phi, ideal)
        h_image = homotopy_relation(image)
        all_fixed = all(
            h_image.pair_status(
                Path(ideal.quiver.arrow(t.arrow).source,
                     ideal.quiver.arrow(t.arrow).target, (t.arrow,)),
                t.path) == NOT_HOMOTOPIC
            for t in chosen)
        if not all_fixed:
            continue
        assert ideals_equal(ideal, image)
        assert relations_equal(h, h_image) == (EQUAL, None)
        checked += 1


def test_char0_no_double_bypass_unique_source():
    rng = random.Random(61)
    checked = 0
    while checked < 12:
        ideal = make_random_bound_quiver(rng)
        if find_double_bypasses(ideal.quiver):
            continue
        gamma = explore_gamma(ideal)
        sources = find_sources(gamma)
        assert len(sources) == 1, ideal.describe()
        checked += 1


def test_deck_rigidity(ideal_I0):
    # two deck maps agreeing at any single vertex agree everywhere
    cov = universal_cover(ideal_I0, radius=8)
    autos = is_galois(cov).automorphisms
    assert len(autos) == 2
    for g in autos:
        for g2 in autos:
            if g is g2:
                continue
            agree = [v for v in cov.total.vertices
                     if g.vertex_map[v] == g2.vertex_map[v]]
            assert agree == []  # distinct maps differ at every vertex


def test_composite_of_coverings_is_covering(exple1, ideal_I):
    # factor the universal cover through a smash product, then view the
    # composite vertex/arrow maps as one covering of the smash total
    grading = make_grading(exple1, FiniteGroup.cyclic(2), {"a": "1"})
    target = smash_product(ideal_I, grading)
    univ = universal_cover(ideal_I, radius=6)
    m = factor_through_cover(univ, target)
    arrow_map = {}
    for name, rel in m.arrow_images.items():
        (path, _), = rel.terms
        arrow_map[name] = path.arrows[0]
    middle = CoverQuiver(univ.total, target.total_ideal, dict(m.vertex_map),
                         arrow_map, list(univ.relations), False, univ.radius,
                         univ.interior, [], "custom")
    report = check_covering(middle)
    assert report.ok, report.violations


def test_connected_irregular_cover_is_not_galois(rationals):
    # a connected 3:1 cover with trivial deck group (no 2:1 example can
    # exist: index-2 subgroups are always normal)
    base = parse_quiver("""
    quiver theta {
      vertices: 1 2;
      arrow p: 1 -> 2;
      arrow q: 1 -> 2;
      arrow r: 1 -> 2;
    }""")
    zero = close_ideal(base, rationals, [])
    # p acts by the identity pairing, q by (a b), r by (a c)
    pairing = {"p": {"a": "a", "b": "b", "c": "c"},
               "q": {"a": "b", "b": "a", "c": "c"},
               "r": {"a": "c", "b": "b", "c": "a"}}
    vertices = tuple("1%s" % s for s in "abc") + tuple("2%s" % s for s in "abc")
    arrows = []
    for name in ("p", "q", "r"):
        for s in "abc":
            arrows.append(Arrow("%s_%s" % (name, s),
                                "1%s" % s, "2%s" % pairing[name][s]))
    total = Quiver("triple", vertices, tuple(arrows))
    cov = CoverQuiver(total, zero,
                      {v: v[0] for v in vertices},
                      {a.name: a.name.split("_")[0] for a in arrows},
                      [], True, None, set(vertices), [], "custom")
    assert cov.total.is_connected()
    assert check_covering(cov).ok
    res = is_galois(cov)
    assert res.status == NOT_GALOIS
    assert res.witness is not None


def test_abelian_invariants_under_random_dilatations(ideal_I0):
    from bqkit.transform import make_dilatation

    rng = random.Random(71)
    h0 = homotopy_relation(ideal_I0)
    for _ in range(5):
        scales = {a.name: Fraction(rng.choice([1, 2, 3, -1, 5]))
                  for a in ideal_I0.quiver.arrows if rng.random() < 0.7}
        dil = make_dilatation(ideal_I0.quiver, ideal_I0.field, scales)
        image = apply_automorphism(dil, ideal_I0)
        h1 = homotopy_relation(image)
        assert relations_equal(h0, h1) == (EQUAL, None)
        assert h0.presentation.abelian_invariants == \
            h1.presentation.abelian_invariants

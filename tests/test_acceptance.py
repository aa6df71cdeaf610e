"""Acceptance suite: every criterion runs at its stated tolerance and
prints one PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).
"""

import random
from fractions import Fraction

from conftest import loop_chord_word, make_random_bound_quiver

from bqkit.cover import (GALOIS, FiniteGroup, check_covering, is_galois,
                         lift_transvection, make_grading, smash_product,
                         universal_cover)
from bqkit.dsl import parse_path, parse_quiver, parse_source
from bqkit.fields import Field
from bqkit.gamma import (CONFIRMED, check_surjection, explore_gamma,
                         find_sources, tau_schedule)
from bqkit.homotopy import (DIFFERENT, EQUAL, HOMOTOPIC, NOT_HOMOTOPIC,
                            fingerprint_key, homotopy_relation,
                            relations_equal)
from bqkit.ideal import close_ideal, ideals_equal, relation_of_path
from bqkit.quiver import (Arrow, Bypass, Path, Quiver, find_bypasses,
                          enumerate_paths, walk_of_path)
from bqkit.snf import RowLattice
from bqkit.transform import (Derivation, Transvection,
                             apply_automorphism, as_path_automorphism, compose,
                             decompose_DT, exp_derivation,
                             identity_automorphism, log_unipotent,
                             make_dilatation, recompose_DT)

GAMMAS = []  # every graph produced in this suite, validated by criterion 12


def report(n, ok, text):
    print("%s criterion %2d: %s" % ("PASS" if ok else "FAIL", n, text))
    assert ok, "criterion %d failed: %s" % (n, text)


def replay(chain, start, goal):
    cur = start
    for step in chain:
        cur = step.apply_to(cur)
        assert cur == step.result
    assert cur == goal


def test_criterion_01_exple1_fundamental_groups(ws4, exple1, ideal_I, ideal_J):
    h_I = homotopy_relation(ideal_I)
    h_J = homotopy_relation(ideal_J)
    gp_I = h_I.presentation
    gp_J = h_J.presentation
    ok = gp_I.abelian_invariants == (1, ())
    # trivial presentation: the single relator kills the single chord
    ok = ok and len(gp_J.generators) == 1 and len(gp_J.relators) == 1
    ok = ok and ({gp_J.generators[abs(c) - 1] for c in gp_J.relators[0]}
                 == {gp_J.generators[0]})
    ok = ok and gp_J.abelian_invariants == (0, ())

    a = walk_of_path(parse_path(exple1, "a"))
    cb = walk_of_path(parse_path(exple1, "c*b"))
    d_I = h_I.decide(a, cb)
    d_J = h_J.decide(a, cb)
    ok = ok and d_I.status == NOT_HOMOTOPIC and d_J.status == HOMOTOPIC
    # replay both certificates
    replay(d_J.chain, a, cb)
    lattice = RowLattice(h_I.presentation.exponent_rows(),
                         len(h_I.presentation.generators))
    word = loop_chord_word(h_I, a, cb)
    ok = ok and any(lattice.image(h_I.presentation.exponents(word)))
    ok = ok and any(h_I.presentation.image(word))
    report(1, ok, "pi1(Q,I) = Z and pi1(Q,J) trivial, with replayable "
                  "certificates for (a, c*b)")


def test_criterion_02_gamma_exple1(ideal_I, ideal_J):
    gamma = explore_gamma(ideal_I)
    GAMMAS.append(gamma)
    sources = find_sources(gamma)
    ok = len(gamma.vertices) == 2 and len(gamma.edges) == 1
    ok = ok and len(sources) == 1
    ok = ok and sources[0].key == fingerprint_key(homotopy_relation(ideal_I))
    surj = check_surjection(ideal_I, ideal_J)
    ok = ok and surj.status == CONFIRMED
    ok = ok and surj.source_invariants == (1, ()) \
        and surj.target_invariants == (0, ())
    report(2, ok, "Gamma(exple1) = one arrow with unique source <d*a>; "
                  "Z ->> 1 confirmed")


def test_criterion_03_two_bypass_char0(ideal_I0, ideal_I1, ideal_I2):
    gamma = explore_gamma(ideal_I2)
    GAMMAS.append(gamma)
    sources = find_sources(gamma)
    ok = len(gamma.vertices) == 2 and len(gamma.edges) == 1
    ok = ok and len(sources) == 1
    ok = ok and sources[0].key == fingerprint_key(homotopy_relation(ideal_I0))
    invs = {
        homotopy_relation(ideal_I0).presentation.abelian_invariants,
        homotopy_relation(ideal_I1).presentation.abelian_invariants,
        homotopy_relation(ideal_I2).presentation.abelian_invariants,
    }
    ok = ok and homotopy_relation(ideal_I0).presentation.abelian_invariants == (0, (2,))
    ok = ok and invs == {(0, (2,)), (0, ())}
    report(3, ok, "char 0: Gamma from I2 is I0 -> I1 with unique source; "
                  "pi1: Z/2, 1, 1")


def test_criterion_04_two_bypass_char2(ws5, twobypass):
    i0 = ws5.ideal("I0", char=2)
    i1 = ws5.ideal("I1", char=2)
    i2 = ws5.ideal("I2", char=2)
    hand = parse_source("""
    quiver twobypass {
      vertices: 1 2 3 4 5;
      arrow a: 1 -> 3; arrow b: 1 -> 2; arrow c: 2 -> 3;
      arrow d: 3 -> 5; arrow e: 3 -> 4; arrow f: 4 -> 5;
    }
    ideal K over twobypass(2) { rel d*a; rel f*e*a + d*c*b; }
    """).ideal("K")
    ok = ideals_equal(i2, hand)

    gamma = explore_gamma(i1)
    GAMMAS.append(gamma)
    ok = ok and len(gamma.vertices) == 3 and len(gamma.edges) == 2
    ok = ok and len(find_sources(gamma)) == 2
    gp2 = homotopy_relation(i2).presentation
    ok = ok and gp2.abelian_invariants == (1, ())
    surj = check_surjection(i2, i0)
    ok = ok and surj.status == CONFIRMED
    ok = ok and surj.target_invariants == (0, (2,))
    report(4, ok, "char 2: I2 = <da, va+du>; Gamma has 3 vertices, 2 edges, "
                  "two sources; pi1(I2) = Z ->> Z/2 confirmed")


def test_criterion_05_trichotomy_corpus():
    rng = random.Random(20260808)
    checked = 0
    unknowns = 0
    while checked < 200:
        ideal = make_random_bound_quiver(rng)
        bypasses = find_bypasses(ideal.quiver)
        if not bypasses:
            continue
        bypass = rng.choice(bypasses)
        tau = ideal.field.scalar(rng.choice([1, -1, 2]))
        image = apply_automorphism(Transvection(bypass, tau), ideal)
        h1 = homotopy_relation(ideal)
        h2 = homotopy_relation(image)
        a = ideal.quiver.arrow(bypass.arrow)
        ap = Path(a.source, a.target, (a.name,))
        s1 = h1.pair_status(ap, bypass.path)
        s2 = h2.pair_status(ap, bypass.path)
        if "unknown" in (s1, s2):
            unknowns += 1
            checked += 1
            continue
        if s1 == HOMOTOPIC and s2 == HOMOTOPIC:
            status, _ = relations_equal(h1, h2)
            assert status == EQUAL, "case a: relations must coincide"
        elif s1 == NOT_HOMOTOPIC and s2 == HOMOTOPIC:
            status, _ = relations_equal(h1, h2)
            assert status == DIFFERENT, "case b: relation must coarsen"
        elif s1 == HOMOTOPIC and s2 == NOT_HOMOTOPIC:
            status, _ = relations_equal(h1, h2)
            assert status == DIFFERENT, "reverse case b"
        else:
            assert ideals_equal(ideal, image), "case c: ideals must coincide"
            status, _ = relations_equal(h1, h2)
            assert status == EQUAL
        checked += 1
    ok = checked == 200 and unknowns == 0
    report(5, ok, "trichotomy total on 200 seeded pairs, %d unknowns" % unknowns)


def _random_automorphism(quiver, fld, rng, max_tvs=6):
    bps = find_bypasses(quiver)
    phi = identity_automorphism(quiver, fld)
    for _ in range(rng.randint(0, max_tvs)):
        b = rng.choice(bps)
        tau = Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2]))
        phi = compose(as_path_automorphism(Transvection(b, tau), quiver, fld), phi)
    scales = {}
    for a in quiver.arrows:
        if rng.random() < 0.5:
            scales[a.name] = Fraction(rng.choice([1, 2, 3, -1, -2]))
    dil = make_dilatation(quiver, fld, scales)
    return compose(as_path_automorphism(dil, quiver, fld), phi)


def test_criterion_06_decompose_round_trip(twobypass):
    f0 = Field(0)
    parallel = parse_quiver("""
    quiver par {
      vertices: 1 2 3;
      arrow a: 1 -> 2; arrow b: 1 -> 2; arrow c: 2 -> 3; arrow m: 1 -> 3;
    }""")
    rng = random.Random(1337)
    count = 0
    for i in range(100):
        quiver = twobypass if i % 2 == 0 else parallel
        phi = _random_automorphism(quiver, f0, rng)
        dil, ts = decompose_DT(phi)
        assert recompose_DT(quiver, f0, dil, ts) == phi
        count += 1
    report(6, count == 100, "100 seeded automorphisms decompose and "
                            "recompose exactly")


def test_criterion_07_exp_log(exple1):
    f0 = Field(0)
    q = parse_quiver("""
    quiver chain {
      vertices: 1 2 3 4;
      arrow a: 1 -> 4; arrow b: 1 -> 2; arrow c: 2 -> 3; arrow d: 3 -> 4;
      arrow m: 2 -> 4; arrow s: 1 -> 3;
    }""")
    rng = random.Random(4242)
    from bqkit.ideal import make_relation
    count = 0
    for _ in range(50):
        images = {}
        for arrow in q.arrows:
            terms = []
            for p in enumerate_paths(q):
                if (p.source, p.target) == (arrow.source, arrow.target) \
                        and len(p) >= 2 and rng.random() < 0.6:
                    terms.append((p, Fraction(rng.randint(-2, 2))))
            if terms:
                images[arrow.name] = make_relation(q, f0, arrow.source,
                                                   arrow.target, terms)
        nu = Derivation(q, f0, images)
        assert log_unipotent(exp_derivation(nu)) == nu
        count += 1
    # single-pair derivation exponentiates to the matching transvection
    nu = Derivation(exple1, f0,
                    {"a": relation_of_path(exple1, f0, parse_path(exple1, "c*b"))})
    expected = as_path_automorphism(
        Transvection(Bypass("a", parse_path(exple1, "c*b")), Fraction(1)),
        exple1, f0)
    ok = count == 50 and exp_derivation(nu) == expected
    report(7, ok, "log(exp(nu)) = nu for 50 seeded derivations; single-pair "
                  "exp is the transvection")


def _random_constricted(rng):
    """Connected acyclic quiver without parallel arrows, with all paths of
    length >= 2 killed; constricted by construction."""
    n = rng.randint(3, 6)
    vertices = tuple(str(i) for i in range(1, n + 1))
    names = iter("abcdefghijklmnopqrstuvwxyz")
    arrows = []
    seen_pairs = set()
    for i in range(1, n):
        arrows.append(Arrow(next(names), str(i), str(i + 1)))
        seen_pairs.add((str(i), str(i + 1)))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if (str(i), str(j)) not in seen_pairs and rng.random() < 0.4:
                arrows.append(Arrow(next(names), str(i), str(j)))
                seen_pairs.add((str(i), str(j)))
    quiver = Quiver("constricted", vertices, tuple(arrows))
    fld = Field(0)
    gens = []
    for p in enumerate_paths(quiver):
        if len(p) == 2:
            gens.append(relation_of_path(quiver, fld, p))
    return close_ideal(quiver, fld, gens)


def test_criterion_08_constricted():
    from bqkit.ideal import is_constricted
    rng = random.Random(99)
    count = 0
    while count < 20:
        ideal = _random_constricted(rng)
        assert is_constricted(ideal)
        for bypass in find_bypasses(ideal.quiver):
            for tau in tau_schedule(ideal.field):
                image = apply_automorphism(Transvection(bypass, tau), ideal)
                assert ideals_equal(image, ideal)
        gamma = explore_gamma(ideal)
        GAMMAS.append(gamma)
        assert len(gamma.vertices) == 1 and gamma.edges == []
        count += 1
    report(8, count == 20, "20 constricted ideals: transvections fix the "
                           "ideal and the graph is a single vertex")


def test_criterion_09_universal_cover_I0(ideal_I0):
    cov = universal_cover(ideal_I0)  # default radius
    ok = cov.complete
    ok = ok and len(cov.total.vertices) == 10
    ok = ok and all(len(cov.fiber(x)) == 2 for x in cov.base_quiver.vertices)
    rep = check_covering(cov)
    ok = ok and rep.ok
    galois = is_galois(cov)
    ok = ok and galois.status == GALOIS and galois.group_order == 2
    report(9, ok, "universal cover of I0: complete, 10 vertices, fibers 2, "
                  "covering axioms clean, Galois of order 2")


def test_criterion_10_smash(exple1, ideal_I):
    grading = make_grading(exple1, FiniteGroup.cyclic(2), {"a": "1"})
    cov = smash_product(ideal_I, grading)
    rep = check_covering(cov)
    galois = is_galois(cov)
    ok = rep.ok and galois.status == GALOIS and galois.group_order == 2

    trivial = smash_product(ideal_I,
                            make_grading(exple1, FiniteGroup.trivial(), {}))
    ok = ok and len(trivial.total.vertices) == len(exple1.vertices)
    ok = ok and len(trivial.total.arrows) == len(exple1.arrows)
    ok = ok and check_covering(trivial).ok
    ok = ok and is_galois(trivial).group_order == 1
    report(10, ok, "Z/2 smash of exple1 I passes the covering axioms with "
                   "deck group of order 2; trivial smash is the identity")


def test_criterion_11_lift(exple1, ideal_I):
    cov = universal_cover(ideal_I, radius=6)
    t = Transvection(Bypass("a", parse_path(exple1, "c*b")), Fraction(-1))
    m = lift_transvection(cov, t)
    ok = m.checks["squares"] == len(cov.total.arrows)
    ok = ok and m.checks["skipped_arrows"] == []
    ok = ok and m.checks["equivariance"] > 0
    kernel = m.checks["kernel_abelianized"]
    ok = ok and kernel == {"source_invariants": (1, ()),
                           "target_invariants": (0, ())}
    sizes = m.checks["fiber_sizes"]
    ok = ok and set(sizes) == set(m.target.total.vertices)
    ok = ok and all(size >= 2 for size in sizes.values())
    report(11, ok, "lift of phi(a,c*b,-1) at radius 6: squares verified on "
                   "every arrow, equivariant, kernel reported as Z at the "
                   "abelianized level (fibers %s)" % sorted(sizes.values()))


def test_criterion_12_gamma_invariants():
    assert GAMMAS, "no graphs were produced by the suite"
    for gamma in GAMMAS:
        assert gamma.validate() == []
    report(12, True, "structural invariants hold on all %d graphs produced "
                     "by this suite" % len(GAMMAS))

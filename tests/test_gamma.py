import random
from fractions import Fraction

import pytest
from conftest import FOUR_VERTEX, decide_unknown, twobypass_chain

from bqkit.dsl import parse_path, parse_source
from bqkit.errors import GammaError
from bqkit import gamma as gamma_mod
from bqkit.gamma import (CONFIRMED, REFUTED, GammaEdge, GammaQuiver,
                         GammaVertex, check_lemma_3_3_chain,
                         check_surjection, explore_gamma, find_sources,
                         predecessor_probe, successor_probe, tau_schedule)
from bqkit.homotopy import (HOMOTOPIC, NOT_HOMOTOPIC, HomotopyRelation,
                            homotopy_relation, fingerprint_key,
                            relations_equal, EQUAL)
from bqkit.ideal import close_ideal, ideals_equal, relation_of_path
from bqkit.quiver import Bypass, find_bypasses
from bqkit.transform import Dilatation, Transvection, apply_automorphism


def test_successors_exple1_I(ideal_I, ideal_J):
    hits = successor_probe(ideal_I, homotopy_relation(ideal_I)).hits
    assert len(hits) == 1
    t, image, h = hits[0]
    assert t.arrow == "a" and t.path.to_text() == "c*b"
    # the image relation matches J's up to fingerprint
    hJ = homotopy_relation(ideal_J)
    assert relations_equal(h, hJ) == (EQUAL, None)


def test_successors_exple1_J_is_sink(ideal_J):
    assert successor_probe(ideal_J, homotopy_relation(ideal_J)).hits == []


def test_successors_two_bypass_I0(ideal_I0, ideal_I1):
    hits = successor_probe(ideal_I0, homotopy_relation(ideal_I0)).hits
    # both bypasses lead to the same successor class: dedup to one entry
    assert len(hits) == 1
    _, _, h = hits[0]
    assert relations_equal(h, homotopy_relation(ideal_I1)) == (EQUAL, None)


def test_predecessors_exple1(ideal_I, ideal_J):
    hits = predecessor_probe(ideal_J, homotopy_relation(ideal_J)).hits
    assert len(hits) == 1
    t, image, h = hits[0]
    assert t.tau == Fraction(1)
    assert ideals_equal(image, ideal_I)
    assert predecessor_probe(ideal_I, homotopy_relation(ideal_I)).hits == []


def test_predecessors_char2_I1(ws5):
    i0 = ws5.ideal("I0", char=2)
    i1 = ws5.ideal("I1", char=2)
    i2 = ws5.ideal("I2", char=2)
    hits = predecessor_probe(i1, homotopy_relation(i1)).hits
    assert len(hits) == 2
    images = [image for _, image, _ in hits]
    assert any(ideals_equal(img, i0) for img in images)
    assert any(ideals_equal(img, i2) for img in images)


def test_explore_exple1(ideal_I, ideal_J):
    gamma = explore_gamma(ideal_I)
    assert len(gamma.vertices) == 2
    assert len(gamma.edges) == 1
    sources = find_sources(gamma)
    assert len(sources) == 1
    assert fingerprint_key(homotopy_relation(ideal_I)) == sources[0].key
    # exploring from the sink finds the same graph
    gamma2 = explore_gamma(ideal_J)
    assert len(gamma2.vertices) == 2
    assert len(gamma2.edges) == 1
    assert gamma.validate() == []


def test_explore_two_bypass_char0_from_I2(ideal_I0, ideal_I1, ideal_I2):
    gamma = explore_gamma(ideal_I2)
    assert len(gamma.vertices) == 2
    assert len(gamma.edges) == 1
    sources = find_sources(gamma)
    assert len(sources) == 1
    src = sources[0]
    assert src.key == fingerprint_key(homotopy_relation(ideal_I0))
    # the fingerprint of I2 equals the fingerprint of I1 (both trivial pi1)
    assert fingerprint_key(homotopy_relation(ideal_I2)) == \
        fingerprint_key(homotopy_relation(ideal_I1))
    invs = sorted(v.abelian_invariants for v in gamma.vertices)
    assert invs == [(0, ()), (0, (2,))]


def test_explore_two_bypass_char2_from_I1(ws5):
    i1 = ws5.ideal("I1", char=2)
    gamma = explore_gamma(i1)
    assert len(gamma.vertices) == 3
    assert len(gamma.edges) == 2
    sources = find_sources(gamma)
    assert len(sources) == 2
    invs = sorted(v.abelian_invariants for v in gamma.vertices)
    assert invs == [(0, ()), (0, (2,)), (1, ())]
    assert any("2 sources" in d for d in gamma.diagnostics)


def test_find_sources_warns_once(ws5):
    """A second call on the same graph adds no second warning."""
    gamma = explore_gamma(ws5.ideal("I1", char=2))
    for _ in range(2):
        assert len(find_sources(gamma)) == 2
    assert len([d for d in gamma.diagnostics if "sources found" in d]) == 1


def test_surjection_exple1(ideal_I, ideal_J):
    res = check_surjection(ideal_I, ideal_J)
    assert res.status == CONFIRMED
    assert res.source_invariants == (1, ())
    assert res.target_invariants == (0, ())
    back = check_surjection(ideal_J, ideal_I)
    assert back.status == REFUTED
    assert back.witness is not None


def test_surjection_two_bypass(ideal_I0, ideal_I1):
    res = check_surjection(ideal_I0, ideal_I1)
    assert res.status == CONFIRMED
    assert res.source_invariants == (0, (2,))
    assert res.target_invariants == (0, ())


def test_surjection_char2_I2_onto_I0(ws5):
    i0 = ws5.ideal("I0", char=2)
    i2 = ws5.ideal("I2", char=2)
    res = check_surjection(i2, i0)
    assert res.status == CONFIRMED
    assert res.source_invariants == (1, ())
    assert res.target_invariants == (0, (2,))


def test_chain_exple1(exple1, ideal_I, ideal_J, rationals):
    chain = check_lemma_3_3_chain(ideal_I, ideal_J)
    assert len(chain) == 1
    (t,) = chain
    assert isinstance(t, Transvection)
    assert (t.arrow, t.path.to_text(), t.tau) == ("a", "c*b", Fraction(-1))
    assert ideals_equal(apply_automorphism(t, ideal_I), ideal_J)


def test_chain_identity(ideal_I0):
    assert check_lemma_3_3_chain(ideal_I0, ideal_I0) == []


def test_chain_I0_to_I1(ideal_I0, ideal_I1):
    chain = check_lemma_3_3_chain(ideal_I0, ideal_I1)
    assert len(chain) == 1
    (t,) = chain
    assert (t.arrow, t.path.to_text(), t.tau) == ("a", "c*b", Fraction(1))


def test_chain_certifies_condition_b(ideal_I0, ideal_I1):
    chain = check_lemma_3_3_chain(ideal_I0, ideal_I1)
    current = ideal_I0
    for step in chain:
        if isinstance(step, Transvection):
            current = apply_automorphism(step, current)
            h = homotopy_relation(current)
            from bqkit.quiver import Path
            a = current.quiver.arrow(step.arrow)
            assert h.pair_status(Path(a.source, a.target, (a.name,)),
                                 step.path) == HOMOTOPIC
        else:
            current = apply_automorphism(step, current)
    assert ideals_equal(current, ideal_I1)


@pytest.mark.parametrize("arrow", "abcdef")
def test_chain_needs_dilatation(arrow, ideal_I0, ideal_I1, rationals):
    # D(I1) with D scaling one arrow by 2 lies in the vertex of I1, one
    # transvection away from I0, and only a final dilatation reaches it
    d = Dilatation(((arrow, Fraction(2)),))
    target = apply_automorphism(d, ideal_I1)
    chain = check_lemma_3_3_chain(ideal_I0, target)
    assert isinstance(chain[-1], Dilatation)
    current = ideal_I0
    for step in chain:
        current = apply_automorphism(step, current)
    assert ideals_equal(current, target)


def test_chain_unreachable(ideal_I, ws5):
    other = ws5.ideal("I0")
    with pytest.raises(GammaError):
        check_lemma_3_3_chain(ideal_I, other)


def test_constricted_single_vertex(exple1, rationals):
    cb = relation_of_path(exple1, rationals, parse_path(exple1, "c*b"))
    constricted = close_ideal(exple1, rationals, [cb])
    from bqkit.ideal import is_constricted
    assert is_constricted(constricted)
    for bypass in find_bypasses(exple1):
        for tau in tau_schedule(rationals):
            image = apply_automorphism(Transvection(bypass, tau), constricted)
            assert ideals_equal(image, constricted)
    gamma = explore_gamma(constricted)
    assert len(gamma.vertices) == 1
    assert gamma.edges == []


from conftest import make_random_bound_quiver


def test_trichotomy_seeded_sample():
    # smaller copy of acceptance criterion 5 for fast feedback
    rng = random.Random(1234)
    checked = 0
    while checked < 40:
        ideal = make_random_bound_quiver(rng)
        bypasses = find_bypasses(ideal.quiver)
        if not bypasses:
            continue
        bypass = rng.choice(bypasses)
        tau = ideal.field.scalar(rng.choice([1, -1, 2]))
        t = Transvection(bypass, tau)
        image = apply_automorphism(t, ideal)
        h1 = homotopy_relation(ideal)
        h2 = homotopy_relation(image)
        from bqkit.quiver import Path
        a = ideal.quiver.arrow(bypass.arrow)
        ap = Path(a.source, a.target, (a.name,))
        s1 = h1.pair_status(ap, bypass.path)
        s2 = h2.pair_status(ap, bypass.path)
        assert s1 in (HOMOTOPIC, NOT_HOMOTOPIC)
        assert s2 in (HOMOTOPIC, NOT_HOMOTOPIC)
        if s1 == HOMOTOPIC and s2 == HOMOTOPIC:
            assert relations_equal(h1, h2) == (EQUAL, None)
        elif s1 == NOT_HOMOTOPIC and s2 == NOT_HOMOTOPIC:
            assert ideals_equal(ideal, image)
            assert relations_equal(h1, h2) == (EQUAL, None)
        checked += 1


def test_unknown_contaminated_fingerprint_fails_loudly(monkeypatch):
    from bqkit.errors import GammaError

    # a private copy: the relation built with Unknown answers is kept on
    # the ideal
    ideal_I = parse_source(FOUR_VERTEX).ideal("I")
    decide_unknown(monkeypatch)
    with pytest.raises(GammaError, match="cannot explore"):
        explore_gamma(ideal_I)


def test_unresolved_alternate_representative_fails_loudly(monkeypatch):
    """An alternate representative whose fingerprint has an Unknown pair
    stops the exploration with a GammaError, as a successor or a
    predecessor does."""
    from bqkit.errors import UnresolvedError

    ideal_J = parse_source(FOUR_VERTEX).ideal("J")
    misses = []

    def probe(ideal, h, cache=None):
        res = predecessor_probe(ideal, h, cache)
        misses.extend(h_image for _, _, h_image in res.misses)
        return res

    def key(h):
        if any(h is m for m in misses):
            raise UnresolvedError("fingerprint contains an Unknown pair")
        return fingerprint_key(h)

    monkeypatch.setattr(gamma_mod, "predecessor_probe", probe)
    monkeypatch.setattr(gamma_mod, "fingerprint_key", key)
    with pytest.raises(GammaError, match="alternate representative"):
        explore_gamma(ideal_J)
    assert misses


def test_unknown_successor_is_a_gamma_error(monkeypatch, ideal_I):
    """An Unknown pair in a successor's relation stops the exploration
    with a GammaError that names the successor."""
    from bqkit.errors import UnresolvedError

    h_input = homotopy_relation(ideal_I)

    def key(h):
        if h is not h_input:
            raise UnresolvedError("fingerprint contains an Unknown pair")
        return fingerprint_key(h)

    monkeypatch.setattr(gamma_mod, "fingerprint_key", key)
    with pytest.raises(GammaError, match="successor"):
        explore_gamma(ideal_I)


def test_representative_cap_is_reported(ws5):
    # vertex 0 of I2 over Q has more alternate representatives than the
    # cap keeps; over F_2 every vertex keeps all of its own
    gamma = explore_gamma(ws5.ideal("I2"))
    assert len(gamma.vertices[0].representatives) == \
        gamma_mod.DEFAULT_MAX_REPRESENTATIVES
    capped = [d for d in gamma.diagnostics if "cap" in d]
    assert capped == ["vertex 0: representatives past the cap of %d were "
                      "not probed" % gamma_mod.DEFAULT_MAX_REPRESENTATIVES]
    gamma = explore_gamma(twobypass_chain(2, "I2", char=2))
    assert not [d for d in gamma.diagnostics if "cap" in d]


@pytest.mark.parametrize("edges, vertex_count, bypass_count, violations", [
    ([(0, 1), (1, 2)], 3, 2, []),
    ([(0, 0)], 1, 1, ["self-edge at vertex 0", "oriented cycle"]),
    ([(0, 1), (1, 0)], 2, 2, ["oriented cycle"]),
    ([(0, 1), (0, 2)], 3, 1, ["vertex 0 has out-degree above 1"]),
    ([(0, 1), (1, 2)], 3, 1,
     ["oriented path of length 2 exceeds the bypass count 1"]),
    ([(0, 1)], 3, 1, ["underlying graph is disconnected"]),
])
def test_validate_reports_each_violation(edges, vertex_count, bypass_count,
                                         violations):
    vertices = [GammaVertex(i, (i,), None, None, [])
                for i in range(vertex_count)]
    gamma = GammaQuiver(vertices,
                        [GammaEdge(s, t, None, None, None) for s, t in edges],
                        0, bypass_count, [])
    assert gamma.validate() == violations


def test_schedule_exhausted_is_logged(exple1, rationals):
    from bqkit.gamma import successor_probe
    from bqkit.ideal import relation_of_path
    from bqkit.homotopy import homotopy_relation

    # constricted ideal: every transvection fixes it, so every bypass
    # exhausts the schedule without a successor
    cb = relation_of_path(exple1, rationals, parse_path(exple1, "c*b"))
    ideal = close_ideal(exple1, rationals, [cb])
    h = homotopy_relation(ideal)
    res = successor_probe(ideal, h)
    assert res.hits == []
    assert any("schedule exhausted" in n for n in res.notes)


def test_chain_over_char2(ws5):
    i0 = ws5.ideal("I0", char=2)
    i1 = ws5.ideal("I1", char=2)
    i2 = ws5.ideal("I2", char=2)
    chain = check_lemma_3_3_chain(i0, i1)
    current = i0
    for step in chain:
        current = apply_automorphism(step, current)
    assert ideals_equal(current, i1)

    chain = check_lemma_3_3_chain(i2, i1)
    current = i2
    for step in chain:
        current = apply_automorphism(step, current)
    assert ideals_equal(current, i1)


def test_surjection_checks_after_exploration_build_no_relation(monkeypatch):
    """Exploration keeps one relation on each representative ideal, so
    the surjection check along every edge reads those and builds none."""
    gamma = explore_gamma(twobypass_chain(2, "I2", char=2))
    assert (len(gamma.vertices), len(gamma.edges)) == (9, 12)

    def no_build(*args, **kwargs):
        raise AssertionError("check_surjection built a homotopy relation")

    monkeypatch.setattr(HomotopyRelation, "__init__", no_build)
    for e in gamma.edges:
        assert check_surjection(e.source_rep, e.target_rep).status == CONFIRMED

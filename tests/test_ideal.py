import random
import re
from fractions import Fraction

import pytest
from conftest import grid_text, make_random_bound_quiver

from bqkit.dsl import parse_path, parse_source
from bqkit.errors import FieldError, IdealError
from bqkit.fields import Field
from bqkit.ideal import (SPLIT_ENUMERATION_BITS, close_ideal,
                         decompose_minimal, ideals_equal, is_constricted,
                         linear_combination, make_relation, relation_of_path,
                         support_equivalence)
from bqkit.quiver import Path, enumerate_paths, path_key, paths_between


def brute_rank(vectors):
    """Independent oracle: fraction Gaussian elimination, row by row."""
    rows = [list(map(Fraction, v)) for v in vectors]
    rank = 0
    cols = len(rows[0]) if rows else 0
    used = []
    for row in rows:
        r = row[:]
        for pivot_col, pivot_row in used:
            if r[pivot_col]:
                factor = r[pivot_col] / pivot_row[pivot_col]
                r = [x - factor * y for x, y in zip(r, pivot_row)]
        lead = next((j for j in range(cols) if r[j]), None)
        if lead is not None:
            used.append((lead, r))
            rank += 1
    return rank


def brute_closure_vectors(quiver, ideal, x, y):
    """All products w * g * w' landing in hom(x, y), as coefficient rows."""
    from bqkit.ideal import mul_relations, relation_of_path
    from bqkit.quiver import enumerate_paths

    fld = ideal.field
    paths = paths_between(quiver, x, y)
    index = {p: i for i, p in enumerate(paths)}
    rows = []
    for g in ideal.generators:
        for pre in enumerate_paths(quiver):
            if pre.target != g.source or pre.source != x:
                continue
            for post in enumerate_paths(quiver):
                if post.source != g.target or post.target != y:
                    continue
                r = mul_relations(quiver, fld,
                                  relation_of_path(quiver, fld, post),
                                  mul_relations(quiver, fld, g,
                                                relation_of_path(quiver, fld, pre)))
                row = [0] * len(paths)
                for p, c in r.terms:
                    row[index[p]] = c
                rows.append(row)
    return rows


def test_close_ideal_exple1_dims(exple1, ideal_I):
    assert ideal_I.dim_ideal("1", "4") == 1
    assert ideal_I.dim_quotient("1", "4") == 1
    for x in exple1.vertices:
        for y in exple1.vertices:
            if (x, y) != ("1", "4"):
                assert ideal_I.dim_ideal(x, y) == 0
            rows = brute_closure_vectors(exple1, ideal_I, x, y)
            assert ideal_I.dim_ideal(x, y) == brute_rank(rows)


def test_close_zero_ideal(exple1, rationals):
    zero = close_ideal(exple1, rationals, [])
    assert zero.total_dim() == 0
    assert zero.minimal_relations() == ()
    assert zero.radical_length == 4  # longest path has length 3


def test_reads_do_not_write_into_the_ideal(twobypass, ideal_I0):
    ideal = close_ideal(twobypass, ideal_I0.field, ideal_I0.generators)
    stored = len(ideal._spaces)
    x, y = next((a.source, a.target) for a in twobypass.arrows
                if (a.source, a.target) not in ideal._spaces)
    arrow = paths_between(twobypass, x, y)[0]
    assert ideal.radical_length == 5
    assert not ideal.contains(relation_of_path(twobypass, ideal.field, arrow))
    assert ideal.groebner_basis(x, y) == ()
    assert ideal.dim_ideal(x, y) == 0
    assert len(ideal._spaces) == stored


def test_close_ideal_two_bypass_I0(twobypass, ideal_I0):
    assert ideal_I0.dim_ideal("1", "5") == 2
    assert ideal_I0.dim_quotient("1", "5") == 2
    rows = brute_closure_vectors(twobypass, ideal_I0, "1", "5")
    assert brute_rank(rows) == 2
    basis = ideal_I0.groebner_basis("1", "5")
    assert [r.to_text(ideal_I0.field) for r in basis] == \
        ["f*e*a + d*c*b", "f*e*c*b + d*a"]


def test_close_ideal_rejects_short_paths(exple1, rationals):
    r = relation_of_path(exple1, rationals, parse_path(exple1, "a"))
    with pytest.raises(IdealError, match="admissible"):
        close_ideal(exple1, rationals, [r])


def test_groebner_normalization(exple1, ideal_J, rationals):
    # single generator da - dcb; leading path (largest) is dcb
    (rel,) = ideal_J.groebner_basis("1", "4")
    assert rel.to_text(rationals) == "d*c*b - d*a"


def test_groebner_zero_subspace(exple1, ideal_I):
    assert ideal_I.groebner_basis("1", "3") == ()


def test_groebner_unique_from_any_spanning_set(twobypass, ideal_I0, rationals):
    # respan using sums of the generators; Groebner basis must not change
    g1, g2 = ideal_I0.generators
    h1 = linear_combination(twobypass, rationals, "1", "5", [(1, g1), (1, g2)])
    h2 = linear_combination(twobypass, rationals, "1", "5",
                            [(1, g1), (Fraction(2), g2)])
    other = close_ideal(twobypass, rationals, [h1, h2])
    assert ideals_equal(ideal_I0, other)


def test_groebner_leading_paths_strict(twobypass, ideal_I0):
    basis = ideal_I0.groebner_basis("1", "5")
    leads = [r.support()[-1] for r in basis]
    assert len(set(leads)) == len(leads)
    for r in basis:
        for other in basis:
            if r is not other:
                assert r.support()[-1] not in other.support()


def test_minimal_relations(exple1, ideal_I, ideal_I0, rationals):
    assert [r.to_text(rationals) for r in ideal_I.minimal_relations()] == ["d*a"]
    assert len(ideal_I0.minimal_relations()) == 2
    zero = close_ideal(exple1, rationals, [])
    assert zero.minimal_relations() == ()


def brute_minimal(ideal, rel):
    """Oracle: a relation is minimal iff no proper support-subset is in I."""
    supp = rel.support()
    fld = ideal.field
    for mask in range(1, 1 << len(supp)):
        if mask == (1 << len(supp)) - 1:
            continue
        part = make_relation(ideal.quiver, fld, rel.source, rel.target,
                             [(p, rel.coefficient(p, fld))
                              for i, p in enumerate(supp) if mask & (1 << i)])
        if ideal.contains(part):
            return False
    return True


def test_groebner_elements_are_minimal(ideal_I0, ideal_J, ideal_I1):
    for ideal in (ideal_I0, ideal_J, ideal_I1):
        for rel in ideal.minimal_relations():
            assert brute_minimal(ideal, rel)


def test_decompose_minimal(twobypass, ideal_I0, rationals):
    g1, g2 = ideal_I0.groebner_basis("1", "5")
    s = linear_combination(twobypass, rationals, "1", "5", [(1, g1), (1, g2)])
    parts = decompose_minimal(ideal_I0, s)
    assert len(parts) == 2
    assert sorted(p.to_text(rationals) for p in parts) == \
        sorted(g.to_text(rationals) for g in (g1, g2))
    assert decompose_minimal(ideal_I0, g1) == [g1]
    zero = make_relation(twobypass, rationals, "1", "5", [])
    assert decompose_minimal(ideal_I0, zero) == []


def test_decompose_minimal_rejects_outsiders(twobypass, ideal_I0, rationals):
    outsider = relation_of_path(twobypass, rationals, parse_path(twobypass, "d*a"))
    with pytest.raises(IdealError):
        decompose_minimal(ideal_I0, outsider)


def test_decompose_minimal_names_its_cap():
    """A relation between corner-to-corner paths of the commutative 4 x 4
    grid with coefficients summing to 0.  Its 12-path version splits into
    6 differences of two paths.  The 13-path version raises at the cap
    instead of passing unsplit for minimal."""
    ideal = parse_source(grid_text(4)).ideal("I")
    fld = ideal.field
    corner = paths_between(ideal.quiver, "v0_0", "v3_3")
    assert len(corner) == 20
    twelve = make_relation(ideal.quiver, fld, "v0_0", "v3_3",
                           [(p, (-1) ** k) for k, p in enumerate(corner[:12])])
    parts = decompose_minimal(ideal, twelve)
    assert len(parts) == 6 and all(len(r.terms) == 2 for r in parts)
    thirteen = make_relation(ideal.quiver, fld, "v0_0", "v3_3",
                             [(p, c) for p, c in zip(corner[7:], [2, -1, -1] + [1, -1] * 5)])
    assert len(thirteen.terms) == 13 == SPLIT_ENUMERATION_BITS + 1
    with pytest.raises(IdealError, match="SPLIT_ENUMERATION_BITS cap of 12"):
        decompose_minimal(ideal, thirteen)


def test_close_grid7_keeps_one_path_per_hom_set():
    """The commutative 7 x 7 grid: each nonempty hom-set keeps one path
    modulo the ideal, so the ideal has one dimension per path less one
    per comparable vertex pair."""
    ideal = parse_source(grid_text(7)).ideal("I")
    assert len(enumerate_paths(ideal.quiver)) == 12805
    cells = [(i, j) for i in range(7) for j in range(7)]
    comparable = sum(1 for i, j in cells for k, m in cells if i <= k and j <= m)
    assert comparable == 784
    assert ideal.total_dim() == 12805 - comparable


def test_support_equivalence(exple1, ideal_I, ideal_J, rationals):
    da = parse_path(exple1, "d*a")
    dcb = parse_path(exple1, "d*c*b")
    assert support_equivalence(ideal_J, "1", "4") == ((da, dcb),)
    assert support_equivalence(ideal_I, "1", "4") == ((da,), (dcb,))
    zero = close_ideal(exple1, rationals, [])
    assert support_equivalence(zero, "1", "4") == ((da,), (dcb,))


def test_is_constricted(exple1, ideal_I, rationals):
    cb = relation_of_path(exple1, rationals, parse_path(exple1, "c*b"))
    constricted = close_ideal(exple1, rationals, [cb])
    assert is_constricted(constricted)
    assert not is_constricted(ideal_I)  # hom(1,3) quotient has dim 2

    from bqkit.dsl import parse_quiver
    lin = parse_quiver("quiver lin { vertices: 1 2 3; arrow a: 1 -> 2; arrow b: 2 -> 3; }")
    assert is_constricted(close_ideal(lin, rationals, []))


def test_ideals_equal(ws4, exple1, ideal_I, ideal_J, rationals):
    again = ws4.ideal("I")
    assert ideals_equal(ideal_I, again)
    assert not ideals_equal(ideal_I, ideal_J)
    regen = close_ideal(exple1, rationals, list(ideal_I.minimal_relations()))
    assert ideals_equal(ideal_I, regen)


def test_ideals_equal_field_mismatch(ws5):
    char0 = ws5.ideal("I2")
    char2 = ws5.ideal("I2", char=2)
    with pytest.raises(IdealError, match="field"):
        ideals_equal(char0, char2)


def test_char2_I2_reduces(ws5, twobypass):
    # in characteristic 2 the -2*f*e*c*b term vanishes
    i2 = ws5.ideal("I2", char=2)
    hand = parse_source("""
    quiver twobypass {
      vertices: 1 2 3 4 5;
      arrow a: 1 -> 3;
      arrow b: 1 -> 2;
      arrow c: 2 -> 3;
      arrow d: 3 -> 5;
      arrow e: 3 -> 4;
      arrow f: 4 -> 5;
    }
    ideal K over twobypass(2) { rel d*a; rel f*e*a + d*c*b; }
    """).ideal("K")
    assert ideals_equal(i2, hand)


def test_close_ideal_idempotent(ideal_I0):
    regen = close_ideal(ideal_I0.quiver, ideal_I0.field,
                        list(ideal_I0.minimal_relations()))
    assert ideals_equal(ideal_I0, regen)


def test_dimension_formula(twobypass, ideal_I0):
    for x in twobypass.vertices:
        for y in twobypass.vertices:
            n = len(paths_between(twobypass, x, y))
            assert ideal_I0.dim_ideal(x, y) + ideal_I0.dim_quotient(x, y) == n


def test_field_char2_scalars():
    f2 = Field(2)
    assert f2.scalar(-2) == 0
    assert f2.scalar(3) == 1
    with pytest.raises(FieldError):
        f2.scalar(1, 2)
    with pytest.raises(FieldError):
        Field(4)


def test_relation_terms_follow_the_canonical_order():
    """``make_relation`` sorts terms by path number; within a hom-set that
    is the ``path_key`` order, on the hom-sets of 40 random quivers."""
    fld = Field(0)
    homs = 0
    for seed in range(40):
        quiver = make_random_bound_quiver(random.Random(seed)).quiver
        for x in quiver.vertices:
            for y in quiver.vertices:
                paths = paths_between(quiver, x, y)
                if len(paths) < 2:
                    continue
                homs += 1
                terms = [(p, 1) for p in reversed(paths)]
                rel = make_relation(quiver, fld, x, y, terms)
                assert list(rel.support()) == sorted(
                    paths, key=lambda p: path_key(quiver, p))
    assert homs > 20


def test_relation_term_off_the_quiver_raises(twobypass, exple1):
    """A term whose path is not a path of the quiver is named in an
    ``IdealError``: an unknown arrow, arrows that do not chain, and a
    path of another quiver (d*c*b runs 1 -> 4 in exple1, 1 -> 5 here)."""
    good = parse_path(twobypass, "d*a")
    for bad in (Path("1", "5", ("a", "z")), Path("1", "5", ("d", "a")),
                parse_path(exple1, "d*c*b")):
        terms = [(bad, 1)] if bad.target == "4" else [(good, 1), (bad, 1)]
        with pytest.raises(IdealError, match=re.escape(
                "%s is not a path of quiver twobypass" % bad)):
            make_relation(twobypass, Field(0), bad.source, bad.target, terms)


def test_scalar_coercion_into_prime_field(twobypass):
    from bqkit.dsl import parse_path

    f3 = Field(3)
    half = Fraction(1, 2)  # 1/2 = 2 in F_3
    rel = make_relation(twobypass, f3, "1", "5",
                        [(parse_path(twobypass, "d*a"), half)])
    assert rel.terms[0][1] == 2
    with pytest.raises(FieldError):
        make_relation(twobypass, Field(2), "1", "5",
                      [(parse_path(twobypass, "d*a"), Fraction(1, 2))])
    with pytest.raises(FieldError):
        make_relation(twobypass, f3, "1", "5",
                      [(parse_path(twobypass, "d*a"), 0.5)])


def test_dsl_fraction_in_char_two_rejected():
    from bqkit.errors import BqError

    ws = parse_source("""
    quiver q { vertices: 1 2 3; arrow a: 1 -> 3; arrow b: 1 -> 2; arrow c: 2 -> 3; }
    ideal K over q(2) { rel 1/2*c*b; }
    """)
    with pytest.raises(BqError):
        ws.ideal("K")

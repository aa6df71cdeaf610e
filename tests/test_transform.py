import itertools
import random
from fractions import Fraction

import pytest

from bqkit.dsl import parse_path, parse_quiver, parse_source
from bqkit.errors import TransformError
from bqkit.fields import Field
from bqkit.homotopy import homotopy_relation, relations_equal, EQUAL
from bqkit.ideal import (ideals_equal, linear_combination, make_relation,
                         relation_of_path)
from bqkit.quiver import Bypass, enumerate_paths, find_bypasses, find_double_bypasses
from bqkit.transform import (Derivation, Transvection,
                             apply_automorphism, as_path_automorphism, compose,
                             decompose_DT, exp_derivation, identity_automorphism,
                             log_unipotent, make_dilatation, match_by_dilatation,
                             recompose_DT, _solve_monomial_system)


@pytest.fixture(scope="module")
def Q(exple1):
    return exple1


@pytest.fixture(scope="module")
def f0():
    return Field(0)


def tv(quiver, arrow, path_text, tau):
    return Transvection(Bypass(arrow, parse_path(quiver, path_text)), tau)


def test_apply_transvection_and_round_trip(Q, f0, ideal_I, ideal_J):
    t = tv(Q, "a", "c*b", Fraction(1))
    image = apply_automorphism(t, ideal_I)
    expected = parse_source("""
    quiver exple1 {
      vertices: 1 2 3 4;
      arrow a: 1 -> 3; arrow b: 1 -> 2; arrow c: 2 -> 3; arrow d: 3 -> 4;
    }
    ideal K over exple1(0) { rel d*a + d*c*b; }
    """).ideal("K")
    assert ideals_equal(image, expected)
    back = apply_automorphism(t.inverse(f0), image)
    assert ideals_equal(back, ideal_I)


def test_identity_transvection(Q, f0, ideal_I):
    t = tv(Q, "a", "c*b", Fraction(0))
    assert ideals_equal(apply_automorphism(t, ideal_I), ideal_I)


def test_paper_I1_from_I0(twobypass, ideal_I0, ideal_I1):
    t = tv(twobypass, "a", "c*b", Fraction(1))
    assert ideals_equal(apply_automorphism(t, ideal_I0), ideal_I1)


def test_paper_I2_from_I0(twobypass, ideal_I0, ideal_I2, f0):
    ta = tv(twobypass, "a", "c*b", Fraction(-1))
    td = tv(twobypass, "d", "f*e", Fraction(-1))
    phi = compose(as_path_automorphism(ta, twobypass, f0),
                  as_path_automorphism(td, twobypass, f0))
    assert ideals_equal(apply_automorphism(phi, ideal_I0), ideal_I2)


def test_compose_inverse_is_identity(Q, f0):
    t = tv(Q, "a", "c*b", Fraction(1))
    phi = compose(as_path_automorphism(t, Q, f0),
                  as_path_automorphism(t.inverse(f0), Q, f0))
    assert phi == identity_automorphism(Q, f0)


def test_transvections_commute_iff_no_double_bypass(f0):
    # without double bypass, any two transvections commute
    q = parse_quiver("""
    quiver five {
      vertices: 1 2 3 4 5;
      arrow a: 1 -> 3; arrow b: 1 -> 2; arrow c: 2 -> 3;
      arrow d: 3 -> 5; arrow e: 3 -> 4; arrow f: 4 -> 5;
    }""")
    assert find_double_bypasses(q) == []
    bps = find_bypasses(q)
    rng = random.Random(3)
    for _ in range(10):
        b1, b2 = rng.choice(bps), rng.choice(bps)
        t1 = as_path_automorphism(Transvection(b1, Fraction(rng.randint(1, 3))), q, f0)
        t2 = as_path_automorphism(Transvection(b2, Fraction(rng.randint(1, 3))), q, f0)
        assert compose(t1, t2) == compose(t2, t1)

    # with a double bypass there is a non-commuting pair
    qd = parse_quiver("""
    quiver dbl {
      vertices: 1 2 3;
      arrow a: 1 -> 3; arrow b: 1 -> 2; arrow c: 2 -> 3; arrow x: 2 -> 3;
    }""")
    assert find_double_bypasses(qd) != []
    t1 = as_path_automorphism(tv(qd, "a", "c*b", Fraction(1)), qd, f0)
    t2 = as_path_automorphism(tv(qd, "c", "x", Fraction(1)), qd, f0)
    assert compose(t1, t2) != compose(t2, t1)


def test_make_dilatation_rejects_a_repeated_arrow(Q, f0):
    """Two scales for a would give ``scale`` one and the arrow image the
    other."""
    with pytest.raises(TransformError, match="repeats arrow 'a'"):
        make_dilatation(Q, f0, [("a", Fraction(2)), ("a", Fraction(3))])
    with pytest.raises(TransformError, match="repeats arrow 'a'"):
        make_dilatation(Q, f0, [("a", Fraction(2)), ("c", Fraction(3)),
                                ("a", Fraction(2))])


def test_make_dilatation_coerces_its_scales(Q):
    """A scale is read in the field before it is checked for zero: 3 is
    zero in F_3, and 1/2 is 2 there."""
    f3 = Field(3)
    with pytest.raises(TransformError, match="zero"):
        make_dilatation(Q, f3, {"a": 3})
    d = make_dilatation(Q, f3, {"a": Fraction(1, 2)})
    assert d.scales == (("a", 2),)
    assert d.to_text(f3) == "D(a=2)"
    assert d.inverse(f3).scales == (("a", 2),)


def test_dilatation_conjugation_rule(Q, f0):
    # D o phi_{a,u,tau} o D^-1 = phi_{a,u,tau*lambda/mu}
    d = make_dilatation(Q, f0, {"a": Fraction(3), "c": Fraction(2)})
    t = tv(Q, "a", "c*b", Fraction(5))
    left = compose(as_path_automorphism(d, Q, f0),
                   compose(as_path_automorphism(t, Q, f0),
                           as_path_automorphism(d.inverse(f0), Q, f0)))
    lam = d.path_scale(parse_path(Q, "c*b"), f0)  # scale of u
    mu = d.scale("a", f0)
    expected = as_path_automorphism(
        tv(Q, "a", "c*b", Fraction(5) * lam / mu), Q, f0)
    assert left == expected


def test_apply_preserves_dims(Q, f0, ideal_J):
    t = tv(Q, "a", "c*b", Fraction(7, 3))
    image = apply_automorphism(t, ideal_J)
    assert image.total_dim() == ideal_J.total_dim()
    for x in Q.vertices:
        for y in Q.vertices:
            assert image.dim_ideal(x, y) == ideal_J.dim_ideal(x, y)


def test_singular_linear_part_rejected(f0):
    q = parse_quiver("quiver par { vertices: 1 2; arrow a: 1 -> 2; arrow b: 1 -> 2; }")
    img = relation_of_path(q, f0, parse_path(q, "b"))
    with pytest.raises(TransformError, match="singular"):
        from bqkit.transform import PathAutomorphism
        PathAutomorphism(q, f0, {"a": img, "b": img})


def test_rank_drop_raises(Q, f0, ideal_J):
    # a -> c*b is not invertible and sends d*a - d*c*b, which spans
    # J(1, 4), to zero; the constructor's check is bypassed by
    # overwriting the image of a valid automorphism
    auto = as_path_automorphism(tv(Q, "a", "c*b", Fraction(2)), Q, f0)
    auto.images["a"] = relation_of_path(Q, f0, parse_path(Q, "c*b"))
    with pytest.raises(TransformError,
                       match="did not preserve the ideal dimension.*hom\\(1, 4\\)"):
        apply_automorphism(auto, ideal_J)


# -- decompose_DT ----------------------------------------------------------

def test_decompose_dilatation_only(Q, f0):
    d = make_dilatation(Q, f0, {"a": Fraction(2), "d": Fraction(-1)})
    phi = as_path_automorphism(d, Q, f0)
    dil, ts = decompose_DT(phi)
    assert ts == []
    assert dil.scale("a", f0) == Fraction(2)
    assert dil.scale("d", f0) == Fraction(-1)


def test_decompose_single_transvection(Q, f0):
    t = tv(Q, "a", "c*b", Fraction(3))
    dil, ts = decompose_DT(as_path_automorphism(t, Q, f0))
    assert dil.is_identity(f0)
    assert len(ts) == 1
    assert ts[0].arrow == "a" and ts[0].tau == Fraction(3)


def test_decompose_mixed(Q, f0):
    # a -> 2a + cb == (D: a -> 2) o phi_{a, cb, 1}: the dilatation is applied
    # last and only rescales the arrow a, leaving the tail cb untouched
    img = linear_combination(Q, f0, "1", "3",
                             [(Fraction(2), relation_of_path(Q, f0, parse_path(Q, "a"))),
                              (1, relation_of_path(Q, f0, parse_path(Q, "c*b")))])
    from bqkit.transform import PathAutomorphism
    phi = PathAutomorphism(Q, f0, {"a": img})
    dil, ts = decompose_DT(phi)
    assert dil.scale("a", f0) == Fraction(2)
    assert [(t.arrow, t.path.to_text(), t.tau) for t in ts] == \
        [("a", "c*b", Fraction(1))]
    assert recompose_DT(Q, f0, dil, ts) == phi


def random_automorphism(quiver, fld, rng, max_tvs=6):
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
    return compose(as_path_automorphism(make_dilatation(quiver, fld, scales), quiver, fld), phi)


def test_decompose_round_trip_seeded(twobypass, f0):
    rng = random.Random(20260808)
    for _ in range(30):
        phi = random_automorphism(twobypass, f0, rng)
        dil, ts = decompose_DT(phi)
        assert recompose_DT(twobypass, f0, dil, ts) == phi


def test_decompose_with_parallel_arrows(f0):
    q = parse_quiver("""
    quiver par3 {
      vertices: 1 2 3;
      arrow a: 1 -> 2; arrow b: 1 -> 2; arrow c: 2 -> 3;
    }""")
    from bqkit.transform import PathAutomorphism
    # swap-like mixing of the parallel pair: a -> b, b -> a + 2b
    ra = relation_of_path(q, f0, parse_path(q, "a"))
    rb = relation_of_path(q, f0, parse_path(q, "b"))
    img_a = rb
    img_b = linear_combination(q, f0, "1", "2", [(1, ra), (Fraction(2), rb)])
    phi = PathAutomorphism(q, f0, {"a": img_a, "b": img_b})
    dil, ts = decompose_DT(phi)
    assert recompose_DT(q, f0, dil, ts) == phi


# -- exp / log --------------------------------------------------------------

def test_exp_single_pair_is_transvection(Q, f0):
    nu = Derivation(Q, f0, {"a": relation_of_path(Q, f0, parse_path(Q, "c*b"))})
    phi = exp_derivation(nu)
    assert phi == as_path_automorphism(tv(Q, "a", "c*b", Fraction(1)), Q, f0)


def test_log_of_transvection(Q, f0):
    phi = as_path_automorphism(tv(Q, "a", "c*b", Fraction(5, 2)), Q, f0)
    nu = log_unipotent(phi)
    assert nu.images["a"].to_text(f0) == "5/2*c*b"
    for name in ("b", "c", "d"):
        assert nu.images[name].is_zero


def test_log_exp_round_trip_seeded(f0):
    q = parse_quiver("""
    quiver chain {
      vertices: 1 2 3 4;
      arrow a: 1 -> 4; arrow b: 1 -> 2; arrow c: 2 -> 3; arrow d: 3 -> 4;
      arrow m: 2 -> 4; arrow s: 1 -> 3;
    }""")
    rng = random.Random(5)
    paths = enumerate_paths(q)
    for _ in range(25):
        images = {}
        for arrow in q.arrows:
            terms = []
            for p in paths:
                if (p.source, p.target) == (arrow.source, arrow.target) \
                        and len(p) >= 2 and rng.random() < 0.6:
                    terms.append((p, Fraction(rng.randint(-2, 2))))
            if terms:
                images[arrow.name] = make_relation(q, f0, arrow.source,
                                                   arrow.target, terms)
        nu = Derivation(q, f0, images)
        assert log_unipotent(exp_derivation(nu)) == nu


def test_exp_noncommuting_images_against_series_oracle(f0):
    # 3-bypass chain: nu has interacting images; check exp by brute series
    q = parse_quiver("""
    quiver chain3 {
      vertices: 1 2 3;
      arrow a: 1 -> 2; arrow b: 2 -> 3; arrow c: 1 -> 3;
      arrow p: 1 -> 2; arrow r: 2 -> 3;
    }""")
    nu = Derivation(q, f0, {
        "c": make_relation(q, f0, "1", "3",
                           [(parse_path(q, "b*a"), Fraction(1)),
                            (parse_path(q, "r*p"), Fraction(2))]),
    })
    phi = exp_derivation(nu)
    # series oracle: sum nu^l(x)/l! term by term, independently
    for arrow in q.arrows:
        term = relation_of_path(q, f0, parse_path(q, arrow.name))
        series = [(1, term)]
        fact = 1
        for l in range(1, 10):
            term = nu.apply_to_relation(term)
            fact *= l
            if term.is_zero:
                break
            series.append((Fraction(1, fact), term))
        total = linear_combination(q, f0, arrow.source, arrow.target, series)
        assert phi.images[arrow.name] == total


def test_exp_rejects_short_images(Q, f0):
    with pytest.raises(TransformError):
        Derivation(Q, f0, {"a": relation_of_path(Q, f0, parse_path(Q, "a"))})


def test_log_rejects_non_unipotent(Q, f0):
    d = as_path_automorphism(make_dilatation(Q, f0, {"a": Fraction(2)}), Q, f0)
    with pytest.raises(TransformError, match="unipotent"):
        log_unipotent(d)


def test_char_p_exp_guard():
    f2 = Field(2)
    q = parse_quiver("""
    quiver ladder {
      vertices: 1 2 3;
      arrow a: 1 -> 3; arrow b: 1 -> 2; arrow c: 2 -> 3; arrow m: 1 -> 3;
    }""")
    # nu(a) = cb, nu then kills it: nilpotency degree 2 needs 1/2 -- absent in F_2
    nu = Derivation(q, f2, {"a": relation_of_path(q, f2, parse_path(q, "c*b"))})
    phi = exp_derivation(nu)  # degree < 2 per arrow is fine
    assert phi.images["a"].coefficient(parse_path(q, "c*b"), f2) == 1


def test_match_by_dilatation(Q, f0, ideal_J):
    d = make_dilatation(Q, f0, {"a": Fraction(-1), "c": Fraction(3)})
    other = apply_automorphism(d, ideal_J)
    found = match_by_dilatation(ideal_J, other)
    assert found is not None
    assert ideals_equal(apply_automorphism(found, ideal_J), other)


def test_match_by_dilatation_none(Q, ideal_I, ideal_J):
    assert match_by_dilatation(ideal_I, ideal_J) is None


# -- Prop 1.6-style properties (exercised in depth by the gamma suite) ------

def test_dilatation_preserves_homotopy(Q, f0, ideal_J):
    d = make_dilatation(Q, f0, {"a": Fraction(5), "b": Fraction(-2)})
    image = apply_automorphism(d, ideal_J)
    h1 = homotopy_relation(ideal_J)
    h2 = homotopy_relation(image)
    assert relations_equal(h1, h2) == (EQUAL, None)


def test_match_by_dilatation_prime_field(ws5, twobypass):
    f5 = Field(5)
    ideal = ws5.ideal("I0", char=5)
    d = make_dilatation(twobypass, f5, {"a": 2, "f": 3})
    moved = apply_automorphism(d, ideal)
    found = match_by_dilatation(ideal, moved)
    assert found is not None
    assert ideals_equal(apply_automorphism(found, ideal), moved)


# -- the monomial system behind match_by_dilatation ---------------------------

def _satisfies(fld, rows, rhs, x):
    for row, want in zip(rows, rhs):
        got = fld.one
        for xj, e in zip(x, row):
            got = fld.mul(got, fld.pow(xj, e))
        if got != want:
            return False
    return True


@pytest.mark.parametrize("char, rows, rhs, nvars, solvable", [
    (0, [[2]], [Fraction(4)], 1, True),               # torsion: x = +-2
    (5, [[2]], [4], 1, True),                         # x = 2 or 3
    (0, [[2]], [Fraction(2)], 1, False),              # no rational root
    (5, [[2]], [2], 1, False),                        # 2 is not a square mod 5
    (7, [[1, 1], [0, 0]], [3, 2], 2, False),          # zero row, rhs not 1
    (7, [[1, 1], [0, 0]], [3, 1], 2, True),           # zero row, rhs 1
    (0, [[1, 0]], [Fraction(-3)], 2, True),           # x_1 is free
    (0, [[2, 4], [1, -1]], [Fraction(324), Fraction(2, 3)], 2, True),
])
def test_monomial_system_cases(char, rows, rhs, nvars, solvable):
    fld = Field(char)
    x = _solve_monomial_system(fld, rows, rhs, nvars)
    assert (x is not None) == solvable
    if solvable:
        assert len(x) == nvars
        assert _satisfies(fld, rows, rhs, x)


@pytest.mark.parametrize("char", [5, 7])
def test_monomial_system_matches_brute_force(char):
    fld = Field(char)
    rng = random.Random(char)
    for _ in range(150):
        nvars = rng.randint(1, 3)
        rows = [[rng.randint(-3, 3) for _ in range(nvars)]
                for _ in range(rng.randint(1, 3))]
        rhs = [rng.randint(1, char - 1) for _ in rows]
        x = _solve_monomial_system(fld, rows, rhs, nvars)
        brute = any(_satisfies(fld, rows, rhs, y)
                    for y in itertools.product(range(1, char), repeat=nvars))
        assert (x is not None) == brute, (rows, rhs)
        if x is not None:
            assert _satisfies(fld, rows, rhs, x), (rows, rhs, x)

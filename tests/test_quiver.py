import gc
import random
import weakref

import pytest
from conftest import TWO_BYPASS, make_random_bound_quiver

from bqkit.cover import universal_cover
from bqkit.dsl import parse_path, parse_quiver, parse_source, parse_walk
from bqkit.errors import ParseError, QuiverError
from bqkit.quiver import (FORWARD, INVERSE, Arrow, Quiver, compose_paths,
                          enumerate_paths, find_bypasses, find_double_bypasses,
                          longest_path_length, make_path, make_walk, path_key,
                          path_tables, paths_between, trivial_path,
                          walk_of_path)


def brute_paths(quiver):
    """Independent oracle: DFS over all arrow chains."""
    found = [[]]
    stack = [[a] for a in quiver.arrows]
    while stack:
        chain = stack.pop()
        found.append(chain)
        for a in quiver.arrows:
            if a.source == chain[-1].target:
                stack.append(chain + [a])
    out = set()
    for chain in found:
        if chain:
            out.add(tuple(a.name for a in chain))
        else:
            for v in quiver.vertices:
                out.add(("e", v))
    return out


def test_parse_exple1(exple1):
    assert exple1.vertices == ("1", "2", "3", "4")
    assert [a.name for a in exple1.arrows] == ["a", "b", "c", "d"]
    assert exple1.arrow("a").source == "1"
    assert exple1.arrow("a").target == "3"


def test_parse_single_vertex_no_arrows():
    q = parse_quiver("quiver pt { vertices: x; }")
    assert q.vertices == ("x",)
    assert q.arrows == ()


def test_parse_rejects_two_cycle():
    src = """
    quiver bad {
      vertices: 1 2;
      arrow a: 1 -> 2;
      arrow b: 2 -> 1;
    }
    """
    with pytest.raises(ParseError, match="oriented cycle"):
        parse_quiver(src)


def test_parse_rejects_duplicates_and_dangling():
    with pytest.raises(ParseError, match="duplicate"):
        parse_quiver("quiver q { vertices: 1 1; }")
    with pytest.raises(ParseError, match="dangling"):
        parse_quiver("quiver q { vertices: 1; arrow a: 1 -> 2; }")


def test_parse_error_reports_position():
    try:
        parse_quiver("quiver q {\n  vertices 1;\n}")
    except ParseError as exc:
        assert exc.line == 2
    else:
        raise AssertionError("expected a parse error")


def test_enumerate_paths_exple1(exple1):
    paths = enumerate_paths(exple1)
    nontrivial = [p.to_text() for p in paths if not p.is_trivial]
    assert len([p for p in paths if p.is_trivial]) == 4
    assert set(nontrivial) == {"a", "b", "c", "d", "c*b", "d*c", "d*a", "d*c*b"}
    assert len(nontrivial) == 8


def test_enumerate_paths_matches_brute_force(exple1, twobypass):
    for q in (exple1, twobypass):
        got = set()
        for p in enumerate_paths(q):
            got.add(p.arrows if p.arrows else ("e", p.source))
        assert got == brute_paths(q)


def test_enumerate_paths_two_bypass_counts(twobypass):
    # value frozen from the brute-force DFS oracle below
    paths = enumerate_paths(twobypass)
    assert len([p for p in paths if p.is_trivial]) == 5
    assert len([p for p in paths if not p.is_trivial]) == 17
    assert len(brute_paths(twobypass)) == 17 + 5


def test_paths_sorted_by_canonical_order(twobypass):
    paths = enumerate_paths(twobypass)
    keys = [path_key(twobypass, p) for p in paths]
    assert keys == sorted(keys)


def test_path_count_equals_forward_walks_plus_vertices(exple1):
    paths = enumerate_paths(exple1)
    nontrivial = [p for p in paths if not p.is_trivial]
    assert len(paths) == len(nontrivial) + len(exple1.vertices)


def test_paths_closed_under_subpaths_and_concatenation(twobypass):
    all_paths = set(enumerate_paths(twobypass))
    for p in all_paths:
        for i in range(len(p.arrows)):
            for j in range(i + 1, len(p.arrows) + 1):
                sub = p.arrows[i:j]
                assert make_path(twobypass, sub) in all_paths
    for p in all_paths:
        for q in all_paths:
            if p.target == q.source and len(p) + len(q) > 0:
                if not p.arrows:
                    assert q in all_paths
                elif not q.arrows:
                    assert p in all_paths
                else:
                    assert make_path(twobypass, p.arrows + q.arrows) in all_paths


def test_find_bypasses_exple1(exple1):
    bps = find_bypasses(exple1)
    assert [(b.arrow, b.path.to_text()) for b in bps] == [("a", "c*b")]


def test_find_bypasses_two_bypass(twobypass):
    bps = find_bypasses(twobypass)
    assert [(b.arrow, b.path.to_text()) for b in bps] == [("a", "c*b"), ("d", "f*e")]


def test_no_bypasses_on_linear_quiver():
    q = parse_quiver("quiver lin { vertices: 1 2 3; arrow a: 1 -> 2; arrow b: 2 -> 3; }")
    assert find_bypasses(q) == []


def test_double_bypasses(exple1, twobypass):
    assert find_double_bypasses(exple1) == []
    assert find_double_bypasses(twobypass) == []
    q = parse_quiver("quiver par { vertices: 1 2; arrow a: 1 -> 2; arrow b: 1 -> 2; }")
    pairs = {(b1.arrow, b1.path.to_text(), b2.arrow, b2.path.to_text())
             for b1, b2 in find_double_bypasses(q)}
    assert pairs == {("a", "b", "b", "a"), ("b", "a", "a", "b")}


def test_walk_reduction_and_composition(exple1):
    w = make_walk(exple1, [("a", FORWARD), ("d", FORWARD), ("d", INVERSE),
                           ("c", INVERSE), ("c", FORWARD), ("d", FORWARD)])
    red = w.reduced()
    assert red.letters == (("a", FORWARD), ("d", FORWARD))
    assert red.source == "1" and red.target == "4"
    assert w.inverse().reduced() == red.inverse()


def test_walk_reduce_idempotent(exple1):
    w = make_walk(exple1, [("b", FORWARD), ("c", FORWARD)])
    assert w.reduced() == w


def test_parse_walk_and_path(exple1):
    w = parse_walk(exple1, "d^-1*d*a")
    assert w.letters == (("a", FORWARD), ("d", FORWARD), ("d", INVERSE))
    assert w.reduced() == walk_of_path(parse_path(exple1, "a"))
    assert parse_path(exple1, "d*c*b").arrows == ("b", "c", "d")
    assert parse_path(exple1, "e_2") == trivial_path(exple1, "2")


def test_make_walk_rejects_broken_chain(exple1):
    with pytest.raises(QuiverError):
        make_walk(exple1, [("a", FORWARD), ("b", FORWARD)])


def test_longest_path_length(exple1, twobypass):
    assert longest_path_length(exple1) == 3
    assert longest_path_length(twobypass) == 4


def test_paths_between(twobypass):
    hom15 = [p.to_text() for p in paths_between(twobypass, "1", "5")]
    assert hom15 == ["d*a", "d*c*b", "f*e*a", "f*e*c*b"]


def test_paths_between_without_paths_is_empty(twobypass):
    assert paths_between(twobypass, "5", "1") == ()
    assert paths_between(twobypass, "2", "4") != ()


def test_unknown_arrow_name_raises(exple1):
    with pytest.raises(QuiverError):
        exple1.arrow("z")
    with pytest.raises(QuiverError):
        exple1.arrow_index("z")


def test_equal_quivers_give_equal_paths_and_hashes(twobypass):
    twin = Quiver(twobypass.name, twobypass.vertices, twobypass.arrows)
    assert twin == twobypass and twin is not twobypass
    assert hash(twin) == hash(twobypass)
    assert enumerate_paths(twin) == enumerate_paths(twobypass)
    for x in twobypass.vertices:
        for y in twobypass.vertices:
            assert paths_between(twin, x, y) == paths_between(twobypass, x, y)
    assert longest_path_length(twin) == longest_path_length(twobypass)


def grid_quiver(n):
    """The n x n grid, arrows right and down."""
    def v(i, j):
        return "%d.%d" % (i, j)
    arrows = [Arrow("r" + v(i, j), v(i, j), v(i, j + 1))
              for i in range(n) for j in range(n - 1)]
    arrows += [Arrow("d" + v(i, j), v(i, j), v(i + 1, j))
               for i in range(n - 1) for j in range(n)]
    return Quiver("grid", [v(i, j) for i in range(n) for j in range(n)], arrows)


def table_quivers(exple1, twobypass):
    for seed in range(30):
        yield make_random_bound_quiver(random.Random(seed)).quiver
    yield exple1
    yield twobypass
    yield grid_quiver(4)
    free = parse_source(TWO_BYPASS + "ideal F over twobypass(0) "
                                     "{ rel d*a; rel f*e*c*b; }").ideal("F")
    cov = universal_cover(free, radius=4)
    assert not cov.complete
    yield cov.total


def test_path_tables_compose_with_arrows(exple1, twobypass):
    for q in table_quivers(exple1, twobypass):
        paths = enumerate_paths(q)
        index, after, before, head, tail = path_tables(q)
        assert [index[p] for p in paths] == list(range(len(paths)))
        keys = [path_key(q, p) for p in paths]
        assert keys == sorted(keys)
        for i, p in enumerate(paths):
            for a in q.arrows_from(p.target):
                later = make_path(q, [a.name])
                assert after[a.name][i] == index[compose_paths(q, later, p)]
                assert head[after[a.name][i]] == i
            for a in q.arrows_into(p.source):
                earlier = make_path(q, [a.name])
                assert before[a.name][i] == index[compose_paths(q, p, earlier)]
                assert tail[before[a.name][i]] == i
            if p.is_trivial:
                assert head[i] is None and tail[i] is None
            else:
                assert after[p.arrows[-1]][head[i]] == i
                assert before[p.arrows[0]][tail[i]] == i
        nontrivial = len(paths) - len(q.vertices)
        assert sum(len(m) for m in after.values()) == nontrivial
        assert sum(len(m) for m in before.values()) == nontrivial


def test_dropped_cover_quiver_is_freed(ideal_I0):
    cov = universal_cover(ideal_I0, radius=4)
    enumerate_paths(cov.total)
    index = path_tables(cov.total)[0]
    # the index of the tables holds this path as a key, so the path dies
    # only once the tables die too
    last = weakref.ref(max(index, key=index.get))
    ref = weakref.ref(cov.total)
    del cov, index
    gc.collect()
    assert ref() is None
    assert last() is None

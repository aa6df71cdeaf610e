import pytest

from bqkit.dsl import parse_source
from bqkit.fields import Field
from bqkit.homotopy import (UNKNOWN, Decision, GroupPresentation,
                            HomotopyRelation, cancel_join, invert_word,
                            reduce_word, spanning_tree)
from bqkit.ideal import close_ideal, make_relation
from bqkit.quiver import Arrow, Quiver, paths_between


def make_random_bound_quiver(rng, char=0, max_vertices=6):
    """Random connected acyclic quiver plus a random admissible ideal."""
    n = rng.randint(3, max_vertices)
    vertices = tuple(str(i) for i in range(1, n + 1))
    arrows = []
    names = iter("abcdefghijklmnopqrstuv")
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for _ in range(rng.choice([0, 1, 1, 2])):
                if rng.random() < 0.6:
                    arrows.append(Arrow(next(names), str(i), str(j)))
    if not arrows:
        arrows.append(Arrow(next(names), "1", "2"))
    quiver = Quiver("rand", vertices, tuple(arrows))
    adj = {v: set() for v in vertices}
    for a in arrows:
        adj[a.source].add(a.target)
        adj[a.target].add(a.source)
    seen, todo = {vertices[0]}, [vertices[0]]
    while todo:
        v = todo.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                todo.append(w)
    if seen != set(vertices):
        extra = []
        prev = None
        for v in vertices:
            if prev is not None and (v not in seen or prev not in seen):
                extra.append(Arrow(next(names), prev, v))
            prev = v
        quiver = Quiver("rand", vertices, tuple(arrows) + tuple(extra))

    fld = Field(char)
    gens = []
    for x in quiver.vertices:
        for y in quiver.vertices:
            pool = [p for p in paths_between(quiver, x, y) if len(p) >= 2]
            if len(pool) >= 1 and rng.random() < 0.5:
                terms = []
                for p in pool:
                    if rng.random() < 0.7:
                        c = fld.scalar(rng.choice([1, 1, -1, 2]))
                        terms.append((p, c))
                if terms:
                    gens.append(make_relation(quiver, fld, x, y, terms))
    return close_ideal(quiver, fld, gens)


def decide_unknown(monkeypatch):
    """Make every word have the same abelian image and ``decide`` answer
    Unknown, so a relation built afterwards has an Unknown pair wherever
    a hom-set has two congruence classes."""
    monkeypatch.setattr(GroupPresentation, "image", lambda self, word: ())
    monkeypatch.setattr(HomotopyRelation, "decide",
                        lambda self, u, v, cap=None, want_chain=True:
                        Decision(UNKNOWN))


def coded(tree, walk):
    """The free reduction of the coded word of a walk, as ``decide``
    builds it."""
    return reduce_word(tree.encode(walk.letters))


def reduced(quiver, walk):
    """The free reduction of a walk, through ``reduce_word`` on its coded
    word in the alphabet of the quiver's spanning tree."""
    tree = spanning_tree(quiver, quiver.vertices[0])
    return tree.decode(walk.source, coded(tree, walk))


def loop_chord_word(h, u, v):
    """The chord word of the loop u * v^-1 of parallel walks, as
    ``decide`` builds it."""
    chord_word = h.tree.chord_word
    return cancel_join(chord_word(coded(h.tree, u)),
                       invert_word(chord_word(coded(h.tree, v))))


UNIT_RELATIONS = {
    "I0": ("d{0}*a{0} + f{0}*e{0}*c{0}*b{0}", "f{0}*e{0}*a{0} + d{0}*c{0}*b{0}"),
    "I2": ("d{0}*a{0}", "f{0}*e{0}*a{0} + d{0}*c{0}*b{0} - 2*f{0}*e{0}*c{0}*b{0}"),
}


def twobypass_chain_text(units, unit="I0", char=0):
    """Source text of ``units`` copies of twobypass with the ideal
    ``unit`` glued end to end over the field of characteristic ``char``,
    as quiver ``chain`` and ideal ``I``: vertex 5 of one unit is vertex 1
    of the next."""
    lines = ["quiver chain {",
             "  vertices: %s;" % " ".join(str(v) for v in range(1, 4 * units + 2))]
    rels = []
    for k in range(units):
        v = {i: str(4 * k + i) for i in range(1, 6)}
        for name, src, tgt in (("a", 1, 3), ("b", 1, 2), ("c", 2, 3),
                               ("d", 3, 5), ("e", 3, 4), ("f", 4, 5)):
            lines.append("  arrow %s%d: %s -> %s;" % (name, k, v[src], v[tgt]))
        rels += [r.format(k) for r in UNIT_RELATIONS[unit]]
    lines.append("}")
    lines.append("ideal I over chain(%d) { %s }"
                 % (char, " ".join("rel %s;" % r for r in rels)))
    return "\n".join(lines)


def twobypass_chain(units, unit="I0", char=0):
    """The ideal of ``twobypass_chain_text``."""
    return parse_source(twobypass_chain_text(units, unit, char)).ideal("I")


def grid_text(n, char=0):
    """Source text of the commutative n x n grid as quiver ``grid`` and
    ideal ``I``: vertex v{i}_{j} has arrows r{i}_{j} to the right and
    d{i}_{j} down, and every square gives d*r - r*d."""
    lines = ["quiver grid {",
             "  vertices: %s;" % " ".join("v%d_%d" % (i, j)
                                          for i in range(n) for j in range(n))]
    for i in range(n):
        for j in range(n):
            if j + 1 < n:
                lines.append("  arrow r%d_%d: v%d_%d -> v%d_%d;" % (i, j, i, j, i, j + 1))
            if i + 1 < n:
                lines.append("  arrow d%d_%d: v%d_%d -> v%d_%d;" % (i, j, i, j, i + 1, j))
    lines.append("}")
    rels = ["rel d%d_%d*r%d_%d - r%d_%d*d%d_%d;" % (i, j + 1, i, j, i + 1, j, i, j)
            for i in range(n - 1) for j in range(n - 1)]
    lines.append("ideal I over grid(%d) { %s }" % (char, " ".join(rels)))
    return "\n".join(lines)


FOUR_VERTEX = """
quiver exple1 {
  vertices: 1 2 3 4;
  arrow a: 1 -> 3;
  arrow b: 1 -> 2;
  arrow c: 2 -> 3;
  arrow d: 3 -> 4;
}
ideal I over exple1(0) { rel d*a; }
ideal J over exple1(0) { rel d*a - d*c*b; }
"""

TWO_BYPASS = """
quiver twobypass {
  vertices: 1 2 3 4 5;
  arrow a: 1 -> 3;
  arrow b: 1 -> 2;
  arrow c: 2 -> 3;
  arrow d: 3 -> 5;
  arrow e: 3 -> 4;
  arrow f: 4 -> 5;
}
# u = c*b, v = f*e
ideal I0 over twobypass(0) { rel d*a + f*e*c*b; rel f*e*a + d*c*b; }
ideal I1 over twobypass(0) { rel d*a + d*c*b + f*e*c*b; rel f*e*a + d*c*b + f*e*c*b; }
ideal I2 over twobypass(0) { rel d*a; rel f*e*a + d*c*b - 2*f*e*c*b; }
"""


@pytest.fixture(scope="session")
def ws4():
    return parse_source(FOUR_VERTEX)


@pytest.fixture(scope="session")
def exple1(ws4):
    return ws4.quiver("exple1")


@pytest.fixture(scope="session")
def ideal_I(ws4):
    return ws4.ideal("I")


@pytest.fixture(scope="session")
def ideal_J(ws4):
    return ws4.ideal("J")


@pytest.fixture(scope="session")
def ws5():
    return parse_source(TWO_BYPASS)


@pytest.fixture(scope="session")
def twobypass(ws5):
    return ws5.quiver("twobypass")


@pytest.fixture(scope="session")
def ideal_I0(ws5):
    return ws5.ideal("I0")


@pytest.fixture(scope="session")
def ideal_I1(ws5):
    return ws5.ideal("I1")


@pytest.fixture(scope="session")
def ideal_I2(ws5):
    return ws5.ideal("I2")


@pytest.fixture(scope="session")
def rationals():
    return Field(0)

"""Face posets of triangulated surfaces: bound quivers with a known pi1.

The incidence algebra of a finite poset presents the fundamental group
of its order complex (Reynaud, J. Pure Appl. Algebra 177, 2003;
Bustamante, J. Algebra 277, 2004).  For the face poset of a
triangulated surface that is the surface's group, and a product with a
chain keeps the homotopy type while the paths grow like a grid.  So
these inputs are an oracle that bqkit did not compute itself.
"""

import hashlib
import json
from collections import defaultdict
from itertools import combinations

import pytest

from bqkit import homotopy
from bqkit.cover import (GALOIS, _Ball, check_covering, is_galois,
                         universal_cover)
from bqkit.dsl import parse_source
from bqkit.homotopy import HomotopyRelation, SpanningTree, homotopy_relation

# the 6-vertex real projective plane: the hemi-icosahedron
RP2 = ((1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 6, 2),
       (2, 3, 5), (3, 4, 6), (4, 5, 2), (5, 6, 3), (6, 2, 4))


def face_poset_text(triangles, chain=1, name="surface"):
    """Source text of the Hasse quiver of the face poset of ``triangles``
    times a chain of ``chain`` vertices, as quiver ``name`` and ideal
    ``I``.  Arrows go up: from a vertex to each edge on it, from an edge
    to each triangle on it, and from each face at chain level i to the
    same face at level i + 1.  The ideal has one relation p - q for each
    two paths of length 2 with the same ends."""
    covers = defaultdict(list)  # face -> the faces just above it
    for t in triangles:
        tri = "t" + "".join(map(str, sorted(t)))
        for a, b in combinations(sorted(t), 2):
            edge = "e%d%d" % (a, b)
            covers[edge].append(tri)
            for v in (a, b):
                if edge not in covers["v%d" % v]:
                    covers["v%d" % v].append(edge)
    faces = sorted(set(covers) | {f for up in covers.values() for f in up})
    vertices = ["%s.%d" % (f, i) for i in range(chain) for f in faces]
    arrows = []  # (id, source, target)
    for i in range(chain):
        for f in faces:
            ups = ["%s.%d" % (g, i) for g in covers[f]]
            if i + 1 < chain:
                ups.append("%s.%d" % (f, i + 1))
            for up in ups:
                arrows.append(("a%d" % len(arrows), "%s.%d" % (f, i), up))
    out = defaultdict(list)
    for a in arrows:
        out[a[1]].append(a)
    ends = defaultdict(list)  # (source, target) -> paths of length 2
    for first in arrows:
        for second in out[first[2]]:
            ends[(first[1], second[2])].append("%s*%s" % (second[0], first[0]))
    lines = ["quiver %s {" % name,
             "  vertices: %s;" % " ".join(vertices)]
    lines += ["  arrow %s: %s -> %s;" % a for a in arrows]
    lines += ["}", "ideal I over %s(0) {" % name]
    for paths in ends.values():
        lines += ["  rel %s - %s;" % pair for pair in combinations(paths, 2)]
    lines.append("}")
    return "\n".join(lines) + "\n"


def cover_digest(cov):
    """The first 16 hex digits of the sha256 of the cover's vertices,
    arrows, vertex map and deck maps."""
    total = cov.total
    text = json.dumps([total.vertices,
                       [(a.name, a.source, a.target) for a in total.arrows],
                       sorted(cov.vertex_map.items()),
                       [(g.name, sorted(g.vertex_map.items()))
                        for g in cov.action]])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# cover_digest of the universal cover of the RP^2 face poset x chain
RP2_COVER_DIGESTS = {1: "377993269ec0703e", 2: "fdd50a0da6abb89d"}


@pytest.mark.parametrize("chain", [1, 2])
def test_rp2_face_poset_has_pi1_z2(chain):
    ideal = parse_source(face_poset_text(RP2, chain)).ideal("I")
    # 31 faces per chain level; 60 Hasse arrows per level (30 vertex-edge,
    # 30 edge-triangle) and 31 between consecutive levels
    assert len(ideal.quiver.vertices) == 31 * chain
    assert len(ideal.quiver.arrows) == 60 * chain + 31 * (chain - 1)
    h = homotopy_relation(ideal)
    assert h.presentation.abelian_invariants == (0, (2,))
    cov = universal_cover(ideal)
    assert cov.complete
    assert len(cov.total.vertices) == 2 * 31 * chain
    res = is_galois(cov)
    assert res.status == GALOIS
    assert res.group_order == 2
    report = check_covering(cov)
    assert report.ok
    assert report.violations == []
    assert cover_digest(cov) == RP2_COVER_DIGESTS[chain]


def test_ball_decisions_read_coded_words(monkeypatch):
    """The cover ball hands its coded words to ``decide_words`` as they
    are.  On the RP^2 face poset, where pi1 = Z2 has a relator, a ball
    grown afresh from the cover's relation makes decisions, and none of
    them encodes, decodes or reduces a word."""
    ideal = parse_source(face_poset_text(RP2)).ideal("I")
    cov = universal_cover(ideal)  # builds what the relation keeps
    decisions = []
    decide_words = HomotopyRelation.decide_words

    def counted(self, *args, **kwargs):
        decisions.append(args)
        return decide_words(self, *args, **kwargs)

    def refuse(what):
        def call(*args, **kwargs):
            raise AssertionError("a ball decision called " + what)
        return call

    monkeypatch.setattr(HomotopyRelation, "decide_words", counted)
    monkeypatch.setattr(SpanningTree, "encode", refuse("encode"))
    monkeypatch.setattr(SpanningTree, "decode", refuse("decode"))
    monkeypatch.setattr(homotopy, "reduce_word", refuse("reduce_word"))
    ball = _Ball(cov._ball.h, cov.radius)
    ball.grow()
    assert decisions
    assert ball.words == cov._ball.words

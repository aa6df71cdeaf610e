"""Covers of bound quivers: universal covers from walk classes, smash
products from gradings, covering-axiom verification, deck groups, and
the lifting of dilatations and transvections between universal covers.

A universal cover is grown as a ball of certified homotopy classes of
walks from the base point; the ball is "complete" only when one more
step adds no class and every arrow closes up, and all global claims
(Galois, group order) are withheld otherwise.

Relations move along a cover in two ways only: lifted from one end by
``CoverQuiver.lift_relation``, or renamed along a quiver map (the
projection, a deck map) by ``_map_relation``.
"""

from __future__ import annotations

from collections import deque

from .errors import CoverError
from .gamma import check_lemma_3_3_chain
from .homotopy import (HOMOTOPIC, NOT_HOMOTOPIC, UNKNOWN, HomotopyRelation,
                       cancel_join, homotopy_relation, relations_equal,
                       EQUAL)
from .ideal import (Ideal, Relation, close_ideal, ideals_equal,
                    linear_combination, make_relation, mul_relations,
                    relation_of_path)
from .quiver import (FORWARD, INVERSE, Arrow, Path, Quiver, Walk,
                     enumerate_paths, make_path, path_tables, paths_between,
                     trivial_path, walk_of_path)
from .records import FrozenRecord, Record
from .transform import (Dilatation, Transvection, apply_automorphism,
                        as_path_automorphism, identity_automorphism,
                        recompose_DT)


def default_radius(quiver: Quiver) -> int:
    return 2 * len(quiver.arrows) + 2


# -- finite groups and gradings ---------------------------------------------

class FiniteGroup(FrozenRecord):
    """A finite group as a multiplication table over element labels."""

    _fields = ("name", "elements", "table")

    def __init__(self, name: str, elements: tuple, table: tuple):
        setattr_ = object.__setattr__
        setattr_(self, "name", name)
        setattr_(self, "elements", elements)
        # table[i][j] = index of elements[i] * elements[j]
        setattr_(self, "table", table)

    @classmethod
    def trivial(cls):
        return cls("1", ("e",), ((0,),))

    @classmethod
    def cyclic(cls, n: int):
        if n < 1:
            raise CoverError("cyclic group order must be positive")
        elements = tuple(str(i) for i in range(n))
        table = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
        return cls("Z/%d" % n, elements, table)

    @property
    def identity(self):
        for i, row in enumerate(self.table):
            if all(row[j] == j for j in range(len(self.elements))):
                return self.elements[i]
        raise CoverError("multiplication table has no identity")

    def index(self, g) -> int:
        try:
            return self.elements.index(g)
        except ValueError:
            raise CoverError("no element %r in %s" % (g, self.name)) from None

    def mul(self, g, h):
        return self.elements[self.table[self.index(g)][self.index(h)]]

    def inv(self, g):
        i = self.index(g)
        e = self.identity
        for j, other in enumerate(self.elements):
            if self.elements[self.table[i][j]] == e:
                return other
        raise CoverError("element %r has no inverse" % (g,))


class Grading(FrozenRecord):
    """A degree map arrow -> group element; unlisted arrows get degree 1."""

    _fields = ("group", "degrees")

    def __init__(self, group: FiniteGroup, degrees: tuple):
        setattr_ = object.__setattr__
        setattr_(self, "group", group)
        setattr_(self, "degrees", degrees)  # ((arrow name, element), ...)

    def degree(self, arrow_name):
        for name, g in self.degrees:
            if name == arrow_name:
                return g
        return self.group.identity

    def path_degree(self, path: Path):
        g = self.group.identity
        for name in path.arrows:
            g = self.group.mul(self.degree(name), g)
        return g


def make_grading(quiver: Quiver, group: FiniteGroup, degrees) -> Grading:
    items = degrees.items() if isinstance(degrees, dict) else degrees
    out = []
    for name, g in items:
        quiver.arrow(name)
        group.index(g)
        if any(name == n for n, _ in out):
            raise CoverError("grading repeats arrow %r" % name)
        out.append((name, g))
    out.sort(key=lambda ng: quiver.arrow_index(ng[0]))
    return Grading(group, tuple(out))


def check_homogeneous(ideal: Ideal, grading: Grading):
    """Every minimal relation must have all its paths in one degree."""
    for rel in ideal.minimal_relations():
        degs = {grading.path_degree(p) for p in rel.support()}
        if len(degs) > 1:
            raise CoverError(
                "grading is not homogeneous on the minimal relation %s"
                % rel.to_text(ideal.field))


# -- deck transformations -----------------------------------------------------

class DeckMap(Record):
    """A (possibly partial) automorphism of the total quiver over the base."""

    _fields = ("name", "vertex_map")

    def __init__(self, name: str, vertex_map: dict):
        self.name = name
        self.vertex_map = vertex_map


# -- the cover container ------------------------------------------------------

class CoverQuiver:
    """A bound quiver over (Q, I) with projection and optional group action.

    ``relations`` generate the ideal of the total quiver; None lifts every
    minimal relation of the base ideal from each vertex over its source,
    keeping the lifts that stay inside the cover.
    """

    def __init__(self, total, base_ideal, vertex_map, arrow_map, relations,
                 complete, radius, interior, action, kind):
        self.total = total
        self.base_ideal = base_ideal
        self.base_quiver = base_ideal.quiver
        self.field = base_ideal.field
        self.vertex_map = vertex_map
        self.arrow_map = arrow_map
        if relations is None:
            lifts = (self.lift_relation(rel, v)
                     for rel in base_ideal.minimal_relations()
                     for v in self.fiber(rel.source))
            relations = [lift for lift in lifts if lift is not None]
        self.relations = tuple(relations)
        self.total_ideal = close_ideal(total, base_ideal.field, list(relations))
        self.complete = complete
        self.radius = radius
        self.interior = frozenset(interior)
        self.action = list(action)
        self.kind = kind

    def fiber(self, base_vertex):
        return [v for v in self.total.vertices
                if self.vertex_map[v] == base_vertex]

    def arrow_over(self, total_vertex, base_arrow_name, direction=FORWARD):
        """The unique incident total arrow over a base arrow, or None."""
        if direction == FORWARD:
            incident = self.total.arrows_from(total_vertex)
        else:
            incident = self.total.arrows_into(total_vertex)
        hits = [e for e in incident if self.arrow_map[e.name] == base_arrow_name]
        if len(hits) > 1:
            raise CoverError("local bijectivity broken at %s over %s"
                             % (total_vertex, base_arrow_name))
        return hits[0] if hits else None

    def lift_path(self, base_path: Path, vertex, at_target=False):
        """The unique lift of a base path starting at ``vertex`` (with
        ``at_target``, ending there); None if it leaves the cover.

        The lift is the total quiver's own ``Path`` object, found by
        extending e_vertex one arrow at a time through the tables of
        ``path_tables``, so the relation builders find it by identity."""
        index, after, before, _, _ = path_tables(self.total)
        n = index[paths_between(self.total, vertex, vertex)[0]]
        direction, table = (INVERSE, before) if at_target else (FORWARD, after)
        cur = vertex
        for name in (reversed(base_path.arrows) if at_target
                     else base_path.arrows):
            e = self.arrow_over(cur, name, direction)
            if e is None:
                return None
            n = table[e.name][n]
            cur = e.source if at_target else e.target
        return enumerate_paths(self.total)[n]

    def lift_walk(self, walk: Walk, start_vertex):
        """Endpoint of the unique lift of a base walk; None outside the ball."""
        cur = start_vertex
        for name, d in walk.letters:
            e = self.arrow_over(cur, name, d)
            if e is None:
                return None
            cur = e.target if d == FORWARD else e.source
        return cur

    def lift_relation(self, rel: Relation, vertex, at_target=False):
        """The lift of a base relation whose paths start at ``vertex``
        (with ``at_target``, end there).

        None when a path leaves the cover, which on a truncated ball means
        the lift runs off its rim.  Raises CoverError when the lifted paths
        do not share their other endpoint, so the cover does not respect
        the relation.
        """
        terms = []
        for p, c in rel.terms:
            lifted = self.lift_path(p, vertex, at_target)
            if lifted is None:
                return None
            terms.append((lifted, c))
        ends = {p.source if at_target else p.target for p, _ in terms}
        if len(ends) != 1:
            raise CoverError(
                "the paths of %s lift to different vertices (%s) from %s"
                % (rel.to_text(self.field), ", ".join(sorted(ends)), vertex))
        end = ends.pop()
        source, target = (end, vertex) if at_target else (vertex, end)
        return make_relation(self.total, self.field, source, target, terms)

    def project_relation(self, rel: Relation) -> Relation:
        return _map_relation(rel, self.base_quiver, self.field,
                             self.vertex_map, self.arrow_map)

    def to_dict(self):
        return {
            "kind": self.kind,
            "complete": self.complete,
            "radius": self.radius,
            "vertices": len(self.total.vertices),
            "arrows": len(self.total.arrows),
            "fibers": {x: len(self.fiber(x)) for x in self.base_quiver.vertices},
            "action_generators": [g.name for g in self.action],
        }


# -- universal covers ---------------------------------------------------------

class _Ball:
    """Certified homotopy classes of reduced walks from the base point,
    each one coded word (``SpanningTree.letter_codes``), which fixes it.

    ``words[i]`` is the word of class i, ``ends[i]`` the vertex it ends
    at, ``index`` maps the word of each walk classified so far to its
    class and ``transitions[(i, code)]`` the step from class i by a
    letter code to its class.  Steps and deck maps move words by
    ``homotopy.cancel_join``.  A new word is keyed by the vertex it ends
    at and the image (``GroupPresentation.image``) of its chord word,
    and compared by ``decide_words`` with the classes of its bucket; it
    is decoded only for the text of a ``CoverError``.  With no relators
    pi1 is free on the chords, and a reduced walk from the base point is
    fixed by its target and chord word, so distinct reduced walks are
    distinct classes (Serre, *Trees*, ch. I): such a word is a new
    class, and the ball computes no image for it.
    """

    def __init__(self, h: HomotopyRelation, radius: int):
        self.h = h
        self.radius = radius
        self.quiver = h.quiver
        self.cap = 2 * (radius + 1) + h.default_cap
        self.transitions = {}
        self.words = [()]
        self.ends = [h.base_point]
        self.index = {(): 0}
        self._buckets = {}  # (target, abelian image) -> class indices
        if h.presentation.relators:
            self._buckets[(h.base_point, h.presentation.image(()))] = [0]

    def classify_word(self, word, create=False):
        """The index of the class holding the reduced coded walk from the
        base point, or None (creating the class if asked and the walk
        fits in the ball)."""
        found = self.index.get(word)
        if found is not None:
            return found
        h, tree = self.h, self.h.tree
        end = tree.letter_codes[2][word[-1]]  # the root's () is indexed
        key = None
        if h.presentation.relators:
            key = (end, h.presentation.image(tree.chord_word(word)))
            for i in self._buckets.get(key, ()):
                decision = h.decide_words(h.base_point, word, self.words[i],
                                          cap=self.cap, want_chain=False)
                if decision.status == HOMOTOPIC:
                    self.index[word] = i
                    return i
                if decision.status == UNKNOWN:
                    caps = "the search stopped at its %s cap" % decision.cap
                    if decision.coset_cap is not None:
                        caps += ("; the coset enumeration stopped at its cap "
                                 "of %d cosets" % decision.coset_cap)
                    walks = [tree.decode(h.base_point, w)
                             for w in (word, self.words[i])]
                    raise CoverError(
                        "homotopy query unresolved while building the cover: "
                        "%s vs %s (%s)" % (*walks, caps))
        if not create or len(word) > self.radius:
            return None
        i = len(self.words)
        self.words.append(word)
        self.ends.append(end)
        self.index[word] = i
        if key is not None:
            self._buckets.setdefault(key, []).append(i)
        return i

    def grow(self):
        """Expand classes breadth-first; returns the indices of the
        classes whose every step stays in the ball."""
        quiver, codes = self.quiver, self.h.tree.letter_codes[1]
        steps = {x: [codes[(a.name, FORWARD)] for a in quiver.arrows_from(x)]
                 + [codes[(a.name, INVERSE)] for a in quiver.arrows_into(x)]
                 for x in quiver.vertices}
        interior = []
        # classify_word appends new classes to words, and the loop reaches them
        for i, word in enumerate(self.words):
            kept = True
            for c in steps[self.ends[i]]:
                target = self.classify_word(cancel_join(word, (c,)), create=True)
                self.transitions[(i, c)] = target
                kept = kept and target is not None
            if kept:
                interior.append(i)
        return interior


def universal_cover(ideal: Ideal, x0=None, radius=None) -> CoverQuiver:
    """The cover of certified walk classes out of the base point, read
    from the homotopy relation kept on the ideal (``homotopy_relation``).
    Vertex ``total.vertices[i]`` is the class of the coded walk
    ``_ball.words[i]``, over the vertex ``_ball.ends[i]``."""
    quiver = ideal.quiver
    if not quiver.is_connected():
        raise CoverError("universal cover needs a connected quiver")
    if radius is None:
        radius = default_radius(quiver)
    ball = _Ball(homotopy_relation(ideal, x0), radius)
    interior = ball.grow()

    names = ["w%d" % i for i in range(len(ball.words))]
    vertex_map = dict(zip(names, ball.ends))
    codes = ball.h.tree.letter_codes[1]
    arrows = []
    arrow_map = {}
    for i, end in enumerate(ball.ends):
        for a in quiver.arrows_from(end):
            tgt = ball.transitions[(i, codes[(a.name, FORWARD)])]
            if tgt is None:
                continue
            name = "%s_%s" % (a.name, names[i])
            arrows.append(Arrow(name, names[i], names[tgt]))
            arrow_map[name] = a.name

    total = Quiver(quiver.name + "_cover", tuple(names), tuple(arrows))
    cover = CoverQuiver(total, ideal, vertex_map, arrow_map, None,
                        len(interior) == len(names), radius,
                        [names[i] for i in interior], [], "universal")
    cover._ball = ball
    cover.action = _universal_deck_generators(cover)
    return cover


def _universal_deck_generators(cover: CoverQuiver):
    """Deck maps for the chord loops; partial where the ball cuts them off.

    The deck map of a chord sends the class of a reduced walk w to the
    class of gamma^-1 * w, gamma the chord loop.  Both words are reduced,
    so the moved word reduces by cancelling at their join alone."""
    ball = cover._ball
    h = ball.h
    names = cover.total.vertices
    generators = []
    for chord in h.tree.chords:
        gamma_inv = h.tree.encode(h.tree.chord_loop(chord).inverse().letters)
        vmap = {}
        for name, word in zip(names, ball.words):
            hit = ball.classify_word(cancel_join(gamma_inv, word))
            if hit is not None:
                vmap[name] = names[hit]
        generators.append(DeckMap("g_%s" % chord, vmap))
    return generators


# -- smash products -----------------------------------------------------------

def smash_product(ideal: Ideal, grading: Grading) -> CoverQuiver:
    """The cover built from a grading: vertices base x group, arrows sorted
    by degree, with the group acting by left translation."""
    check_homogeneous(ideal, grading)
    quiver = ideal.quiver
    G = grading.group

    def vname(x, g):
        return "%s_%s" % (x, g)

    vertices = tuple(vname(x, g) for x in quiver.vertices for g in G.elements)
    vertex_map = {vname(x, g): x for x in quiver.vertices for g in G.elements}
    arrows = []
    arrow_map = {}
    for a in quiver.arrows:
        for s in G.elements:
            t = G.mul(s, G.inv(grading.degree(a.name)))
            name = "%s_%s" % (a.name, s)
            arrows.append(Arrow(name, vname(a.source, s), vname(a.target, t)))
            arrow_map[name] = a.name
    total = Quiver(quiver.name + "_smash", vertices, tuple(arrows))

    cover = CoverQuiver(total, ideal, vertex_map, arrow_map, None,
                        True, None, set(vertices), [], "smash")
    for g in G.elements:
        if g == G.identity:
            continue
        vmap = {vname(x, s): vname(x, G.mul(g, s))
                for x in quiver.vertices for s in G.elements}
        cover.action.append(DeckMap("g_%s" % g, vmap))
    return cover


# -- covering axioms ----------------------------------------------------------

class CoverReport(Record):
    _fields = ("ok", "violations", "rim_lifts")

    def __init__(self, ok: bool, violations: list, rim_lifts: int):
        self.ok = ok
        self.violations = violations
        self.rim_lifts = rim_lifts  # relation lifts that left a truncated ball


def check_covering(cover: CoverQuiver) -> CoverReport:
    """Verify the covering axioms on the interior of the cover.

    Each minimal relation must lift into the total ideal from every
    interior vertex over its source and over its target, with the lifted
    paths ending together.  On a truncated cover a lift that leaves the
    ball runs off its rim and proves nothing: it is counted in
    ``rim_lifts``.  Likewise an empty fiber of a truncated cover only
    means the ball did not reach the vertex.  On a complete cover a
    missing lift and an empty fiber are violations.
    """
    violations = []
    base = cover.base_quiver
    ideal = cover.base_ideal
    fld = cover.field

    if cover.complete:
        for x in base.vertices:
            if not cover.fiber(x):
                violations.append("empty fiber over %s" % x)

    # projection maps the lifted relations into the base ideal
    for rel in cover.relations:
        if not ideal.contains(cover.project_relation(rel)):
            violations.append("projection of %s misses the base ideal"
                              % rel.to_text(fld))

    for v in cover.total.vertices:
        if v not in cover.interior:
            continue
        x = cover.vertex_map[v]
        out_base = [a.name for a in base.arrows_from(x)]
        out_total = [cover.arrow_map[e.name] for e in cover.total.arrows_from(v)]
        if sorted(out_total) != sorted(out_base):
            violations.append("outgoing arrows at %s do not match %s" % (v, x))
        in_base = [a.name for a in base.arrows_into(x)]
        in_total = [cover.arrow_map[e.name] for e in cover.total.arrows_into(v)]
        if sorted(in_total) != sorted(in_base):
            violations.append("incoming arrows at %s do not match %s" % (v, x))

    # minimal-relation lifting at sources and targets (interior only)
    rim_lifts = 0
    for rel in ideal.minimal_relations():
        for v in cover.total.vertices:
            if v not in cover.interior:
                continue
            for end, at_target, x in (("source", False, rel.source),
                                      ("target", True, rel.target)):
                if cover.vertex_map[v] != x:
                    continue
                try:
                    lift = cover.lift_relation(rel, v, at_target)
                except CoverError as exc:
                    violations.append(str(exc))
                    continue
                if lift is None and not cover.complete:
                    rim_lifts += 1
                elif lift is None:
                    violations.append(
                        "no %s lift of %s at %s" % (end, rel.to_text(fld), v))
                elif not cover.total_ideal.contains(lift):
                    violations.append(
                        "%s lift of %s at %s is not in the lifted ideal"
                        % (end, rel.to_text(fld), v))

    return CoverReport(not violations, violations, rim_lifts)


# -- Galois test ---------------------------------------------------------------

GALOIS = "galois"
NOT_GALOIS = "not-galois"
TRUNCATED = "truncated"


class GaloisResult(Record):
    _fields = ("status", "group_order", "automorphisms", "witness")

    def __init__(self, status: str, group_order: int | None,
                 automorphisms: list, witness: object = None):
        self.status = status
        self.group_order = group_order
        self.automorphisms = automorphisms
        self.witness = witness


def is_galois(cover: CoverQuiver) -> GaloisResult:
    """Compute the deck group by rigidity and test fiber transitivity."""
    if not cover.complete:
        return GaloisResult(TRUNCATED, None, [])
    if not cover.total.is_connected():
        return GaloisResult(NOT_GALOIS, None, [], "total quiver is disconnected")

    anchor = cover.total.vertices[0]
    autos = []
    for candidate in cover.fiber(cover.vertex_map[anchor]):
        g = _extend_deck_map(cover, anchor, candidate)
        if g is not None:
            autos.append(g)

    for x in cover.base_quiver.vertices:
        fiber = cover.fiber(x)
        reached = {g.vertex_map[fiber[0]] for g in autos}
        for v in fiber:
            if v not in reached:
                return GaloisResult(NOT_GALOIS, None, autos, (fiber[0], v))
    return GaloisResult(GALOIS, len(autos), autos)


def _extend_deck_map(cover: CoverQuiver, anchor, image):
    """Extend anchor -> image over the connected total quiver, or None."""
    if cover.vertex_map[anchor] != cover.vertex_map[image]:
        return None
    vmap = {anchor: image}
    amap = {}
    queue = deque([anchor])
    while queue:
        v = queue.popleft()
        for e in list(cover.total.arrows_from(v)) + list(cover.total.arrows_into(v)):
            direction = FORWARD if e.source == v else INVERSE
            other = e.target if direction == FORWARD else e.source
            img = cover.arrow_over(vmap[v], cover.arrow_map[e.name], direction)
            if img is None:
                return None
            amap[e.name] = img.name
            other_img = img.target if direction == FORWARD else img.source
            if other in vmap:
                if vmap[other] != other_img:
                    return None
            else:
                vmap[other] = other_img
                queue.append(other)
    if len(vmap) != len(cover.total.vertices):
        return None  # total not connected; caller rejects earlier
    if len(set(vmap.values())) != len(vmap):
        return None
    # the map must send the lifted ideal into itself
    for rel in cover.relations:
        moved = _map_relation(rel, cover.total, cover.field, vmap, amap)
        if not cover.total_ideal.contains(moved):
            return None
    return DeckMap("deck_%s" % image, vmap)


def _map_relation(rel: Relation, quiver: Quiver, fld, vmap, amap) -> Relation:
    """``rel`` renamed into ``quiver`` along a quiver map: vertices through
    ``vmap`` and arrows through ``amap``."""
    terms = []
    for p, c in rel.terms:
        if p.arrows:
            terms.append((make_path(quiver, [amap[n] for n in p.arrows]), c))
        else:
            terms.append((trivial_path(quiver, vmap[p.source]), c))
    return make_relation(quiver, fld, vmap[rel.source], vmap[rel.target], terms)


# -- cover morphisms ------------------------------------------------------------

class CoverMorphism(Record):
    """A k-linear morphism of covers: vertices map to vertices, arrows to
    linear combinations of parallel paths of the target cover."""

    _fields = ("source", "target", "vertex_map", "arrow_images", "base_label",
               "checks")

    def __init__(self, source: CoverQuiver, target: CoverQuiver,
                 vertex_map: dict, arrow_images: dict, base_label: str,
                 checks: dict = None):
        self.source = source
        self.target = target
        self.vertex_map = vertex_map
        # source arrow name -> Relation over target total
        self.arrow_images = arrow_images
        self.base_label = base_label
        self.checks = {} if checks is None else checks

    def apply_to_path(self, path: Path) -> Relation:
        fld = self.target.field
        acc = relation_of_path(self.target.total, fld,
                               trivial_path(self.target.total,
                                            self.vertex_map[path.source]))
        for name in path.arrows:
            acc = mul_relations(self.target.total, fld,
                                self.arrow_images[name], acc)
        return acc

    def apply_to_relation(self, rel: Relation) -> Relation:
        return linear_combination(
            self.target.total, self.target.field, self.vertex_map[rel.source],
            self.vertex_map[rel.target],
            [(c, self.apply_to_path(p)) for p, c in rel.terms])

    def fiber_sizes(self):
        counts = {}
        for v, w in self.vertex_map.items():
            counts[w] = counts.get(w, 0) + 1
        return counts


def _match_vertices_by_reps(cov_src: CoverQuiver, cov_tgt: CoverQuiver):
    """Send each walk class of the source cover to the class of the same
    coded word in the target cover, whose ball has the same quiver and
    base point and so the same ``homotopy.spanning_tree``."""
    h = cov_tgt._ball.h
    vmap = {}
    for v, word in zip(cov_src.total.vertices, cov_src._ball.words):
        i = cov_tgt._ball.classify_word(word)
        if i is None:
            raise CoverError("representative %s has no class in the target "
                             "cover" % h.tree.decode(h.base_point, word))
        vmap[v] = cov_tgt.total.vertices[i]
    return vmap


def _failed_squares(morphism: CoverMorphism, base_images):
    """The arrows e, in order, where q(psi(e)) is not the base image of
    p(e)."""
    src = morphism.source
    tgt = morphism.target
    return [e_name for e_name, image in morphism.arrow_images.items()
            if tgt.project_relation(image) != base_images[src.arrow_map[e_name]]]


def _verify_ideal_mapped(morphism: CoverMorphism):
    checked = 0
    for rel in morphism.source.relations:
        if any(name not in morphism.arrow_images
               for p, _ in rel.terms for name in p.arrows):
            continue
        image = morphism.apply_to_relation(rel)
        if not morphism.target.total_ideal.contains(image):
            raise CoverError("lifted ideal is not carried into the target ideal")
        checked += 1
    return checked


def _verify_equivariance(morphism: CoverMorphism, pairs):
    """psi o g = lambda(g) o psi on the vertices where everything is defined."""
    checked = 0
    for g_src, g_tgt in pairs:
        for v, w in morphism.vertex_map.items():
            if v in g_src.vertex_map and w in g_tgt.vertex_map:
                moved = g_src.vertex_map[v]
                if moved in morphism.vertex_map:
                    if morphism.vertex_map[moved] != g_tgt.vertex_map[w]:
                        raise CoverError("equivariance fails at %s under %s"
                                         % (v, g_src.name))
                    checked += 1
    return checked


def lift_dilatation(cov0: CoverQuiver, dil: Dilatation) -> CoverMorphism:
    """The isomorphism between universal covers induced by a dilatation."""
    h1 = _image_relation(cov0, dil)
    if relations_equal(cov0._ball.h, h1) != (EQUAL, None):
        raise CoverError("dilatation changed the homotopy relation")
    morphism = _lift_automorphism(cov0, dil, h1)
    morphism.checks["bijective"] = (
        sorted(morphism.vertex_map.values())
        == sorted(morphism.target.total.vertices))
    return morphism


def lift_transvection(cov0: CoverQuiver, t: Transvection) -> CoverMorphism:
    """The covering morphism between universal covers induced by a
    transvection whose bypass becomes homotopic in the image."""
    h1 = _image_relation(cov0, t)
    a = h1.quiver.arrow(t.arrow)
    status = h1.pair_status(Path(a.source, a.target, (a.name,)), t.path)
    if status == UNKNOWN:
        raise CoverError("cannot certify the bypass in the image relation")
    if status == NOT_HOMOTOPIC and not cov0.field.is_zero(t.tau):
        raise CoverError("the construction needs the arrow homotopic to its "
                         "bypass path in the image")
    morphism = _lift_automorphism(cov0, t, h1)
    morphism.checks["kernel_abelianized"] = {
        "source_invariants": cov0._ball.h.presentation.abelian_invariants,
        "target_invariants": h1.presentation.abelian_invariants,
    }
    return morphism


def _image_relation(cov0: CoverQuiver, phi) -> HomotopyRelation:
    """The homotopy relation of phi(I), based where cov0 is."""
    if cov0.kind != "universal":
        raise CoverError("lifts start from a universal cover")
    image_ideal = apply_automorphism(phi, cov0.base_ideal)
    return homotopy_relation(image_ideal, cov0._ball.h.base_point)


def _cover_morphism(source: CoverQuiver, target: CoverQuiver, vmap,
                    base_images, label) -> CoverMorphism:
    """The morphism from ``source`` to ``target`` that is ``vmap`` on the
    vertices and lies over the base map with arrow images ``base_images``.

    An arrow e over a is sent to the lift of base_images[a] from the image
    of e's source; an arrow whose lift leaves the ball is skipped and
    listed under "skipped_arrows".
    """
    images = {}
    skipped = []
    for e in source.total.arrows:
        start, end = vmap[e.source], vmap[e.target]
        base_name = source.arrow_map[e.name]
        over = target.arrow_over(start, base_name, FORWARD)
        if over is None or over.target != end:
            raise CoverError("the morphism over %s misses arrow %s"
                             % (label, e.name))
        base_image = base_images[base_name]
        image = target.lift_relation(base_image, start)
        if image is None:
            skipped.append(e.name)
        elif image.target != end:
            raise CoverError(
                "the lift of %s from %s ends at %s instead of %s although "
                "the pair is homotopic"
                % (base_image.to_text(source.field), start, image.target, end))
        else:
            images[e.name] = image

    morphism = CoverMorphism(source, target, vmap, images, label)
    failed = _failed_squares(morphism, base_images)
    if failed:
        raise CoverError("square fails at arrow %s" % failed[0])
    morphism.checks["squares"] = len(images)
    morphism.checks["relations"] = _verify_ideal_mapped(morphism)
    morphism.checks["skipped_arrows"] = skipped
    morphism.checks["fiber_sizes"] = morphism.fiber_sizes()
    return morphism


def _lift_automorphism(cov0: CoverQuiver, phi, h1: HomotopyRelation):
    """The morphism from cov0 to the universal cover of phi(I) = h1.ideal
    over the automorphism phi (see ``_cover_morphism``), matching walk
    classes by their representatives.  That cover reads h1 back from the
    ideal through ``homotopy_relation``."""
    fld = cov0.field
    cov1 = universal_cover(h1.ideal, h1.base_point, cov0.radius)
    morphism = _cover_morphism(
        cov0, cov1, _match_vertices_by_reps(cov0, cov1),
        as_path_automorphism(phi, cov0.base_quiver, fld).images,
        phi.to_text(fld))
    pairs = list(zip(cov0.action, cov1.action))
    morphism.checks["equivariance"] = _verify_equivariance(morphism, pairs)
    return morphism


def factor_through_cover(univ: CoverQuiver, target: CoverQuiver) -> CoverMorphism:
    """The projection of the universal cover onto any complete cover of the
    same bound quiver, by walk lifting from a fixed fiber point: the
    morphism over the identity (see ``_cover_morphism``)."""
    if univ.kind != "universal":
        raise CoverError("factorization starts from a universal cover")
    if not target.complete:
        raise CoverError("factorization needs a complete target cover")
    if not ideals_equal(univ.base_ideal, target.base_ideal):
        raise CoverError("covers live over different ideals")
    h = univ._ball.h
    anchor_fiber = target.fiber(h.base_point)
    if not anchor_fiber:
        raise CoverError("target cover has an empty fiber over the base point")
    v0 = anchor_fiber[0]

    # well-definedness: generating pairs must lift to equal endpoints
    for u, v in h.generating_pairs:
        for start in target.fiber(u.source):
            eu = target.lift_walk(walk_of_path(u), start)
            ev = target.lift_walk(walk_of_path(v), start)
            if eu is None or ev is None or eu != ev:
                raise CoverError(
                    "walk lifting is not constant on the homotopy class of "
                    "%s ~ %s" % (u, v))

    vmap = {}
    for v, word in zip(univ.total.vertices, univ._ball.words):
        rep = h.tree.decode(h.base_point, word)
        end = target.lift_walk(rep, v0)
        if end is None:
            raise CoverError("walk %s does not lift in the target" % rep.to_text())
        vmap[v] = end
    identity = identity_automorphism(univ.base_quiver, univ.field)
    return _cover_morphism(univ, target, vmap, identity.images, "factor")


def compose_morphisms(second: CoverMorphism, first: CoverMorphism) -> CoverMorphism:
    if first.target is not second.source:
        raise CoverError("morphisms do not compose")
    vmap = {v: second.vertex_map[w] for v, w in first.vertex_map.items()}
    images = {}
    for name, rel in first.arrow_images.items():
        images[name] = second.apply_to_relation(rel)
    label = "%s ; %s" % (first.base_label, second.base_label)
    return CoverMorphism(first.source, second.target, vmap, images, label)


class PipelineResult(Record):
    _fields = ("chain", "morphisms", "composite", "group_order", "chord_images",
               "surjective", "kernel_report", "commutes")

    def __init__(self, chain: list, morphisms: list, composite: CoverMorphism,
                 group_order: int, chord_images: dict, surjective: bool,
                 kernel_report: dict, commutes: bool):
        self.chain = chain
        self.morphisms = morphisms
        self.composite = composite
        self.group_order = group_order
        self.chord_images = chord_images
        self.surjective = surjective
        self.kernel_report = kernel_report
        self.commutes = commutes


def theorem_b_pipeline(privileged: Ideal, target_cover: CoverQuiver,
                       radius=None) -> PipelineResult:
    """Compose transvection/dilatation lifts along the chain from the
    privileged presentation, then factor onto the target cover; report the
    induced group data 1 -> N -> pi1 -> G -> 1 at the abelianized level."""
    target_ideal = target_cover.base_ideal
    galois = is_galois(target_cover)
    if galois.status != GALOIS:
        raise CoverError("the target must be a complete Galois cover, got %s"
                         % galois.status)

    chain = check_lemma_3_3_chain(privileged, target_ideal)
    if radius is None:
        radius = default_radius(privileged.quiver)
    cov = universal_cover(privileged, None, radius)
    h0 = cov._ball.h
    morphisms = []
    for step in chain:
        if isinstance(step, Transvection):
            m = lift_transvection(cov, step)
        else:
            m = lift_dilatation(cov, step)
        morphisms.append(m)
        cov = m.target

    fact = factor_through_cover(cov, target_cover)
    morphisms.append(fact)

    composite = morphisms[0]
    for m in morphisms[1:]:
        composite = compose_morphisms(m, composite)

    # lambda on the chords of the privileged presentation: where the chord
    # loop ends in the target fiber determines a deck transformation
    anchor = target_cover.fiber(h0.base_point)[0]
    autos = galois.automorphisms
    chord_images = {}
    image_autos = []
    for chord in h0.tree.chords:
        end = target_cover.lift_walk(h0.tree.chord_loop(chord), anchor)
        if end is None:
            raise CoverError("chord loop does not lift in the target cover")
        hit = next((g for g in autos if g.vertex_map[anchor] == end), None)
        if hit is None:
            raise CoverError("chord loop endpoint is not in the deck orbit; "
                             "the target is not Galois over the image")
        chord_images[chord] = hit.name
        image_autos.append(hit)

    image_size = _generated_order(image_autos, target_cover)
    surjective = image_size == len(autos)

    kernel_report = {
        "source_invariants": h0.presentation.abelian_invariants,
        "group_order": len(autos),
        "image_order": image_size,
        "abelianized_index": image_size,
    }

    # composite square: projecting the composite equals the composed base
    # map; the chain is t_1, ..., t_n and at most one final dilatation
    transvections = [s for s in chain if isinstance(s, Transvection)]
    dil = next((s for s in chain if isinstance(s, Dilatation)), Dilatation(()))
    base_map = recompose_DT(privileged.quiver, privileged.field, dil,
                            transvections).images
    commutes = not _failed_squares(composite, base_map)

    return PipelineResult(chain, morphisms, composite, len(autos),
                          chord_images, surjective, kernel_report, commutes)


def _generated_order(generators, cover: CoverQuiver):
    """Order of the subgroup generated by the given deck maps of a Galois
    cover: the size of the orbit of one vertex under them, as a deck map
    is fixed by the image of one vertex."""
    anchor = cover.total.vertices[0]
    seen = {anchor}
    frontier = [anchor]
    while frontier:
        v = frontier.pop()
        for g in generators:
            moved = g.vertex_map[v]
            if moved not in seen:
                seen.add(moved)
                frontier.append(moved)
    return len(seen)

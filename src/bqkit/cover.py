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
from dataclasses import dataclass, field as dataclass_field

from .errors import CoverError
from .gamma import check_lemma_3_3_chain
from .homotopy import (HOMOTOPIC, NOT_HOMOTOPIC, UNKNOWN, HomotopyRelation,
                       homotopy_relation, relations_equal, EQUAL)
from .ideal import (Ideal, Relation, add_relations, close_ideal, ideals_equal,
                    make_relation, mul_relations, relation_of_path,
                    scale_relation)
from .quiver import (FORWARD, INVERSE, Arrow, Path, Quiver, Walk, make_path,
                     trivial_path, trivial_walk, walk_of_path)
from .transform import (Dilatation, Transvection, apply_automorphism,
                        as_path_automorphism, compose, identity_automorphism)


def default_radius(quiver: Quiver) -> int:
    return 2 * len(quiver.arrows) + 2


# -- finite groups and gradings ---------------------------------------------

@dataclass(frozen=True)
class FiniteGroup:
    """A finite group as a multiplication table over element labels."""

    name: str
    elements: tuple
    table: tuple  # table[i][j] = index of elements[i] * elements[j]

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

    @property
    def order(self):
        return len(self.elements)


@dataclass(frozen=True)
class Grading:
    """A degree map arrow -> group element; unlisted arrows get degree 1."""

    group: FiniteGroup
    degrees: tuple  # ((arrow name, element), ...)

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

    def walk_degree(self, walk: Walk):
        g = self.group.identity
        for name, d in walk.letters:
            step = self.degree(name) if d == FORWARD else self.group.inv(self.degree(name))
            g = self.group.mul(step, g)
        return g


def make_grading(quiver: Quiver, group: FiniteGroup, degrees) -> Grading:
    items = degrees.items() if isinstance(degrees, dict) else degrees
    out = []
    for name, g in items:
        quiver.arrow(name)
        group.index(g)
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

@dataclass
class DeckMap:
    """A (possibly partial) automorphism of the total quiver over the base."""

    name: str
    vertex_map: dict
    arrow_map: dict
    total: bool


# -- the cover container ------------------------------------------------------

class CoverQuiver:
    """A bound quiver over (Q, I) with projection and optional group action.

    ``relations`` generate the ideal of the total quiver; None lifts every
    minimal relation of the base ideal from each vertex over its source,
    keeping the lifts that stay inside the cover.
    """

    def __init__(self, total, base_ideal, vertex_map, arrow_map, relations,
                 complete, radius, interior, action, kind, meta=None):
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
        self.meta = meta or {}

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
        ``at_target``, ending there); None if it leaves the cover."""
        direction = INVERSE if at_target else FORWARD
        names = []
        cur = vertex
        for name in (reversed(base_path.arrows) if at_target
                     else base_path.arrows):
            e = self.arrow_over(cur, name, direction)
            if e is None:
                return None
            names.append(e.name)
            cur = e.source if at_target else e.target
        if at_target:
            names.reverse()
            return Path(cur, vertex, tuple(names))
        return Path(vertex, cur, tuple(names))

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

class _WalkClass:
    def __init__(self, index, rep: Walk, image, word):
        self.index = index
        self.rep = rep
        self.image = image
        self.word = word  # chord word of rep
        self.members = {rep}


class _Ball:
    """Certified homotopy classes of walks from the base point."""

    def __init__(self, h: HomotopyRelation, radius: int):
        self.h = h
        self.radius = radius
        self.quiver = h.quiver
        self.cap = 2 * (radius + 1) + h.default_cap
        self._free = not h.presentation.relators
        self.classes = []
        self.lookup = {}
        self.transitions = {}
        self._root = trivial_walk(self.quiver, h.base_point)
        self._new_class(self._root, self._image_key(self._root),
                        h.tree.chord_word(self._root))

    def _image_key(self, walk: Walk):
        return (walk.target, self.h.abelian_image(walk, self._root))

    def _new_class(self, rep: Walk, image, word):
        cls = _WalkClass(len(self.classes), rep, image, word)
        self.classes.append(cls)
        self.lookup.setdefault(image, []).append(cls)
        return cls

    def classify(self, walk: Walk, create=False):
        """The class holding the reduced walk, or None (creating it if
        asked and the representative fits in the ball)."""
        key = self._image_key(walk)
        word = self.h.tree.chord_word(walk)
        for cls in self.lookup.get(key, ()):
            if walk in cls.members:
                return cls
            if word == cls.word:
                cls.members.add(walk)
                return cls
            if self._free:
                # no relators: walks with different chord words are
                # not homotopic, as ``h.decide`` would certify
                continue
            decision = self.h.decide(walk, cls.rep, cap=self.cap,
                                     want_chain=False)
            if decision.status == HOMOTOPIC:
                cls.members.add(walk)
                return cls
            if decision.status == UNKNOWN:
                raise CoverError(
                    "homotopy query unresolved while building the cover: "
                    "%s vs %s" % (walk.to_text(), cls.rep.to_text()))
        if create and len(walk.letters) <= self.radius:
            return self._new_class(walk, key, word)
        return None

    def grow(self):
        """Expand classes breadth-first; True when the ball closed up."""
        closed = True
        i = 0
        while i < len(self.classes):
            cls = self.classes[i]
            i += 1
            at = cls.rep.target
            steps = [(a.name, FORWARD, a.target)
                     for a in self.quiver.arrows_from(at)]
            steps += [(a.name, INVERSE, a.source)
                      for a in self.quiver.arrows_into(at)]
            letters = cls.rep.letters
            for name, d, end in steps:
                # the rep is reduced, so only its last letter can cancel
                if letters and letters[-1] == (name, -d):
                    ext = Walk(cls.rep.source, end, letters[:-1])
                else:
                    ext = Walk(cls.rep.source, end, letters + ((name, d),))
                target = self.classify(ext, create=True)
                self.transitions[(cls.index, name, d)] = \
                    target.index if target is not None else None
                if target is None:
                    closed = False
        return closed


def universal_cover(ideal: Ideal, x0=None, radius=None) -> CoverQuiver:
    """The cover of certified walk classes out of the base point, read
    from the homotopy relation kept on the ideal (``homotopy_relation``)."""
    quiver = ideal.quiver
    if not quiver.is_connected():
        raise CoverError("universal cover needs a connected quiver")
    if radius is None:
        radius = default_radius(quiver)
    h = homotopy_relation(ideal, x0)
    ball = _Ball(h, radius)
    complete = ball.grow()

    names = ["w%d" % cls.index for cls in ball.classes]
    vertex_map = {}
    meta_reps = {}
    for cls, name in zip(ball.classes, names):
        vertex_map[name] = cls.rep.target
        meta_reps[name] = cls.rep

    arrows = []
    arrow_map = {}
    for cls in ball.classes:
        for a in quiver.arrows_from(cls.rep.target):
            tgt = ball.transitions.get((cls.index, a.name, FORWARD))
            if tgt is None:
                continue
            name = "%s_%s" % (a.name, names[cls.index])
            arrows.append(Arrow(name, names[cls.index], names[tgt]))
            arrow_map[name] = a.name

    total = Quiver(quiver.name + "_cover", tuple(names), tuple(arrows))

    interior = set()
    for cls in ball.classes:
        at = cls.rep.target
        incident = [(a.name, FORWARD) for a in quiver.arrows_from(at)]
        incident += [(a.name, INVERSE) for a in quiver.arrows_into(at)]
        if all(ball.transitions.get((cls.index, n, d)) is not None
               for n, d in incident):
            interior.add(names[cls.index])

    cover = CoverQuiver(total, ideal, vertex_map, arrow_map, None,
                        complete, radius, interior, [], "universal",
                        {"reps": meta_reps, "base_point": h.base_point})
    cover._ball = ball
    cover._h = h
    cover.action = _universal_deck_generators(cover)
    return cover


def _universal_deck_generators(cover: CoverQuiver):
    """Deck maps for the chord loops; partial where the ball cuts them off."""
    ball = cover._ball
    h = cover._h
    names = {cls.index: "w%d" % cls.index for cls in ball.classes}
    generators = []
    for chord in h.tree.chords:
        gamma_inv = h.tree.chord_loop(chord).inverse()
        vmap = {}
        for cls in ball.classes:
            moved = Walk(h.base_point, cls.rep.target,
                         gamma_inv.letters + cls.rep.letters).reduced()
            hit = ball.classify(moved, create=False)
            if hit is not None:
                vmap[names[cls.index]] = names[hit.index]
        amap = {}
        for e in cover.total.arrows:
            src_img = vmap.get(e.source)
            tgt_img = vmap.get(e.target)
            if src_img is None or tgt_img is None:
                continue
            image = cover.arrow_over(src_img, cover.arrow_map[e.name], FORWARD)
            if image is not None and image.target == tgt_img:
                amap[e.name] = image.name
        total = len(vmap) == len(cover.total.vertices) and \
            len(amap) == len(cover.total.arrows)
        generators.append(DeckMap("g_%s" % chord, vmap, amap, total))
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
                        True, None, set(vertices), [], "smash",
                        {"group": G.name, "labels": {v: v for v in vertices}})
    for g in G.elements:
        if g == G.identity:
            continue
        vmap = {vname(x, s): vname(x, G.mul(g, s))
                for x in quiver.vertices for s in G.elements}
        amap = {"%s_%s" % (a.name, s): "%s_%s" % (a.name, G.mul(g, s))
                for a in quiver.arrows for s in G.elements}
        cover.action.append(DeckMap("g_%s" % g, vmap, amap, True))
    return cover


# -- covering axioms ----------------------------------------------------------

@dataclass
class CoverReport:
    ok: bool
    violations: list
    checked_vertices: int
    skipped_vertices: int
    rim_lifts: int  # relation lifts that left a truncated ball


def check_covering(cover: CoverQuiver) -> CoverReport:
    """Verify the covering axioms on the interior of the cover.

    Each minimal relation must lift into the total ideal from every
    interior vertex over its source and over its target, with the lifted
    paths ending together.  On a truncated cover a lift that leaves the
    ball runs off its rim and proves nothing: it is counted in
    ``rim_lifts``.  On a complete cover a missing lift is a violation.
    """
    violations = []
    base = cover.base_quiver
    ideal = cover.base_ideal
    fld = cover.field

    for x in base.vertices:
        if not cover.fiber(x):
            violations.append("empty fiber over %s" % x)

    # projection maps the lifted relations into the base ideal
    for rel in cover.relations:
        if not ideal.contains(cover.project_relation(rel)):
            violations.append("projection of %s misses the base ideal"
                              % rel.to_text(fld))

    checked = 0
    for v in cover.total.vertices:
        if v not in cover.interior:
            continue
        checked += 1
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

    return CoverReport(not violations, violations, checked,
                       len(cover.total.vertices) - checked, rim_lifts)


# -- Galois test ---------------------------------------------------------------

GALOIS = "galois"
NOT_GALOIS = "not-galois"
TRUNCATED = "truncated"


@dataclass
class GaloisResult:
    status: str
    group_order: int | None
    automorphisms: list
    witness: object = None


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
    return DeckMap("deck_%s" % image, vmap, amap, True)


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

@dataclass
class CoverMorphism:
    """A k-linear morphism of covers: vertices map to vertices, arrows to
    linear combinations of parallel paths of the target cover."""

    source: CoverQuiver
    target: CoverQuiver
    vertex_map: dict
    arrow_images: dict  # source arrow name -> Relation over target total
    base_label: str
    checks: dict = dataclass_field(default_factory=dict)

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
        fld = self.target.field
        out = Relation(self.vertex_map[rel.source], self.vertex_map[rel.target], ())
        for p, c in rel.terms:
            out = add_relations(self.target.total, fld, out,
                                scale_relation(self.target.total, fld, c,
                                               self.apply_to_path(p)))
        return out

    def fiber_sizes(self):
        counts = {}
        for v, w in self.vertex_map.items():
            counts[w] = counts.get(w, 0) + 1
        return counts


def _match_vertices_by_reps(cov_src: CoverQuiver, cov_tgt: CoverQuiver):
    """Send each walk class of the source cover to the class of the same
    representative walk in the target cover."""
    vmap = {}
    ball = cov_tgt._ball
    for v, rep in cov_src.meta["reps"].items():
        cls = ball.classify(rep, create=False)
        if cls is None:
            raise CoverError("representative %s has no class in the target "
                             "cover" % rep.to_text())
        vmap[v] = "w%d" % cls.index
    return vmap


def _verify_squares(morphism: CoverMorphism, base_images):
    """q(psi(e)) must equal the base automorphism image of p(e)."""
    src = morphism.source
    tgt = morphism.target
    ok = 0
    for e_name, image in morphism.arrow_images.items():
        projected = tgt.project_relation(image)
        expected = base_images[src.arrow_map[e_name]]
        if projected != expected:
            raise CoverError("square fails at arrow %s" % e_name)
        ok += 1
    return ok


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
    if relations_equal(cov0._h, h1) != (EQUAL, None):
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
    morphism.checks["kernel_abelianized"] = _kernel_report(cov0._h, h1)
    return morphism


def _image_relation(cov0: CoverQuiver, phi) -> HomotopyRelation:
    """The homotopy relation of phi(I), based where cov0 is."""
    if cov0.kind != "universal":
        raise CoverError("lifts start from a universal cover")
    image_ideal = apply_automorphism(phi, cov0.base_ideal)
    return homotopy_relation(image_ideal, cov0._h.base_point)


def _lift_automorphism(cov0: CoverQuiver, phi, h1: HomotopyRelation):
    """The morphism from cov0 to the universal cover of phi(I) = h1.ideal
    over the automorphism phi.  That cover reads h1 back from the ideal
    through ``homotopy_relation``.

    An arrow e over a is sent to the lift of phi(a) from the image of e's
    source; an arrow whose lift leaves the ball is skipped and listed
    under "skipped_arrows".
    """
    fld = cov0.field
    base_images = as_path_automorphism(phi, cov0.base_quiver, fld).images
    cov1 = universal_cover(h1.ideal, h1.base_point, cov0.radius)
    label = phi.to_text(fld)

    vmap = _match_vertices_by_reps(cov0, cov1)
    images = {}
    skipped = []
    for e in cov0.total.arrows:
        start, end = vmap[e.source], vmap[e.target]
        base_name = cov0.arrow_map[e.name]
        over = cov1.arrow_over(start, base_name, FORWARD)
        if over is None or over.target != end:
            raise CoverError("lift of %s misses arrow %s" % (label, e.name))
        phi_a = base_images[base_name]
        image = cov1.lift_relation(phi_a, start)
        if image is None:
            skipped.append(e.name)
        elif image.target != end:
            raise CoverError(
                "the lift of %s from %s ends at %s instead of %s although "
                "the pair is homotopic"
                % (phi_a.to_text(fld), start, image.target, end))
        else:
            images[e.name] = image

    morphism = CoverMorphism(cov0, cov1, vmap, images, label)
    morphism.checks["squares"] = _verify_squares(morphism, base_images)
    morphism.checks["relations"] = _verify_ideal_mapped(morphism)
    pairs = list(zip(cov0.action, cov1.action))
    morphism.checks["equivariance"] = _verify_equivariance(morphism, pairs)
    morphism.checks["skipped_arrows"] = skipped
    morphism.checks["fiber_sizes"] = morphism.fiber_sizes()
    return morphism


def _kernel_report(h0: HomotopyRelation, h1: HomotopyRelation):
    return {
        "source_invariants": h0.presentation.abelian_invariants,
        "target_invariants": h1.presentation.abelian_invariants,
    }


def factor_through_cover(univ: CoverQuiver, target: CoverQuiver) -> CoverMorphism:
    """The projection of the universal cover onto any complete cover of the
    same bound quiver, by walk lifting from a fixed fiber point."""
    if univ.kind != "universal":
        raise CoverError("factorization starts from a universal cover")
    if not target.complete:
        raise CoverError("factorization needs a complete target cover")
    if not ideals_equal(univ.base_ideal, target.base_ideal):
        raise CoverError("covers live over different ideals")
    h = univ._h
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
    for v, rep in univ.meta["reps"].items():
        end = target.lift_walk(rep, v0)
        if end is None:
            raise CoverError("walk %s does not lift in the target" % rep.to_text())
        vmap[v] = end
    images = {}
    fld = univ.field
    for e in univ.total.arrows:
        over = target.arrow_over(vmap[e.source], univ.arrow_map[e.name], FORWARD)
        if over is None or over.target != vmap[e.target]:
            raise CoverError("factorization misses arrow %s" % e.name)
        images[e.name] = relation_of_path(
            target.total, fld, Path(over.source, over.target, (over.name,)))

    base_images = {}
    for a in univ.base_quiver.arrows:
        base_images[a.name] = relation_of_path(
            univ.base_quiver, fld, Path(a.source, a.target, (a.name,)))

    morphism = CoverMorphism(univ, target, vmap, images, "factor")
    morphism.checks["squares"] = _verify_squares(morphism, base_images)
    morphism.checks["relations"] = _verify_ideal_mapped(morphism)
    morphism.checks["fiber_sizes"] = morphism.fiber_sizes()
    return morphism


def compose_morphisms(second: CoverMorphism, first: CoverMorphism) -> CoverMorphism:
    if first.target is not second.source:
        raise CoverError("morphisms do not compose")
    vmap = {v: second.vertex_map[w] for v, w in first.vertex_map.items()}
    images = {}
    for name, rel in first.arrow_images.items():
        images[name] = second.apply_to_relation(rel)
    label = "%s ; %s" % (first.base_label, second.base_label)
    return CoverMorphism(first.source, second.target, vmap, images, label)


@dataclass
class PipelineResult:
    chain: list
    morphisms: list
    composite: CoverMorphism
    group_order: int
    chord_images: dict
    surjective: bool
    kernel_report: dict
    commutes: bool


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
    h0 = morphisms[0].source._h if morphisms else None
    h0 = h0 or cov._h
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

    image_size = _generated_order(autos, image_autos, target_cover)
    surjective = image_size == len(autos)

    src_inv = h0.presentation.abelian_invariants
    kernel_report = {
        "source_invariants": src_inv,
        "group_order": len(autos),
        "image_order": image_size,
        "abelianized_index": image_size,
    }

    # composite square: projecting the composite equals the composed base map
    commutes = True
    base_map = _compose_base_chain(privileged, chain)
    for e_name, image in composite.arrow_images.items():
        projected = target_cover.project_relation(image)
        expected = base_map[composite.source.arrow_map[e_name]]
        if projected != expected:
            commutes = False
            break

    return PipelineResult(chain, morphisms, composite, len(autos),
                          chord_images, surjective, kernel_report, commutes)


def _compose_base_chain(ideal: Ideal, chain):
    quiver, fld = ideal.quiver, ideal.field
    acc = identity_automorphism(quiver, fld)
    for step in chain:
        acc = compose(as_path_automorphism(step, quiver, fld), acc)
    return {a.name: acc.images[a.name] for a in quiver.arrows}


def _generated_order(autos, generators, cover: CoverQuiver):
    """Order of the subgroup of deck maps generated by the given ones."""
    if not autos:
        return 0
    anchor = cover.total.vertices[0]
    ident = next(g for g in autos if g.vertex_map[anchor] == anchor)
    by_anchor = {g.vertex_map[anchor]: g for g in autos}
    seen = {ident.vertex_map[anchor]}
    frontier = [ident]
    while frontier:
        g = frontier.pop()
        for h in generators:
            # compose h after g by chasing the anchor image
            moved = h.vertex_map[g.vertex_map[anchor]]
            if moved not in seen:
                seen.add(moved)
                frontier.append(by_anchor[moved])
        for h in generators:
            moved = g.vertex_map[h.vertex_map[anchor]]
            if moved not in seen:
                seen.add(moved)
                frontier.append(by_anchor[moved])
    return len(seen)

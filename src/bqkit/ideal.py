"""Admissible ideals and the exact linear algebra of relation spaces.

Every hom-pair subspace is stored through its unique reduced echelon
basis with respect to the canonical path order: each basis element has
leading coefficient 1 on its largest path, leading paths strictly
increase, and no leading path occurs in any other basis element.  The
basis elements are minimal relations, so they double as the generating
set for the homotopy machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

from .disjoint_sets import DisjointSets
from .errors import IdealError
from .fields import Field
from .quiver import (Path, Quiver, compose_paths, enumerate_paths, path_key,
                     paths_between)

SPLIT_ENUMERATION_BITS = 12


@dataclass(frozen=True)
class Relation:
    """An exact linear combination of parallel paths."""

    source: str
    target: str
    terms: tuple  # ((Path, scalar), ...) sorted by canonical path order

    @property
    def is_zero(self):
        return not self.terms

    def support(self):
        return tuple(p for p, _ in self.terms)

    def coefficient(self, path, fld: Field):
        for p, c in self.terms:
            if p == path:
                return c
        return fld.zero

    def to_text(self, fld: Field) -> str:
        """Render with the leading (largest) path first."""
        if not self.terms:
            return "0"
        parts = []
        for i, (p, c) in enumerate(reversed(self.terms)):
            coeff = fld.format(c)
            sign = ""
            if coeff.startswith("-"):
                sign, coeff = "-", coeff[1:]
            body = p.to_text() if coeff == "1" else "%s*%s" % (coeff, p.to_text())
            if i == 0:
                parts.append(("-" if sign else "") + body)
            else:
                parts.append(("- " if sign else "+ ") + body)
        return " ".join(parts)


def make_relation(quiver: Quiver, fld: Field, source, target, terms) -> Relation:
    """Normalize (path, scalar) terms: merge duplicates, drop zeros, sort.

    Scalars are coerced into the field exactly, so a fraction fed to a
    prime field either lands on the right residue or raises.
    """
    acc = {}
    items = terms.items() if isinstance(terms, dict) else terms
    for path, c in items:
        if (path.source, path.target) != (source, target):
            raise IdealError("path %s is not parallel to %s -> %s"
                             % (path, source, target))
        acc[path] = fld.add(acc.get(path, fld.zero), fld.scalar(c))
    kept = [(p, c) for p, c in acc.items() if not fld.is_zero(c)]
    kept.sort(key=lambda pc: path_key(quiver, pc[0]))
    return Relation(source, target, tuple(kept))


def relation_of_path(quiver: Quiver, fld: Field, path: Path) -> Relation:
    return Relation(path.source, path.target, ((path, fld.one),))


def add_relations(quiver: Quiver, fld: Field, a: Relation, b: Relation) -> Relation:
    if (a.source, a.target) != (b.source, b.target):
        raise IdealError("cannot add relations in different hom-pairs")
    return make_relation(quiver, fld, a.source, a.target,
                         list(a.terms) + list(b.terms))


def scale_relation(quiver: Quiver, fld: Field, c, r: Relation) -> Relation:
    if fld.is_zero(c):
        return Relation(r.source, r.target, ())
    return Relation(r.source, r.target,
                    tuple((p, fld.mul(c, x)) for p, x in r.terms))


def mul_relations(quiver: Quiver, fld: Field, later: Relation, earlier: Relation) -> Relation:
    """The product "later * earlier" (earlier acts first)."""
    if earlier.target != later.source:
        raise IdealError("relations do not compose")
    terms = []
    for p, c in later.terms:
        for q, d in earlier.terms:
            terms.append((compose_paths(quiver, p, q), fld.mul(c, d)))
    return make_relation(quiver, fld, earlier.source, later.target, terms)


class _HomSpace:
    """Echelon basis of one hom-pair subspace, in coordinates.

    A vector is a sparse ``{path index: coefficient}`` dict with no zero
    entries; ``rows`` maps each pivot to its basis row.  The basis is
    kept fully reduced, so a row has coefficient 1 at its own pivot and
    no entry at any other pivot.
    """

    def __init__(self, quiver, fld, x, y):
        self.quiver = quiver
        self.fld = fld
        self.x = x
        self.y = y
        self.paths = paths_between(quiver, x, y)
        self.index = {p: i for i, p in enumerate(self.paths)}
        self.rows = {}  # pivot index -> sparse row

    def vector(self, r: Relation):
        return {self.index[p]: c for p, c in r.terms
                if not self.fld.is_zero(c)}

    def relation(self, vec) -> Relation:
        return Relation(self.x, self.y,
                        tuple((self.paths[i], vec[i]) for i in sorted(vec)))

    def reduce(self, vec):
        """Fully reduce against the basis.  Subtracting a row clears its
        pivot and touches no other pivot, so each pivot entry of the
        input is cleared once, in any order."""
        fld = self.fld
        vec = dict(vec)
        for i in [i for i in vec if i in self.rows]:
            _subtract_multiple(fld, vec, vec.pop(i), self.rows[i], i)
        return vec

    def insert(self, vec) -> bool:
        """Reduce and add to the basis; True if the span grew."""
        fld = self.fld
        vec = self.reduce(vec)
        if not vec:
            return False
        lead = max(vec)
        if vec[lead] != 1:  # a row led by 1 is normalized already
            inv = fld.inv(vec[lead])
            vec = {k: fld.mul(inv, c) for k, c in vec.items()}
        # keep the basis reduced: clear this pivot from existing rows
        for row in self.rows.values():
            c = row.pop(lead, None)
            if c is not None:
                _subtract_multiple(fld, row, c, vec, lead)
        self.rows[lead] = vec
        return True

    def basis_relations(self):
        return tuple(self.relation(self.rows[p]) for p in sorted(self.rows))

    def contains(self, r: Relation) -> bool:
        return not self.reduce(self.vector(r))

    @property
    def dim(self):
        return len(self.rows)


def _subtract_multiple(fld, vec, c, row, skip):
    """vec -= c * row in place on sparse vectors, leaving out row's entry
    at ``skip`` (the pivot the caller has cleared); entries that cancel
    are dropped."""
    for k, x in row.items():
        if k == skip:
            continue
        y = fld.mul(c, x)
        y = fld.sub(vec[k], y) if k in vec else fld.neg(y)
        if fld.is_zero(y):
            del vec[k]
        else:
            vec[k] = y


class Ideal:
    """An admissible ideal with per-hom-pair echelon bases.

    ``generators`` holds the relations the ideal was closed from; for an
    image ideal of ``transform.apply_automorphism``, which closes
    nothing, it holds the basis rows (``minimal_relations()``).  Either
    way their two-sided closure is the ideal.
    """

    def __init__(self, quiver, fld, generators, spaces):
        self.quiver = quiver
        self.field = fld
        self.generators = tuple(generators)
        self._spaces = spaces
        self._radical = None
        self._snapshot = None
        self._hash = None
        self._minimal = None
        self._homotopy = {}  # base point -> relation, see homotopy_relation

    @property
    def radical_length(self) -> int:
        if self._radical is None:
            self._radical = self._radical_length()
        return self._radical

    def _space(self, x, y):
        key = (x, y)
        if key not in self._spaces:
            self._spaces[key] = _HomSpace(self.quiver, self.field, x, y)
        return self._spaces[key]

    def groebner_basis(self, x, y):
        return self._space(x, y).basis_relations()

    def hom_pairs(self):
        """Hom-pairs with a nonzero subspace, in vertex declaration order."""
        order = {v: i for i, v in enumerate(self.quiver.vertices)}
        keys = [k for k, s in self._spaces.items() if s.dim > 0]
        keys.sort(key=lambda k: (order[k[0]], order[k[1]]))
        return keys

    def minimal_relations(self):
        if self._minimal is None:  # the basis never changes once built
            self._minimal = tuple(r for x, y in self.hom_pairs()
                                  for r in self.groebner_basis(x, y))
        return self._minimal

    def contains(self, r: Relation) -> bool:
        if r.is_zero:
            return True
        return self._space(r.source, r.target).contains(r)

    def image(self, row_image) -> "Ideal":
        """The spans, per hom-set (x, y), of ``row_image(x, y, row)`` over
        the basis rows of I(x, y), as an ideal.

        Rows are sparse ``{index: coeff}`` vectors over
        ``paths_between(quiver, x, y)``, and ``row_image`` must return
        one over the same hom-set.  No closure runs: the caller vouches
        that the spans form an ideal, as the images under a
        vertex-fixing algebra automorphism do.
        """
        spaces = {}
        for (x, y), src in self._spaces.items():
            if src.dim:
                dst = spaces[(x, y)] = _HomSpace(self.quiver, self.field, x, y)
                for row in src.rows.values():
                    dst.insert(row_image(x, y, row))
        image = Ideal(self.quiver, self.field, (), spaces)
        image.generators = image.minimal_relations()
        return image

    def dim_ideal(self, x, y) -> int:
        return self._space(x, y).dim

    def dim_quotient(self, x, y) -> int:
        return len(paths_between(self.quiver, x, y)) - self.dim_ideal(x, y)

    def total_dim(self) -> int:
        return sum(s.dim for s in self._spaces.values())

    def _radical_length(self) -> int:
        worst = 0
        for p in enumerate_paths(self.quiver):
            if not self.contains(relation_of_path(self.quiver, self.field, p)):
                worst = max(worst, len(p) + 1)
        return worst

    def __eq__(self, other):
        if not isinstance(other, Ideal):
            return NotImplemented
        if self.quiver != other.quiver or self.field != other.field:
            return False
        return self._basis_snapshot() == other._basis_snapshot()

    def __hash__(self):
        # the basis never changes once built, so neither does the hash
        if self._hash is None:
            self._hash = hash((self.quiver, self.field, self._basis_snapshot()))
        return self._hash

    def _basis_snapshot(self):
        if self._snapshot is None:
            self._snapshot = tuple(sorted(
                (k, tuple(rs)) for k, rs in groupby(
                    self.minimal_relations(), lambda r: (r.source, r.target))))
        return self._snapshot

    def describe(self) -> str:
        gens = ", ".join(r.to_text(self.field) for r in self.minimal_relations())
        return "<%s>" % (gens or "0")


def close_ideal(quiver: Quiver, fld: Field, generators) -> Ideal:
    """Two-sided closure plus echelonization of the given relations.

    Worklist saturation: every vector whose insertion grows a span is
    extended by single arrows on both sides.  Extension is linear, so
    saturating these witnesses closes the whole span; the work is bounded
    by the dimension of the result rather than by the path count squared.

    The worklist holds ``(hom-space, vector)`` pairs in coordinates.
    Composing with an arrow sends distinct paths to distinct paths with
    coefficient 1, so it only relabels coordinates: the extension of a
    vector is ``{m[i]: c for i, c in vec.items()}`` for the index map m of
    its hom-set, the arrow and the side, built once per call.
    """
    gens = []
    for g in generators:
        if g.is_zero:
            continue
        for p in g.support():
            if len(p) < 2:
                raise IdealError(
                    "generator %s is not admissible: path %s has length %d"
                    % (g.to_text(fld), p, len(p)))
        gens.append(g)

    spaces = {}
    maps = {}

    def space(x, y):
        s = spaces.get((x, y))
        if s is None:
            s = spaces[(x, y)] = _HomSpace(quiver, fld, x, y)
        return s

    def extension(src, a, after):
        """The hom-space of a*p (after) or p*a, and the index map p -> it."""
        key = (src.x, src.y, a.name, after)
        hit = maps.get(key)
        if hit is None:
            if after:
                dst = space(src.x, a.target)
                m = [dst.index[Path(src.x, a.target, p.arrows + (a.name,))]
                     for p in src.paths]
            else:
                dst = space(a.source, src.y)
                m = [dst.index[Path(a.source, src.y, (a.name,) + p.arrows)]
                     for p in src.paths]
            hit = maps[key] = (dst, m)
        return hit

    todo = []
    for g in gens:
        s = space(g.source, g.target)
        vec = s.vector(g)
        if s.insert(vec):
            todo.append((s, vec))
    while todo:
        s, vec = todo.pop()
        for after, arrows in ((True, quiver.arrows_from(s.y)),
                              (False, quiver.arrows_into(s.x))):
            for a in arrows:
                dst, m = extension(s, a, after)
                grown = {m[i]: c for i, c in vec.items()}
                if dst.insert(grown):
                    todo.append((dst, grown))
    return Ideal(quiver, fld, gens, spaces)


def decompose_minimal(ideal: Ideal, r: Relation):
    """Split r in I into minimal relations with pairwise disjoint supports."""
    fld = ideal.field
    quiver = ideal.quiver
    if r.is_zero:
        return []
    if not ideal.contains(r):
        raise IdealError("relation %s does not lie in the ideal" % r.to_text(fld))
    space = ideal._space(r.source, r.target)

    # coordinates of r over the reduced echelon basis: its entries at
    # the pivots
    used = {i: c for i, c in space.vector(r).items() if i in space.rows}

    # components of the support-overlap graph of the basis elements used
    pivots = sorted(used)
    overlap = DisjointSets(pivots)
    for i, p in enumerate(pivots):
        for q in pivots[i + 1:]:
            if space.rows[p].keys() & space.rows[q].keys():
                overlap.union(p, q)

    pieces = []
    for group in overlap.classes():
        piece = Relation(r.source, r.target, ())
        for p in group:
            piece = add_relations(quiver, fld, piece,
                                  scale_relation(quiver, fld, used[p],
                                                 space.relation(space.rows[p])))
        pieces.extend(_split_off_minimal(ideal, piece))
    pieces.sort(key=lambda rel: path_key(quiver, rel.support()[0]))
    return pieces


def _split_off_minimal(ideal: Ideal, r: Relation):
    """Brute-force refinement of one overlap component.

    Supports larger than SPLIT_ENUMERATION_BITS are returned unsplit; at
    that size we fall back on the structural fact that echelon basis
    elements are minimal, which covers every component the closure
    machinery produces at desk scale.
    """
    supp = r.support()
    n = len(supp)
    if n <= 1 or n > SPLIT_ENUMERATION_BITS:
        return [r]
    fld = ideal.field
    quiver = ideal.quiver
    for mask in range(1, 1 << (n - 1)):
        sub = [supp[0]] + [supp[i] for i in range(1, n) if mask & (1 << (i - 1))]
        if len(sub) == n:
            continue
        part = make_relation(quiver, fld, r.source, r.target,
                             [(p, r.coefficient(p, fld)) for p in sub])
        if ideal.contains(part):
            rest = add_relations(quiver, fld, r,
                                 scale_relation(quiver, fld, fld.neg(fld.one), part))
            return _split_off_minimal(ideal, part) + _split_off_minimal(ideal, rest)
    return [r]


def support_equivalence(ideal: Ideal, x, y):
    """The classes of parallel paths x -> y linked through basis supports."""
    quiver = ideal.quiver
    linked = DisjointSets(paths_between(quiver, x, y))
    for rel in ideal.groebner_basis(x, y):
        supp = rel.support()
        for p in supp[1:]:
            linked.union(p, supp[0])
    out = [tuple(sorted(v, key=lambda p: path_key(quiver, p)))
           for v in linked.classes()]
    out.sort(key=lambda cls: path_key(quiver, cls[0]))
    return tuple(out)


def is_constricted(ideal: Ideal) -> bool:
    return all(ideal.dim_quotient(a.source, a.target) == 1
               for a in ideal.quiver.arrows)


def ideals_equal(a: Ideal, b: Ideal) -> bool:
    if a.quiver != b.quiver:
        raise IdealError("ideals live on different quivers")
    if a.field != b.field:
        raise IdealError("ideals live over different fields (char %s vs %s)"
                         % (a.field.char, b.field.char))
    return a._basis_snapshot() == b._basis_snapshot()

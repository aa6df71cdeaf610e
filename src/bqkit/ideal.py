"""Admissible ideals and the exact linear algebra of relation spaces.

Every hom-pair subspace is stored through its unique reduced echelon
basis with respect to the canonical path order: each basis element has
leading coefficient 1 on its largest path, leading paths strictly
increase, and no leading path occurs in any other basis element.  The
basis elements are minimal relations, so they double as the generating
set for the homotopy machinery (see ``Ideal.minimal_relations``).
"""

from __future__ import annotations

from itertools import combinations

from .disjoint_sets import DisjointSets
from .errors import IdealError
from .fields import Field
from .quiver import (Path, Quiver, compose_paths, enumerate_paths,
                     path_tables, paths_between, paused_collector)
from .records import FrozenRecord

SPLIT_ENUMERATION_BITS = 12


class Relation(FrozenRecord):
    """An exact linear combination of parallel paths."""

    _fields = ("source", "target", "terms")

    def __init__(self, source: str, target: str, terms: tuple):
        setattr_ = object.__setattr__
        setattr_(self, "source", source)
        setattr_(self, "target", target)
        # ((Path, scalar), ...) sorted by canonical path order
        setattr_(self, "terms", terms)

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
    """Normalize (path, scalar) terms: merge duplicates, drop zeros, sort
    by path number (``quiver.path_tables``), which within one hom-set is
    the canonical order.

    Scalars are coerced into the field exactly, so a fraction fed to a
    prime field either lands on the right residue or raises.
    """
    index = path_tables(quiver)[0]
    acc = {}
    items = terms.items() if isinstance(terms, dict) else terms
    for path, c in items:
        if (path.source, path.target) != (source, target):
            raise IdealError("path %s is not parallel to %s -> %s"
                             % (path, source, target))
        if path not in index:
            raise IdealError("%s is not a path of quiver %s"
                             % (path, quiver.name))
        acc[path] = fld.add(acc.get(path, fld.zero), fld.scalar(c))
    kept = [(p, c) for p, c in acc.items() if not fld.is_zero(c)]
    kept.sort(key=lambda pc: index[pc[0]])
    return Relation(source, target, tuple(kept))


def relation_of_path(quiver: Quiver, fld: Field, path: Path) -> Relation:
    return Relation(path.source, path.target, ((path, fld.one),))


def linear_combination(quiver: Quiver, fld: Field, source, target,
                       parts) -> Relation:
    """The sum of c * r over the (c, r) in parts, each r in hom(source,
    target), as one ``make_relation`` call; each c is coerced into the
    field once."""
    terms = []
    for c, r in parts:
        c = fld.scalar(c)
        terms += [(p, fld.mul(c, x)) for p, x in r.terms]
    return make_relation(quiver, fld, source, target, terms)


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

    A vector is a sparse ``{path number: coefficient}`` dict with no zero
    entries (``quiver.path_tables`` numbers the paths), and ``vector``
    and ``relation`` convert a Relation to one and back; ``rows`` maps
    each pivot to its basis row.  Restricted to a hom-set the numbering
    is the canonical order, so ``max(vec)`` is the leading path.  The
    rows are filled by ``close_ideal`` and fully reduced: a row has
    coefficient 1 at its own pivot and no entry at any other pivot.
    """

    def __init__(self, quiver, fld, x, y):
        self.quiver = quiver
        self.fld = fld
        self.x = x
        self.y = y
        self.rows = {}  # pivot number -> sparse row

    def vector(self, r: Relation):
        index = path_tables(self.quiver)[0]
        return {index[p]: c for p, c in r.terms if not self.fld.is_zero(c)}

    def relation(self, vec) -> Relation:
        paths = enumerate_paths(self.quiver)
        return Relation(self.x, self.y,
                        tuple((paths[i], vec[i]) for i in sorted(vec)))

    def reduce(self, vec):
        """Fully reduce against the basis.  Subtracting a row clears its
        pivot and touches no other pivot, so each pivot entry of the
        input is cleared once, in any order."""
        fld = self.fld
        vec = dict(vec)
        for i in [i for i in vec if i in self.rows]:
            _subtract_multiple(fld, vec, vec.pop(i), self.rows[i], i)
        return vec

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

    ``generators`` holds the relations the ideal was closed from by
    ``close_ideal``; their two-sided closure is the ideal.
    """

    def __init__(self, quiver, fld, generators, spaces):
        self.quiver = quiver
        self.field = fld
        self.generators = tuple(generators)
        self._spaces = spaces
        self._snapshot = None
        self._hash = None
        self._minimal = None
        self._homotopy = {}  # base point -> relation, see homotopy_relation

    @property
    def radical_length(self) -> int:
        worst = 0
        for p in enumerate_paths(self.quiver):
            if not self.contains(relation_of_path(self.quiver, self.field, p)):
                worst = max(worst, len(p) + 1)
        return worst

    def _space(self, x, y):
        """The space of I(x, y); an empty hom-pair gets a fresh empty one
        that is not kept, so reads never write into the ideal."""
        s = self._spaces.get((x, y))
        if s is None:
            s = _HomSpace(self.quiver, self.field, x, y)
        return s

    def groebner_basis(self, x, y):
        return self._space(x, y).basis_relations()

    def hom_pairs(self):
        """Hom-pairs with a nonzero subspace, in vertex declaration order."""
        order = {v: i for i, v in enumerate(self.quiver.vertices)}
        keys = [k for k, s in self._spaces.items() if s.dim > 0]
        keys.sort(key=lambda k: (order[k[0]], order[k[1]]))
        return keys

    def minimal_relations(self):
        """Every reduced echelon basis row of every hom-set, as relations,
        hom-pairs in vertex order and pivots ascending.

        Each row is a minimal relation, but together they are not a
        minimal generating set of the ideal: on the commutative 6 x 6
        grid, 25 squares generate the ideal and it has 2941 rows.  The
        homotopy relation needs every row.  Within one hom-set, the rows
        are the fundamental circuits of the paths with respect to the
        paths that lead no row, and the relation their supports generate
        is the connectivity of that matroid (Oxley, *Matroid Theory*,
        ch. 4); a relation that is minimal in a product hom-set need not
        be a product of minimal generators.
        """
        if self._minimal is None:  # the basis never changes once built
            self._minimal = tuple(r for x, y in self.hom_pairs()
                                  for r in self.groebner_basis(x, y))
        return self._minimal

    def rows(self):
        """Every reduced echelon row, a sparse ``{path number:
        coefficient}`` dict (``quiver.path_tables``), hom-pairs in vertex
        order and pivots ascending: the rows of ``minimal_relations``,
        without a ``Relation``.  The dicts are the ideal's own, shared
        with every reader, and never written after ``close_ideal``."""
        for key in self.hom_pairs():
            rows = self._spaces[key].rows
            for p in sorted(rows):
                yield rows[p]

    def support_pairs(self):
        """The pairs (i, j), i < j, of path numbers in the support of one
        row of ``rows``, rows in its order; the generating pairs of the
        homotopy relation."""
        return [pair for row in self.rows()
                for pair in combinations(sorted(row), 2)]

    def contains(self, r: Relation) -> bool:
        if r.is_zero:
            return True
        return self._space(r.source, r.target).contains(r)

    def dim_ideal(self, x, y) -> int:
        return self._space(x, y).dim

    def dim_quotient(self, x, y) -> int:
        return len(paths_between(self.quiver, x, y)) - self.dim_ideal(x, y)

    def total_dim(self) -> int:
        return sum(s.dim for s in self._spaces.values())

    def __eq__(self, other):
        if not isinstance(other, Ideal):
            return NotImplemented
        if self.quiver != other.quiver or self.field != other.field:
            return False
        return self._row_snapshot() == other._row_snapshot()

    def __hash__(self):
        # the basis never changes once built, so neither does the hash
        if self._hash is None:
            self._hash = hash((self.quiver, self.field, self._row_snapshot()))
        return self._hash

    def _row_snapshot(self):
        """``rows`` as one tuple, each row the tuple of its entries sorted
        by path number; on one quiver and field, two ideals are equal
        exactly when their snapshots are."""
        if self._snapshot is None:
            self._snapshot = tuple(tuple(sorted(row.items()))
                                   for row in self.rows())
        return self._snapshot

    def describe(self) -> str:
        gens = ", ".join(r.to_text(self.field) for r in self.minimal_relations())
        return "<%s>" % (gens or "0")


@paused_collector
def close_ideal(quiver: Quiver, fld: Field, generators) -> Ideal:
    """Two-sided closure plus echelonization of the given relations.

    The canonical order is admissible, so the ideal has a reduced
    Gröbner basis G (``_groebner_basis``), and its tips, the leading
    paths of its elements, are the paths with a tip of G as a subpath.
    The reduced echelon row of a tip p is p - NF(p), NF(p) being the
    normal form of p modulo G: a combination of smaller paths that are
    no tips (Farkas, Feustel and Green, Canad. J. Math. 45, 1993).

    One pass over the paths in canonical order builds the rows, each
    from rows already built.  A tip p of G starts from its element of
    G.  Any other p is a tip exactly when p without its last or its
    first arrow a is a tip t, and starts from the row of t extended by
    a, which only renumbers its paths through the table ``after[a]`` or
    ``before[a]`` of ``quiver.path_tables``.  Clearing the other tips of
    that element by their rows, each once, leaves p - NF(p); no row
    already built changes.
    """
    index, after, before, head, tail = path_tables(quiver)
    gens = []
    for g in generators:
        if g.is_zero:
            continue
        for p in g.support():
            if p not in index:
                raise IdealError("%s is not a path of quiver %s"
                                 % (p, quiver.name))
            if len(p) < 2:
                raise IdealError(
                    "generator %s is not admissible: path %s has length %d"
                    % (g.to_text(fld), p, len(p)))
        gens.append(g)

    basis = _groebner_basis(quiver, fld, [
        {index[p]: c for p, c in g.terms if not fld.is_zero(c)} for g in gens])
    paths = enumerate_paths(quiver)
    spaces = {}
    rows = {}  # tip -> its row
    # no path below the least tip of G is a tip
    for i in range(min(basis, default=len(paths)), len(paths)):
        p = paths[i]
        # an element of the ideal led by path i, if i is a tip
        row = basis.get(i)
        if row is None:
            if head[i] in rows:
                row, m = rows[head[i]], after[p.arrows[-1]]
            elif tail[i] in rows:
                row, m = rows[tail[i]], before[p.arrows[0]]
            else:
                continue
            row = {m[j]: c for j, c in row.items()}
        key = (p.source, p.target)
        s = spaces.get(key)
        if s is None:
            s = spaces[key] = _HomSpace(quiver, fld, *key)
        rows[i] = s.rows[i] = s.reduce(row)
    return Ideal(quiver, fld, gens, spaces)


def _groebner_basis(quiver: Quiver, fld: Field, vectors):
    """The reduced Gröbner basis of the ideal that the sparse vectors
    generate, as ``{tip: monic row}``; no tip is a subpath of another.
    The vectors are reduced in place.

    Buchberger's algorithm on tip overlaps (Mora, LNCS 229, 1986): when a
    proper suffix of one tip, in application order, is a proper prefix
    of another, their two multiples with the overlap word as tip differ
    by an element of the ideal, whose reduction joins the basis unless
    it is zero.  A tip that contains a new tip sends its element back to
    be reduced again.  Reduction works on tips only; the tails are left
    to the normal-form pass of ``close_ideal``.
    """
    paths = enumerate_paths(quiver)
    after, before = path_tables(quiver)[1:3]
    basis = {}
    by_arrow = {}  # arrow -> tips through it, some no longer in the basis

    def multiple(t, arrows, s):
        """The element of tip t times the arrows around the tip in
        ``arrows``, where the tip starts at position s."""
        pre, post = arrows[:s], arrows[s + len(paths[t]):]
        out = {}
        for j, c in basis[t].items():
            for a in post:
                j = after[a][j]
            for a in reversed(pre):
                j = before[a][j]
            out[j] = c
        return out

    todo = list(vectors)
    while todo:
        vec = todo.pop()
        while vec:
            lead = max(vec)
            arrows = paths[lead].arrows
            # a tip inside the lead, or one that overlaps or contains it,
            # shares an arrow with it
            near = {t for a in arrows for t in by_arrow.get(a, ()) if t in basis}
            inside = [(t, s) for t in near
                      for s in [_position(paths[t].arrows, arrows)] if s is not None]
            if not inside:
                break
            t, s = inside[0]
            _subtract_multiple(fld, vec, vec[lead], multiple(t, arrows, s), None)
        if not vec:
            continue
        if vec[lead] != 1:
            inv = fld.inv(vec[lead])
            vec = {k: fld.mul(inv, c) for k, c in vec.items()}
        basis[lead] = vec
        for a in arrows:
            by_arrow.setdefault(a, []).append(lead)
        for t in near:
            other = paths[t].arrows
            if _position(arrows, other) is not None:
                todo.append(basis.pop(t))
                continue
            for x, y in ((lead, t), (t, lead)):
                u, w = paths[x].arrows, paths[y].arrows
                for m in range(1, min(len(u), len(w))):
                    if u[-m:] == w[:m]:  # the S-element of the overlap
                        word = u + w[m:]
                        vec = multiple(x, word, 0)
                        shifted = multiple(y, word, len(u) - m)
                        _subtract_multiple(fld, vec, 1, shifted, None)
                        todo.append(vec)
    return basis


def _position(part, whole):
    """Where the tuple ``part`` first occurs inside ``whole``, or None."""
    n = len(part)
    for s in range(len(whole) - n + 1):
        if whole[s:s + n] == part:
            return s
    return None


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
        piece = linear_combination(
            quiver, fld, r.source, r.target,
            [(used[p], space.relation(space.rows[p])) for p in group])
        pieces.extend(_split_off_minimal(ideal, piece))
    index = path_tables(quiver)[0]
    pieces.sort(key=lambda rel: index[rel.support()[0]])
    return pieces


def _split_off_minimal(ideal: Ideal, r: Relation):
    """Brute-force refinement of one overlap component, over the subsets
    of its support; a support larger than SPLIT_ENUMERATION_BITS paths
    raises rather than pass unsplit for minimal."""
    supp = r.support()
    n = len(supp)
    if n > SPLIT_ENUMERATION_BITS:
        raise IdealError("cannot split %s: its support has %d paths, over the "
                         "SPLIT_ENUMERATION_BITS cap of %d"
                         % (r.to_text(ideal.field), n, SPLIT_ENUMERATION_BITS))
    if n <= 1:
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
            rest = linear_combination(quiver, fld, r.source, r.target,
                                      [(1, r), (-1, part)])
            return _split_off_minimal(ideal, part) + _split_off_minimal(ideal, rest)
    return [r]


def support_equivalence(ideal: Ideal, x, y):
    """The classes of parallel paths x -> y linked through basis supports."""
    linked = DisjointSets(paths_between(ideal.quiver, x, y))
    for rel in ideal.groebner_basis(x, y):
        supp = rel.support()
        for p in supp[1:]:
            linked.union(p, supp[0])
    # classes in canonical order, each in canonical order
    return tuple(tuple(cls) for cls in linked.classes())


def is_constricted(ideal: Ideal) -> bool:
    return all(ideal.dim_quotient(a.source, a.target) == 1
               for a in ideal.quiver.arrows)


def ideals_equal(a: Ideal, b: Ideal) -> bool:
    if a.quiver != b.quiver:
        raise IdealError("ideals live on different quivers")
    if a.field != b.field:
        raise IdealError("ideals live over different fields (char %s vs %s)"
                         % (a.field.char, b.field.char))
    return a == b

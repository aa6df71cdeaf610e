"""Automorphisms of the path algebra fixing the vertices.

Transvections send one arrow to itself plus a multiple of a parallel
path; dilatations rescale arrows.  Every vertex-fixing automorphism
factors as a dilatation composed with transvections, and the
decomposition here follows the constructive induction on the number of
arrows whose image is not a scalar multiple of themselves.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import TransformError
from .fields import Field
from .ideal import (Ideal, Relation, add_relations, ideals_equal,
                    mul_relations, relation_of_path, scale_relation)
from .quiver import Bypass, Path, Quiver, paths_between, trivial_path
from .snf import smith_normal_form


@dataclass(frozen=True)
class Transvection:
    """arrow -> arrow + tau * path, all other arrows fixed."""

    bypass: Bypass
    tau: object

    @property
    def arrow(self):
        return self.bypass.arrow

    @property
    def path(self):
        return self.bypass.path

    def inverse(self, fld: Field) -> "Transvection":
        return Transvection(self.bypass, fld.neg(self.tau))

    def to_text(self, fld: Field) -> str:
        return "phi(%s, %s, %s)" % (self.arrow, self.path.to_text(),
                                    fld.format(self.tau))


@dataclass(frozen=True)
class Dilatation:
    """arrow-wise rescaling by nonzero scalars (missing arrows scale by 1)."""

    scales: tuple  # ((arrow name, scalar), ...)

    def scale(self, arrow, fld: Field):
        for name, c in self.scales:
            if name == arrow:
                return c
        return fld.one

    def is_identity(self, fld: Field) -> bool:
        return all(c == fld.one for _, c in self.scales)

    def inverse(self, fld: Field) -> "Dilatation":
        return Dilatation(tuple((n, fld.inv(c)) for n, c in self.scales))

    def path_scale(self, path: Path, fld: Field):
        c = fld.one
        for name in path.arrows:
            c = fld.mul(c, self.scale(name, fld))
        return c

    def to_text(self, fld: Field) -> str:
        if not self.scales:
            return "D(id)"
        return "D(%s)" % ", ".join("%s=%s" % (n, fld.format(c))
                                   for n, c in self.scales)


def make_dilatation(quiver: Quiver, fld: Field, scales) -> Dilatation:
    items = scales.items() if isinstance(scales, dict) else scales
    out = []
    for name, c in items:
        quiver.arrow(name)
        if fld.is_zero(c):
            raise TransformError("dilatation scale for %r is zero" % name)
        out.append((name, c))
    out.sort(key=lambda nc: quiver.arrow_index(nc[0]))
    return Dilatation(tuple(out))


class _HomImages:
    """The images of the paths of one hom-set, filled on demand."""

    __slots__ = ("paths", "pos", "images")

    def __init__(self, paths):
        self.paths = paths
        self.pos = {p.arrows: i for i, p in enumerate(paths)}
        self.images = [None] * len(paths)


class PathAutomorphism:
    """A vertex-fixing automorphism, stored by its arrow images.

    Paths and relations are mapped in coordinates: the image of the i-th
    path of hom(x, y) is a sparse ``{path index: coeff}`` vector over the
    same hom-set, in the order of ``paths_between``, the coordinates of
    the rows of ``Ideal.image``.  Each path image is built once, on first
    use, by a DP over prefixes: phi(p * a) = phi(a) * phi(p).
    """

    def __init__(self, quiver: Quiver, fld: Field, images):
        self.quiver = quiver
        self.field = fld
        full = {}
        for a in quiver.arrows:
            img = images.get(a.name)
            if img is None:
                img = relation_of_path(quiver, fld, Path(a.source, a.target, (a.name,)))
            if (img.source, img.target) != (a.source, a.target):
                raise TransformError(
                    "image of %s must lie in hom(%s, %s)" % (a.name, a.source, a.target))
            full[a.name] = img
        self.images = full
        self._check_linear_part()
        self._moved = None  # see _moved_terms
        self._homs = {}  # (x, y) -> _HomImages

    def _check_linear_part(self):
        """The induced arrow-to-arrow map must be invertible per parallel class."""
        classes = {}
        for a in self.quiver.arrows:
            classes.setdefault((a.source, a.target), []).append(a.name)
        for names in classes.values():
            if not _invertible(self.field, self.linear_part(names)):
                raise TransformError(
                    "linear part is singular on the parallel class {%s}"
                    % ", ".join(names))

    def linear_part(self, names):
        fld = self.field
        n = len(names)
        mat = [[fld.zero] * n for _ in range(n)]
        for j, src in enumerate(names):
            for p, c in self.images[src].terms:
                if len(p) == 1 and p.arrows[0] in names:
                    mat[names.index(p.arrows[0])][j] = c
        return mat

    def _hom(self, x, y) -> _HomImages:
        hom = self._homs.get((x, y))
        if hom is None:
            hom = self._homs[(x, y)] = _HomImages(paths_between(self.quiver, x, y))
        return hom

    def _moved_terms(self):
        """Arrow name -> (arrows of path, coeff) terms of its image, for
        the arrows whose image is not the arrow itself; read from
        ``images`` when the first path image is built."""
        if self._moved is None:
            one = self.field.one
            self._moved = {
                name: tuple((p.arrows, c) for p, c in img.terms)
                for name, img in self.images.items()
                if img.terms != ((Path(img.source, img.target, (name,)), one),)}
        return self._moved

    def _path_image(self, hom: _HomImages, i):
        """phi of the i-th path of ``hom``, as a sparse vector over it.

        A path with no moved arrow maps to itself.  Otherwise the path is
        its prefix p followed by its last arrow a, and phi(p) is a vector
        over hom(x, z) for z the source of a.  If phi fixes a, the step
        only relabels indices.  If not, each term c * r of phi(a) sends
        the entry d at path q to c * d at q followed by r.  All q end at
        z and the quiver has no oriented cycle, so distinct (q, r) give
        distinct paths: no two products land on one index, and none is
        zero, since the terms of a Relation are nonzero.
        """
        vec = hom.images[i]
        if vec is not None:
            return vec
        moved = self._moved_terms()
        arrows = hom.paths[i].arrows
        if moved.keys().isdisjoint(arrows):
            vec = {i: self.field.one}
        else:
            last = arrows[-1]
            x = hom.paths[i].source
            pre = self._hom(x, self.quiver.arrow(last).source)
            prefix = self._path_image(pre, pre.pos[arrows[:-1]])
            pos = hom.pos
            terms = moved.get(last)
            if terms is None:
                step = (last,)
                vec = {pos[pre.paths[k].arrows + step]: d
                       for k, d in prefix.items()}
            else:
                mul = self.field.mul
                vec = {pos[pre.paths[k].arrows + r]: mul(c, d)
                       for r, c in terms for k, d in prefix.items()}
        hom.images[i] = vec
        return vec

    def apply_to_vector(self, x, y, vec):
        """phi of a sparse vector over hom(x, y); the result has no zero
        entries."""
        fld = self.field
        hom = self._hom(x, y)
        images = hom.images
        out = {}
        for i, c in vec.items():
            img = images[i]
            if img is None:
                img = self._path_image(hom, i)
            for k, d in img.items():
                # the image of a path phi fixes is that path with coeff 1
                v = c if d == 1 else fld.mul(c, d)
                out[k] = fld.add(out[k], v) if k in out else v
        return {k: v for k, v in out.items() if not fld.is_zero(v)}

    def apply_to_relation(self, rel: Relation) -> Relation:
        x, y = rel.source, rel.target
        hom = self._hom(x, y)
        vec = self.apply_to_vector(x, y, {hom.pos[p.arrows]: c
                                          for p, c in rel.terms})
        return Relation(x, y, tuple((hom.paths[i], vec[i]) for i in sorted(vec)))

    def apply_to_path(self, path: Path) -> Relation:
        return self.apply_to_relation(
            relation_of_path(self.quiver, self.field, path))

    def __eq__(self, other):
        if not isinstance(other, PathAutomorphism):
            return NotImplemented
        return (self.quiver, self.field) == (other.quiver, other.field) \
            and self.images == other.images

    def __hash__(self):
        return hash((self.quiver, self.field, tuple(sorted(self.images.items(),
                     key=lambda kv: self.quiver.arrow_index(kv[0])))))


def _invertible(fld: Field, mat) -> bool:
    n = len(mat)
    m = [row[:] for row in mat]
    for col in range(n):
        pivot = next((r for r in range(col, n) if not fld.is_zero(m[r][col])), None)
        if pivot is None:
            return False
        m[col], m[pivot] = m[pivot], m[col]
        inv = fld.inv(m[col][col])
        m[col] = [fld.mul(inv, x) for x in m[col]]
        for r in range(n):
            if r != col and not fld.is_zero(m[r][col]):
                c = m[r][col]
                m[r] = [fld.sub(x, fld.mul(c, y)) for x, y in zip(m[r], m[col])]
    return True


def identity_automorphism(quiver: Quiver, fld: Field) -> PathAutomorphism:
    return PathAutomorphism(quiver, fld, {})


def as_path_automorphism(phi, quiver: Quiver, fld: Field) -> PathAutomorphism:
    """Coerce a Transvection or Dilatation (or pass one through)."""
    if isinstance(phi, PathAutomorphism):
        if phi.quiver != quiver or phi.field != fld:
            raise TransformError("automorphism is over a different quiver or field")
        return phi
    if isinstance(phi, Transvection):
        a = quiver.arrow(phi.arrow)
        base = relation_of_path(quiver, fld, Path(a.source, a.target, (a.name,)))
        img = add_relations(quiver, fld, base,
                            scale_relation(quiver, fld, phi.tau,
                                           relation_of_path(quiver, fld, phi.path)))
        return PathAutomorphism(quiver, fld, {a.name: img})
    if isinstance(phi, Dilatation):
        images = {}
        for name, c in phi.scales:
            a = quiver.arrow(name)
            images[name] = scale_relation(
                quiver, fld, c,
                relation_of_path(quiver, fld, Path(a.source, a.target, (a.name,))))
        return PathAutomorphism(quiver, fld, images)
    raise TransformError("not an automorphism: %r" % (phi,))


def compose(f, g) -> PathAutomorphism:
    """The automorphism f o g (g applied first); one of the two must be a
    ``PathAutomorphism``, whose quiver and field the other is read on."""
    probe = f if isinstance(f, PathAutomorphism) else g
    if not isinstance(probe, PathAutomorphism):
        raise TransformError("compose needs a PathAutomorphism to read plain "
                             "transvections/dilatations on")
    quiver, fld = probe.quiver, probe.field
    fa = as_path_automorphism(f, quiver, fld)
    ga = as_path_automorphism(g, quiver, fld)
    images = {name: fa.apply_to_relation(img) for name, img in ga.images.items()}
    return PathAutomorphism(quiver, fld, images)


def apply_automorphism(phi, ideal: Ideal) -> Ideal:
    """The image ideal phi(I), one hom-set at a time.

    phi fixes the vertices, so it maps each hom-space kQ(x, y) onto
    itself, and phi(I)(x, y) = phi(I(x, y)).  The basis of phi(I)(x, y)
    is therefore the row reduction of the images of the basis rows of
    I(x, y).  phi(I) is an ideal because phi is an algebra automorphism,
    so these spans are already closed under composition with arrows and
    no closure runs.  phi is invertible, so a hom-set whose rank drops
    means a broken automorphism and raises.
    """
    auto = as_path_automorphism(phi, ideal.quiver, ideal.field)
    image = ideal.image(auto.apply_to_vector)
    for x, y in ideal.hom_pairs():
        if image.dim_ideal(x, y) != ideal.dim_ideal(x, y):
            raise TransformError(
                "automorphism did not preserve the ideal dimension: rank %d "
                "of %d on hom(%s, %s)"
                % (image.dim_ideal(x, y), ideal.dim_ideal(x, y), x, y))
    return image


def decompose_DT(phi: PathAutomorphism):
    """Factor phi = D o t_n o ... o t_1 (t_1 applied first).

    Follows the inductive proof: per parallel class, first make the
    linear part diagonal with arrow-to-arrow transvections, then strip
    the longer tails; what remains is the dilatation.
    """
    quiver = phi.quiver
    fld = phi.field
    applied = []  # transvections s_1, s_2, ... composed on the left, in order
    current = phi

    def is_scalar(name):
        img = current.images[name]
        return len(img.terms) == 1 and img.terms[0][0].arrows == (name,)

    while True:
        bad = next((a.name for a in quiver.arrows if not is_scalar(a.name)), None)
        if bad is None:
            break
        a0 = quiver.arrow(bad)
        names = [a.name for a in quiver.arrows
                 if (a.source, a.target) == (a0.source, a0.target)]
        # 1) diagonalize the linear part on this class by row operations,
        #    each realized by a transvection between parallel arrows
        mat = current.linear_part(names)
        n = len(names)
        for col in range(n):
            if fld.is_zero(mat[col][col]):
                # rows above col are already single-entry, so a usable
                # pivot row must sit strictly below
                src = next(r for r in range(col + 1, n)
                           if not fld.is_zero(mat[r][col]))
                _row_op(fld, mat, col, src, fld.one)
                t = _arrow_transvection(quiver, names[src], names[col], fld.one)
                applied.append(t)
                current = compose(t, current)
            for r in range(n):
                if r != col and not fld.is_zero(mat[r][col]):
                    c = fld.neg(fld.div(mat[r][col], mat[col][col]))
                    _row_op(fld, mat, r, col, c)
                    t = _arrow_transvection(quiver, names[col], names[r], c)
                    applied.append(t)
                    current = compose(t, current)
        # 2) strip tails of length >= 2
        for name in names:
            img = current.images[name]
            lam = img.coefficient(Path(a0.source, a0.target, (name,)), fld)
            for p, c in img.terms:
                if len(p) >= 2:
                    t = Transvection(Bypass(name, p), fld.neg(fld.div(c, lam)))
                    applied.append(t)
                    current = compose(t, current)
        for name in names:
            if not is_scalar(name):
                raise TransformError("tail stripping failed on arrow %r" % name)

    scales = []
    for a in quiver.arrows:
        c = current.images[a.name].terms[0][1]
        if c != fld.one:
            scales.append((a.name, c))
    dil = Dilatation(tuple(scales))

    # applied, in order s_1 ... s_K, satisfies s_K o ... o s_1 o phi = D,
    # so phi = s_1^-1 o ... o s_K^-1 o D; conjugating D to the front turns
    # each s^-1 into a transvection with tau scaled by mu/lambda
    transvections = []
    for s in applied:  # phi = D o (D^-1 s_1^-1 D) o ... o (D^-1 s_K^-1 D)
        inv = s.inverse(fld)
        mu = dil.scale(inv.arrow, fld)
        lam = dil.path_scale(inv.path, fld)
        transvections.append(Transvection(inv.bypass,
                                          fld.mul(inv.tau, fld.div(mu, lam))))
    transvections.reverse()  # application order: innermost first

    recomposed = recompose_DT(quiver, fld, dil, transvections)
    if recomposed != phi:
        raise TransformError("decomposition failed to recompose to the input")
    return dil, transvections


def recompose_DT(quiver: Quiver, fld: Field, dil: Dilatation,
                 transvections) -> PathAutomorphism:
    """D o t_n o ... o t_1 as a PathAutomorphism (t_1 applied first)."""
    acc = identity_automorphism(quiver, fld)
    for t in transvections:
        acc = compose(t, acc)
    return compose(dil, acc)


def _row_op(fld, mat, dst, src, c):
    n = len(mat[0])
    for k in range(n):
        mat[dst][k] = fld.add(mat[dst][k], fld.mul(c, mat[src][k]))


def _arrow_transvection(quiver, src_arrow, dst_arrow, c) -> Transvection:
    """row_dst += c * row_src corresponds to src_arrow -> src_arrow + c*dst_arrow."""
    a = quiver.arrow(dst_arrow)
    return Transvection(Bypass(src_arrow, Path(a.source, a.target, (dst_arrow,))), c)


class Derivation:
    """A derivation of the path algebra, given on arrows, zero on vertices.

    Every image term must be strictly longer than its arrow, which makes
    the derivation nilpotent on the (finite-length) path algebra.
    """

    def __init__(self, quiver: Quiver, fld: Field, arrow_images):
        self.quiver = quiver
        self.field = fld
        images = {}
        for a in quiver.arrows:
            img = arrow_images.get(a.name)
            if img is None:
                img = Relation(a.source, a.target, ())
            if (img.source, img.target) != (a.source, a.target):
                raise TransformError("derivation image of %s has wrong endpoints" % a.name)
            for p, _ in img.terms:
                if len(p) < 2:
                    raise TransformError(
                        "derivation image of %s contains %s, not strictly longer"
                        % (a.name, p))
            images[a.name] = img
        self.images = images

    def apply_to_path(self, path: Path) -> Relation:
        """Leibniz rule: sum over positions of the arrow images."""
        fld = self.field
        out = Relation(path.source, path.target, ())
        for i, name in enumerate(path.arrows):
            piece = relation_of_path(self.quiver, fld,
                                     trivial_path(self.quiver, path.source))
            for j, other in enumerate(path.arrows):
                img = self.images[other] if j == i else relation_of_path(
                    self.quiver, fld,
                    Path(self.quiver.arrow(other).source,
                         self.quiver.arrow(other).target, (other,)))
                piece = mul_relations(self.quiver, fld, img, piece)
            out = add_relations(self.quiver, fld, out, piece)
        return out

    def apply_to_relation(self, rel: Relation) -> Relation:
        fld = self.field
        out = Relation(rel.source, rel.target, ())
        for p, c in rel.terms:
            out = add_relations(self.quiver, fld, out,
                                scale_relation(self.quiver, fld, c,
                                               self.apply_to_path(p)))
        return out

    def __eq__(self, other):
        if not isinstance(other, Derivation):
            return NotImplemented
        return (self.quiver, self.field) == (other.quiver, other.field) \
            and self.images == other.images


def exp_derivation(nu: Derivation) -> PathAutomorphism:
    """exp of a nilpotent derivation, by the (finite) power series."""
    quiver, fld = nu.quiver, nu.field
    images = {}
    for a in quiver.arrows:
        base = relation_of_path(quiver, fld, Path(a.source, a.target, (a.name,)))
        acc = base
        term = base
        factorial = 1
        l = 0
        while True:
            term = nu.apply_to_relation(term)
            if term.is_zero:
                break
            l += 1
            factorial *= l
            if fld.char and l >= fld.char:
                raise TransformError(
                    "exponential needs 1/%d! which does not exist in char %d"
                    % (l, fld.char))
            acc = add_relations(quiver, fld, acc,
                                scale_relation(quiver, fld,
                                               fld.inv(fld.scalar(factorial)), term))
        images[a.name] = acc
    return PathAutomorphism(quiver, fld, images)


def log_unipotent(phi: PathAutomorphism) -> Derivation:
    """log of a unipotent automorphism (arrow images = arrow + longer terms)."""
    quiver, fld = phi.quiver, phi.field
    for a in quiver.arrows:
        img = phi.images[a.name]
        arrow_path = Path(a.source, a.target, (a.name,))
        if img.coefficient(arrow_path, fld) != fld.one:
            raise TransformError("not unipotent: coefficient of %s in its image "
                                 "is not 1" % a.name)
        for p, _ in img.terms:
            if p != arrow_path and len(p) <= 1:
                raise TransformError("not unipotent: image of %s has the "
                                     "length-1 term %s" % (a.name, p))

    def delta(rel):
        return add_relations(quiver, fld, phi.apply_to_relation(rel),
                             scale_relation(quiver, fld, fld.neg(fld.one), rel))

    images = {}
    for a in quiver.arrows:
        base = relation_of_path(quiver, fld, Path(a.source, a.target, (a.name,)))
        power = delta(base)
        acc = Relation(a.source, a.target, ())
        l = 1
        while not power.is_zero:
            if fld.char and l >= fld.char:
                raise TransformError(
                    "logarithm needs 1/%d which does not exist in char %d"
                    % (l, fld.char))
            sign = fld.one if l % 2 == 1 else fld.neg(fld.one)
            acc = add_relations(quiver, fld, acc,
                                scale_relation(quiver, fld,
                                               fld.div(sign, fld.scalar(l)), power))
            power = delta(power)
            l += 1
        images[a.name] = acc
    return Derivation(quiver, fld, images)


def match_by_dilatation(a: Ideal, b: Ideal):
    """A dilatation D with D(a) = b, or None.

    A dilatation keeps leading paths and supports of echelon bases, so
    matching reduces to a system of monomial equations in the arrow
    scales, solved through the Smith normal form of the exponent matrix.
    """
    if a.quiver != b.quiver or a.field != b.field:
        raise TransformError("ideals live on different quivers or fields")
    quiver, fld = a.quiver, a.field
    narrows = len(quiver.arrows)

    def exponents(path):
        row = [0] * narrows
        for name in path.arrows:
            row[quiver.arrow_index(name)] += 1
        return row

    rows = []
    rhs = []
    keys = set(a.hom_pairs()) | set(b.hom_pairs())
    for x, y in sorted(keys, key=lambda k: (quiver.vertices.index(k[0]),
                                            quiver.vertices.index(k[1]))):
        ga = a.groebner_basis(x, y)
        gb = b.groebner_basis(x, y)
        if len(ga) != len(gb):
            return None
        for ra, rb in zip(ga, gb):
            if ra.support() != rb.support():
                return None
            lead = ra.support()[-1]
            lead_exp = exponents(lead)
            for p, ca in ra.terms:
                cb = rb.coefficient(p, fld)
                rows.append([e - f for e, f in zip(exponents(p), lead_exp)])
                rhs.append(fld.div(cb, ca))

    solution = _solve_monomial_system(fld, rows, rhs, narrows)
    if solution is None:
        return None
    scales = [(quiver.arrows[i].name, solution[i]) for i in range(narrows)
              if solution[i] != fld.one]
    dil = Dilatation(tuple(scales))
    if not ideals_equal(apply_automorphism(dil, a), b):
        return None
    return dil


def _solve_monomial_system(fld: Field, rows, rhs, nvars):
    """Solve prod_j x_j^{A[i][j]} = rhs[i] for nonzero field elements x.

    The Smith form U * A * V = D turns the system, with x = V z, into
    z_i^{d_i} = s_i, where s is rhs under the row operations of U
    replayed multiplicatively.
    """
    if not rows:
        return [fld.one] * nvars
    ops = []
    diag, v = smith_normal_form(rows, ops)
    s = list(rhs)
    for dst, src, c in ops:
        if c is None:
            s[dst], s[src] = s[src], s[dst]
        else:
            s[dst] = fld.mul(s[dst], fld.pow(s[src], c))
    z = [fld.one] * nvars
    for i, si in enumerate(s):
        if i < len(diag):
            z[i] = fld.nth_root(si, diag[i])
            if z[i] is None:
                return None
        elif si != fld.one:
            return None
    x = []
    for row in v:
        val = fld.one
        for zi, e in zip(z, row):
            val = fld.mul(val, fld.pow(zi, e))
        x.append(val)
    return x

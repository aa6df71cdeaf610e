"""Finite acyclic quivers, their paths and walks, and the bypass structure.

Conventions: a path stores its arrows in application order (first arrow
applied first); the printed form lists them the other way around, so the
path that applies b, then c, then d prints as ``d*c*b``.  All canonical
orderings derive from declaration order of vertices and arrows, never
from lexicography of the ids themselves, so renaming ids never changes
any result.

Each ``Quiver`` indexes itself once, at construction: names, arrow
positions and in/out adjacency.  It also owns the caches of the
functions below that depend on it alone (``enumerate_paths``, the
hom-sets of ``paths_between`` and their layout in ``hom_layout``, the
composition tables of ``path_tables``, ``longest_path_length`` and a
memo of ``path_key``), filled on first use.  The caches live and die
with the quiver, so a cover quiver that is dropped takes its paths
with it.  A path's number is its position in ``enumerate_paths``;
ideals, automorphisms and the homotopy relation key their sparse
vectors by it.
"""

from __future__ import annotations

from .errors import QuiverError
from .records import FrozenRecord

FORWARD = 1
INVERSE = -1


class Arrow(FrozenRecord):
    _fields = ("name", "source", "target")

    def __init__(self, name: str, source: str, target: str):
        setattr_ = object.__setattr__
        setattr_(self, "name", name)
        setattr_(self, "source", source)
        setattr_(self, "target", target)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return ((self.name, self.source, self.target)
                    == (other.name, other.source, other.target))
        return NotImplemented

    def __hash__(self):
        return hash((self.name, self.source, self.target))


class Quiver(FrozenRecord):
    """A finite quiver without oriented cycles."""

    _fields = ("name", "vertices", "arrows")

    def __init__(self, name: str, vertices: tuple, arrows: tuple):
        setattr_ = object.__setattr__
        setattr_(self, "name", name)
        setattr_(self, "vertices", tuple(vertices))
        setattr_(self, "arrows", tuple(arrows))
        seen = set()
        for v in self.vertices:
            if v in seen:
                raise QuiverError("duplicate vertex id %r" % v)
            seen.add(v)
        by_name = {}
        outgoing = {v: [] for v in self.vertices}
        incoming = {v: [] for v in self.vertices}
        for a in self.arrows:
            if a.name in by_name or a.name in seen:
                raise QuiverError("duplicate id %r" % a.name)
            by_name[a.name] = a
            if a.source not in seen:
                raise QuiverError("arrow %r has dangling source %r" % (a.name, a.source))
            if a.target not in seen:
                raise QuiverError("arrow %r has dangling target %r" % (a.name, a.target))
            outgoing[a.source].append(a)
            incoming[a.target].append(a)
        index = {a.name: i for i, a in enumerate(self.arrows)}
        setattr_(self, "_by_name", by_name)
        setattr_(self, "_index", index)
        setattr_(self, "_out", {v: tuple(arrs) for v, arrs in outgoing.items()})
        setattr_(self, "_in", {v: tuple(arrs) for v, arrs in incoming.items()})
        setattr_(self, "_hash", hash((self.name, self.vertices, self.arrows)))
        # filled on first use by enumerate_paths (for paths_between and
        # path_tables too), hom_layout, longest_path_length, path_key and
        # homotopy.spanning_tree (one tree per base point)
        setattr_(self, "_paths", None)
        setattr_(self, "_homs", None)
        setattr_(self, "_layout", None)
        setattr_(self, "_tables", None)
        setattr_(self, "_longest", None)
        setattr_(self, "_keys", {})
        setattr_(self, "_trees", {})
        self._check_acyclic()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return ((self.name, self.vertices, self.arrows)
                    == (other.name, other.vertices, other.arrows))
        return NotImplemented

    def __hash__(self):
        return self._hash

    def _check_acyclic(self):
        state = {}

        def visit(v, stack):
            state[v] = "open"
            stack.append(v)
            for w in (a.target for a in self._out[v]):
                if state.get(w) == "open":
                    cycle = stack[stack.index(w):] + [w]
                    raise QuiverError("oriented cycle through %s" % " -> ".join(cycle))
                if w not in state:
                    visit(w, stack)
            stack.pop()
            state[v] = "done"

        for v in self.vertices:
            if v not in state:
                visit(v, [])

    # -- lookups ---------------------------------------------------------

    def arrow(self, name: str) -> Arrow:
        try:
            return self._by_name[name]
        except KeyError:
            raise QuiverError("no arrow named %r in quiver %r"
                              % (name, self.name)) from None

    def has_vertex(self, v) -> bool:
        return v in self._out

    def arrow_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise QuiverError("no arrow named %r in quiver %r"
                              % (name, self.name)) from None

    def arrows_from(self, v):
        """Arrows with source v, in declaration order."""
        return self._out.get(v, ())

    def arrows_into(self, v):
        """Arrows with target v, in declaration order."""
        return self._in.get(v, ())

    def is_connected(self) -> bool:
        if not self.vertices:
            return True
        adj = {v: [] for v in self.vertices}
        for a in self.arrows:
            adj[a.source].append(a.target)
            adj[a.target].append(a.source)
        seen = {self.vertices[0]}
        todo = [self.vertices[0]]
        while todo:
            v = todo.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
        return len(seen) == len(self.vertices)


class Path(FrozenRecord):
    """An oriented path; ``arrows`` in application order, possibly empty."""

    _fields = ("source", "target", "arrows")

    def __init__(self, source: str, target: str, arrows: tuple):
        setattr_ = object.__setattr__
        setattr_(self, "source", source)
        setattr_(self, "target", target)
        setattr_(self, "arrows", arrows)
        # paths key every hot dictionary in the ideal layer
        setattr_(self, "_hash", hash((source, target, arrows)))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return ((self.source, self.target, self.arrows)
                    == (other.source, other.target, other.arrows))
        return NotImplemented

    def __hash__(self):
        return self._hash

    def __len__(self):
        return len(self.arrows)

    @property
    def is_trivial(self):
        return not self.arrows

    def to_text(self) -> str:
        if not self.arrows:
            return "e_%s" % self.source
        return "*".join(reversed(self.arrows))

    def __str__(self):
        return self.to_text()


def trivial_path(quiver: Quiver, x) -> Path:
    if not quiver.has_vertex(x):
        raise QuiverError("no vertex %r" % (x,))
    return Path(x, x, ())


def make_path(quiver: Quiver, arrow_names) -> Path:
    """Build a path from arrow names in application order."""
    arrow_names = tuple(arrow_names)
    if not arrow_names:
        raise QuiverError("a path needs at least one arrow; use trivial_path")
    arrows = [quiver.arrow(n) for n in arrow_names]
    for first, second in zip(arrows, arrows[1:]):
        if second.source != first.target:
            raise QuiverError(
                "arrows %s and %s do not compose" % (first.name, second.name))
    return Path(arrows[0].source, arrows[-1].target, arrow_names)


def compose_paths(quiver: Quiver, later: Path, earlier: Path) -> Path:
    """The path "later after earlier" (written later*earlier)."""
    if earlier.target != later.source:
        raise QuiverError("paths do not compose: %s then %s" % (earlier, later))
    return Path(earlier.source, later.target, earlier.arrows + later.arrows)


def path_key(quiver: Quiver, path: Path):
    """Canonical total order: length, then lex on the written form.

    Memoised on the quiver, so a caller that keeps many keys shares one
    tuple per path; ``hom_layout`` holds the same keys by path number.
    """
    key = quiver._keys.get(path)
    if key is None:
        idx = quiver._index
        key = (len(path.arrows), tuple(idx[a] for a in reversed(path.arrows)))
        quiver._keys[path] = key
    return key


class Walk(FrozenRecord):
    """An unoriented path: letters are (arrow name, FORWARD|INVERSE)."""

    _fields = ("source", "target", "letters")

    def __init__(self, source: str, target: str, letters: tuple):
        setattr_ = object.__setattr__
        setattr_(self, "source", source)
        setattr_(self, "target", target)
        setattr_(self, "letters", letters)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return ((self.source, self.target, self.letters)
                    == (other.source, other.target, other.letters))
        return NotImplemented

    def __hash__(self):
        return hash((self.source, self.target, self.letters))

    def __len__(self):
        return len(self.letters)

    def inverse(self) -> "Walk":
        return Walk(self.target, self.source,
                    tuple((a, -d) for a, d in reversed(self.letters)))

    def to_text(self) -> str:
        if not self.letters:
            return "e_%s" % self.source
        parts = []
        for name, d in reversed(self.letters):
            parts.append(name if d == FORWARD else name + "^-1")
        return "*".join(parts)

    def __str__(self):
        return self.to_text()


def trivial_walk(quiver: Quiver, x) -> Walk:
    if not quiver.has_vertex(x):
        raise QuiverError("no vertex %r" % (x,))
    return Walk(x, x, ())


def make_walk(quiver: Quiver, letters) -> Walk:
    """Build a walk from (arrow name, direction) letters in application order."""
    letters = tuple(letters)
    if not letters:
        raise QuiverError("a walk needs at least one letter; use trivial_walk")
    ends = []
    for name, d in letters:
        a = quiver.arrow(name)
        if d == FORWARD:
            ends.append((a.source, a.target))
        elif d == INVERSE:
            ends.append((a.target, a.source))
        else:
            raise QuiverError("bad letter direction %r" % (d,))
    for (_, t1), (s2, _) in zip(ends, ends[1:]):
        if t1 != s2:
            raise QuiverError("walk letters do not chain")
    return Walk(ends[0][0], ends[-1][1], letters)


def walk_of_path(path: Path) -> Walk:
    return Walk(path.source, path.target,
                tuple((a, FORWARD) for a in path.arrows))


class Bypass(FrozenRecord):
    """An arrow together with a distinct parallel path."""

    _fields = ("arrow", "path")

    def __init__(self, arrow: str, path: Path):
        setattr_ = object.__setattr__
        setattr_(self, "arrow", arrow)
        setattr_(self, "path", path)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.arrow, self.path) == (other.arrow, other.path)
        return NotImplemented

    def __hash__(self):
        return hash((self.arrow, self.path))


def enumerate_paths(quiver: Quiver):
    """All paths of the quiver, sorted by the canonical total order.

    Computed once per quiver, with the hom-sets of ``paths_between``
    and the tables of ``path_tables``.  The paths of length n + 1 come
    out in canonical order: for each arrow a in declaration order, the
    paths of length n into the source of a, in order, followed by a.
    """
    if quiver._paths is None:
        vertex = {x: i for i, x in enumerate(quiver.vertices)}
        paths = [trivial_path(quiver, x) for x in quiver.vertices]
        head = [None] * len(paths)
        tail = [None] * len(paths)
        after = {a.name: {} for a in quiver.arrows}
        before = {a.name: {} for a in quiver.arrows}
        level = {x: [i] for x, i in vertex.items()}  # newest paths, by target
        while level:
            grown = {}
            for a in quiver.arrows:
                ext = after[a.name]
                for i in level.get(a.source, ()):
                    p = paths[i]
                    j = len(paths)
                    paths.append(Path(p.source, a.target, p.arrows + (a.name,)))
                    # tail(p then a) = tail(p) then a, numbered a level ago
                    t = ext[tail[i]] if p.arrows else vertex[a.target]
                    head.append(i)
                    tail.append(t)
                    ext[i] = j
                    before[p.arrows[0] if p.arrows else a.name][t] = j
                    grown.setdefault(a.target, []).append(j)
            level = grown
        homs = {}
        for p in paths:
            homs.setdefault((p.source, p.target), []).append(p)
        object.__setattr__(quiver, "_homs",
                           {k: tuple(v) for k, v in homs.items()})
        object.__setattr__(quiver, "_tables", (
            {p: i for i, p in enumerate(paths)}, after, before,
            tuple(head), tuple(tail)))
        object.__setattr__(quiver, "_paths", tuple(paths))
    return quiver._paths


def path_tables(quiver: Quiver):
    """``(index, after, before, head, tail)`` on the path numbers.

    ``index[p]`` numbers path p.  For the path p_i numbered i and arrow
    name a, ``after[a][i]`` numbers p_i followed by a, ``before[a][i]``
    a followed by p_i, and ``head[i]`` and ``tail[i]`` p_i without its
    last and its first arrow (None for a trivial path).
    """
    if quiver._tables is None:
        enumerate_paths(quiver)
    return quiver._tables


def paths_between(quiver: Quiver, x, y):
    """Paths from x to y in canonical order (the hom-pair basis)."""
    if quiver._homs is None:
        enumerate_paths(quiver)
    return quiver._homs.get((x, y), ())


def hom_layout(quiver: Quiver):
    """``(homs, where, at)``: one ``(paths, numbers, keys)`` per (x, y) in
    vertex order, the paths of ``paths_between``, their path numbers and
    their ``path_key`` values; ``where[p]`` and ``at[n]``, the (hom
    index, position) of path p and of the path numbered n.  Computed
    once per quiver; the homotopy relations of its ideals all read it.

    The keys are built on the path numbers: the key word of path n is
    the arrow index of its last arrow followed by the key word of
    ``head[n]`` (``path_tables``), so no key is looked up by path."""
    if quiver._layout is None:
        paths = enumerate_paths(quiver)
        index, _, _, head, _ = path_tables(quiver)
        arrow = quiver._index
        words = []
        for p, h in zip(paths, head):
            words.append(() if h is None else (arrow[p.arrows[-1]],) + words[h])
        homs = []
        where = {}
        at = [None] * len(paths)
        for x in quiver.vertices:
            for y in quiver.vertices:
                hom = paths_between(quiver, x, y)
                numbers = tuple(index[p] for p in hom)
                for i, (p, n) in enumerate(zip(hom, numbers)):
                    where[p] = at[n] = (len(homs), i)
                homs.append((hom, numbers, tuple(
                    (len(words[n]), words[n]) for n in numbers)))
        object.__setattr__(quiver, "_layout", (tuple(homs), where, tuple(at)))
    return quiver._layout


def longest_path_length(quiver: Quiver) -> int:
    if quiver._longest is None:
        object.__setattr__(quiver, "_longest", max(
            (len(p) for p in enumerate_paths(quiver)), default=0))
    return quiver._longest


def find_bypasses(quiver: Quiver):
    """All bypasses (arrow, parallel path != the arrow), deterministic order."""
    out = []
    for a in quiver.arrows:
        for p in paths_between(quiver, a.source, a.target):
            if p.arrows == (a.name,) or p.is_trivial:
                continue
            out.append(Bypass(a.name, p))
    return out


def find_double_bypasses(quiver: Quiver):
    """All pairs of bypasses ((a,u),(b,v)) where b is an arrow of u."""
    bypasses = find_bypasses(quiver)
    out = []
    for b1 in bypasses:
        for b2 in bypasses:
            if b2.arrow in b1.path.arrows:
                out.append((b1, b2))
    return out

"""The homotopy relation on walks, fundamental groups, and the tri-state
homotopy decision procedure.

A positive answer comes with a replayable chain of elementary moves or,
for a finite fundamental group, its completed coset action; a negative
one with distinct reduced walks in a free fundamental group, a nonzero
image in the abelianization or a nontrivial coset action.  Whatever
cannot be certified either way within the caps is reported Unknown.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Mapping
from functools import cached_property
from itertools import combinations, repeat
from operator import add

from . import coset
from .disjoint_sets import DisjointSets
from .errors import HomotopyError, UnresolvedError
from .ideal import Ideal
from .quiver import (FORWARD, INVERSE, Quiver, Walk, longest_path_length,
                     enumerate_paths, hom_layout, path_tables,
                     paused_collector, walk_of_path)
from .records import FrozenRecord
from .snf import RowLattice

HOMOTOPIC = "homotopic"
NOT_HOMOTOPIC = "not-homotopic"
UNKNOWN = "unknown"

DEFAULT_MAX_STATES = 40_000


class MoveStep(FrozenRecord):
    """One elementary move of a homotopy chain.

    kind "delete": remove the cancelling pair at letter index ``position``;
    kind "insert": insert the two ``data`` letters at ``position``;
    kind "replace": substitute ``data[1]`` for the occurrence of
    ``data[0]`` at ``position``.  ``result`` is the walk after the move.
    """

    _fields = ("kind", "position", "data", "result")

    def __init__(self, kind: str, position: int, data: tuple, result: Walk):
        setattr_ = object.__setattr__
        setattr_(self, "kind", kind)
        setattr_(self, "position", position)
        setattr_(self, "data", data)
        setattr_(self, "result", result)

    def apply_to(self, walk: Walk) -> Walk:
        letters = walk.letters
        i = self.position
        if self.kind == "delete":
            a, b = letters[i], letters[i + 1]
            if a[0] != b[0] or a[1] != -b[1]:
                raise HomotopyError("delete step does not match a cancelling pair")
            new = letters[:i] + letters[i + 2:]
        elif self.kind == "insert":
            new = letters[:i] + self.data + letters[i:]
        elif self.kind == "replace":
            src, dst = self.data
            if letters[i:i + len(src)] != src:
                raise HomotopyError("replace step does not match the walk")
            new = letters[:i] + dst + letters[i + len(src):]
        else:
            raise HomotopyError("unknown move kind %r" % self.kind)
        return Walk(walk.source, walk.target, new)


class Decision(FrozenRecord):
    """Outcome of a homotopy query.

    For a homotopic pair, ``chain`` replays elementary moves from u to v;
    it is None when the positive answer was certified through a completed
    coset action instead (finite fundamental group); the certificate gives
    its order and the chord word of u * v^-1.  For an Unknown pair, ``cap``
    names the cap that ended the search: "max_states" or "walk_length";
    ``coset_cap`` is the coset cap (``coset.DEFAULT_MAX_COSETS``) when the
    coset enumeration was tried and stopped there, else None.
    """

    _fields = ("status", "chain", "certificate", "cap", "coset_cap")

    def __init__(self, status: str, chain: tuple | None = (),
                 certificate: dict | None = None, cap: str | None = None,
                 coset_cap: int | None = None):
        setattr_ = object.__setattr__
        setattr_(self, "status", status)
        setattr_(self, "chain", chain)
        setattr_(self, "certificate", certificate)
        setattr_(self, "cap", cap)
        setattr_(self, "coset_cap", coset_cap)

    @property
    def is_homotopic(self):
        return self.status == HOMOTOPIC

    @property
    def is_not_homotopic(self):
        return self.status == NOT_HOMOTOPIC

    @property
    def is_unknown(self):
        return self.status == UNKNOWN


class GroupPresentation(FrozenRecord):
    """Chord generators and relator words.  A word (``reduce_word``) on
    the generators has letter i for generator i (1-based).  ``exponents``
    counts a word's net exponent on each generator; the relators' rows
    span ``lattice``, and ``image`` of a word is the lattice image of its
    exponents, its class in the abelianization."""

    _fields = ("generators", "relators")

    def __init__(self, generators: tuple, relators: tuple):
        setattr_ = object.__setattr__
        setattr_(self, "generators", generators)
        setattr_(self, "relators", relators)

    def exponents(self, word):
        n = len(self.generators)
        row = [0] * n
        for c in word:
            if not isinstance(c, int) or not 0 < abs(c) <= n:
                raise HomotopyError("letter %r names none of the %d "
                                    "generators" % (c, n))
            row[abs(c) - 1] += 1 if c > 0 else -1
        return row

    def exponent_rows(self):
        return [self.exponents(rel) for rel in self.relators]

    def image(self, word):
        return self.lattice.image(self.exponents(word))

    @cached_property
    def lattice(self) -> RowLattice:
        """The lattice spanned by the exponent rows, built on first use."""
        return RowLattice(self.exponent_rows(), len(self.generators))

    @cached_property
    def abelian_invariants(self):
        """(free rank, (d1, d2, ...)) of the abelianized group."""
        return self.lattice.invariants()


def reduce_word(word):
    """The free reduction of a word: a tuple of nonzero ints, a letter's
    inverse being its negation, as in coded walks and chord words."""
    out = []
    for c in word:
        if out and out[-1] == -c:
            out.pop()
        else:
            out.append(c)
    return tuple(out)


def invert_word(word):
    return tuple(-c for c in reversed(word))


def cancel_join(u, v):
    """The word u * v, reduced, for reduced words u and v: letters cancel
    only at the join."""
    n = len(u)
    k = 0
    while k < n and k < len(v) and u[n - 1 - k] == -v[k]:
        k += 1
    return u[:n - k] + v[k:]


def conjugate(loop, c):
    """The reduced word c^-1 * loop * c, for a reduced word loop."""
    loop = loop[1:] if loop and loop[0] == c else (-c,) + loop
    return loop[:-1] if loop and loop[-1] == -c else loop + (c,)


class SpanningTree:
    """BFS tree over the underlying graph, edges in declaration order;
    ``chord_index`` numbers the arrows off it, the chords, from 1.

    ``spanning_tree`` builds one per (quiver, base point), and every
    relation there reads it: the alphabet of coded walks (``letter_codes``)
    and its tables on the path numbers, ``path_words`` and
    ``extensions``, each made on first read."""

    def __init__(self, quiver: Quiver, x0):
        self.quiver = quiver
        self.x0 = x0
        parent = {x0: None}
        queue = deque([x0])
        in_tree = set()
        while queue:
            v = queue.popleft()
            for a in quiver.arrows:
                if a.source == v and a.target not in parent:
                    parent[a.target] = (a.name, FORWARD)
                    in_tree.add(a.name)
                    queue.append(a.target)
                elif a.target == v and a.source not in parent:
                    parent[a.source] = (a.name, INVERSE)
                    in_tree.add(a.name)
                    queue.append(a.source)
        if len(parent) != len(quiver.vertices):
            missing = [v for v in quiver.vertices if v not in parent]
            raise HomotopyError("quiver is not connected; unreachable: %s"
                                % ", ".join(missing))
        self._parent = parent
        self.chords = tuple(a.name for a in quiver.arrows
                            if a.name not in in_tree)
        self.chord_index = {c: i for i, c in enumerate(self.chords, 1)}

    @cached_property
    def path_words(self):
        """The chord word of each path number (``quiver.path_tables``).  A
        path is a reduced walk of forward letters, so its word is its
        chords, last arrow first, all positive: the word of its ``head``,
        with the chord of its last arrow in front when that arrow is a
        chord."""
        index = self.chord_index
        paths = enumerate_paths(self.quiver)
        head = path_tables(self.quiver)[3]
        words = [()] * len(self.quiver.vertices)  # e_x, numbered first
        for n in range(len(words), len(paths)):
            c, word = index.get(paths[n].arrows[-1]), words[head[n]]
            words.append(word if c is None else (c,) + word)
        return tuple(words)

    @cached_property
    def extensions(self):
        """``(outs, ins)`` for the congruence closure: per vertex x, the
        ``after`` tables of ``path_tables`` of the arrows out of x and the
        ``before`` tables of the arrows into x."""
        quiver = self.quiver
        _, after, before = path_tables(quiver)[:3]
        outs = {x: [after[a.name] for a in quiver.arrows_from(x)]
                for x in quiver.vertices}
        ins = {x: [before[b.name] for b in quiver.arrows_into(x)]
               for x in quiver.vertices}
        return outs, ins

    def walk_from_root(self, v) -> Walk:
        letters = []
        cur = v
        while self._parent[cur] is not None:
            name, d = self._parent[cur]
            letters.append((name, d))
            a = self.quiver.arrow(name)
            cur = a.source if d == FORWARD else a.target
        letters.reverse()
        return Walk(self.x0, v, tuple(letters))

    def chord_loop(self, chord) -> Walk:
        """The reduced loop at the root through a chord: the tree walk to
        its source, the chord, off the tree, and the tree walk back."""
        a = self.quiver.arrow(chord)
        return Walk(self.x0, self.x0,
                    self.walk_from_root(a.source).letters + ((chord, FORWARD),)
                    + self.walk_from_root(a.target).inverse().letters)

    @cached_property
    def letter_codes(self):
        """The letter codes of coded walks, in application order: arrow k
        (1-based, in declaration order) forward is k and inverse is -k.
        Returns the maps code -> letter, letter -> code and code -> the
        vertex the letter ends at."""
        letters = {}
        ends = {}
        for k, a in enumerate(self.quiver.arrows, 1):
            letters[k], ends[k] = (a.name, FORWARD), a.target
            letters[-k], ends[-k] = (a.name, INVERSE), a.source
        codes = {letter: c for c, letter in letters.items()}
        return letters, codes, ends

    def encode(self, letters):
        """The coded word of the ``Walk`` letters."""
        codes = self.letter_codes[1]
        return tuple(codes[letter] for letter in letters)

    def walk_end(self, source, word):
        """The vertex at which the coded walk from source ends.  Raises
        HomotopyError when its first letter does not leave source or a
        letter does not start where the one before it ends."""
        if not word:
            return source
        ends = self.letter_codes[2]
        if ends[-word[0]] != source:
            raise HomotopyError("coded walk %r does not leave %s"
                                % (word, source))
        if not self._chained_pairs.issuperset(zip(word, word[1:])):
            raise HomotopyError("the letters of coded walk %r do not chain"
                                % (word,))
        return ends[word[-1]]

    @cached_property
    def _chained_pairs(self):
        """The pairs (c, d) of letter codes where letter d starts at the
        vertex where letter c ends."""
        ends = self.letter_codes[2]
        leaving = {}
        for d in ends:
            leaving.setdefault(ends[-d], []).append(d)
        return frozenset((c, d) for c in ends for d in leaving[ends[c]])

    def decode(self, source, word) -> Walk:
        """The walk from source with the coded word."""
        letters, _, ends = self.letter_codes
        return Walk(source, ends[word[-1]] if word else source,
                    tuple(letters[c] for c in word))

    @cached_property
    def _chord_codes(self):
        """Letter code -> chord letter, 0 for a tree arrow."""
        index = self.chord_index
        return {c: index.get(name, 0) * d
                for c, (name, d) in self.letter_codes[0].items()}

    def chord_word(self, word):
        """Image of a reduced coded walk under the retraction onto the
        chords, a reduced word with chord i forward i and inverse -i.

        Words are stored in composition order (leftmost letter applied
        last), so concatenation of walks maps to concatenation of words.
        It is reduced: between a chord letter and its inverse would lie a
        reduced tree walk from a vertex to itself, an empty one.
        """
        return tuple(filter(None, map(self._chord_codes.__getitem__,
                                      reversed(word))))


class HomotopyRelation:
    """The homotopy relation of a bound quiver presentation.

    Constructing one always builds a fresh relation; ``homotopy_relation``
    hands out the one kept on the ideal.  The relation is kept as a
    partition of each hom-set into classes with a table of statuses
    between classes (see ``_fingerprint``).  ``fingerprint`` is a
    read-only mapping view over it, from every pair (u, v) of parallel
    paths, u before v in the canonical order, to its status.
    """

    def __init__(self, ideal: Ideal, x0=None):
        self.ideal = ideal
        self.quiver = ideal.quiver
        if x0 is None:
            x0 = self.quiver.vertices[0]
        if not self.quiver.has_vertex(x0):
            raise HomotopyError("no vertex %r" % (x0,))
        self.base_point = x0
        self.default_cap = 2 * longest_path_length(self.quiver) + 4

        self.tree = spanning_tree(self.quiver, x0)
        self.pair_numbers = ideal.support_pairs()  # see generating_pairs
        self.presentation = self._presentation()
        self._path_classes = self._congruence_closure()
        self._homs = self._fingerprint()
        _, self._where, self._at = hom_layout(self.quiver)
        self._key = None  # see fingerprint_key

    @property
    def fingerprint(self):
        return _FingerprintView(self)

    # -- construction ------------------------------------------------------

    @cached_property
    def generating_pairs(self):
        """``pair_numbers``, the pairs of path numbers of
        ``Ideal.support_pairs`` that the relation is built on, as ``Path``
        pairs, made on first read."""
        paths = enumerate_paths(self.quiver)
        return tuple((paths[i], paths[j]) for i, j in self.pair_numbers)

    def _presentation(self):
        """The chord presentation of pi1: one relator, the chord word of
        u * v^-1, per generating pair whose chord words differ.  Path
        words (``SpanningTree.path_words``) are all positive, so u's word
        cancels v's inverted word at the join only."""
        words = self.tree.path_words
        relators = []
        for i, j in self.pair_numbers:
            word = cancel_join(words[i], invert_word(words[j]))
            if word:
                relators.append(word)
        return GroupPresentation(self.tree.chords, tuple(relators))

    def _replacement_patterns(self):
        patterns = []
        seen = set()
        for u, v in self.generating_pairs:
            fu = walk_of_path(u).letters
            fv = walk_of_path(v).letters
            iu = walk_of_path(u).inverse().letters
            iv = walk_of_path(v).inverse().letters
            for src, dst in ((fu, fv), (fv, fu), (iu, iv), (iv, iu)):
                if src != dst and (src, dst) not in seen:
                    seen.add((src, dst))
                    patterns.append((src, dst))
        return tuple(patterns)

    def _congruence_closure(self):
        """Union-find over paths: generating pairs, closed under composition
        with arrows and under cancellation of a shared first or last arrow
        (both derivable because the relation on walks is compatible with
        concatenation).

        A pending-list closure (Downey, Sethi and Tarjan 1980): only a
        pair whose union merged two classes is extended by the arrows on
        either side.  Extending the merged pair suffices, because each
        class already has its members' extensions in one class.
        Cancellation needs more than the merged pair: two members that
        share a first arrow may both differ from it.  So each class keeps
        one member per first arrow and one per last arrow.  When two
        classes merge, the tails of their members with the same first
        arrow, and the heads of those with the same last arrow, are
        queued; within each class they are already equivalent.

        It runs on path numbers, through the tables of ``path_tables``,
        listed per vertex in ``SpanningTree.extensions``.  Returns the root
        number of each path number.
        """
        quiver = self.quiver
        paths = enumerate_paths(quiver)
        head, tail = path_tables(quiver)[3:]
        outs, ins = self.tree.extensions
        sets = DisjointSets(range(len(paths)))
        union = sets.union
        by_first = [{p.arrows[0]: i} if p.arrows else {}
                    for i, p in enumerate(paths)]
        by_last = [{p.arrows[-1]: i} if p.arrows else {}
                   for i, p in enumerate(paths)]

        pending = list(self.pair_numbers)
        while pending:
            i, j = pending.pop()
            merged = union(i, j)
            if merged is None:
                continue
            rp, rq = merged
            p = paths[i]
            for m in outs[p.target]:
                pending.append((m[i], m[j]))
            for m in ins[p.source]:
                pending.append((m[i], m[j]))
            for table, cancel in ((by_first, tail), (by_last, head)):
                kept = table[rq]
                for a, u in table[rp].items():
                    w = kept.setdefault(a, u)
                    if w != u:
                        pending.append((cancel[u], cancel[w]))
                table[rp] = None
        return [sets.find(i) for i in range(len(paths))]

    def _fingerprint(self):
        """The status of every pair of parallel paths, decided once per
        pair of congruence classes of a hom-set and kept as a partition.

        It runs on the path numbers of ``quiver.hom_layout``, classes
        keyed by root number.  Paths of one class are Homotopic.  The
        abelian image of u * v^-1 is the difference of the images
        (``GroupPresentation.image``) of the chord words of u and of v
        in ``SpanningTree.path_words``, one per class, computed only on
        a hom-set with two or more classes: classes with different
        images are Not-homotopic, the verdict an abelianization
        certificate gives any of their member pairs.  For classes with
        equal images, ``decide`` runs on member pairs in (u, v) order
        until one answer is not Unknown, and that answer holds for the
        pair of classes.  If any is Homotopic, the Homotopic pairs of
        classes of the hom-set are closed transitively: a pair inside a
        Homotopic root becomes Homotopic, or raises if it was certified
        Not-homotopic.

        Returns one ``(paths, labels, table)`` per (x, y) in vertex order:
        the paths of the hom-set in canonical order, the class number of
        each path (classes numbered by first member, a restricted-growth
        string; Knuth, TAOCP 4A, 7.2.1.5) and the symmetric table of
        statuses between classes.
        """
        roots = self._path_classes
        image, words = self.presentation.image, self.tree.path_words
        homs = []
        for paths, numbers, _ in hom_layout(self.quiver)[0]:
            members = {}  # class root -> positions, by first member
            for i, n in enumerate(numbers):
                members.setdefault(roots[n], []).append(i)
            if len(members) < 2:
                homs.append((paths, (0,) * len(paths),
                             ((HOMOTOPIC,),) * len(members)))
                continue
            label = {r: k for k, r in enumerate(members)}
            classes = list(members.values())
            images = [image(words[numbers[c[0]]]) for c in classes]
            table = [[HOMOTOPIC] * len(classes) for _ in classes]
            joined = []
            for a, b in combinations(range(len(classes)), 2):
                status = NOT_HOMOTOPIC
                if images[a] == images[b]:  # decided on one pair at least
                    for i, j in _member_pairs(classes[a], classes[b]):
                        status = self.decide(walk_of_path(paths[i]),
                                             walk_of_path(paths[j]),
                                             want_chain=False).status
                        if status != UNKNOWN:
                            break
                table[a][b] = table[b][a] = status
                if status == HOMOTOPIC:
                    joined.append((a, b))
            if joined:
                sets = DisjointSets(range(len(classes)))
                for a, b in joined:
                    sets.union(a, b)
                for a, b in combinations(range(len(classes)), 2):
                    if sets.find(a) == sets.find(b):
                        if table[a][b] == NOT_HOMOTOPIC:
                            raise HomotopyError(
                                "inconsistent homotopy certificates for the "
                                "classes of %s and %s"
                                % (paths[classes[a][0]], paths[classes[b][0]]))
                        table[a][b] = table[b][a] = HOMOTOPIC
            homs.append((paths, tuple(label[roots[n]] for n in numbers),
                         tuple(map(tuple, table))))
        return homs

    # -- queries -----------------------------------------------------------

    def pair_status(self, u, v) -> str:
        """Fingerprint classification of a parallel path pair, in either
        order: the table entry of the classes of u and v."""
        if u == v:
            return HOMOTOPIC
        index = path_tables(self.quiver)[0]
        i, j = index.get(u), index.get(v)
        if i is None or j is None:
            raise HomotopyError("pair (%s, %s) is not a parallel path pair"
                                % (u, v))
        return self.number_status(i, j)

    def number_status(self, i, j) -> str:
        """``pair_status`` of the paths numbered i and j
        (``quiver.path_tables``), read through the ``at`` table of
        ``quiver.hom_layout``."""
        (k, a), (l, b) = self._at[i], self._at[j]
        if k != l:
            paths = enumerate_paths(self.quiver)
            raise HomotopyError("pair (%s, %s) is not a parallel path pair"
                                % (paths[i], paths[j]))
        _, labels, table = self._homs[k]
        return table[labels[a]][labels[b]]

    def decide(self, u: Walk, v: Walk, cap=None, want_chain=True) -> Decision:
        """Tri-state decision for parallel walks u, v: the core of
        ``decide_words`` on their coded words, each encoded, checked and
        reduced once, with a Homotopic chain wrapped in the delete steps
        that reduce u (``_reduction_steps``) and the insertions that
        restore v.  Raises HomotopyError unless u and v are parallel and
        the letters of each, unreduced, chain from its source to its
        target."""
        if (u.source, u.target) != (v.source, v.target):
            raise HomotopyError("walks are not parallel: %s -> %s vs %s -> %s"
                                % (u.source, u.target, v.source, v.target))
        tree = self.tree
        words = []
        for walk in (u, v):
            word = tree.encode(walk.letters)
            if tree.walk_end(walk.source, word) != walk.target:
                raise HomotopyError("walk %s does not end at its target %s"
                                    % (walk, walk.target))
            words.append(reduce_word(word))
        decision = self._decide_words(u.source, words[0], words[1], cap,
                                      want_chain)
        if want_chain and decision.is_homotopic and decision.chain is not None:
            return Decision(HOMOTOPIC, _reduction_steps(u) + decision.chain
                            + _invert_steps(v, _reduction_steps(v)))
        return decision

    def decide_words(self, source, first, last, cap=None,
                     want_chain=True) -> Decision:
        """Tri-state decision for the reduced coded walks first and last
        (``SpanningTree.letter_codes``) from source to one vertex; a
        Homotopic chain runs between their walks.  Raises HomotopyError
        when a nonempty word does not leave source, its letters do not
        chain (``SpanningTree.walk_end``), a word is not freely reduced, or
        the two end at different vertices.

        ``cap`` bounds the length of the walks the search visits; only
        None stands for ``default_cap``, and the search lifts a cap below
        the lengths of first and last to those lengths.

        The certifiers, each tried only when those before it gave no
        verdict: 1. free; 2. abelianization; 3. coset action, when no
        chain is wanted; 4. search (``_bfs``); 5. coset action; 6. Unknown,
        with the cap that ended the search.  Past step 1 the chord word of
        the loop first * last^-1 is built once: its exponents and image
        (``GroupPresentation``) make the abelianization certificate, and
        the coset action reads the word.

        The coset action decides both ways once pi1 is enumerated within
        its cap, but its Homotopic answer has no chain, so the search
        comes first when a chain is wanted.  The table is enumerated
        once, so step 5 after step 3 would repeat it and is skipped; it
        is not enumerated at all when pi1 has free rank > 0.
        """
        walk_end = self.tree.walk_end
        for word in (first, last):
            if 0 in map(add, word, word[1:]):  # a code, then its negation
                raise HomotopyError("coded walk %r is not freely reduced"
                                    % (word,))
        if walk_end(source, first) != walk_end(source, last):
            raise HomotopyError("coded walks %r and %r end at different "
                                "vertices" % (first, last))
        return self._decide_words(source, first, last, cap, want_chain)

    def _decide_words(self, source, first, last, cap, want_chain):
        """``decide_words`` past its input checks, which ``decide`` makes
        on the unreduced walks instead."""
        tree = self.tree
        if cap is None:
            cap = self.default_cap

        if first == last:
            return Decision(HOMOTOPIC, ())

        if not self.presentation.relators:
            # no relations at all: distinct reduced walks are inequivalent
            cert = {"kind": "free", "reduced": (tree.decode(source, first),
                                                tree.decode(source, last))}
            return Decision(NOT_HOMOTOPIC, (), cert)

        chord_word = tree.chord_word
        word = cancel_join(chord_word(first), invert_word(chord_word(last)))
        exponents = self.presentation.exponents(word)
        image = self.presentation.lattice.image(exponents)
        if any(image):
            cert = {
                "kind": "abelianization",
                "loop_exponents": tuple(exponents),
                "image": tuple(image),
                "moduli": tuple(self.presentation.lattice.diag),
                "generators": self.presentation.generators,
            }
            return Decision(NOT_HOMOTOPIC, (), cert)

        if want_chain:
            found, stop = self._bfs(source, first, last, cap, True)
            if found is not None:
                return Decision(HOMOTOPIC, found)
        verdict = self._coset_verdict(word)
        if verdict is not None:
            return verdict
        if not want_chain:
            found, stop = self._bfs(source, first, last, cap, False)
            if found is not None:
                return Decision(HOMOTOPIC, ())
        tried = not self.presentation.abelian_invariants[0]  # see _cosets
        return Decision(UNKNOWN, cap=stop,
                        coset_cap=coset.DEFAULT_MAX_COSETS if tried else None)

    def _coset_verdict(self, word):
        """Full decision on the chord word of a loop u * v^-1 through the
        regular coset action, if it completed."""
        table = self._cosets
        if table is None:
            return None
        if table.is_nontrivial(word):
            cert = {"kind": "coset-action", "order": table.order, "word": word}
            return Decision(NOT_HOMOTOPIC, (), cert)
        cert = {"kind": "coset-trivial", "order": table.order, "word": word}
        return Decision(HOMOTOPIC, None, cert)

    @cached_property
    def _cosets(self):
        """The completed coset table of pi1, or None at the coset cap;
        enumerated on first use.  A completed table means pi1 is finite,
        so when the abelianization has free rank > 0 the enumeration is
        skipped and the answer is None."""
        gp = self.presentation
        if gp.abelian_invariants[0]:
            return None
        table = coset.enumerate_cosets(len(gp.generators), gp.relators)
        if table is not None and not table.verify(gp.relators):
            raise HomotopyError("coset table failed its consistency check")
        return table

    def _bfs(self, source, first, last, cap, want_chain):
        """Breadth-first search over reduced walks of length at most cap,
        from the coded reduced walk first to the coded reduced walk last,
        both from source.

        A move inserts a cyclic relator loop at a vertex of the walk and
        reduces (see ``_insertion_rules``).  A word is trivial in pi1
        exactly when it is a product of conjugates of relators
        (Lyndon and Schupp 1977, ch. IV), so these moves reach every
        homotopic walk and the search is complete up to the caps.

        The search runs on coded words (``SpanningTree.letter_codes``),
        and only the walks on the found path are decoded.  The moves,
        their order (rules in order, then visits in order) and the
        per-walk dedup are those of the loop-insertion search on
        ``Walk`` letters, so coding the letters changes neither the
        walks visited nor the chains returned.

        It runs level by level, and returns what a FIFO search that
        expands each walk in turn (``_rewrites``) returns.  Before a
        level is expanded, its walks are scanned in queue order for the
        first one that has the goal as a child, with the move that
        ``_rewrites`` yields the goal by (``_move_to``).  The FIFO search
        stops at that walk with that move, unless its cap check stops it
        first: before each walk it expands it gives up once more than
        ``DEFAULT_MAX_STATES`` walks are seen, and each walk ahead of the
        hit adds at most one seen walk per (rule, visit) pair.  So a hit
        is taken only while the walks seen plus those pairs are at most
        the cap.  A level with no hit so taken is expanded as the FIFO
        search would expand it.

        Returns ``(chain, None)``, with the elementary expansion of the
        found move sequence (``()`` when no chain is wanted), or
        ``(None, cap)`` naming the cap that ended the search:
        "max_states" once more than ``DEFAULT_MAX_STATES`` walks are
        seen, "walk_length" when no walk within the length cap is left.
        """
        cap = max(cap, len(first), len(last))
        ends = self.tree.letter_codes[2]
        anchored = self._rule_table[1]
        seen = {first: None}
        level = [first]
        while level:
            ahead = len(seen)
            for w in level:
                if ahead > DEFAULT_MAX_STATES:
                    break
                move = self._move_to(w, last)
                if move is not None:
                    seen[last] = (w, move)
                    return self._chain(source, seen, last, want_chain), None
                ahead += anchored[source] + sum(anchored[ends[c]] for c in w)
            queue = []
            for w in level:
                if len(seen) > DEFAULT_MAX_STATES:
                    return None, "max_states"
                for nxt, move in self._rewrites(source, w, cap):
                    if nxt in seen:
                        continue
                    seen[nxt] = (w, move)
                    if nxt == last:
                        return self._chain(source, seen, last, want_chain), None
                    queue.append(nxt)
            level = queue
        return None, "walk_length"

    def _chain(self, source, seen, last, want_chain):
        """The elementary expansion of the moves by which the search
        reached the coded walk last, or ``()`` when no chain is wanted."""
        if not want_chain:
            return ()
        moves = []
        while seen[last] is not None:
            moves.append(seen[last])
            last = moves[-1][0]
        chain = []
        for prev, move in reversed(moves):
            chain.extend(_expand_rewrite(self.tree.decode(source, prev),
                                         *move))
        return tuple(chain)

    @cached_property
    def _insertion_rules(self):
        """The moves of the search, built on first use: one
        ``(anchor vertex, loop, move)`` per pattern p -> q and cut
        p = y * x, where the loop is the coded reduced y^-1 * q * x^-1
        at the vertex between y and x, in pattern order then cut order,
        keeping the first of any repeated (vertex, loop).  The move
        ``(y, x, q)`` is kept in ``Walk`` letters for ``_expand_rewrite``.

        The loop of cut 0 is q * p^-1 (``cancel_join``), and moving the
        cut past the k-th letter c of p conjugates the loop by c
        (``conjugate``), so each cut costs one conjugation of words.  The
        anchor of cut 0 is the vertex p starts at, and that of a later cut
        the vertex the last letter of y ends at
        (``SpanningTree.letter_codes``).

        Inserting the loop at a visit of its anchor and reducing is the
        move "insert a cyclic relator loop at a vertex, then reduce".
        Substituting y^-1 * q * x^-1 for an occurrence of an inner piece
        s of p = y * s * x adds no move: it gives the same reduced walk
        as inserting the loop of the cut y | s * x just before that
        occurrence, since (s * x)^-1 ends in s^-1.  A repeated rule gives
        the same walks as its first copy.  As p != q, every loop is a
        nontrivial reduced word, so no insertion gives back the walk.
        """
        encode, ends = self.tree.encode, self.tree.letter_codes[2]
        rules = []
        seen = set()
        for psrc, pdst in self._replacement_patterns():
            p = encode(psrc)
            anchor = ends[-p[0]]
            loop = cancel_join(encode(pdst), invert_word(p))
            for cut in range(len(p) + 1):
                if cut:
                    c = p[cut - 1]
                    anchor = ends[c]
                    loop = conjugate(loop, c)
                if (anchor, loop) not in seen:
                    seen.add((anchor, loop))
                    rules.append((anchor, loop,
                                  (psrc[:cut], psrc[cut:], pdst)))
        return tuple(rules)

    def _rewrites(self, source, w, cap):
        """The distinct coded walks, other than the coded walk w from
        source and at most cap long, that one rule of
        ``_insertion_rules`` makes from w, each with its move
        ``(position, y, x, q)`` for ``_expand_rewrite``.

        w and the loop are reduced, so letters cancel only at the two
        joins, and once the loop is used up, across it between the
        letters of w on either side.  The cancellations are counted by
        index first, and only a result within the cap is built.

        This tries every (rule, visit) pair.  Whether one given walk is
        a child, and by which move it is first yielded, takes one loop
        per visit instead (``_move_to``); ``_bfs`` asks that before it
        expands a level.
        """
        ends = self.tree.letter_codes[2]
        visits = {source: [0]}
        for i, c in enumerate(w, 1):
            visits.setdefault(ends[c], []).append(i)
        n = len(w)
        produced = set()
        for anchor, loop, move in self._insertion_rules:
            at = visits.get(anchor)
            if at is None:
                continue
            m = len(loop)
            for i in at:
                # the result is w[:a] + loop[s:e] + w[b:]
                s = 0
                while s < m and s < i and w[i - 1 - s] == -loop[s]:
                    s += 1
                a, e, b = i - s, m, i
                while e > s and b < n and loop[e - 1] == -w[b]:
                    e -= 1
                    b += 1
                if e == s:
                    while a and b < n and w[a - 1] == -w[b]:
                        a -= 1
                        b += 1
                if a + e - s + n - b > cap:
                    continue
                new = w[:a] + loop[s:e] + w[b:]
                if new in produced:
                    continue
                produced.add(new)
                yield new, (i,) + move

    @cached_property
    def _rule_table(self):
        """The number of each rule of ``_insertion_rules`` by its loop,
        and the number of rules anchored at each vertex."""
        number = {}
        anchored = dict.fromkeys(self.quiver.vertices, 0)
        for k, (anchor, loop, _) in enumerate(self._insertion_rules):
            number[loop] = k
            anchored[anchor] += 1
        return number, anchored

    def _move_to(self, w, goal):
        """The move by which ``_rewrites`` first yields the coded walk
        goal from the coded walk w, or None when goal is not a child of w.

        Inserting the loop L at visit i and reducing gives goal exactly
        when L is the reduction of w[:i]^-1 * goal * w[i:]^-1, which is
        the loop goal * w^-1 at the source conjugated by w[:i].  So one
        conjugation by a letter per visit, with cancellation at the two
        ends only, lists every loop that would give goal.  A nonempty
        reduced loop starts at the vertex it is a loop at, so the loop
        alone names the rule, if any, and its anchor is the vertex of
        the visit.  ``_rewrites`` yields by rule, then by visit, so the
        first move is the one of the least (rule, visit).
        """
        number = self._rule_table[0]
        loop = cancel_join(goal, invert_word(w))
        hits = []
        for i in range(len(w) + 1):
            if i:
                loop = conjugate(loop, w[i - 1])
            rule = number.get(loop)
            if rule is not None:
                hits.append((rule, i))
        if not hits:
            return None
        rule, i = min(hits)
        return (i,) + self._insertion_rules[rule][2]


class _FingerprintView(Mapping):
    """The fingerprint of a relation as a read-only mapping: every pair
    (u, v) of parallel paths, u before v in the canonical order, to its
    status, in hom-set order.  It reads the partition and keeps no pairs
    of its own."""

    def __init__(self, h: HomotopyRelation):
        self._h = h

    def __len__(self):
        return sum(len(paths) * (len(paths) - 1) // 2
                   for paths, _, _ in self._h._homs)

    def __iter__(self):
        for paths, _, _ in self._h._homs:
            yield from combinations(paths, 2)

    def __getitem__(self, pair):
        where = self._h._where
        try:
            u, v = pair
            if where[u] < where[v]:
                return self._h.pair_status(u, v)
        except (KeyError, TypeError, ValueError, HomotopyError):
            pass
        raise KeyError(pair)


def _hom_pairs(paths, labels, table):
    """The pairs (u, v) of one hom-set, u before v, in lexicographic
    order, each with its status."""
    for pair, (a, b) in zip(combinations(paths, 2), combinations(labels, 2)):
        yield pair, table[a][b]


def _has_unknown(table):
    return any(UNKNOWN in row for row in table)


def _member_pairs(first, second):
    """The pairs (i, j), i < j, with one index in each of two disjoint
    ascending index lists, in lexicographic order."""
    in_second = set(second)
    for i in sorted(first + second):
        for j in first if i in in_second else second:
            if j > i:
                yield i, j


def _reduction_steps(walk: Walk):
    """Delete-steps taking a walk to its free reduction, each deleting the
    first cancelling pair of the walk before it.

    One pass left to right: the letters read so far, less those deleted,
    stay reduced on a stack, so the first cancelling pair of the current
    walk is the top of the stack and the next letter, if they cancel.
    """
    letters = walk.letters
    stack = []
    steps = []
    for k, letter in enumerate(letters):
        if stack and stack[-1][0] == letter[0] and stack[-1][1] == -letter[1]:
            stack.pop()
            nxt = Walk(walk.source, walk.target,
                       tuple(stack) + letters[k + 1:])
            steps.append(MoveStep("delete", len(stack), (), nxt))
        else:
            stack.append(letter)
    return tuple(steps)


def _invert_steps(original: Walk, steps):
    """Inverse of a delete-chain: insertions restoring ``original``."""
    befores = [original] + [st.result for st in steps[:-1]]
    return tuple(MoveStep("insert", st.position,
                          before.letters[st.position:st.position + 2], before)
                 for st, before in zip(reversed(steps), reversed(befores)))


def _expand_rewrite(before: Walk, i, y, x, pdst):
    """Elementary moves realizing one rewriting step.

    At position i, cancelling pairs build up y^-1*y in front and x*x^-1
    behind, so that the full pattern y+x appears and can be replaced by
    pdst; free reduction finishes.
    """
    steps = []
    cur = before
    k = len(y)
    l = len(x)
    for j in range(k, 0, -1):
        lj = y[j - 1]
        pair = ((lj[0], -lj[1]), lj)
        pos = i + (k - j)
        cur = Walk(cur.source, cur.target,
                   cur.letters[:pos] + pair + cur.letters[pos:])
        steps.append(MoveStep("insert", pos, pair, cur))
    base = i + 2 * k
    for j in range(1, l + 1):
        lj = x[j - 1]
        pair = (lj, (lj[0], -lj[1]))
        pos = base + (j - 1)
        cur = Walk(cur.source, cur.target,
                   cur.letters[:pos] + pair + cur.letters[pos:])
        steps.append(MoveStep("insert", pos, pair, cur))
    psrc = y + x
    pos = i + k
    if cur.letters[pos:pos + len(psrc)] != psrc:
        raise HomotopyError("rewrite expansion lost the pattern occurrence")
    cur = Walk(cur.source, cur.target,
               cur.letters[:pos] + pdst + cur.letters[pos + len(psrc):])
    steps.append(MoveStep("replace", pos, (psrc, pdst), cur))
    steps.extend(_reduction_steps(cur))
    return steps


def spanning_tree(quiver: Quiver, x0) -> SpanningTree:
    """The ``SpanningTree`` of the quiver at x0, built once per (quiver,
    base point) and kept on the quiver, so that the relations of all its
    ideals share the tree and its tables."""
    tree = quiver._trees.get(x0)
    if tree is None:
        tree = quiver._trees[x0] = SpanningTree(quiver, x0)
    return tree


@paused_collector
def homotopy_relation(ideal: Ideal, x0=None) -> HomotopyRelation:
    """The homotopy relation of (Q, I) based at x0 (by default the first
    vertex), built once per (ideal, base point) and kept on the ideal.

    Every caller gets the same object; ``HomotopyRelation(ideal, x0)``
    builds a fresh one.  The ideal holds the relation by object, not by
    value: an equal ideal built elsewhere builds its own.
    """
    if x0 is None:
        x0 = ideal.quiver.vertices[0]
    h = ideal._homotopy.get(x0)
    if h is None:
        h = ideal._homotopy[x0] = HomotopyRelation(ideal, x0)
    return h


EQUAL = "equal"
DIFFERENT = "different"


def relations_equal(h1: HomotopyRelation, h2: HomotopyRelation):
    """Compare fingerprints: (EQUAL, None) | (DIFFERENT, pair) | (UNKNOWN, pair).

    The pairs are walked in fingerprint order.  The witness of DIFFERENT
    is the first pair with two certified, different statuses; failing
    that, the witness of UNKNOWN is the first pair with an Unknown
    status on either side.  A hom-set with the same labels and table in
    both relations and no Unknown holds neither, so it is skipped."""
    if h1.quiver != h2.quiver:
        raise HomotopyError("homotopy relations live on different quivers")
    unknown_pair = None
    for hom1, hom2 in zip(h1._homs, h2._homs):
        if hom1[1:] == hom2[1:] and not _has_unknown(hom1[2]):
            continue
        for (pair, tag1), (_, tag2) in zip(_hom_pairs(*hom1), _hom_pairs(*hom2)):
            if UNKNOWN in (tag1, tag2):
                if unknown_pair is None:
                    unknown_pair = pair
                continue
            if tag1 != tag2:
                return (DIFFERENT, pair)
    if unknown_pair is not None:
        return (UNKNOWN, unknown_pair)
    return (EQUAL, None)


@paused_collector
def fingerprint_key(h: HomotopyRelation):
    """Canonical hashable form of a fully certified fingerprint: the
    pairs ((path_key(u), path_key(v)), status) in sorted order, computed
    once and kept on h.  A fingerprint with an Unknown pair raises
    ``UnresolvedError``, naming its first Unknown pair in hom-set order,
    on every call.

    The pairs are emitted in sorted order without a sort: for each u of
    ``enumerate_paths``, the later paths v of its hom-set.  Every u of a
    pair is nontrivial, since an acyclic quiver has only e_x from x to
    x, and nontrivial paths have distinct keys, so the pairs sort by u
    first and then by v within u's hom-set, which is canonical.  Keys
    and places are read by path number from ``quiver.hom_layout``, and
    each u's pairs are zipped in C, one status repeated for one class.
    """
    if h._key is None:
        for hom in h._homs:
            if _has_unknown(hom[2]):
                for (u, v), tag in _hom_pairs(*hom):
                    if tag == UNKNOWN:
                        raise UnresolvedError(
                            "fingerprint contains an Unknown pair (%s, %s)"
                            % (u, v))
        homs, _, at = hom_layout(h.quiver)
        items = []
        for k, i in at:
            keys = homs[k][2]
            _, labels, table = h._homs[k]
            if len(table) == 1:
                tags = repeat(table[0][0])
            else:
                tags = map(table[labels[i]].__getitem__, labels[i + 1:])
            items.extend(zip(zip(repeat(keys[i]), keys[i + 1:]), tags))
        h._key = tuple(items)
    return h._key

"""The quiver of homotopy relations of the presentations of an algebra.

Vertices are fingerprints of homotopy relations, each carrying the
representative ideals that realized it; there is an arrow between two
vertices when one relation is a direct successor of the other, witnessed
by a transvection.  Because an arrow's witnessing pair of ideals need
not involve the representative we happen to hold, exploration also hops
through alternate representatives of a vertex (the images that keep the
homotopy relation fixed) and probes from those too.
"""

from __future__ import annotations

from collections import Counter, deque

from .disjoint_sets import DisjointSets
from .errors import GammaError, QuiverError, UnresolvedError
from .fields import Field
from .homotopy import (HOMOTOPIC, NOT_HOMOTOPIC, UNKNOWN, HomotopyRelation,
                       fingerprint_key, homotopy_relation)
from .ideal import Ideal, ideals_equal
from .quiver import (Arrow, Bypass, Quiver, enumerate_paths, find_bypasses,
                     find_double_bypasses, longest_path_length, make_path,
                     path_tables)
from .records import Record
from .transform import (Transvection, apply_automorphism, as_path_automorphism,
                        match_by_dilatation)

DEFAULT_MAX_REPRESENTATIVES = 16
TAU_CAP = 32


def tau_schedule(fld: Field):
    """Probe values for transvection coefficients: five over Q, the
    nonzero elements of F_p up to ``TAU_CAP`` of them."""
    if fld.char == 0:
        return (fld.scalar(1), fld.scalar(-1), fld.scalar(2), fld.scalar(1, 2),
                fld.scalar(3))
    return tuple(fld.nonzero_elements(limit=TAU_CAP))


class _HomotopyCache:
    """Per-exploration intern table that makes equal ideals one ``Ideal``
    object, and one ``PathAutomorphism`` per distinct transvection, whose
    path images then serve every ideal it maps.  ``homotopy_relation``
    keeps a relation on the ideal object, so each distinct ideal of an
    exploration builds one relation, and later readers of the interned
    representatives (``check_surjection``, covers) build none.  Images
    are not kept: an exploration maps each (ideal, transvection) pair at
    most once, since each distinct ideal is probed once with distinct
    taus, and the successor and predecessor probes take disjoint
    bypasses.

    Ideals are interned by their echelon rows (``Ideal.__hash__``), and
    each relation's fingerprint gets a small id (``key_id``), the index
    of its ``fingerprint_key`` in ``keys``, so the exploration keys its
    vertices, hits and edges by ints and hashes each key tuple once."""

    def __init__(self, x0=None):
        self.x0 = x0
        self._ideals = {}
        self._automorphisms = {}
        self.keys = []       # id -> fingerprint_key
        self._ids = {}       # fingerprint_key -> id
        self._id_of = {}     # relation -> the id of its key

    def intern(self, ideal: Ideal) -> Ideal:
        return self._ideals.setdefault(ideal, ideal)

    def get(self, ideal: Ideal) -> HomotopyRelation:
        return homotopy_relation(self.intern(ideal), self.x0)

    def key_id(self, h: HomotopyRelation, what: str) -> int:
        """The id of h's ``fingerprint_key``, equal ids for equal keys; an
        Unknown pair is a ``GammaError`` saying what could not be done."""
        i = self._id_of.get(h)
        if i is None:
            try:
                key = fingerprint_key(h)
            except UnresolvedError as exc:
                raise GammaError("cannot %s: %s" % (what, exc)) from exc
            i = self._id_of[h] = self._ids.setdefault(key, len(self.keys))
            if i == len(self.keys):
                self.keys.append(key)
        return i

    def image(self, ideal: Ideal, t: Transvection) -> Ideal:
        auto = self._automorphisms.get(t)
        if auto is None:
            auto = self._automorphisms[t] = as_path_automorphism(
                t, ideal.quiver, ideal.field)
        return self.intern(apply_automorphism(auto, ideal))


def _bypass_status(h: HomotopyRelation, bypass: Bypass) -> str:
    return h.pair_status(make_path(h.quiver, (bypass.arrow,)), bypass.path)


def _candidates(*groups):
    """The values of the groups in order, each once."""
    return tuple(dict.fromkeys(x for group in groups for x in group))


def _images(ideal: Ideal, bypass: Bypass, taus, cache: _HomotopyCache):
    """(t, t(ideal), its relation, the bypass status there) for each tau
    in order, t the transvection along the bypass."""
    for tau in taus:
        t = Transvection(bypass, tau)
        image = cache.image(ideal, t)
        h_image = cache.get(image)
        yield t, image, h_image, _bypass_status(h_image, bypass)


def ratio_candidates(ideal: Ideal, bypass: Bypass):
    """Coefficients -mu/lambda cancelling the u-terms of basis elements.

    For every basis element containing a path v*alpha*w whose companion
    v*u*w also appears, the transvection with this coefficient kills the
    companion term, which is how a predecessor presentation can look.
    The rows are read by path number (``Ideal.rows``), and the companion
    is numbered from u's number through the tables of ``path_tables``.
    """
    fld = ideal.field
    paths = enumerate_paths(ideal.quiver)
    index, after, before = path_tables(ideal.quiver)[:3]
    u = index[bypass.path]
    out = []
    for row in ideal.rows():
        for n, lam in sorted(row.items()):
            arrows = paths[n].arrows
            if bypass.arrow not in arrows:
                continue
            i = arrows.index(bypass.arrow)
            partner = u
            for a in arrows[i + 1:]:
                partner = after[a][partner]
            for a in reversed(arrows[:i]):
                partner = before[a][partner]
            out.append(fld.neg(fld.div(row.get(partner, fld.zero), lam)))
    return _candidates(c for c in out if not fld.is_zero(c))


class ProbeResult(Record):
    _fields = ("hits", "misses", "inconclusive", "notes")

    def __init__(self, hits: list = None, misses: list = None,
                 inconclusive: list = None, notes: list = None):
        self.hits = [] if hits is None else hits        # (tv, ideal, homotopy)
        self.misses = [] if misses is None else misses  # (tv, ideal, homotopy)
        # diagnostic strings
        self.inconclusive = [] if inconclusive is None else inconclusive
        self.notes = [] if notes is None else notes     # schedule-exhausted logs


def _probed(ideal: Ideal, h: HomotopyRelation, skip: str, res: ProbeResult):
    """The bypasses whose status under h is neither ``skip`` nor Unknown;
    the Unknown ones are logged as inconclusive."""
    for bypass in find_bypasses(ideal.quiver):
        status = _bypass_status(h, bypass)
        if status == UNKNOWN:
            res.inconclusive.append(
                "bypass (%s, %s): classification unknown under the input relation"
                % (bypass.arrow, bypass.path.to_text()))
        elif status != skip:
            yield bypass


def successor_probe(ideal: Ideal, h: HomotopyRelation,
                    cache: _HomotopyCache = None) -> ProbeResult:
    """Try every bypass with alpha not~ u; one successor per bypass."""
    fld = ideal.field
    schedule = tau_schedule(fld)
    cache = cache or _HomotopyCache(h.base_point)
    res = ProbeResult()
    hits = {}  # the first hit of each homotopy relation
    for bypass in _probed(ideal, h, HOMOTOPIC, res):
        unresolved = False
        for t, image, h_image, st in _images(ideal, bypass, schedule, cache):
            if st == HOMOTOPIC:
                hits.setdefault(cache.key_id(h_image, "dedup a successor"),
                                (t, image, h_image))
                break
            if st == NOT_HOMOTOPIC:
                # trichotomy case c: the transvection must fix the ideal
                if not ideals_equal(ideal, image):
                    raise GammaError(
                        "trichotomy violated: alpha not~ u on both sides of "
                        "phi(%s, %s, %s) yet the ideals differ"
                        % (bypass.arrow, bypass.path.to_text(), fld.format(t.tau)))
                continue
            unresolved = True
            res.inconclusive.append(
                "bypass (%s, %s): tau=%s left the pair unresolved"
                % (bypass.arrow, bypass.path.to_text(), fld.format(t.tau)))
        else:
            if not unresolved:
                res.notes.append(
                    "bypass (%s, %s): no successor found (schedule exhausted)"
                    % (bypass.arrow, bypass.path.to_text()))
    res.hits = list(hits.values())
    return res


def predecessor_probe(ideal: Ideal, h: HomotopyRelation,
                      cache: _HomotopyCache = None) -> ProbeResult:
    """Try every bypass with alpha ~ u; candidates from coefficient ratios.

    Misses where the homotopy relation stays put are returned too: they
    are alternate representatives of the same vertex and the exploration
    re-probes from them.
    """
    fld = ideal.field
    schedule = tau_schedule(fld)
    cache = cache or _HomotopyCache(h.base_point)
    res = ProbeResult()
    hits = {}  # the first hit of each homotopy relation
    for bypass in _probed(ideal, h, NOT_HOMOTOPIC, res):
        taus = _candidates(ratio_candidates(ideal, bypass), schedule)
        for t, image, h_image, st in _images(ideal, bypass, taus, cache):
            if st == NOT_HOMOTOPIC:
                hits.setdefault(cache.key_id(h_image, "dedup a predecessor"),
                                (t, image, h_image))
            elif st == HOMOTOPIC:
                if not ideals_equal(ideal, image):
                    res.misses.append((t, image, h_image))
            else:
                res.inconclusive.append(
                    "bypass (%s, %s): sigma=%s left the pair unresolved"
                    % (bypass.arrow, bypass.path.to_text(), fld.format(t.tau)))
    res.hits = list(hits.values())
    return res


class GammaVertex(Record):
    _fields = ("index", "key", "ideal", "homotopy", "representatives")

    def __init__(self, index: int, key: tuple, ideal: Ideal,
                 homotopy: HomotopyRelation, representatives: list):
        self.index = index
        self.key = key
        self.ideal = ideal
        self.homotopy = homotopy
        self.representatives = representatives

    @property
    def abelian_invariants(self):
        return self.homotopy.presentation.abelian_invariants


class GammaEdge(Record):
    _fields = ("source", "target", "transvection", "source_rep", "target_rep")

    def __init__(self, source: int, target: int, transvection: Transvection,
                 source_rep: Ideal, target_rep: Ideal):
        self.source = source
        self.target = target
        self.transvection = transvection
        self.source_rep = source_rep
        self.target_rep = target_rep


class GammaQuiver(Record):
    _fields = ("vertices", "edges", "bypass_count", "diagnostics")

    def __init__(self, vertices: list, edges: list, bypass_count: int,
                 diagnostics: list):
        self.vertices = vertices
        self.edges = edges
        self.bypass_count = bypass_count
        self.diagnostics = diagnostics

    def vertex_of_key(self, key):
        for v in self.vertices:
            if v.key == key:
                return v
        return None

    def sources(self):
        targets = {e.target for e in self.edges}
        return [v for v in self.vertices if v.index not in targets]

    def validate(self):
        """Structural invariants; returns the list of violations."""
        m = self.bypass_count
        violations = ["self-edge at vertex %d" % e.source
                      for e in self.edges if e.source == e.target]
        try:
            # arrows "e<i>" never clash with the vertices "<index>"
            graph = Quiver("gamma", [str(v.index) for v in self.vertices],
                           [Arrow("e%d" % i, str(e.source), str(e.target))
                            for i, e in enumerate(self.edges)])
        except QuiverError:
            violations.append("oriented cycle")
        else:
            longest = longest_path_length(graph)
            if longest > m:
                violations.append("oriented path of length %d exceeds the "
                                  "bypass count %d" % (longest, m))
        out_degree = Counter(e.source for e in self.edges)
        violations += ["vertex %d has out-degree above %d" % (v.index, m)
                       for v in self.vertices if out_degree[v.index] > m]
        parts = DisjointSets(v.index for v in self.vertices)
        for e in self.edges:
            parts.union(e.source, e.target)
        if len(parts.classes()) > 1:
            violations.append("underlying graph is disconnected")
        return violations


def explore_gamma(ideal: Ideal) -> GammaQuiver:
    """Closure of the input's homotopy relation under successors and
    predecessors, with fingerprint dedup; raises on Unknown contamination.

    A vertex keeps at most ``DEFAULT_MAX_REPRESENTATIVES`` representatives;
    a vertex that drops a new one past the cap gets one diagnostic, and
    so does a tau schedule cut at ``TAU_CAP`` in characteristic p.  Every
    representative is interned by the exploration's cache, so equal ideals
    are one object and ``kept`` answers "seen before?" in one lookup."""
    fld = ideal.field
    cache = _HomotopyCache()
    h0 = cache.get(ideal)
    id0 = cache.key_id(h0, "explore")

    # vertices, and the ends of edges, keyed by fingerprint id
    vertices = {id0: GammaVertex(0, cache.keys[id0], ideal, h0, [ideal])}
    kept = {ideal}  # the representatives of every vertex
    edges = {}
    diagnostics = []
    if fld.char - 1 > TAU_CAP:
        diagnostics.append("tau schedule: the cap of %d left %d of the %d "
                           "nonzero elements of F_%d untried"
                           % (TAU_CAP, fld.char - 1 - TAU_CAP, fld.char - 1,
                              fld.char))
    capped = set()
    queue = deque([(id0, ideal, h0)])

    def vertex_for(i, rep, h_rep):
        if i not in vertices:
            vertices[i] = GammaVertex(len(vertices), cache.keys[i], rep,
                                      h_rep, [rep])
            kept.add(rep)
            queue.append((i, rep, h_rep))
        return vertices[i]

    def add_representative(i, rep, h_rep):
        vertex = vertices[i]
        if rep in kept:
            return
        if len(vertex.representatives) < DEFAULT_MAX_REPRESENTATIVES:
            vertex.representatives.append(rep)
            kept.add(rep)
            queue.append((i, rep, h_rep))
        elif vertex.index not in capped:
            capped.add(vertex.index)
            diagnostics.append(
                "vertex %d: representatives past the cap of %d were not "
                "probed" % (vertex.index, DEFAULT_MAX_REPRESENTATIVES))

    while queue:
        i, rep, h_rep = queue.popleft()
        v = vertices[i]
        succ = successor_probe(rep, h_rep, cache)
        diagnostics.extend(succ.inconclusive)
        for t, image, h_image in succ.hits:
            j = cache.key_id(h_image, "dedup a successor")
            if j == i:
                raise GammaError("successor did not change the homotopy relation")
            w = vertex_for(j, image, h_image)
            edges.setdefault((i, j), GammaEdge(v.index, w.index, t, rep, image))
        pred = predecessor_probe(rep, h_rep, cache)
        diagnostics.extend(pred.inconclusive)
        for t, image, h_image in pred.hits:
            j = cache.key_id(h_image, "dedup a predecessor")
            w = vertex_for(j, image, h_image)
            edges.setdefault((j, i), GammaEdge(w.index, v.index,
                                               t.inverse(fld), image, rep))
        for t, image, h_image in pred.misses:
            if cache.key_id(h_image, "dedup an alternate representative") != i:
                raise GammaError("a homotopy-preserving transvection changed "
                                 "the fingerprint")
            add_representative(i, image, h_image)

    gamma = GammaQuiver(list(vertices.values()), list(edges.values()),
                        len(find_bypasses(ideal.quiver)), diagnostics)
    violations = gamma.validate()
    if violations:
        raise GammaError("structural invariants violated: %s"
                         % "; ".join(violations))
    return gamma


def find_sources(gamma: GammaQuiver):
    """All in-degree-0 vertices; a warning, added to the diagnostics once,
    when uniqueness hypotheses fail."""
    sources = gamma.sources()
    if len(sources) != 1:
        quiver = gamma.vertices[0].ideal.quiver
        fld = gamma.vertices[0].ideal.field
        reasons = []
        if fld.char != 0:
            reasons.append("characteristic %d" % fld.char)
        if find_double_bypasses(quiver):
            reasons.append("double bypass present")
        warning = ("%d sources found (uniqueness hypotheses: %s)"
                   % (len(sources), ", ".join(reasons) or "satisfied"))
        if warning not in gamma.diagnostics:
            gamma.diagnostics.append(warning)
    return sources


CONFIRMED = "confirmed"
REFUTED = "refuted"


class SurjectionResult(Record):
    _fields = ("status", "witness", "source_invariants", "target_invariants")

    def __init__(self, status: str, witness: tuple | None,
                 source_invariants: tuple, target_invariants: tuple):
        self.status = status
        self.witness = witness
        self.source_invariants = source_invariants
        self.target_invariants = target_invariants


def check_surjection(source_ideal: Ideal,
                     target_ideal: Ideal) -> SurjectionResult:
    """Does the identity on walks induce pi1(source) ->> pi1(target)?

    Confirmed when every generating pair of the source relation is
    certified homotopic under the target relation (well-definedness; the
    induced morphism is then onto because both groups are generated by
    the same chord loops), plus the abelianized cokernel check.  Both
    relations come from ``homotopy_relation``, so on the representatives
    of an explored graph none is built.  The pairs are read by path
    number, and a ``Path`` pair is made only for a witness.
    """
    if source_ideal.quiver != target_ideal.quiver:
        raise GammaError("ideals live on different quivers")
    if source_ideal.field != target_ideal.field:
        raise GammaError("ideals live over different fields")
    h_source = homotopy_relation(source_ideal)
    h_target = homotopy_relation(target_ideal)
    src_inv = h_source.presentation.abelian_invariants
    tgt_inv = h_target.presentation.abelian_invariants

    paths = enumerate_paths(source_ideal.quiver)
    unknown_witness = None
    for i, j in h_source.pair_numbers:
        status = h_target.number_status(i, j)
        if status == NOT_HOMOTOPIC:
            return SurjectionResult(REFUTED, (paths[i], paths[j]),
                                    src_inv, tgt_inv)
        if status == UNKNOWN and unknown_witness is None:
            unknown_witness = (paths[i], paths[j])
    if unknown_witness is not None:
        return SurjectionResult(UNKNOWN, unknown_witness, src_inv, tgt_inv)

    # abelianized cokernel: every source relator must die in the target
    image = h_target.presentation.image
    if any(any(image(w)) for w in h_source.presentation.relators):
        raise GammaError("abelianized well-definedness check failed even "
                         "though all generating pairs are homotopic")
    return SurjectionResult(CONFIRMED, None, src_inv, tgt_inv)


def check_lemma_3_3_chain(source_ideal: Ideal, target_ideal: Ideal):
    """A chain of transvections (and possibly a final dilatation) carrying
    the source ideal to the target one along edges of the graph explored
    from the source, with the successor condition certified at every
    step.  The last edge ends at the target itself when it can, else at
    the first image that a dilatation carries onto the target."""
    fld = source_ideal.field
    schedule = tau_schedule(fld)
    gamma = explore_gamma(source_ideal)
    cache = _HomotopyCache()
    start = gamma.vertices[0]  # the input, with its own relation
    goal = gamma.vertex_of_key(fingerprint_key(cache.get(target_ideal)))
    if goal is None:
        raise GammaError("target homotopy relation is not a vertex of the graph")

    # shortest edge path between the two fingerprints
    prev = {start.index: None}
    bfs = deque([start.index])
    while bfs and goal.index not in prev:
        i = bfs.popleft()
        for e in gamma.edges:
            if e.source == i and e.target not in prev:
                prev[e.target] = e
                bfs.append(e.target)
    if goal.index not in prev:
        raise GammaError("target is not reachable from the source in the graph")
    path = []
    cur = goal.index
    while prev[cur] is not None:
        path.append(prev[cur])
        cur = prev[cur].source
    path.reverse()

    def arrivals(current, edge, final):
        """(t, t(current)) for the transvections t that carry ``current``
        into the vertex of the edge's target, in search order."""
        h_current = cache.get(current)
        witness = edge.transvection
        target_key = gamma.vertices[edge.target].key
        # the stored witness's bypass first, then any other bypass that is
        # non-homotopic at the current vertex (the same arrow of the graph
        # may be realized by several of them, and hitting the target ideal
        # exactly can require a different one)
        for bypass in _candidates([witness.bypass], find_bypasses(current.quiver)):
            if _bypass_status(h_current, bypass) != NOT_HOMOTOPIC:
                continue
            taus = _candidates(
                # the target ideal's own ratios, with the opposite sign
                [fld.neg(c) for c in ratio_candidates(target_ideal, bypass)]
                if final else (),
                [witness.tau] if bypass == witness.bypass else (),
                schedule)
            for t, image, h_image, st in _images(current, bypass, taus, cache):
                if st == HOMOTOPIC and fingerprint_key(h_image) == target_key:
                    yield t, image

    chain = []
    current = source_ideal
    for n, edge in enumerate(path, 1):
        if n < len(path):
            step = next(arrivals(current, edge, False), None)
        else:
            # the target itself, else the first arrival that a dilatation
            # carries onto it, else the first arrival
            passed = []
            for step in arrivals(current, edge, True):
                if ideals_equal(step[1], target_ideal):
                    break
                passed.append(step)
            else:
                step = next((s for s in passed if match_by_dilatation(
                    s[1], target_ideal) is not None), passed[0] if passed else None)
        if step is None:
            raise GammaError(
                "could not replay the edge into the vertex of %s"
                % gamma.vertices[edge.target].ideal.describe())
        chain.append(step[0])
        current = step[1]

    if not ideals_equal(current, target_ideal):
        dil = match_by_dilatation(current, target_ideal)
        if dil is None:
            raise GammaError("replayed chain reaches the right homotopy "
                             "relation but no dilatation matches the target")
        chain.append(dil)
    return chain

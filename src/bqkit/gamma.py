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

from collections import deque
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction

from .errors import GammaError, UnresolvedError
from .fields import Field
from .homotopy import (HOMOTOPIC, NOT_HOMOTOPIC, UNKNOWN, HomotopyRelation,
                       fingerprint_key, homotopy_relation)
from .ideal import Ideal, ideals_equal
from .quiver import Bypass, Path, find_bypasses, find_double_bypasses
from .transform import Transvection, apply_automorphism, match_by_dilatation

DEFAULT_MAX_REPRESENTATIVES = 16


def tau_schedule(fld: Field):
    """Probe values for transvection coefficients."""
    if fld.char == 0:
        return (Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(3))
    return tuple(fld.nonzero_elements(limit=32))


class _HomotopyCache:
    """Per-exploration memo of transvection images keyed by value (mirror
    probes recompute the same ideals over and over), with an intern table
    that makes equal ideals one ``Ideal`` object.  ``homotopy_relation``
    keeps a relation on the ideal object, so each distinct ideal of an
    exploration builds one relation, and later readers of the interned
    representatives (``check_surjection``, covers) build none."""

    def __init__(self, x0=None):
        self.x0 = x0
        self._ideals = {}
        self._images = {}

    def intern(self, ideal: Ideal) -> Ideal:
        return self._ideals.setdefault(ideal, ideal)

    def get(self, ideal: Ideal) -> HomotopyRelation:
        return homotopy_relation(self.intern(ideal), self.x0)

    def image(self, ideal: Ideal, t: Transvection) -> Ideal:
        key = (ideal, t.arrow, t.path, t.tau)
        image = self._images.get(key)
        if image is None:
            image = self._images[key] = self.intern(apply_automorphism(t, ideal))
        return image


def _arrow_path(quiver, name) -> Path:
    a = quiver.arrow(name)
    return Path(a.source, a.target, (name,))


def _bypass_status(h: HomotopyRelation, bypass: Bypass) -> str:
    return h.pair_status(_arrow_path(h.quiver, bypass.arrow), bypass.path)


def ratio_candidates(ideal: Ideal, bypass: Bypass):
    """Coefficients -mu/lambda cancelling the u-terms of basis elements.

    For every basis element containing a path v*alpha*w whose companion
    v*u*w also appears, the transvection with this coefficient kills the
    companion term, which is how a predecessor presentation can look.
    """
    fld = ideal.field
    out = []
    for rel in ideal.minimal_relations():
        for p, lam in rel.terms:
            if bypass.arrow not in p.arrows:
                continue
            i = p.arrows.index(bypass.arrow)
            partner = Path(p.source, p.target,
                           p.arrows[:i] + bypass.path.arrows + p.arrows[i + 1:])
            mu = rel.coefficient(partner, fld)
            if not fld.is_zero(mu):
                cand = fld.neg(fld.div(mu, lam))
                if not fld.is_zero(cand) and cand not in out:
                    out.append(cand)
    return tuple(out)


@dataclass
class ProbeResult:
    hits: list = dataclass_field(default_factory=list)      # (tv, ideal, homotopy)
    misses: list = dataclass_field(default_factory=list)    # (tv, ideal, homotopy)
    inconclusive: list = dataclass_field(default_factory=list)  # diagnostic strings
    notes: list = dataclass_field(default_factory=list)     # schedule-exhausted logs


def successor_probe(ideal: Ideal, h: HomotopyRelation,
                    cache: _HomotopyCache = None) -> ProbeResult:
    """Try every bypass with alpha not~ u; one successor per bypass."""
    fld = ideal.field
    schedule = tau_schedule(fld)
    cache = cache or _HomotopyCache(h.base_point)
    res = ProbeResult()
    seen_keys = []
    for bypass in find_bypasses(ideal.quiver):
        status = _bypass_status(h, bypass)
        if status == HOMOTOPIC:
            continue
        if status == UNKNOWN:
            res.inconclusive.append(
                "bypass (%s, %s): classification unknown under the input relation"
                % (bypass.arrow, bypass.path.to_text()))
            continue
        hit = False
        unresolved = False
        for tau in schedule:
            t = Transvection(bypass, tau)
            image = cache.image(ideal, t)
            h_image = cache.get(image)
            st = _bypass_status(h_image, bypass)
            if st == HOMOTOPIC:
                key = fingerprint_key(h_image)
                if key not in seen_keys:
                    seen_keys.append(key)
                    res.hits.append((t, image, h_image))
                hit = True
                break
            if st == NOT_HOMOTOPIC:
                # trichotomy case c: the transvection must fix the ideal
                if not ideals_equal(ideal, image):
                    raise GammaError(
                        "trichotomy violated: alpha not~ u on both sides of "
                        "phi(%s, %s, %s) yet the ideals differ"
                        % (bypass.arrow, bypass.path.to_text(), fld.format(tau)))
                continue
            unresolved = True
            res.inconclusive.append(
                "bypass (%s, %s): tau=%s left the pair unresolved"
                % (bypass.arrow, bypass.path.to_text(), fld.format(tau)))
        if not hit and not unresolved:
            res.notes.append(
                "bypass (%s, %s): no successor found (schedule exhausted)"
                % (bypass.arrow, bypass.path.to_text()))
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
    seen_keys = []
    for bypass in find_bypasses(ideal.quiver):
        status = _bypass_status(h, bypass)
        if status == NOT_HOMOTOPIC:
            continue
        if status == UNKNOWN:
            res.inconclusive.append(
                "bypass (%s, %s): classification unknown under the input relation"
                % (bypass.arrow, bypass.path.to_text()))
            continue
        candidates = list(ratio_candidates(ideal, bypass))
        for tau in schedule:
            if tau not in candidates:
                candidates.append(tau)
        for sigma in candidates:
            t = Transvection(bypass, sigma)
            image = cache.image(ideal, t)
            h_image = cache.get(image)
            st = _bypass_status(h_image, bypass)
            if st == NOT_HOMOTOPIC:
                key = fingerprint_key(h_image)
                if key not in seen_keys:
                    seen_keys.append(key)
                    res.hits.append((t, image, h_image))
            elif st == HOMOTOPIC:
                if not ideals_equal(ideal, image):
                    res.misses.append((t, image, h_image))
            else:
                res.inconclusive.append(
                    "bypass (%s, %s): sigma=%s left the pair unresolved"
                    % (bypass.arrow, bypass.path.to_text(), fld.format(sigma)))
    return res


@dataclass
class GammaVertex:
    index: int
    key: tuple
    ideal: Ideal
    homotopy: HomotopyRelation
    representatives: list

    @property
    def abelian_invariants(self):
        return self.homotopy.presentation.abelian_invariants


@dataclass
class GammaEdge:
    source: int
    target: int
    transvection: Transvection
    source_rep: Ideal
    target_rep: Ideal


@dataclass
class GammaQuiver:
    vertices: list
    edges: list
    start: int
    bypass_count: int
    diagnostics: list

    def vertex_of_key(self, key):
        for v in self.vertices:
            if v.key == key:
                return v
        return None

    def sources(self):
        targets = {e.target for e in self.edges}
        return [v for v in self.vertices if v.index not in targets]

    def out_degree(self, index):
        return sum(1 for e in self.edges if e.source == index)

    def longest_path_length(self):
        adj = {}
        for e in self.edges:
            adj.setdefault(e.source, []).append(e.target)
        best = {}

        def depth(i, seen):
            if i in best:
                return best[i]
            if i in seen:
                raise GammaError("oriented cycle while measuring path length")
            seen.add(i)
            d = 0
            for j in adj.get(i, ()):
                d = max(d, 1 + depth(j, seen))
            seen.discard(i)
            best[i] = d
            return d

        return max((depth(v.index, set()) for v in self.vertices), default=0)

    def validate(self):
        """Structural invariants; returns the list of violations."""
        violations = []
        # no self-edges, no oriented cycle
        for e in self.edges:
            if e.source == e.target:
                violations.append("self-edge at vertex %d" % e.source)
        try:
            longest = self.longest_path_length()
        except GammaError:
            violations.append("oriented cycle")
            longest = None
        m = self.bypass_count
        if longest is not None and longest > m:
            violations.append("oriented path of length %d exceeds the bypass "
                              "count %d" % (longest, m))
        for v in self.vertices:
            if self.out_degree(v.index) > m:
                violations.append("vertex %d has out-degree above %d"
                                  % (v.index, m))
        # connected as an undirected graph
        if self.vertices:
            adj = {v.index: set() for v in self.vertices}
            for e in self.edges:
                adj[e.source].add(e.target)
                adj[e.target].add(e.source)
            seen = {self.vertices[0].index}
            todo = [self.vertices[0].index]
            while todo:
                i = todo.pop()
                for j in adj[i]:
                    if j not in seen:
                        seen.add(j)
                        todo.append(j)
            if len(seen) != len(self.vertices):
                violations.append("underlying graph is disconnected")
        return violations


def explore_gamma(ideal: Ideal) -> GammaQuiver:
    """Closure of the input's homotopy relation under successors and
    predecessors, with fingerprint dedup; raises on Unknown contamination."""
    fld = ideal.field
    cache = _HomotopyCache()
    h0 = cache.get(ideal)
    try:
        key0 = fingerprint_key(h0)
    except UnresolvedError as exc:
        raise GammaError("cannot explore: %s" % exc) from exc

    vertices = {key0: GammaVertex(0, key0, ideal, h0, [ideal])}
    edges = {}
    diagnostics = []
    queue = deque([(key0, ideal, h0)])

    def vertex_for(key, rep, h_rep):
        if key not in vertices:
            vertices[key] = GammaVertex(len(vertices), key, rep, h_rep, [rep])
            queue.append((key, rep, h_rep))
        return vertices[key]

    def add_representative(key, rep, h_rep):
        vertex = vertices[key]
        if len(vertex.representatives) >= DEFAULT_MAX_REPRESENTATIVES:
            return
        if any(ideals_equal(rep, known) for known in vertex.representatives):
            return
        vertex.representatives.append(rep)
        queue.append((key, rep, h_rep))

    while queue:
        key, rep, h_rep = queue.popleft()
        succ = successor_probe(rep, h_rep, cache)
        diagnostics.extend(succ.inconclusive)
        for t, image, h_image in succ.hits:
            try:
                k_image = fingerprint_key(h_image)
            except UnresolvedError as exc:
                raise GammaError("cannot dedup a successor: %s" % exc) from exc
            if k_image == key:
                raise GammaError("successor did not change the homotopy relation")
            w = vertex_for(k_image, image, h_image)
            edges.setdefault((key, w.key),
                             GammaEdge(vertices[key].index, w.index, t, rep, image))
        pred = predecessor_probe(rep, h_rep, cache)
        diagnostics.extend(pred.inconclusive)
        for t, image, h_image in pred.hits:
            try:
                k_image = fingerprint_key(h_image)
            except UnresolvedError as exc:
                raise GammaError("cannot dedup a predecessor: %s" % exc) from exc
            w = vertex_for(k_image, image, h_image)
            edges.setdefault((w.key, key),
                             GammaEdge(w.index, vertices[key].index,
                                       t.inverse(fld), image, rep))
        for t, image, h_image in pred.misses:
            k_image = fingerprint_key(h_image)
            if k_image != key:
                raise GammaError("a homotopy-preserving transvection changed "
                                 "the fingerprint")
            add_representative(key, image, h_image)

    gamma = GammaQuiver(list(vertices.values()), list(edges.values()),
                        0, len(find_bypasses(ideal.quiver)), diagnostics)
    violations = gamma.validate()
    if violations:
        raise GammaError("structural invariants violated: %s"
                         % "; ".join(violations))
    return gamma


def find_sources(gamma: GammaQuiver):
    """All in-degree-0 vertices; warnings when uniqueness hypotheses fail."""
    sources = gamma.sources()
    if len(sources) != 1:
        quiver = gamma.vertices[0].ideal.quiver
        fld = gamma.vertices[0].ideal.field
        reasons = []
        if fld.char != 0:
            reasons.append("characteristic %d" % fld.char)
        if find_double_bypasses(quiver):
            reasons.append("double bypass present")
        gamma.diagnostics.append(
            "%d sources found (uniqueness hypotheses: %s)"
            % (len(sources), ", ".join(reasons) or "satisfied"))
    return sources


CONFIRMED = "confirmed"
REFUTED = "refuted"


@dataclass
class SurjectionResult:
    status: str
    witness: tuple | None
    source_invariants: tuple
    target_invariants: tuple


def check_surjection(source_ideal: Ideal,
                     target_ideal: Ideal) -> SurjectionResult:
    """Does the identity on walks induce pi1(source) ->> pi1(target)?

    Confirmed when every generating pair of the source relation is
    certified homotopic under the target relation (well-definedness; the
    induced morphism is then onto because both groups are generated by
    the same chord loops), plus the abelianized cokernel check.  Both
    relations come from ``homotopy_relation``, so on the representatives
    of an explored graph none is built.
    """
    if source_ideal.quiver != target_ideal.quiver:
        raise GammaError("ideals live on different quivers")
    if source_ideal.field != target_ideal.field:
        raise GammaError("ideals live over different fields")
    h_source = homotopy_relation(source_ideal)
    h_target = homotopy_relation(target_ideal)
    src_inv = h_source.presentation.abelian_invariants
    tgt_inv = h_target.presentation.abelian_invariants

    unknown_witness = None
    for u, v in h_source.generating_pairs:
        status = h_target.pair_status(u, v)
        if status == NOT_HOMOTOPIC:
            return SurjectionResult(REFUTED, (u, v), src_inv, tgt_inv)
        if status == UNKNOWN and unknown_witness is None:
            unknown_witness = (u, v)
    if unknown_witness is not None:
        return SurjectionResult(UNKNOWN, unknown_witness, src_inv, tgt_inv)

    # abelianized cokernel: every source relator must die in the target
    rows = h_source.presentation.exponent_rows()
    for row in rows:
        if not h_target._lattice.contains(row):
            raise GammaError("abelianized well-definedness check failed even "
                             "though all generating pairs are homotopic")
    return SurjectionResult(CONFIRMED, None, src_inv, tgt_inv)


def check_lemma_3_3_chain(source_ideal: Ideal, target_ideal: Ideal,
                          gamma: GammaQuiver = None):
    """A chain of transvections (and possibly a final dilatation) carrying
    the source ideal to the target one along edges of the graph, with the
    successor condition certified at every step."""
    fld = source_ideal.field
    schedule = tau_schedule(fld)
    if gamma is None:
        gamma = explore_gamma(source_ideal)
    cache = _HomotopyCache()
    h_target = cache.get(target_ideal)
    key_target = fingerprint_key(h_target)
    key_source = fingerprint_key(cache.get(source_ideal))

    start = gamma.vertex_of_key(key_source)
    goal = gamma.vertex_of_key(key_target)
    if start is None or goal is None:
        raise GammaError("target homotopy relation is not a vertex of the graph")

    # shortest edge path between the two fingerprints
    adj = {}
    for e in gamma.edges:
        adj.setdefault(e.source, []).append(e)
    prev = {start.index: None}
    bfs = deque([start.index])
    while bfs:
        i = bfs.popleft()
        if i == goal.index:
            break
        for e in adj.get(i, ()):
            if e.target not in prev:
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

    chain = []
    current = source_ideal
    for step_idx, edge in enumerate(path):
        final = step_idx == len(path) - 1
        target_key = gamma.vertices[edge.target].key
        h_current = cache.get(current)

        # candidate transvections: the stored witness's bypass first, then
        # any other bypass that is non-homotopic at the current vertex (the
        # same arrow of the graph may be realized by several of them, and
        # hitting the target ideal exactly can require a different one)
        bypasses = [edge.transvection.bypass]
        for b in find_bypasses(current.quiver):
            if b not in bypasses and \
                    _bypass_status(h_current, b) == NOT_HOMOTOPIC:
                bypasses.append(b)

        chosen = None
        for bypass in bypasses:
            if _bypass_status(h_current, bypass) != NOT_HOMOTOPIC:
                continue
            candidates = []
            if final:
                # the image ideal's own ratios, with the opposite sign
                candidates.extend(fld.neg(c) for c in
                                  ratio_candidates(target_ideal, bypass))
            if bypass == edge.transvection.bypass \
                    and edge.transvection.tau not in candidates:
                candidates.append(edge.transvection.tau)
            for tau in schedule:
                if tau not in candidates:
                    candidates.append(tau)
            for tau in candidates:
                t = Transvection(bypass, tau)
                image = cache.image(current, t)
                h_image = cache.get(image)
                if _bypass_status(h_image, bypass) != HOMOTOPIC:
                    continue
                if fingerprint_key(h_image) != target_key:
                    continue
                if final and ideals_equal(image, target_ideal):
                    chosen = (t, image)
                    break
                if chosen is None:
                    chosen = (t, image)
            if chosen is not None and (not final
                                       or ideals_equal(chosen[1], target_ideal)):
                break
        if chosen is None:
            raise GammaError(
                "could not replay the edge into the vertex of %s"
                % gamma.vertices[edge.target].ideal.describe())
        chain.append(chosen[0])
        current = chosen[1]

    if not ideals_equal(current, target_ideal):
        dil = match_by_dilatation(current, target_ideal)
        if dil is None:
            raise GammaError("replayed chain reaches the right homotopy "
                             "relation but no dilatation matches the target")
        chain.append(dil)
    return chain

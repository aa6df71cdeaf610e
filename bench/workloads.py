"""The benchmark's four workloads, generated from a seed.

Each workload writes its input as ``.bq`` text with seeded vertex and
arrow ids, parses it, runs one pass of jobs and checks the outputs
against references computed here, outside the code under test.  The
seed never changes declaration order, and every canonical order in
bqkit derives from declaration order, so each output check except the
word-dihedral walks has one reference for every seed; a seed that
changes a result exposes a dependence on ids.

Each workload loads one module heavily and leaves the others nearly
idle, so that an optimisation of one layer has a workload that
exercises it and one that bypasses it:

=============  =============================  ===============================
workload       exercises                      leaves idle
=============  =============================  ===============================
grid6          dense echelon rows (ideal),    BFS search, transvections,
               all-pairs congruence closure   gamma, cover
               and fingerprint (homotopy)
gamma-f2       many small closes and          BFS search, cover
               homotopy builds over F_2,
               transvections, gamma
word-dihedral  BFS rewriting search           ideal, transform, gamma, cover
               (homotopy), SNF
cover-free     cover ball growth, quiver      BFS search, gamma, transform
               lookups on ~1000 vertices,
               ~1000 one-path hom-spaces
=============  =============================  ===============================
"""

import hashlib
import math
import random
import time

from bqkit import cover, dsl, gamma, homotopy
from bqkit.quiver import FORWARD, INVERSE, Walk, walk_of_path

# The twobypass unit (five vertices, bypasses c*b ~ a and f*e ~ d) in
# local names; a chain of units shares vertex 5 of one unit with vertex 1
# of the next.
UNIT_VERTICES = ("1", "2", "3", "4", "5")
UNIT_ARROWS = (("a", "1", "3"), ("b", "1", "2"), ("c", "2", "3"),
               ("d", "3", "5"), ("e", "3", "4"), ("f", "4", "5"))
UNIT_IDEALS = {
    "I0": ("d*a + f*e*c*b", "f*e*a + d*c*b"),
    "I2": ("d*a", "f*e*a + d*c*b - 2*f*e*c*b"),
    "free": ("d*a", "f*e*c*b"),
}


class Ids:
    """Seeded, distinct ids for vertices and arrows.

    Ids are a letter followed by three letters or digits, which the .bq
    tokenizer reads as one name, never as a coefficient, a trivial path
    or a keyword.
    """

    ALPHABET = "abcdfghijkmnpqrstuvwxyz0123456789"

    def __init__(self, rng):
        self._rng = rng
        self._used = set()
        self._ids = {}

    def __getitem__(self, local):
        if local not in self._ids:
            while True:
                new = "q" + "".join(self._rng.choice(self.ALPHABET)
                                    for _ in range(3))
                if new not in self._used:
                    break
            self._used.add(new)
            self._ids[local] = new
        return self._ids[local]


def _bq_text(qname, vertices, arrows, char, relations):
    lines = ["quiver %s {" % qname, "  vertices: %s;" % " ".join(vertices)]
    lines += ["  arrow %s: %s -> %s;" % a for a in arrows]
    lines.append("}")
    lines.append("ideal I over %s(%d) {" % (qname, char))
    lines += ["  rel %s;" % r for r in relations]
    lines.append("}")
    return "\n".join(lines) + "\n"


def _rename_relation(text, ids):
    """Rewrite the arrow names of a unit relation through ``ids``."""
    out = []
    for tok in text.split():
        if tok in ("+", "-"):
            out.append(tok)
            continue
        names = tok.split("*")
        coeff = [names.pop(0)] if names[0].isdigit() else []
        out.append("*".join(coeff + [ids[n] for n in names]))
    return " ".join(out)


def chain_text(units, ideal_name, char, rng):
    """``units`` copies of twobypass with ``ideal_name`` glued end to end."""
    ids = Ids(rng)
    vertices = []
    arrows = []
    relations = []
    for k in range(units):
        def v(local, k=k):
            # vertex 1 of unit k is vertex 5 of unit k - 1
            if local == "1" and k > 0:
                return ids["v5.%d" % (k - 1)]
            return ids["v%s.%d" % (local, k)]

        for local in UNIT_VERTICES:
            if k == 0 or local != "1":
                vertices.append(v(local))
        unit_ids = {}
        for name, src, tgt in UNIT_ARROWS:
            unit_ids[name] = ids["%s.%d" % (name, k)]
            arrows.append((unit_ids[name], v(src), v(tgt)))
        relations += [_rename_relation(r, unit_ids)
                      for r in UNIT_IDEALS[ideal_name]]
    return _bq_text("chain", vertices, arrows, char, relations)


def grid_text(n, rng):
    """The commutative n x n grid: every square r*d - d*r, over Q."""
    ids = Ids(rng)
    vertices = [ids[(i, j)] for i in range(n) for j in range(n)]
    arrows = []
    right = {}
    down = {}
    for i in range(n):
        for j in range(n):
            if j + 1 < n:
                right[i, j] = ids["r", i, j]
                arrows.append((right[i, j], ids[(i, j)], ids[(i, j + 1)]))
            if i + 1 < n:
                down[i, j] = ids["d", i, j]
                arrows.append((down[i, j], ids[(i, j)], ids[(i + 1, j)]))
    relations = ["%s*%s - %s*%s" % (down[i, j + 1], right[i, j],
                                    right[i + 1, j], down[i, j])
                 for i in range(n - 1) for j in range(n - 1)]
    return _bq_text("grid", vertices, arrows, 0, relations)


def _digest(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


class Workload:
    """``generate`` writes the .bq text from a seeded generator,
    ``prepare`` turns the parsed workspace into the inputs of a pass,
    ``solve`` runs the timed jobs and ``check`` returns (jobs attempted,
    jobs failed, outputs to record)."""

    def prepare(self, ws):
        return ws


class Grid6(Workload):
    """One big input: the commutative 6x6 grid over Q (36 vertices,
    60 arrows, 25 relations, 3382 paths).

    Chosen because the dense per-hom-pair echelon rows of ``close_ideal``
    and the all-pairs congruence closure and fingerprint of
    ``HomotopyRelation`` do almost all the work; BFS search,
    transvections and covers stay idle.
    """

    name = "grid6"

    def __init__(self, smoke):
        self.n = 3 if smoke else 6

    def generate(self, rng):
        return grid_text(self.n, rng)

    def solve(self, ws):
        ideal = ws.ideal("I")
        h = homotopy.homotopy_relation(ideal)
        key = homotopy.fingerprint_key(h)
        return ideal, h, key

    def check(self, result, inputs):
        """One job; the references are lattice-path counts."""
        ideal, h, key = result
        n = self.n
        pairs = (n * (n + 1) // 2) ** 2
        paths = sum(math.comb(di + dj, di)
                    for i in range(n) for j in range(n)
                    for di in range(n - i) for dj in range(n - j))
        # each hom-space keeps one path modulo the ideal, so the ideal
        # has dimension paths - (comparable vertex pairs)
        ok = (ideal.total_dim() == paths - pairs
              and all(tag == homotopy.HOMOTOPIC for _, tag in key)
              and h.presentation.abelian_invariants == (0, ()))
        return 1, 0 if ok else 1, {"total_dim": ideal.total_dim(),
                                   "pairs": len(key)}


class GammaF2(Workload):
    """Two twobypass/I2 units glued end to end over F_2 (9 vertices,
    12 arrows, 124 paths): explore Gamma, find its sources and check the
    surjection of fundamental groups along every edge.

    Chosen because exploration probes hundreds of transvections and
    computes dozens of distinct images, each a small ``close_ideal`` plus
    a small ``HomotopyRelation`` in prime-field arithmetic: the same
    layers as grid6 as many small calls, so per-call set-up added to
    speed up grid6 shows here.  Gamma has several sources in
    characteristic 2, the paper's phenomenon.

    Left out: replaying ``check_lemma_3_3_chain`` from a source to every
    vertex, which raises "no dilatation matches the target" even on a
    single I2 unit.
    """

    name = "gamma-f2"
    # Outputs at the commit that introduced the benchmark; the digest
    # covers fingerprint keys, edges, sources and surjection verdicts.
    REFERENCE = {1: ((3, 2, 2), "c4e402da7e42bb9a"),
                 2: ((9, 12, 4), "f3458e4986a0e591")}

    def __init__(self, smoke):
        self.units = 1 if smoke else 2

    def generate(self, rng):
        return chain_text(self.units, "I2", 2, rng)

    def solve(self, ws):
        g = gamma.explore_gamma(ws.ideal("I"))
        sources = gamma.find_sources(g)
        verdicts = [gamma.check_surjection(e.source_rep, e.target_rep).status
                    for e in g.edges]
        return g, sources, verdicts

    def check(self, result, inputs):
        """Jobs: the exploration, then one surjection per edge."""
        g, sources, verdicts = result
        keys = sorted(v.key for v in g.vertices)
        rank = {v.index: keys.index(v.key) for v in g.vertices}
        edges = sorted((rank[e.source], rank[e.target], verdict)
                       for e, verdict in zip(g.edges, verdicts))
        shape = (len(g.vertices), len(g.edges), len(sources))
        digest = _digest((keys, edges, sorted(rank[v.index] for v in sources)))
        expected_shape, expected_digest = self.REFERENCE[self.units]
        explore_ok = (not g.validate() and shape == expected_shape
                      and digest == expected_digest)
        failed = (0 if explore_ok else 1) + sum(
            1 for v in verdicts if v != gamma.CONFIRMED)
        return 1 + len(verdicts), failed, {"shape": shape, "digest": digest}


class WordDihedral(Workload):
    """Two twobypass/I0 units glued end to end over Q, where pi1 is the
    infinite dihedral group Z2 * Z2 (4 chord generators, 36 relators).

    Each job decides a parallel walk pair with
    ``HomotopyRelation.decide(want_chain=True)``: u is a random reduced
    walk of length 8 from the base point and v is u with two loops p*q^-1
    inserted at random vertices, p and q drawn from the support of one
    minimal relation (so a loop may be p*p^-1).  The relation is built
    fresh each pass so no memo carries over.

    Chosen because the BFS rewriting search dominates, with a heavy
    tail of slow decisions; ideal, transform, gamma and cover stay idle.

    The walks come from the fixed generator seed ``WALK_SEED``, and the
    run's seed only picks the ids.  Most of a pass is a few tail
    decisions of 0.5-3 s each, so walks drawn from the run's seed made a
    pass take 11-30 s across seeds, a spread wider than any bound the
    benchmark can hold.  ``WALK_SEED`` is the cheapest of the four
    generator seeds tried; a pass takes about 10 s at the reference
    speed (p50 about 8 ms, p90 about 0.5 s).

    Left out: pairs with three insertions, which end Unknown at the
    40 000-state cap after 30-40 s each, and the query
    f0*e0*d0^-1*b1^-1*c1^-1*a1*d0*a0 vs b1^-1*c1^-1*a1*f0*e0*a0, which
    runs for more than 5 minutes.  They need stronger word-problem
    certifiers and get their own workload once those exist.
    """

    name = "word-dihedral"
    WALK_LENGTH = 8
    LOOPS = 2
    WALK_SEED = "walks-a"

    def __init__(self, smoke):
        self.units = 1 if smoke else 2
        self.pairs = 5 if smoke else 100

    def generate(self, rng):
        return chain_text(self.units, "I0", 0, rng)

    def prepare(self, ws):
        rng = random.Random(self.WALK_SEED)
        ideal = ws.ideal("I")
        quiver = ideal.quiver
        loops = {}
        for rel in ideal.minimal_relations():
            loops.setdefault(rel.source, []).append(rel.support())
        pairs = []
        for _ in range(self.pairs):
            u = self._random_walk(quiver, rng)
            ends = [u.source] + [quiver.arrow(n).target if d == FORWARD
                                 else quiver.arrow(n).source
                                 for n, d in u.letters]
            spots = [i for i, x in enumerate(ends) if x in loops]
            cuts = sorted(rng.choice(spots) for _ in range(self.LOOPS))
            letters = []
            prev = 0
            for cut in cuts:
                support = rng.choice(loops[ends[cut]])
                p, q = rng.choice(support), rng.choice(support)
                letters += u.letters[prev:cut]
                letters += walk_of_path(p).letters
                letters += walk_of_path(q).inverse().letters
                prev = cut
            letters += u.letters[prev:]
            pairs.append((u, Walk(u.source, u.target, tuple(letters))))
        return ideal, pairs

    def _random_walk(self, quiver, rng):
        x0 = quiver.vertices[0]
        at = x0
        letters = []
        for _ in range(self.WALK_LENGTH):
            steps = [((a.name, FORWARD), a.target)
                     for a in quiver.arrows if a.source == at]
            steps += [((a.name, INVERSE), a.source)
                      for a in quiver.arrows if a.target == at]
            if letters:
                back = (letters[-1][0], -letters[-1][1])
                steps = [s for s in steps if s[0] != back]
            letter, at = rng.choice(steps)
            letters.append(letter)
        return Walk(x0, at, tuple(letters))

    def solve(self, inputs):
        ideal, pairs = inputs
        h = homotopy.HomotopyRelation(ideal)
        decisions = []
        latencies = []
        for u, v in pairs:
            t0 = time.perf_counter()
            decisions.append(h.decide(u, v, want_chain=True))
            latencies.append(time.perf_counter() - t0)
        return decisions, latencies

    def check(self, result, inputs):
        """One job per pair: Homotopic, with a chain that replays u to v."""
        decisions, latencies = result
        _, pairs = inputs
        failed = 0
        for (u, v), d in zip(pairs, decisions):
            failed += 0 if d.is_homotopic and _replays(d.chain, u, v) else 1
        return len(pairs), failed, {"decide_s": latencies}


def _replays(chain, start, goal):
    if chain is None:
        return False
    cur = start
    for step in chain:
        cur = step.apply_to(cur)
        if cur != step.result:
            return False
    return cur == goal


class CoverFree(Workload):
    """twobypass with the monomial ideal <d*a, f*e*c*b>: no relators, so
    pi1 is free of rank 2 and the universal cover is a tree.  The job
    grows ``universal_cover(radius=14)`` (967 vertices) and runs
    ``check_covering`` on it.

    Chosen because cover ball growth and quiver lookups on a quiver of
    about 1000 vertices dominate, and the frozen ``Quiver`` is hashed as
    an ``lru_cache`` key millions of times; ``ideal`` is used again, as
    about 1000 one-path hom-spaces.  There is no BFS and no gamma.

    ``check_covering`` reports violations on the truncated cover (for
    example "no source lift of d*a" at the rim of the ball); their count
    is reported with the outputs, not checked, until the checker learns
    to skip the rim.
    """

    name = "cover-free"

    def __init__(self, smoke):
        self.radius = 6 if smoke else 14

    def generate(self, rng):
        return chain_text(1, "free", 0, rng)

    def solve(self, ws):
        c = cover.universal_cover(ws.ideal("I"), radius=self.radius)
        return c, cover.check_covering(c)

    def check(self, result, inputs):
        """One job; the reference counts reduced walks from the base."""
        c, report = result
        expected = reduced_walks(c.base_quiver, c.base_quiver.vertices[0],
                                 self.radius)
        ok = (len(c.total.vertices) == expected
              and len(c.total.arrows) == expected - 1)
        return 1, 0 if ok else 1, {"vertices": len(c.total.vertices),
                                   "violations": len(report.violations)}


def reduced_walks(quiver, x0, radius):
    """Number of reduced walks of length <= radius from x0."""
    # a state is (vertex, letter just used); a reduced walk never uses
    # the inverse of the letter before it
    total = 1
    frontier = {(x0, None): 1}
    for _ in range(radius):
        nxt = {}
        for (at, last), count in frontier.items():
            for a in quiver.arrows:
                for letter, src, dst in (((a.name, FORWARD), a.source, a.target),
                                         ((a.name, INVERSE), a.target, a.source)):
                    if src != at or (last and letter == (last[0], -last[1])):
                        continue
                    nxt[dst, letter] = nxt.get((dst, letter), 0) + count
        frontier = nxt
        total += sum(frontier.values())
    return total


WORKLOADS = {w.name: w for w in (Grid6, GammaF2, WordDihedral, CoverFree)}


def setup(name, seed, smoke):
    """Generate, parse and prepare the inputs of one pass."""
    workload = WORKLOADS[name](smoke)
    text = workload.generate(random.Random("%s/%d" % (name, seed)))
    return workload, workload.prepare(dsl.parse_source(text))

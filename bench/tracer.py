"""Spans around bqkit's public entry points, installed from outside.

``install`` wraps each entry point listed in ``ENTRY_POINTS`` and rebinds
every name that refers to it in the loaded ``bqkit`` modules, so that a
call from ``gamma`` into ``close_ideal`` goes through the wrapper just as
a call from the benchmark does.  Methods are wrapped on their class.  The
program's source is not edited.

A span records (name, start, end, parent); a layer's self time is the
duration of its spans minus the part covered by their child spans.
Counts are taken from the arguments and results at the same boundary.
``fields`` and ``cli`` have no spans: counting field operations needs
spans inside the program, and ``cli`` only parses arguments and prints.
"""

import sys
import time

from bqkit import coset, cover, dsl, gamma, homotopy, ideal, quiver, snf, transform


def _built(counts, args, result):
    h = args[0]
    counts["homotopy.builds"] += 1
    counts["homotopy.relators"] += len(h.presentation.relators)
    counts["homotopy.fingerprint_pairs"] += len(h.fingerprint)


DECISION_KINDS = {"free": "free", "abelianization": "abelianization",
                  "coset-action": "coset", "coset-trivial": "coset"}


def _decided(counts, args, d):
    counts["homotopy.decisions"] += 1
    if d.is_unknown:
        counts["homotopy.unknown"] += 1
    elif d.certificate is None:
        counts["homotopy.decide.chain"] += 1
    else:
        counts["homotopy.decide." + DECISION_KINDS[d.certificate["kind"]]] += 1


def _closed(counts, args, result):
    counts["ideal.close_calls"] += 1
    counts["ideal.dim"] += result.total_dim()


def _enumerated(counts, args, result):
    # enumerate_paths caches one tuple per quiver: count each tuple once,
    # by identity, since hashing a large quiver is costly
    if id(result) not in counts.enumerated:
        counts.enumerated.add(id(result))
        counts["quiver.paths"] += len(result)


def _applied(counts, args, result):
    counts["transform.applies"] += 1


def _explored(counts, args, g):
    counts["gamma.vertices"] += len(g.vertices)
    counts["gamma.edges"] += len(g.edges)


def _covered(counts, args, c):
    counts["cover.vertices"] += len(c.total.vertices)


# (span name, owner, attribute, counter hook)
ENTRY_POINTS = (
    ("dsl.parse", dsl, "parse_source", None),
    ("quiver.enumerate", quiver, "enumerate_paths", _enumerated),
    ("quiver.enumerate", quiver, "paths_between", None),
    ("ideal.close", ideal, "close_ideal", _closed),
    ("snf.snf", snf, "smith_normal_form", None),
    ("coset.enumerate", coset, "enumerate_cosets", None),
    ("homotopy.build", homotopy.HomotopyRelation, "__init__", _built),
    ("homotopy.decide", homotopy.HomotopyRelation, "decide", _decided),
    ("homotopy.fingerprint", homotopy, "fingerprint_key", None),
    ("transform.apply", transform, "apply_automorphism", _applied),
    ("gamma.explore", gamma, "explore_gamma", _explored),
    ("gamma.probe", gamma, "successor_probe", None),
    ("gamma.probe", gamma, "predecessor_probe", None),
    ("gamma.surjection", gamma, "check_surjection", None),
    ("cover.build", cover, "universal_cover", _covered),
    ("cover.check", cover, "check_covering", None),
)

# per-layer metric -> span name whose self time it reports
SELF_TIMES = {
    "dsl.parse_s": "dsl.parse",
    "quiver.enumerate_s": "quiver.enumerate",
    "ideal.close_s": "ideal.close",
    "snf.snf_s": "snf.snf",
    "coset.enumerate_s": "coset.enumerate",
    "homotopy.build_s": "homotopy.build",
    "homotopy.decide_s": "homotopy.decide",
    "homotopy.fingerprint_s": "homotopy.fingerprint",
    "transform.apply_s": "transform.apply",
    "gamma.explore_s": "gamma.explore",
    "gamma.probe_s": "gamma.probe",
    "gamma.surjection_s": "gamma.surjection",
    "cover.build_s": "cover.build",
    "cover.check_s": "cover.check",
}

COUNTS = ("quiver.paths", "ideal.close_calls", "ideal.dim",
          "homotopy.builds", "homotopy.relators", "homotopy.fingerprint_pairs",
          "homotopy.decisions", "homotopy.decide.chain", "homotopy.decide.free",
          "homotopy.decide.abelianization", "homotopy.decide.coset",
          "homotopy.unknown", "transform.applies", "gamma.vertices",
          "gamma.edges", "cover.vertices")


class Counts(dict):
    """Counters by metric name, plus the path tuples already counted."""

    def __init__(self):
        super().__init__(dict.fromkeys(COUNTS, 0))
        self.enumerated = set()


class Tracer:
    """Spans kept in memory as [name, start, end, parent index]."""

    def __init__(self):
        self.spans = []
        self._open = []
        self.counts = Counts()

    def wrap(self, name, fn, hook):
        spans = self.spans
        stack = self._open
        counts = self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, clock(), None, stack[-1] if stack else None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if hook is not None:
                hook(counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "bqkit" or n.startswith("bqkit."))]
        for name, owner, attr, hook in ENTRY_POINTS:
            original = getattr(owner, attr)
            traced = self.wrap(name, original, hook)
            if isinstance(owner, type):
                setattr(owner, attr, traced)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)

    def self_times(self):
        """Self time per span name: duration minus direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = {}
        for (name, start, end, _), inner in zip(self.spans, child):
            out[name] = out.get(name, 0.0) + (end - start - inner)
        return out

    def metrics(self):
        times = self.self_times()
        out = {metric: times.get(span, 0.0)
               for metric, span in SELF_TIMES.items()}
        out.update((k, self.counts[k]) for k in COUNTS)
        # Gamma edges found per transvection image computed
        applies = self.counts["transform.applies"]
        out["gamma.hit_ratio"] = self.counts["gamma.edges"] / applies if applies else 0.0
        return out

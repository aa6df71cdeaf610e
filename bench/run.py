"""The bqkit benchmark: timed passes of one workload in fresh processes.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

Run from the root of a source checkout; the program is imported from
``src/``.  Every pass runs in a fresh worker process (``worker.py``), one
at a time, with ``PYTHONHASHSEED`` pinned: bqkit caches results on
``Quiver`` values for the life of a process, so a second pass in the
same process would measure a warm state no ``bq`` user sees, and the
hash seed changes how much work Gamma exploration does.

With ``--trace 0`` the run first starts ``SETUP_ONLY`` workers that stop
once their inputs are ready, then runs passes until the next one would
end after ``--seconds``, and reports the end-to-end metrics as medians
over passes (``setup_s`` over every worker).  With ``--trace 1`` it
alternates untraced and traced passes and reports the per-layer metrics
as medians over the traced passes, the decision latencies from the
untraced ones, and the ratio of their solve times as
``trace.overhead_ratio``.  Times are wall times scaled to a reference
machine speed measured inside each worker (see ``worker.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted`` and ``failed`` (jobs, summed over passes) and
``metrics``; the line before it records the pinned hash seed, the
per-pass scaled and raw times and the outputs that were checked.  A job
fails when it raises, ends Unknown or fails its output check, so the
failure ratio is ``failed / attempted``.  ``--smoke`` runs
every workload once at its smallest size in both modes and checks the
result schema against ``BENCHMARK.json`` and the output checks, with no
timing bound.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
HASH_SEED = "0"
SETUP_ONLY = 6
DEADLINE_S = 170  # a run must end within 180 s


class RunError(Exception):
    """A worker could not run; the benchmark prints no result."""


class Run:
    """Workers started for one run, one at a time, under one deadline."""

    def __init__(self, workload, seed, smoke=False):
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        self.started = time.perf_counter()

    def elapsed(self):
        return time.perf_counter() - self.started

    def worker(self, trace=0, setup_only=False):
        """Start one worker, wait for it and return its report."""
        timeout = DEADLINE_S - self.elapsed()
        if timeout <= 0:
            raise RunError("deadline reached before the next worker")
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        env.pop("PYTHONPATH", None)
        cmd = [sys.executable, WORKER, "--workload", self.workload,
               "--seed", str(self.seed), "--trace", str(trace)]
        cmd += ["--smoke"] if self.smoke else []
        cmd += ["--setup-only"] if setup_only else []
        begun = time.perf_counter()
        try:
            proc = subprocess.run(cmd + ["--spawned-at", repr(begun)],
                                  cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise RunError("worker exceeded the %d s deadline" % DEADLINE_S) from None
        if proc.returncode != 0:
            raise RunError("worker exited with code %d" % proc.returncode)
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        report["wall_s"] = time.perf_counter() - begun
        return report

    def rounds(self, seconds, traces):
        """Rounds of passes, one per entry of ``traces``, until the next
        round would end after ``seconds``; at least one round."""
        done = []
        while True:
            done.append([self.worker(trace) for trace in traces])
            longest = max(sum(p["wall_s"] for p in r) for r in done)
            if self.elapsed() + longest > seconds:
                return done


def unit(metric):
    for suffix, name in (("_ms", "ms"), ("_mb", "MB"), ("_s", "s"),
                         ("_ratio", "ratio")):
        if metric.endswith(suffix):
            return name
    return "count"


def nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(setups, passes):
    return {
        "setup_s": statistics.median(s["setup_s"] for s in setups + passes),
        "solve_s": statistics.median(p["solve_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def per_layer(untraced, traced):
    out = {name: statistics.median(p["layers"][name] for p in traced)
           for name in traced[0]["layers"]}
    out["trace.overhead_ratio"] = (
        statistics.median(p["solve_s"] for p in traced)
        / statistics.median(p["solve_s"] for p in untraced))
    # decisions the benchmark times itself, on word-dihedral only
    latencies = [p["outputs"].get("decide_s", ()) for p in untraced]
    for q in (50, 90):
        out["homotopy.decide_p%d_ms" % q] = statistics.median(
            1000 * nearest_rank(lat, q / 100) if lat else 0.0
            for lat in latencies)
    return out


def measure(workload, seed, seconds, trace, smoke=False):
    """One run: returns the result object and a record of its passes."""
    run = Run(workload, seed, smoke)
    setups = []
    if trace:
        rounds = run.rounds(seconds, (0, 1))
        untraced = [r[0] for r in rounds]
        traced = [r[1] for r in rounds]
        passes = untraced + traced
        metrics = per_layer(untraced, traced)
    else:
        setups = [run.worker(setup_only=True) for _ in range(SETUP_ONLY)]
        passes = [r[0] for r in run.rounds(seconds, (0,))]
        metrics = end_to_end(setups, passes)
    for p in passes:
        p["outputs"].pop("decide_s", None)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": unit(k)}
                          for k, v in metrics.items()}}
    record = {"workload": workload, "seed": seed, "trace": trace,
              "PYTHONHASHSEED": HASH_SEED,
              "setup_s": [p["setup_s"] for p in setups + passes],
              "solve_s": [p["solve_s"] for p in passes],
              "solve_wall": [p["solve_wall"] for p in passes],
              "probe_ms": [p["probe_ms"] for p in passes],
              "outputs": [p["outputs"] for p in passes]}
    return result, record


def smoke(names):
    """Each workload at its smallest size, in both modes; True if clean."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ok = True
    for name in names:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, record = measure(name, 1, 0, trace, smoke=True)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            clean = (got == want and result["correct"]
                     and result["failed"] == 0 and result["attempted"] > 0)
            ok = ok and clean
            print("%s %s trace=%d attempted=%d failed=%d outputs=%s"
                  % ("ok  " if clean else "FAIL", name, trace,
                     result["attempted"], result["failed"],
                     json.dumps(record["outputs"][0])))
            if got != want:
                print("     schema differs: missing %s, unexpected %s"
                      % (sorted(set(want) - set(got)), sorted(set(got) - set(want))))
    return ok


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Timed bqkit workloads in fresh worker processes.")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at its smallest size and "
                             "check the schema and outputs")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "bqkit", "__init__.py")):
        sys.exit("run.py: no bqkit source under %s" % os.path.join(ROOT, "src"))
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from workloads import WORKLOADS

    if args.smoke:
        names = [args.workload] if args.workload else list(WORKLOADS)
        sys.exit(0 if smoke(names) else 1)
    if args.workload not in WORKLOADS:
        parser.error("--workload must be one of %s" % ", ".join(WORKLOADS))
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        result, record = measure(args.workload, args.seed, args.seconds, args.trace)
    except RunError as exc:
        sys.exit("run.py: %s" % exc)
    print(json.dumps(record))
    print(json.dumps(result))


if __name__ == "__main__":
    main()

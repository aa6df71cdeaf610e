"""One benchmark pass in a fresh process: set up, solve, check, report.

Started by ``run.py``; prints one JSON object on its last line of
standard output.  Set-up runs from ``--spawned-at``, a
``time.perf_counter`` reading the parent took just before starting this
process (the clock is system-wide on Linux), to the moment the inputs
are ready, so it covers interpreter start, ``import bqkit``, generation
and parsing.  Solving is the wall time of the workload's jobs; the
output checks run after it.  With ``--trace 1`` the entry points are
wrapped before set-up and the per-layer metrics are reported too.

Every time is reported twice: as measured (``*_wall``) and scaled to a
reference speed by ``SpeedProbe``, which times a fixed loop in this
process every 0.1 s.  On a shared machine the speed of the same code
drifts by up to 2x over tens of seconds, and the probe's time tracks
it: on a shared 2-vCPU VM, scaling cut the variation between passes
(standard deviation over mean) from 0.12 to 0.04 for grid6 and from
0.25 to 0.04 for gamma-f2.
"""

import argparse
import json
import os
import resource
import signal
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _fixed_work():
    """About 1 ms of dict, tuple and integer work, like bqkit's own."""
    table = {}
    acc = 0
    for i in range(3000):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + i
        acc += i * i % 7
    return acc


class SpeedProbe:
    """Times ``_fixed_work`` three times at entry and exit and, while
    entered, from a timer signal every ``INTERVAL`` seconds."""

    INTERVAL = 0.1
    REFERENCE_S = 0.001  # the loop's time at the reference speed

    def __init__(self):
        self.samples = []
        self.interrupted_s = 0.0  # time taken from the measured code

    def sample(self):
        start = time.perf_counter()
        _fixed_work()
        took = time.perf_counter() - start
        self.samples.append(took)
        return took

    def _on_timer(self, signum, frame):
        self.interrupted_s += self.sample()

    def __enter__(self):
        for _ in range(3):
            self.sample()
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL, self.INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        for _ in range(3):
            self.sample()

    def typical_s(self):
        """Mean probe time without the fastest and slowest fifth of the
        samples, which catch a preemption or a lucky moment rather than
        the machine's speed."""
        ordered = sorted(self.samples)
        cut = len(ordered) // 5
        return statistics.mean(ordered[cut:len(ordered) - cut])

    def scale(self):
        """Factor taking this process's times to the reference speed."""
        return self.REFERENCE_S / self.typical_s()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    workload, inputs = workloads.setup(args.workload, args.seed, args.smoke)
    setup_wall = time.perf_counter() - args.spawned_at
    if args.setup_only:
        probe = SpeedProbe()
        for _ in range(5):
            probe.sample()
        print(json.dumps({"setup_wall": setup_wall,
                          "setup_s": setup_wall * probe.scale()}))
        return

    error = None
    with SpeedProbe() as probe:
        start = time.perf_counter()
        try:
            result = workload.solve(inputs)
        except Exception:  # a job that raises is a failed job, not a crash
            error = traceback.format_exc()
        solve_wall = time.perf_counter() - start - probe.interrupted_s
    scale = probe.scale()
    if error is None:
        attempted, failed, outputs = workload.check(result, inputs)
    else:
        print(error, file=sys.stderr)
        attempted, failed, outputs = 1, 1, {"error": error.splitlines()[-1][:200]}
    if "decide_s" in outputs:
        outputs["decide_s"] = [t * scale for t in outputs["decide_s"]]
    report = {"setup_wall": setup_wall, "setup_s": setup_wall * scale,
              "solve_wall": solve_wall, "solve_s": solve_wall * scale,
              "probe_ms": 1000 * probe.typical_s(),
              "attempted": attempted, "failed": failed, "outputs": outputs,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is not None:
        report["layers"] = {name: value * scale if name.endswith("_s") else value
                            for name, value in tracer.metrics().items()}
    print(json.dumps(report))


if __name__ == "__main__":
    main()

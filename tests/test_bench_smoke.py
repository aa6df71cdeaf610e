"""The benchmark's smoke run: every workload once at its smallest size.

``bench/run.py --smoke`` checks the result schema and each workload's
output check.  It fails when an entry point that ``bench/tracer.py`` or
``bench/workloads.py`` binds is renamed or removed.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_bench_smoke():
    proc = subprocess.run([sys.executable, os.path.join("bench", "run.py"),
                           "--smoke"],
                          cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout

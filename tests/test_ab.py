import math
import re
import subprocess
import sys
from pathlib import Path

from same_bits import LINES

ROOT = Path(__file__).resolve().parent.parent


def test_this_checkout_against_itself_reads_finite_ratios_and_equal_bits():
    run = subprocess.run([sys.executable, "tests/ab.py", "--parent-src", "src", "--pool", "2",
                          "--rounds", "1"], cwd=ROOT, capture_output=True, text=True,
                         timeout=300)
    assert run.returncode == 0, run.stderr
    ratios = re.findall(r"^(\S+) (\S+)-first round 1: p90 (\S+) mean (\S+) ", run.stdout,
                        re.MULTILINE)
    # each workload is timed in both load orders, one process each
    assert [(workload, first) for workload, first, _, _ in ratios] == [
        (workload, first) for workload in LINES for first in ("parent", "change")]
    for _, _, p90, mean in ratios:
        assert all(math.isfinite(float(v)) and float(v) > 0 for v in (p90, mean))
    for workload in LINES:
        assert f"same bits, {workload}: equal" in run.stdout.splitlines()

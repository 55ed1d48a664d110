"""The benchmark's own self-check, run as part of the test suite."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_bench_self_check_passes():
    """python3 bench/run.py --self-check exits 0 and reports 0 problems.  It
    traces public names of the package, among them some that only tests
    call (act, sample_stable, check_relations, inverse, kernel_basis,
    jordan_basis, conjugator), so removing or renaming one fails here as
    well as in the benchmark."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--self-check"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1] == "0 problem(s)", done.stdout

"""The benchmark's smoke round as a test: one checked round of every
workload, untraced and traced.  Its checks come from perfbench/oracle.py,
which does not import affaut (for example the conjugation-matrix check
c_j . f = f . g_j and the module decomposition's slot orders), so this
gates the package against arithmetic written apart from it."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = ("zmod-filtered", "series-filtered", "cli-cold")


def test_bench_smoke_round_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--smoke"],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = [ln.split() for ln in proc.stdout.splitlines() if ln.startswith("smoke ")]
    for name in WORKLOADS:
        for traced in ("traced=0", "traced=1"):
            assert [ln[3] for ln in lines if ln[1:3] == [name, traced]] == ["ok"], proc.stdout

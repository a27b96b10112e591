"""Benchmark of affaut: one workload per run, or a smoke test of all three.

    python3 perfbench/run.py --workload zmod-filtered --seed 1 --seconds 38 --trace 0
    python3 perfbench/run.py --smoke

Run from anywhere; the package is imported from ``src`` next to this
directory, never from an installed copy.  The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``).  See README.md for what is measured and why.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

import tracer as T

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("zmod-filtered", "series-filtered", "cli-cold")
MIN_OPS = 40          # so that the tail has at least 30 operations below it
MIN_TRACED_OPS = 2
TIMED_CAP_S = 120     # hard stop for the timed phase, well inside 180 s a run
SETUP_PROBES = 11
TAIL_BEYOND = 10      # the tail: the highest percentile with ten operations beyond it


def _import_affaut():
    """Import affaut from this checkout's src; exit 2 when it is missing."""
    if not os.path.isfile(os.path.join(SRC, "affaut", "__init__.py")):
        sys.exit(f"perfbench: no affaut sources under {SRC}")
    sys.path.insert(0, SRC)
    import affaut

    if os.path.realpath(os.path.dirname(os.path.dirname(affaut.__file__))) != os.path.realpath(SRC):
        sys.exit(f"perfbench: affaut imported from {affaut.__file__}, not {SRC}")


def make_workload(name: str, seed: int, tracer=None):
    import workloads as W  # imports affaut, so only after _import_affaut

    if name == "zmod-filtered":
        return W.ZmodFiltered(seed)
    if name == "series-filtered":
        return W.SeriesFiltered(seed)
    os.makedirs(OUT, exist_ok=True)
    return W.CliCold(seed, OUT, SRC, tracer)


def reference_work() -> list:
    """Fixed pure-Python work that never touches affaut: a schoolbook
    product of two 48-term polynomials mod 3^10, fifty times (about 20 ms
    on the reference machine).  Timed right after every operation, it
    shows how fast the host ran the interpreter at that moment."""
    m = 3 ** 10
    a = [(7 * i + 3) % m for i in range(48)]
    b = [(5 * i + 1) % m for i in range(48)]
    out = [0] * 96
    for _ in range(50):
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % m
    return out


def time_reference() -> float:
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


class Runner:
    """Runs whole rounds of a workload, times each operation and the
    reference work right after it, and checks outputs outside the timed
    region."""

    def __init__(self, workload):
        self.wl = workload
        self.verified: dict = {}
        self.correct = True
        self.attempted = 0
        self.failed = 0
        self.durations: list = []
        self.refs: list = []

    def _op(self, i):
        wl = self.wl
        wl.before(i)
        gc.collect()
        t0 = time.perf_counter()
        try:
            outputs = wl.run(i)
        except Exception:  # a failing operation is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            return None
        dt = time.perf_counter() - t0
        ref = time_reference()
        wl.after(i)
        # Operations with the same index repeat the same inputs, so their
        # outputs must repeat exactly; the first is checked in full.
        if i not in self.verified:
            self.verified[i] = (outputs, bool(wl.check(i, outputs)))
        first, ok = self.verified[i]
        if not ok or outputs != first:
            print(f"perfbench: operation {i} gave wrong outputs", file=sys.stderr)
            self.correct = False
            return None
        return dt, ref

    def round(self, timed: bool):
        for i in range(self.wl.rounds):
            timing = self._op(i)
            if timed:
                self.attempted += 1
                if timing:
                    self.durations.append(timing[0])
                    self.refs.append(timing[1])
                else:
                    self.failed += 1

    def measure(self, seconds: float, min_ops: int, probe=None) -> list:
        """Timed rounds; with a probe, also SETUP_PROBES set-up probes spread
        evenly over the timed phase (between rounds, untimed), so that
        their median samples the machine as the operations do."""
        probes: list = []
        want = SETUP_PROBES if probe else 0
        t0 = time.perf_counter()
        while True:
            self.round(timed=True)
            elapsed = time.perf_counter() - t0
            if len(probes) < want and elapsed >= (len(probes) + 1) * seconds / (want + 1):
                probes.append(probe())
            if elapsed >= TIMED_CAP_S or (elapsed >= seconds and self.attempted >= min_ops):
                break
        while len(probes) < want:
            probes.append(probe())
        return probes


def setup_probe(workload: str, seed: int) -> float:
    """Wall time from spawning a fresh interpreter to the end of the
    workload's set-up in it."""
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--setup-probe",
            "--workload", workload, "--seed", str(seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        dt = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != b"ready":
        raise RuntimeError(f"set-up probe exited with {proc.returncode}")
    return dt


def tail(values: list) -> float:
    return sorted(values)[max(0, len(values) - 1 - TAIL_BEYOND)]


def measure(args) -> dict:
    tracer = None
    if args.trace:
        tracer = T.Tracer()
        tracer.install()
    wl = make_workload(args.workload, args.seed, tracer)
    try:
        runner = Runner(wl)
        runner.round(timed=False)  # warm-up, checked but not counted
        if tracer is None:
            probes = runner.measure(args.seconds, MIN_OPS, lambda: setup_probe(args.workload, args.seed))
        else:
            tracer.reset()
            runner.measure(args.seconds, MIN_TRACED_OPS)
        if hasattr(wl, "peak_rss_mb"):
            peak = wl.peak_rss_mb()
        else:
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        wl.close()
    ds = runner.durations
    if not ds:
        sys.exit("perfbench: no operation succeeded")
    result = {"correct": runner.correct, "attempted": runner.attempted, "failed": runner.failed}
    ops_per_s = len(ds) / sum(ds)
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}")
    if tracer is not None:
        result["metrics"] = tracer.per_layer(len(ds))
        summary = dict(result, workload=args.workload, seed=args.seed, traced_ops_per_s=ops_per_s)
        tracer.dump(stem + ".trace.jsonl", summary)
        print(f"perfbench: traced ops_per_s {ops_per_s:.4f} over {len(ds)} operations", file=sys.stderr)
        return result
    # Each operation in units of the reference work timed right after it:
    # the host's speed swings by up to 2x for seconds to minutes, and
    # divides out of the ratio (README.md, "What the numbers need").
    rel = [d / r for d, r in zip(ds, runner.refs)]
    result["metrics"] = {
        "op_p50_rel": {"value": statistics.median(rel), "unit": "ref"},
        "op_tail_rel": {"value": tail(rel), "unit": "ref"},
        "setup_s": {"value": statistics.median(probes), "unit": "s"},
        "peak_rss_mb": {"value": peak, "unit": "MB"},
    }
    recorded = {
        "ops_per_s": ops_per_s,
        "op_p50_ms": statistics.median(ds) * 1e3,
        "op_tail_ms": tail(ds) * 1e3,
        "ref_p50_ms": statistics.median(runner.refs) * 1e3,
    }
    print("perfbench: " + " ".join(f"{k} {v:.4f}" for k, v in recorded.items())
          + f" over {len(ds)} operations", file=sys.stderr)
    with open(stem + ".run.json", "w", encoding="utf-8") as fh:
        json.dump(dict(result, recorded=recorded, durations_s=ds, refs_s=runner.refs,
                       setup_probes_s=probes), fh)
    return result


def smoke() -> int:
    """One checked round of every workload, untraced and then traced."""
    bad = 0
    for traced in (False, True):
        tracer = None
        if traced:
            tracer = T.Tracer()
            tracer.install()
        for name in WORKLOADS:
            wl = make_workload(name, 1, tracer)
            t0 = time.perf_counter()
            try:
                runner = Runner(wl)
                runner.round(timed=True)
            finally:
                wl.close()
            ok = runner.correct and not runner.failed
            bad += not ok
            state = "ok" if ok else "FAILED"
            print(f"smoke {name:16s} traced={int(traced)} {state} [{time.perf_counter() - t0:.1f}s]")
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=38)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="one checked round of every workload")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    _import_affaut()
    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required")
    if args.setup_probe:
        wl = make_workload(args.workload, args.seed)
        sys.stdout.write("ready\n")
        sys.stdout.flush()
        wl.close()
        return 0
    result = measure(args)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The workloads.  Each is a fixed round of operations built from a seed.

A workload object does its set-up in ``__init__`` (rings and fixed inputs),
and then offers ``rounds`` operations: ``run(i)`` performs operation i
through affaut's public API and returns its outputs, ``check(i, outputs)``
verifies them with :mod:`oracle` and returns True or False.  ``before(i)``
is untimed preparation.  Every call into affaut goes through an attribute
of the ``affaut`` package or one of its modules at call time, so the
wrappers that :mod:`tracer` installs see it.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import tempfile
import time

import affaut as A
from affaut.autgroup import SubgroupSpec, TruncPoly

import oracle as O

POINTS = 4  # random points per pointwise check
AXIOM_SAMPLES = 50  # triples of the sampled group-axiom check


def _coeffs(f) -> list:
    return list(f.raw_coeffs())


def _columns(rows) -> list:
    return [list(col) for col in zip(*rows)]


def _specialized(entries, n, degree, prec, rng):
    """A random numeric point of the generic conjugator a + bT + q c T^2 +
    q^2 d T^3 + q^3 e T^4 (cut at degree) over Z/p^n: the oracle ring, the
    conjugator's coefficients, and the symbolic entries evaluated there."""
    p = rng.choice((2, 3, 5, 7))
    R = O.ZMod(p, n)
    values = {"a": R.rand(rng), "b": R.rand_unit(rng)}
    values.update({k: R.rand(rng) for k in "cde"})
    f = [values["a"], values["b"]] + [
        R.mul(R.q_power(j - 1), values[k]) for j, k in zip(range(2, degree + 1), "cde")
    ]
    rows = [[O.specialize(t, values, p, prec, bk) for t, bk in row] for row in entries]
    return R, f, rows


def _decomposition_ok(weights, orders, agrees, summands, n, r) -> bool:
    """Slot j of the level-r kernel is generated by T + q^w T^j with
    w = max(r, j-1); scaling by q^k reaches T exactly when w + k >= n."""
    want_weights = [min(max(r, j - 1), n) for j in range(n + 1)]
    want_orders = [n - w for w in want_weights]
    return (
        list(weights) == want_weights
        and list(orders) == want_orders
        and agrees is True
        and list(summands) == sorted((k for k in want_orders if k), reverse=True)
    )


class _Sweep:
    """Shared shape of the two filtered sweeps: one operation per round."""

    rounds = 1

    def __init__(self, seed: int):
        self.seed = seed
        self.cells = []

    def before(self, i):
        pass

    def after(self, i):
        pass

    def close(self):
        pass

    def _cell(self, cell, rng):
        ring, d, spec = cell["ring"], cell["d"], cell["spec"]
        f = A.sample_filtered(ring, d, rng)
        g = A.sample_filtered(ring, d, rng)
        h = A.compose(f, g)
        hi = A.invert(h)
        rec = [f, g, h, hi, A.member(h, spec), A.member(hi, spec)]
        if cell["extras"]:
            r = ring.truncation // 2
            rec += [
                A.oracle_invert(h),
                A.ad(h, cell["kernel"], r),
                A.ad_matrix(cell["conjugator"], f"k:{ring.truncation},{r}"),
                A.module_decomposition(ring, r),
            ]
        return rec

    def run(self, i):
        rng = random.Random(self.seed)
        return [self._cell(cell, rng) for cell in self.cells]

    def _check_cell(self, cell, rec, rng) -> bool:
        R, d = cell["oracle"], cell["d"]
        f, g, h, hi = (_coeffs(x) for x in rec[:4])
        ok = all(O.is_automorphism(R, x) and O.in_atilde(R, x, d) for x in (f, g))
        pts = [R.rand(rng) for _ in range(POINTS)]
        ev = O.evaluate
        ok = ok and all(ev(R, h, x) == ev(R, f, ev(R, g, x)) for x in pts)
        ok = ok and all(ev(R, h, ev(R, hi, x)) == x for x in pts)
        ok = ok and all(ev(R, hi, ev(R, h, x)) == x for x in pts)
        # membership from the raw coefficients; true by closure of the group
        ok = ok and rec[4] is True and O.in_atilde(R, h, d)
        ok = ok and rec[5] is True and O.in_atilde(R, hi, d)
        if not cell["extras"] or not ok:
            return ok
        oracle_inv, conj, matrix, dec = rec[6:]
        n = R.n
        r = n // 2
        kern = _coeffs(cell["kernel"])
        c = _coeffs(conj)
        ok = _coeffs(oracle_inv) == hi
        ok = ok and all(ev(R, c, ev(R, h, x)) == ev(R, h, ev(R, kern, x)) for x in pts)
        ok = ok and O.check_conjugation_matrix(
            R, _coeffs(cell["conjugator"]), "k", r, _columns(matrix.rows)
        )
        return ok and _decomposition_ok(dec.weights, dec.orders, dec.agrees, dec.summands, n, r)

    def check(self, i, outputs) -> bool:
        rng = random.Random(self.seed + 1)
        return len(outputs) == len(self.cells) and all(
            self._check_cell(cell, rec, rng) for cell, rec in zip(self.cells, outputs)
        )

    def _add_cell(self, ring, R, d, extras, rng):
        cell = {
            "ring": ring, "oracle": R, "d": d, "extras": extras,
            "spec": SubgroupSpec.parse(f"atilde:{d}"),
        }
        if extras:
            n, r = R.n, R.n // 2
            # T + q^r h with deg h <= n: a level-r kernel element
            kern = [R.mul(R.q_power(r), R.rand(rng)) for _ in range(n + 1)]
            kern[1] = R.add(kern[1], R.one)
            cell["kernel"] = TruncPoly(ring, kern)
            # a + bT + q c T^2 + q^2 d T^3 + ...: the shape conjugator
            conj = [R.rand(rng), R.rand_unit(rng)]
            conj += [R.mul(R.q_power(j - 1), R.rand(rng)) for j in range(2, self.conj_degree + 1)]
            cell["conjugator"] = TruncPoly(ring, conj)
        self.cells.append(cell)


class ZmodFiltered(_Sweep):
    """Z/p^n, p in {2,3,5}, n in {6,8,10}, d = 4 (and d = 2 at n = 10),
    plus the order of the sparse generators of acceptance criterion 2."""

    conj_degree = 4

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = random.Random(seed + 2)
        for p in (2, 3, 5):
            for n in (6, 8, 10):
                ring = A.IntModRing(p ** n, q=p)
                for d in ((2, 4) if n == 10 else (4,)):
                    self._add_cell(ring, O.ZMod(p, n), d, n == 6, rng)
        self.generators = []
        for p in (2, 3):
            ring = A.IntModRing(p ** 6, q=p)
            for d in (1, 2):
                coeffs = O.sparse_generator(p, 6, d)
                self.generators.append((TruncPoly(ring, coeffs), coeffs, ring.m))

    def run(self, i):
        return super().run(i) + [[A.order(psi) for psi, _, _ in self.generators]]

    def check(self, i, outputs) -> bool:
        orders = outputs[-1]
        return super().check(i, outputs[:-1]) and len(orders) == len(self.generators) and all(
            O.is_order(coeffs, k, m) for (_, coeffs, m), k in zip(self.generators, orders)
        )


class SeriesFiltered(_Sweep):
    """F_p[t]/(t^e), p in {2,3,5}, e in {4,5,6}, d in {1,2}; the extras run
    on the e = 6, d = 1 cells."""

    conj_degree = 3

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = random.Random(seed + 2)
        for p in (2, 3, 5):
            for e in (4, 5, 6):
                ring = A.TruncSeriesRing("fp", e, p=p)
                for d in (1, 2):
                    self._add_cell(ring, O.Series(p, e), d, e == 6 and d == 1, rng)


class CliCold:
    """One fresh ``python -m affaut.cli <verb>`` process per operation; a
    round cycles through ten verbs on small JSON inputs."""

    def __init__(self, seed: int, out_dir: str, src: str, tracer=None):
        self.seed = seed
        self.tracer = tracer
        self.tmp = tempfile.TemporaryDirectory(dir=out_dir, prefix="cli-")
        d = self.tmp.name
        path = [src] + [x for x in os.environ.get("PYTHONPATH", "").split(os.pathsep) if x]
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        self.child = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_child.py")
        rng = random.Random(seed + 2)
        self.R = O.ZMod(3, 4)
        self.f = O.sample_filtered(self.R, 2, rng)
        self.g = O.sample_filtered(self.R, 2, rng)
        # an element of the level-1 kernel over Z/64: its order is a power of 2
        R64 = O.ZMod(2, 6)
        psi = O.sample_filtered(R64, 1, rng)
        psi[0] = 2 * rng.randrange(32)
        psi[1] = 1 + 2 * rng.randrange(32)
        self.psi = O.trim(R64, psi)
        self.times = rng.randrange(2, 9)
        self.verb_seed = rng.randrange(10 ** 6)

        def put(name, coeffs):
            path = os.path.join(d, name)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"coeffs": [str(c) for c in coeffs]}, fh)
            return path

        f, g, psi = put("f.json", self.f), put("g.json", self.g), put("psi.json", self.psi)
        z81 = ["--ring", "zmod:81:q=3"]
        self.commands = [
            ["compose", *z81, "--f", f, "--g", g],
            ["invert", *z81, "--f", f, "--check"],
            ["member", *z81, "--f", f, "--subgroup", "atilde:2"],
            ["order", "--ring", "zmod:64:q=2", "--f", psi],
            ["iterate", *z81, "--f", f, "--times", str(self.times)],
            ["series", *z81, "--seed", str(self.verb_seed), "--samples", "20"],
            ["witt-derive", "--p", "2", "--level", "2"],
            ["greenberg-law", "--p", "3", "--d", "2", "--verify", "sampled",
             "--seed", str(self.verb_seed), "--samples", str(AXIOM_SAMPLES)],
            ["ad-matrix", "--ring", "sym:n=4", "--subgroup", "k:4,2", "--degree", "3"],
            ["module-decomp", *z81, "--level", "2"],
        ]
        self.rounds = len(self.commands)
        self.peak_kb = 0

    def close(self):
        self.tmp.cleanup()

    def before(self, i):
        pass

    def _spawn(self, argv):
        """Run a child to its end; return its exit code, stdout and rusage."""
        out_path = os.path.join(self.tmp.name, "stdout")
        with open(out_path, "wb") as out, open(os.devnull, "wb") as err:
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, "rb") as fh:
            return proc.returncode, fh.read(), usage

    def run(self, i):
        if self.tracer is None:
            argv = [sys.executable, "-m", "affaut.cli", *self.commands[i]]
        else:
            timing = os.path.join(self.tmp.name, "timing")
            argv = [sys.executable, self.child, timing, *self.commands[i]]
        code, stdout, usage = self._spawn(argv)
        self.peak_kb = max(self.peak_kb, usage.ru_maxrss)
        return code, stdout

    def after(self, i):
        """In a traced run, take over the child's trace, and time a bare
        interpreter start (untimed here)."""
        if self.tracer is None:
            return
        with open(os.path.join(self.tmp.name, "timing"), encoding="utf-8") as fh:
            child = json.load(fh)
        self.tracer.merge(child["trace"])
        t0 = time.perf_counter_ns()
        self._spawn([sys.executable, "-c", "pass"])
        self.tracer.record("cli.interpreter", time.perf_counter_ns() - t0)
        self.tracer.record("cli.import", child["import_ns"])
        self.tracer.record("cli.main", child["main_ns"])

    def peak_rss_mb(self) -> float:
        return self.peak_kb / 1024

    def check(self, i, outputs) -> bool:
        code, stdout = outputs
        if code != 0:
            return False
        try:
            out = json.loads(stdout)
        except ValueError:
            return False
        return getattr(self, "_check_" + self.commands[i][0].replace("-", "_"))(
            out, random.Random(self.seed + 1)
        )

    # -- one check per verb -----------------------------------------------------

    def _poly(self, out):
        return O.trim(self.R, [int(c) for c in out["coeffs"]])

    def _check_compose(self, out, rng):
        return self._poly(out) == O.compose(self.R, self.f, self.g)

    def _check_invert(self, out, rng):
        inv, ident = self._poly(out), O.identity(self.R)
        return (
            O.compose(self.R, self.f, inv) == ident
            and O.compose(self.R, inv, self.f) == ident
            and out["oracle_agrees"] is True
            and isinstance(out["depth"], int)
        )

    def _check_member(self, out, rng):
        return out["member"] is O.in_atilde(self.R, self.f, 2) and out["subgroup"] == "atilde:2"

    def _check_order(self, out, rng):
        return O.is_order(self.psi, out["order"], 64)

    def _check_iterate(self, out, rng):
        acc = O.identity(self.R)
        for _ in range(self.times):
            acc = O.compose(self.R, self.f, acc)
        return self._poly(out) == acc

    def _check_series(self, out, rng):
        chain = [(4, 2), (2, 1)]
        steps = out["steps"]
        return out["all_kernels_abelian"] is True and [
            (s["from_exponent"], s["to_exponent"]) for s in steps
        ] == chain and all(
            s["kernel_abelian"] is True
            and s["pairs_checked"] == 20
            and s["from_modulus"] == str(3 ** a)
            and s["to_modulus"] == str(3 ** b)
            for s, (a, b) in zip(steps, chain)
        )

    def _check_witt_derive(self, out, rng):
        return out["p"] == 2 and out["level"] == 2 and O.check_witt_law(
            2, 2,
            [O.terms_from_json(j) for j in out["sum"]],
            [O.terms_from_json(j) for j in out["prod"]],
            rng,
        )

    def _check_greenberg_law(self, out, rng):
        law, axioms = out["law"], out["axioms"]
        p, length = 3, 2
        coords = law["coordinates"]
        scheme = [tuple(int(x) for x in c[1:].split("_")) for c in coords]
        terms = [O.terms_from_json(law["laws"][c]) for c in coords]
        R = O.ZMod(p, length)
        ok = law["p"] == p and law["descriptor"] == {"kind": "shape", "p": p, "d": 2}
        ok = ok and all(axioms[k] is True for k in ("identity", "associativity", "inverses"))
        ok = ok and axioms["triples_checked"] == AXIOM_SAMPLES
        for _ in range(POINTS):
            s = O.random_point(p, scheme, rng)
            t = O.random_point(p, scheme, rng)
            st = O.law_point(terms, coords, s, t, p)
            ok = ok and O.point_to_map(p, length, scheme, st) == O.compose(
                R, O.point_to_map(p, length, scheme, s), O.point_to_map(p, length, scheme, t)
            )
        return ok

    def _check_ad_matrix(self, out, rng):
        n, r, prec = 4, 2, out["ring"].get("n")
        entries = [
            [(O.terms_from_json(e), int(e.get("b_denominator", 0))) for e in row]
            for row in out["rows"]
        ]
        ok = out["subgroup"] == "k:4,2" and out["mode"] == "symbolic" and len(entries) == n + 1
        for _ in range(2):
            R, f, rows = _specialized(entries, n, 3, prec, rng)
            ok = ok and O.check_conjugation_matrix(R, f, "k", r, _columns(rows))
        return ok

    def _check_module_decomp(self, out, rng):
        n, r = 4, 2
        return out["precision"] == n and out["level"] == r and _decomposition_ok(
            out["slot_weights"], out["slot_orders"], out["agrees"], out["summands"], n, r
        )

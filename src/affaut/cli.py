"""Command line front end.

One verb per library operation, JSON on stdout (or --out), diagnostics
on stderr.  Exit status: 0 on success, 1 when the library rejects the
inputs (the error class name is printed) or a requested verification
fails, 2 on usage errors.  Randomized verbs take their entropy from a
mandatory --seed, so identical invocations produce identical bytes.
Input files and integer flags are read strictly (integers as JSON ints or
decimal strings, extra keys ignored); a malformed one is a usage error.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from typing import Optional

from . import adjoint as adj
from . import autgroup as ag
from . import greenberg as gb
from . import inversion
from . import rings
from . import witt as wt
from .errors import AlgebraError, PreconditionFailed

VERBS = (
    "compose",
    "invert",
    "order",
    "member",
    "iterate",
    "series",
    "witt-derive",
    "witt-add",
    "witt-mul",
    "ghost",
    "witt-iso",
    "greenberg",
    "greenberg-law",
    "verify-law",
    "ad",
    "ad-matrix",
    "module-decomp",
)


class UsageError(Exception):
    """Bad flags or unreadable inputs; exits with status 2."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse's usage errors take the same path
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _flag_type(read, least: Optional[int] = None):
    """argparse type: an integer by the rule of the JSON readers, then read."""
    def parse(s: str):
        try:
            return read(rings._as_int(s, "the value", least))
        except PreconditionFailed as e:
            raise argparse.ArgumentTypeError(str(e))
    return parse


_integer = _flag_type(int)
_natural = _flag_type(int, least=0)
# --samples and --cap: a verdict needs one check, an order search one step
_positive = _flag_type(int, least=1)
_prime = _flag_type(rings._require_prime)


def _read(source: str, reader, *args):
    """reader(*args); its PreconditionFailed becomes a UsageError."""
    try:
        return reader(*args)
    except PreconditionFailed as e:
        raise UsageError(f"{source}: {e}")


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as e:
        raise UsageError(f"cannot read {path}: {e}")
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as e:
        raise UsageError(f"{path} does not hold JSON: {e}")


def _ring(args):
    return _read(f"--ring {args.ring}", rings.parse_ring_flag, args.ring)


def _poly(ring, path: str) -> ag.TruncPoly:
    return _read(path, ag.TruncPoly.from_json, ring, _load_json(path))


def _witt_vec(path: str) -> wt.WittVec:
    return _read(path, wt.WittVec.from_json, _load_json(path))


def _integer_poly(j) -> rings.RingElem:
    """The input of greenberg: {"variables": [...], "terms": [...]}."""
    src = rings.SymbolicRing(rings._field(j, "variables", "polynomial", list))
    return rings.RingElem(src, src.payload_from_json(j, "polynomial"))


def _stored_law(j) -> tuple:
    """A stored law, bare or in greenberg-law output, and its fresh build."""
    stored = rings._field(j, "law", "law file", None, j)
    return stored, gb._build_law(rings._field(stored, "descriptor", "law"))


def _poly_payload(f: ag.TruncPoly) -> dict:
    out = f.to_json()
    out["ring"] = f.ring.descriptor()
    return out


def _need_seed(args) -> random.Random:
    if args.seed is None:
        raise UsageError("this invocation samples; pass --seed")
    return random.Random(args.seed)


def _witt_text(v: wt.WittVec) -> str:
    ring = v.ring
    return "[" + ", ".join(ring.show(c) for c in v.components) + "]"


# -- verb handlers: return (json payload, text rendering, exit status) ------


def _do_compose(args):
    ring = _ring(args)
    h = ag.compose(_poly(ring, args.f), _poly(ring, args.g))
    return _poly_payload(h), repr(h), 0


def _do_invert(args):
    ring = _ring(args)
    f = _poly(ring, args.f)
    inv, depth = inversion.invert_with_depth(f)
    payload = _poly_payload(inv)
    payload["depth"] = depth
    text = f"{inv!r}\ndepth {depth}"
    status = 0
    if args.check:
        agrees = inversion.oracle_invert(f) == inv
        payload["oracle_agrees"] = agrees
        text += f"\noracle agrees: {str(agrees).lower()}"
        if not agrees:
            status = 1
    return payload, text, status


def _do_order(args):
    ring = _ring(args)
    k = ag.order(_poly(ring, args.f), cap=args.cap)
    payload = {"order": k, "cap": args.cap}
    text = f"order {k}" if k is not None else f"no order within {args.cap}"
    return payload, text, 0


def _do_member(args):
    ring = _ring(args)
    spec = _read(f"--subgroup {args.subgroup}", ag.SubgroupSpec.parse, args.subgroup)
    ok = ag.member(_poly(ring, args.f), spec)
    return (
        {"member": ok, "subgroup": spec.show()},
        f"{str(ok).lower()} ({spec.show()})",
        0,
    )


def _do_iterate(args):
    ring = _ring(args)
    h = ag.iterate(_poly(ring, args.f), args.times)
    return _poly_payload(h), repr(h), 0


def _do_series(args):
    ring = _ring(args)
    rng = _need_seed(args)
    steps = ag.composition_series(ring, rng=rng, samples=args.samples)
    payload = {
        "ring": ring.descriptor(),
        "steps": [s.to_json() for s in steps],
        "all_kernels_abelian": all(s.kernel_abelian for s in steps),
    }
    lines = []
    for s in steps:
        mark = "abelian" if s.kernel_abelian else "NOT ABELIAN"
        lines.append(
            f"Z/{s.from_modulus} -> Z/{s.to_modulus}: kernel {mark} "
            f"({s.pairs_checked} pairs)"
        )
    status = 0 if payload["all_kernels_abelian"] else 1
    return payload, "\n".join(lines) if lines else "already affine", status


def _do_witt_derive(args):
    law = wt.derive_witt_laws(args.p, args.level)
    lines = []
    for j in range(args.level + 1):
        lines.append(f"sum[{j}]  = {law.ring.show(law.sum_polys[j])}")
        lines.append(f"prod[{j}] = {law.ring.show(law.prod_polys[j])}")
    return law.to_json(), "\n".join(lines), 0


def _do_witt_add(args):
    out = wt.witt_add(_witt_vec(args.u), _witt_vec(args.v))
    return out.to_json(), _witt_text(out), 0


def _do_witt_mul(args):
    out = wt.witt_mul(_witt_vec(args.u), _witt_vec(args.v))
    return out.to_json(), _witt_text(out), 0


def _do_ghost(args):
    u = _witt_vec(args.u)
    gh = wt.ghost_components(u)
    payload = {
        "p": u.p,
        "ring": u.ring.descriptor(),
        "ghost": [u.ring.payload_to_json(c) for c in gh],
    }
    text = "[" + ", ".join(u.ring.show(c) for c in gh) + "]"
    return payload, text, 0


def _do_witt_iso(args):
    if (args.value is None) == (args.u is None):
        raise UsageError("pass exactly one of --value (to components) or --u")
    if args.value is not None:
        if args.p is None or args.level is None:
            raise UsageError("--value needs --p and --level")
        v = wt.residue_to_witt(args.value, args.p, args.level)
        return v.to_json(), _witt_text(v), 0
    u = _witt_vec(args.u)
    x = wt.witt_to_residue(u)
    payload = {
        "p": u.p,
        "level": u.level,
        "modulus": str(x.ring.m),
        "residue": x.ring.payload_to_json(x.value),
    }
    return payload, f"{x.ring.show(x.value)} (mod {x.ring.m})", 0


def _do_greenberg(args):
    f = _read(args.poly, _integer_poly, _load_json(args.poly))
    cs = gb.greenberg_transform(f, args.p, args.level)
    lines = [
        f"component {k}: {cs.ring.show(poly)}"
        for k, poly in enumerate(cs.polys)
    ]
    return cs.to_json(), "\n".join(lines), 0


def _run_axioms(law: gb.GroupLaw, args):
    if args.verify == "exhaustive":
        return gb.verify_group_axioms(law, mode="exhaustive")
    rng = _need_seed(args)
    return gb.verify_group_axioms(
        law, mode="sampled", rng=rng, samples=args.samples
    )


def _axiom_lines(report) -> list:
    ok = "pass" if report.all_ok else "FAIL"
    return [
        f"axioms ({report.mode}): {ok} "
        f"[{report.points_checked} points, {report.triples_checked} triples]"
    ]


def _do_greenberg_law(args):
    if args.precision is None:
        law = gb.group_law_shape(args.p, args.d)
    else:
        law = gb.group_law_capped(args.p, args.precision, args.d)
    payload = {"law": law.to_json()}
    lines = [law.render_text()]
    status = 0
    if args.verify:
        report = _run_axioms(law, args)
        payload["axioms"] = report.to_json()
        lines += _axiom_lines(report)
        if not report.all_ok:
            status = 1
    return payload, "\n".join(lines), 0 if status == 0 else 1


def _do_verify_law(args):
    stored, law = _read(args.law, _stored_law, _load_json(args.law))
    matches = law.to_json() == stored
    report = _run_axioms(law, args)
    payload = {
        "descriptor": stored["descriptor"],
        "matches_build": matches,
        "axioms": report.to_json(),
    }
    lines = [f"stored law matches a fresh build: {str(matches).lower()}"]
    lines += _axiom_lines(report)
    status = 0 if (matches and report.all_ok) else 1
    return payload, "\n".join(lines), status


def _do_ad(args):
    ring = _ring(args)
    f = _poly(ring, args.f)
    g = _poly(ring, args.g)
    out = adj.ad(f, g, args.level)
    payload = _poly_payload(out)
    payload["level"] = args.level
    return payload, repr(out), 0


def _symbolic_conjugator(ring, args) -> ag.TruncPoly:
    n = ring.truncation
    if n is None:
        raise UsageError("symbolic matrices need sym:n=<k>")
    f = adj.universal_element(n, degree=args.degree)
    if f.ring != ring:
        raise UsageError(
            "the sym ring flag must match the generic conjugator's ring"
        )
    return f


def _do_ad_matrix(args):
    ring = _ring(args)
    if args.f is not None:
        f = _poly(ring, args.f)
    elif isinstance(ring, rings.SymbolicRing):
        f = _symbolic_conjugator(ring, args)
    else:
        raise UsageError("numeric matrices need --f")
    m = adj.ad_matrix(
        f,
        _read(f"--subgroup {args.subgroup}", ag.SubgroupSpec.parse, args.subgroup),
        allow_nonabelian=args.allow_nonabelian,
    )
    return m.to_json(), m.render_text(), 0


def _do_module_decomp(args):
    ring = _ring(args)
    dec = adj.module_decomposition(ring, args.level)
    return dec.to_json(), dec.render_text(), 0


# -- wiring -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="affaut",
        description="automorphisms of the truncated line, from the shell",
    )
    sub = top.add_subparsers(dest="verb", metavar="|".join(VERBS))
    sub.required = True

    def verb(name, handler, ring=False, seed=False, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(handler=handler)
        if ring:
            p.add_argument("--ring", required=True, help="zmod:<m>[:q=<p>] | tq:<p|Q>:<e> | sym[:n=<k>]")
        if seed:
            p.add_argument("--seed", type=_integer, default=None, help="entropy for sampling (required when sampling happens)")
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--out", default=None, help="write output here instead of stdout")
        return p

    p = verb("compose", _do_compose, ring=True, help="f after g")
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)

    p = verb("invert", _do_invert, ring=True, help="compositional inverse")
    p.add_argument("--f", required=True)
    p.add_argument("--check", action="store_true", help="cross-check against the digit-lifting inverter")

    p = verb("order", _do_order, ring=True, help="order under composition")
    p.add_argument("--f", required=True)
    p.add_argument("--cap", type=_positive, default=10 ** 6)

    p = verb("member", _do_member, ring=True, help="subgroup membership")
    p.add_argument("--f", required=True)
    p.add_argument("--subgroup", required=True, help="full | a:<d> | atilde:<d> | n:<n>,<r> | k:<n>,<r>")

    p = verb("iterate", _do_iterate, ring=True, help="k-fold self-composition")
    p.add_argument("--f", required=True)
    p.add_argument("--times", type=_natural, required=True)

    p = verb("series", _do_series, ring=True, seed=True, help="precision-halving filtration with abelian-kernel evidence")
    p.add_argument("--samples", type=_positive, default=100)

    p = verb("witt-derive", _do_witt_derive, help="universal component laws for sums and products")
    p.add_argument("--p", type=_prime, required=True)
    p.add_argument("--level", type=_integer, required=True)

    p = verb("witt-add", _do_witt_add, help="componentwise sum")
    p.add_argument("--u", required=True)
    p.add_argument("--v", required=True)

    p = verb("witt-mul", _do_witt_mul, help="componentwise product")
    p.add_argument("--u", required=True)
    p.add_argument("--v", required=True)

    p = verb("ghost", _do_ghost, help="ghost coordinates of a vector")
    p.add_argument("--u", required=True)

    p = verb("witt-iso", _do_witt_iso, help="vectors over F_p <-> residues mod p^(level+1)")
    p.add_argument("--value", type=_integer, default=None, help="residue to convert to components")
    p.add_argument("--u", default=None, help="vector file to convert to a residue")
    p.add_argument("--p", type=_prime, default=None)
    p.add_argument("--level", type=_integer, default=None)

    p = verb("greenberg", _do_greenberg, help="component system of an integer polynomial")
    p.add_argument("--p", type=_prime, required=True)
    p.add_argument("--level", type=_integer, required=True)
    p.add_argument("--poly", required=True, help='JSON file: {"variables": [...], "terms": [...]}')

    p = verb("greenberg-law", _do_greenberg_law, seed=True, help="component-level composition law")
    p.add_argument("--p", type=_prime, required=True)
    p.add_argument("--d", type=_integer, required=True, help="degree cap")
    p.add_argument("--precision", type=_integer, default=None, help="build the degree-filtered law at this precision instead of the shape law")
    p.add_argument("--verify", choices=("exhaustive", "sampled"), default=None)
    p.add_argument("--samples", type=_positive, default=10000)

    p = verb("verify-law", _do_verify_law, seed=True, help="rebuild a stored law and check the group axioms")
    p.add_argument("--law", required=True)
    p.add_argument("--verify", choices=("exhaustive", "sampled"), default="exhaustive")
    p.add_argument("--samples", type=_positive, default=10000)

    p = verb("ad", _do_ad, ring=True, help="conjugate a congruence element")
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--level", type=_integer, required=True)

    p = verb("ad-matrix", _do_ad_matrix, ring=True, help="matrix of the conjugation action")
    p.add_argument("--f", default=None, help="conjugator (defaults to the generic one over sym rings)")
    p.add_argument("--subgroup", required=True, help="n:<n>,<r> | k:<n>,<r>")
    p.add_argument("--degree", type=_integer, default=None, help="degree of the generic conjugator")
    p.add_argument("--allow-nonabelian", action="store_true")

    p = verb("module-decomp", _do_module_decomp, ring=True, help="cyclic decomposition of a congruence subgroup")
    p.add_argument("--level", type=_integer, default=None)

    return top


def _emit(args, payload: dict, text: str) -> None:
    if args.format == "text":
        body = text if text.endswith("\n") else text + "\n"
    else:
        body = json.dumps(payload, indent=1, sort_keys=True) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(body)
        except OSError as e:
            raise UsageError(f"cannot write {args.out}: {e}")
    else:
        sys.stdout.write(body)


def main(argv: Optional[list] = None) -> int:
    # exact answers may have more digits than Python's default int <-> str
    # limit of 4300, in a --value and in every printed modulus or payload
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(argv)
        payload, text, status = args.handler(args)
        _emit(args, payload, text)
    except SystemExit as e:  # --help
        return e.code
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except AlgebraError as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())

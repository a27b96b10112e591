"""Compositional inverses of truncated-line automorphisms.

Two independent routes are provided.  ``invert`` halves the q-adic
precision recursively: an inverse modulo q^ceil(n/2) lifts to a candidate
whose defect is congruent to the identity to at least half precision, and
such near-identity maps invert by negation.  ``oracle_invert`` instead
climbs one q-power at a time from the affine inverse, correcting with the
linearization of the defect, which round k needs only mod q^(k+1).  The
two share no logic beyond composition and precision transport, and are
cross-checked in the tests.

Both work on payload lists (``raw_coeffs``) throughout and build one
TruncPoly at the end: precision changes by ``Ring.transport``, congruence
levels by ``Ring.q_val_min`` of the offset from T, compositions and
products by ``_compose`` and ``_poly_mul``, the rest by the ring's methods.
"""

from __future__ import annotations

from itertools import starmap, zip_longest
from typing import Sequence, Tuple

from .autgroup import TruncPoly, _compose, _offset, _poly_mul, lift_precision
from .errors import KernelMismatch, NoSolution
from .rings import Ring


def _affine_inverse(f: Sequence, ring: Ring) -> list:
    # an automorphism has at least the coefficients a0 and a1
    a0, a1 = f[:2]
    a1i = ring.inv(a1)
    return [ring.neg(ring.mul(a1i, a0)), a1i]


def _zip(op, a: Sequence, b: Sequence, ring: Ring) -> list:
    """op over two payload lists padded with zeros to one length, trimmed."""
    return ring.trim(list(starmap(op, zip_longest(a, b, fillvalue=ring.zero()))))


def invert_with_depth(f: TruncPoly) -> Tuple[TruncPoly, int]:
    """Inverse together with the number of nested half-precision descents
    taken (0 when a closed form applied immediately)."""
    g, depth = _descend(f.require_automorphism().raw_coeffs(), f.ring)
    return TruncPoly._raw(f.ring, g), depth


def _descend(f: Sequence, ring: Ring) -> Tuple[list, int]:
    # f is the trimmed payload list of an automorphism, as is each reduction
    if len(f) <= 2:
        return _affine_inverse(f, ring), 0
    n = ring.require_truncated()
    if 2 * ring.q_val_min(_offset(f, ring)) >= n:  # T + q^r h has inverse 2T - f
        return _zip(ring.sub, [ring.zero(), ring.from_int(2)], f, ring), 0
    low = ring.at_precision((n + 1) // 2)
    sub, depth = _descend(low.trim(ring.transport(f, low)), low)
    phi = low.transport(sub, ring)
    delta = _offset(_compose(f, phi, ring), ring)
    level = ring.q_val_min(delta)
    if 2 * level < n:
        raise KernelMismatch(
            "half-precision inverse did not reduce the defect; "
            f"congruence level {level} at precision {n}"
        )
    # phi o (T - delta) with delta = f(phi) - T: the check above puts the
    # coefficients of delta in q^k with q^(2k) = 0, so the Taylor expansion
    # of phi around T stops after its linear term, phi - phi' * delta
    dphi = ring.trim(list(map(ring.mul, map(ring.from_int, range(1, len(phi))), phi[1:])))
    return _zip(ring.sub, phi, _poly_mul(dphi, delta, ring), ring), depth + 1


def invert(f: TruncPoly) -> TruncPoly:
    """g with f(g(T)) = T = g(f(T))."""
    return invert_with_depth(f)[0]


def lift_aut(f: TruncPoly, n: int) -> TruncPoly:
    """Canonical-representative lift of an automorphism to precision n; a
    section of reduction, not a homomorphism."""
    return lift_precision(f.require_automorphism(), n)


def oracle_invert(f: TruncPoly) -> TruncPoly:
    """Inverse by plain q-adic lifting, for cross-checking invert.

    Start from the affine inverse (exact mod q since higher coefficients
    are nilpotent) and repair one q-power per round: the defect
    T - f(g) has valuation >= k, and dividing it by q^k and by the
    linear coefficient gives the next digit of g.  Round k needs the
    defect only mod q^(k+1) and computes the digit in R/q, which keeps
    the candidate's degree at the group's own bound; a defect that
    vanishes there adds no digit.  f(g) = T is checked at the end."""
    fs, ring = f.require_automorphism().raw_coeffs(), f.ring
    g = _affine_inverse(fs, ring)
    if len(fs) <= 2:
        return TruncPoly._raw(ring, g)
    n = ring.require_truncated()
    residue = ring.at_precision(1)
    a1i = residue.inv(ring.transport(fs[1:2], residue)[0])
    for k in range(1, n):
        low = ring.at_precision(k + 1)
        fk, gk = (low.trim(ring.transport(x, low)) for x in (fs, g))
        err = _zip(low.sub, [low.zero(), low.one()], _compose(fk, gk, low), low)
        for c in err:
            if low.q_val(c) < k:
                raise NoSolution(
                    f"defect has valuation {low.q_val(c)} < {k}; "
                    "the claimed automorphism cannot be inverted"
                )
        hs = low.transport([low.exact_div_q(c, k) for c in err], residue)
        digit = ring.trim(residue.transport([residue.mul(h, a1i) for h in hs], ring))
        qk = ring.q_power(k)
        g = _zip(ring.add, g, [ring.mul(qk, c) for c in digit], ring)
    if _compose(fs, g, ring) != [ring.zero(), ring.one()]:
        raise NoSolution("lifting stalled before full precision")
    return TruncPoly._raw(ring, g)

"""Compositional inverses of truncated-line automorphisms.

Two independent routes are provided.  ``invert`` halves the q-adic
precision recursively: an inverse modulo q^ceil(n/2) lifts to a candidate
whose defect is congruent to the identity to at least half precision, and
such near-identity maps invert by negation.  ``oracle_invert`` instead
climbs one q-power at a time from the affine inverse, correcting with the
linearization of the defect, which round k needs only mod q^(k+1).  The
two share no logic beyond composition and precision transport, and are
cross-checked in the tests.
"""

from __future__ import annotations

from typing import Tuple

from .autgroup import TruncPoly, identity_map, lift_precision, reduce_precision
from .autgroup import _kernel_poly, _offset
from .errors import KernelMismatch, NoSolution


def _affine_inverse(f: TruncPoly) -> TruncPoly:
    # an automorphism has at least the coefficients a0 and a1
    ring = f.ring
    a0, a1 = f.raw_coeffs()[:2]
    a1i = ring.inv(a1)
    return TruncPoly._raw(ring, [ring.neg(ring.mul(a1i, a0)), a1i])


def invert_with_depth(f: TruncPoly) -> Tuple[TruncPoly, int]:
    """Inverse together with the number of nested half-precision descents
    taken (0 when a closed form applied immediately)."""
    return _descend(f.require_automorphism())


def _descend(f: TruncPoly) -> Tuple[TruncPoly, int]:
    # f is an automorphism, and so is every reduction of it
    ring = f.ring
    if f.degree() <= 1:
        return _affine_inverse(f), 0
    n = ring.require_truncated()
    if 2 * f.identity_congruence() >= n:  # T + q^r h has inverse T - q^r h
        return _kernel_poly(ring, ring.from_int(-1), _offset(f)), 0
    r = (n + 1) // 2
    sub, depth = _descend(reduce_precision(f, r))
    phi = lift_precision(sub, n)
    kappa = f.compose(phi)
    if 2 * kappa.identity_congruence() < n:
        raise KernelMismatch(
            "half-precision inverse did not reduce the defect; "
            f"congruence level {kappa.identity_congruence()} at precision {n}"
        )
    # phi o (T - delta) with delta = kappa - T: the check above puts the
    # coefficients of delta in q^k with q^(2k) = 0, so the Taylor expansion
    # of phi around T stops after its linear term, phi - phi' * delta
    delta = kappa - identity_map(ring)
    return phi - phi.derivative() * delta, depth + 1


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
    ring = f.require_automorphism().ring
    if f.degree() <= 1:
        return _affine_inverse(f)
    n = ring.require_truncated()
    residue = ring.at_precision(1)
    a1i = residue.inv(ring.transport(f.raw_coeffs()[1:2], residue)[0])
    g = _affine_inverse(f)
    for k in range(1, n):
        low = ring.at_precision(k + 1)
        err = identity_map(low) - reduce_precision(f, k + 1).compose(
            reduce_precision(g, k + 1)
        )
        for c in err.raw_coeffs():
            if low.q_val(c) < k:
                raise NoSolution(
                    f"defect has valuation {low.q_val(c)} < {k}; "
                    "the claimed automorphism cannot be inverted"
                )
        hs = low.transport([low.exact_div_q(c, k) for c in err.raw_coeffs()], residue)
        digit = residue.transport([residue.mul(h, a1i) for h in hs], ring)
        g = g + TruncPoly._raw(ring, digit).scale(ring.q_power(k))
    if f.compose(g) != identity_map(ring):
        raise NoSolution("lifting stalled before full precision")
    return g

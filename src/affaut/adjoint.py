"""Conjugation on the near-identity subgroups of the truncated line.

An automorphism congruent to the identity to q-adic level r, written
T + q^r * h(T), is pinned down by h modulo q^(n-r).  Once 2r >= n every
product of two such corrections vanishes, so composition is plain
addition of h parts and rescaling h by a ring constant is well defined;
the congruence subgroup becomes a module over R/q^(n-r).  Conjugating by
an arbitrary automorphism f respects that structure, and expanding
f(finv(T) + q^r * h(finv(T))) by its integral Taylor series leaves only
the linear term:

    f . (T + q^r h) . finv  =  T + q^r * h(finv(T)) * f'(finv(T)).

``ad`` evaluates the closed form at the residue precision q^(n-r), where
h and finv are needed, and checks its lift c by the defining equation
c . f = f . g at full precision, computed by composition alone.
``ad_matrix`` tabulates the induced linear action on a basis of monomial
corrections, either with coefficients reduced mod q (the graded action,
well defined for every r >= 1) or with full mod q^(n-r) entries on the
shape-constrained basis.  Matrices can be computed over an actual
finite ring or over a generic coefficient ring Z[a, b, c, d, e, 1/b][q],
and generic matrices specialize to numeric ones entrywise.
``module_decomposition`` recovers the abelian group structure of the
congruence subgroup as a direct sum of cyclic pieces R/q^k by computing
each basis slot's annihilator directly.
"""

from __future__ import annotations

import itertools
from typing import Mapping, NamedTuple, Optional, Sequence, Tuple, Union

from .autgroup import (
    SubgroupSpec,
    TruncPoly,
    _kernel_h,
    _kernel_poly,
    _transport,
    identity_map,
    reduce_precision,
)
from .errors import (
    AlgebraError,
    KernelMismatch,
    NotAbelian,
    NotAnAutomorphism,
    PreconditionFailed,
    RingMismatch,
    ShapeMismatch,
)
from .inversion import invert
from .rings import (
    Ring, SymbolicRing, _as, _field, ring_from_descriptor, universal_coefficient_ring,
)


def _require_truncated(ring: Ring) -> int:
    n = ring.truncation
    if n is None or not ring.has_q():
        raise PreconditionFailed("needs a truncated q-adic coefficient ring")
    return n


def check_kernel_element(g: TruncPoly, r: int) -> None:
    """Raise unless g is an automorphism congruent to T mod q^r."""
    n = _require_truncated(g.ring)
    if not 1 <= r <= n:
        raise PreconditionFailed(f"congruence level {r} outside 1..{n}")
    if not g.is_automorphism():
        raise NotAnAutomorphism(repr(g))
    have = g.identity_congruence()
    if have < r:
        raise KernelMismatch(
            f"element agrees with T only to q^{have}, needed q^{r}"
        )


def kernel_element(ring: Ring, r: int, h_coeffs: Sequence) -> TruncPoly:
    """Build T + q^r * (h_0 + h_1 T + ...) from the coefficients of h."""
    n = _require_truncated(ring)
    if not 1 <= r <= n:
        raise PreconditionFailed(f"congruence level {r} outside 1..{n}")
    return _kernel_poly(ring, ring.q_power(r), [ring.pay(c) for c in h_coeffs])


def h_part(g: TruncPoly, r: int) -> TruncPoly:
    """The correction h with g = T + q^r h, over the residue ring
    R/q^(n-r) where it is canonical."""
    check_kernel_element(g, r)
    ring = g.ring
    n = ring.truncation
    if r == n:
        raise PreconditionFailed("no residue ring left at full congruence")
    dst = ring.at_precision(n - r)
    return TruncPoly._raw(dst, _kernel_h(g, r, dst))


def scalar_mul(c, g: TruncPoly, r: int) -> TruncPoly:
    """Rescale the correction: c . (T + q^r h) = T + q^r (c h).

    c is read in the base ring; only its residue mod q^(n-r) matters,
    since any two lifts differ by q^(n-r) and the difference is wiped
    out by the q^r in front.
    """
    check_kernel_element(g, r)
    ring = g.ring
    return _kernel_poly(ring, ring.pay(c), (g - identity_map(ring)).raw_coeffs())


def ad(f: TruncPoly, g: TruncPoly, r: int) -> TruncPoly:
    """The conjugate f . g . finv of a level-r congruence element g.

    Requires 2r >= n so the congruence subgroup is abelian and the
    closed form applies.  It needs h and finv only mod q^(n-r) and is
    evaluated there; its lift c must satisfy the defining equation
    c . f = f . g, checked at full precision by composition alone.
    """
    if f.ring != g.ring:
        raise RingMismatch(f"{f.ring} vs {g.ring}")
    n = _require_truncated(f.ring)
    check_kernel_element(g, r)
    if 2 * r < n:
        raise NotAbelian(
            f"level {r} at precision {n}: conjugation is only a module "
            "map once 2r >= n"
        )
    if not f.is_automorphism():
        raise NotAnAutomorphism(repr(f))
    ring = f.ring
    # any lift of k to the full ring will do: q^r wipes out the rest, and
    # all of it at r = n, where R/q stands in for the zero ring R/q^0
    low = ring.at_precision(max(n - r, 1))
    f_low = reduce_precision(f, low.truncation)
    h = TruncPoly._raw(low, _kernel_h(g, r, low))
    k = (h * f_low.derivative()).compose(invert(f_low))
    closed = _kernel_poly(ring, ring.q_power(r), _transport(k.raw_coeffs(), low, ring))
    if closed.compose(f) != f.compose(g):
        raise AlgebraError(
            "the abelian-range closed form fails c . f = f . g where its "
            "precondition held"
        )
    return closed


# ---------------------------------------------------------------------------
# matrix form of the conjugation action
#
# Basis of monomial corrections, one per degree 0..n.  Two flavors:
#
#   flavor "n": g_j = T + q^r T^j with the uniform level r; the matrix
#   holds the coordinates of (conjugate - T)/q^r reduced mod q.  This is
#   the action on the graded slice at level r, linear and multiplicative
#   for every r >= 1 even when the subgroup itself is not abelian.
#
#   flavor "k": g_j = T + q^max(r, j-1) T^j, the shape-constrained
#   generators of the full congruence subgroup; entries are the
#   coordinates of (conjugate - T)/q^r kept to the full residue
#   precision q^(n-r).
#
# Column j is always the image of g_j, rows follow the same monomial
# order.  Flavor "n" is an honest matrix representation: the basis
# corrections are unit coordinate vectors mod q, so the matrix of a
# composite is the product of the matrices.  Flavor "k" is a generator
# tabulation, not a representation: the generator of a weight-w slot
# has h-coordinate q^(w-r) rather than 1 (visible as the q on the
# diagonal of the identity's own table), and recovering the image of an
# arbitrary element means scaling column j by the q^(w_j - r)-divided
# coordinate, not by the coordinate itself.


class AdjointMatrix(NamedTuple):
    """Square matrix of a conjugation action on monomial corrections."""

    spec: SubgroupSpec
    mode: str
    ring: Ring
    rows: Tuple[tuple, ...]
    warning: bool = False

    @property
    def size(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int):
        from .rings import RingElem

        return RingElem(self.ring, self.rows[i][j])

    def column(self, j: int) -> tuple:
        return tuple(row[j] for row in self.rows)

    def to_json(self) -> dict:
        out = {
            "kind": "conjugation-matrix",
            "subgroup": self.spec.show(),
            "mode": self.mode,
            "ring": self.ring.descriptor(),
            "size": self.size,
            "rows": [
                [self.ring.payload_to_json(e) for e in row] for row in self.rows
            ],
        }
        if self.warning:
            out["warning"] = "outside the abelian range"
        return out

    @classmethod
    def from_json(cls, j: dict) -> "AdjointMatrix":
        ring = ring_from_descriptor(_field(j, "ring", "matrix"))
        rows = tuple(
            tuple(ring.payload_from_json(e, "rows") for e in _as(row, list, "row"))
            for row in _field(j, "rows", "matrix", list)
        )
        return cls(
            SubgroupSpec.parse(_field(j, "subgroup", "matrix")),
            _field(j, "mode", "matrix", str),
            ring,
            rows,
            bool(j.get("warning")),
        )

    def render_text(self) -> str:
        ring = self.ring
        cells = [[ring.show(e) for e in row] for row in self.rows]
        widths = [
            max(len(cells[i][j]) for i in range(self.size))
            for j in range(self.size)
        ]
        lines = [
            "conjugation matrix on %s over %s" % (self.spec.show(), ring.describe())
        ]
        if self.warning:
            lines.append("(outside the abelian range)")
        for row in cells:
            lines.append(
                "[ " + "   ".join(s.rjust(w) for s, w in zip(row, widths)) + " ]"
            )
        return "\n".join(lines)


def _as_spec(spec: Union[SubgroupSpec, str]) -> SubgroupSpec:
    if isinstance(spec, str):
        spec = SubgroupSpec.parse(spec)
    if spec.flavor not in ("n", "k"):
        raise PreconditionFailed(
            f"matrix form needs a congruence subgroup, got {spec.show()!r}"
        )
    return spec


def ad_matrix(
    f: TruncPoly,
    spec: Union[SubgroupSpec, str],
    *,
    mode: str = "numeric",
    allow_nonabelian: bool = False,
) -> AdjointMatrix:
    """The matrix of conjugation by f on the subgroup named by spec.

    mode "numeric" expects f over a finite truncated ring, "symbolic"
    over the generic coefficient ring (see universal_element).  When the
    subgroup parameters leave the abelian range the matrix columns are
    still the images of the basis corrections, but only the graded
    flavor "n" is guaranteed multiplicative there; that regime is
    refused unless allow_nonabelian is set, and the result then carries
    a warning flag.
    """
    spec = _as_spec(spec)
    ring = f.ring
    n = _require_truncated(ring)
    if n != spec.n:
        raise PreconditionFailed(
            f"ring precision {n} != subgroup precision {spec.n}"
        )
    r = spec.r
    if not 1 <= r < n:
        raise PreconditionFailed(f"congruence level {r} outside 1..{n - 1}")
    symbolic = isinstance(ring, SymbolicRing)
    if mode == "symbolic" and not symbolic:
        raise PreconditionFailed("symbolic mode needs a symbolic ring")
    if mode == "numeric" and symbolic:
        raise PreconditionFailed("numeric mode got a symbolic ring")
    if mode not in ("numeric", "symbolic"):
        raise PreconditionFailed(f"unknown mode {mode!r}")
    warning = False
    if 2 * r < n:
        if not allow_nonabelian:
            raise NotAbelian(
                f"level {r} at precision {n} is outside the abelian range; "
                "pass allow_nonabelian=True to tabulate the action anyway"
            )
        warning = True
    if not f.is_automorphism():
        raise NotAnAutomorphism(repr(f))
    entry_ring = ring.at_precision(1 if spec.flavor == "n" else n - r)
    finv = invert(f)
    columns = []
    for j in range(n + 1):
        w = r if spec.flavor == "n" else max(r, j - 1)
        g_j = kernel_element(ring, w, [ring.zero()] * j + [ring.one()])
        col = _kernel_h(f.compose(g_j).compose(finv), r, entry_ring)
        for extra in col[n + 1 :]:
            if not entry_ring.is_zero(extra):
                raise ShapeMismatch(
                    f"conjugate of the degree-{j} correction leaves the "
                    f"degree-{n} window"
                )
        col = col[: n + 1]
        col += [entry_ring.zero()] * (n + 1 - len(col))
        columns.append(col)
    rows = tuple(
        tuple(columns[j][i] for j in range(n + 1)) for i in range(n + 1)
    )
    return AdjointMatrix(spec, mode, entry_ring, rows, warning)


def universal_element(n: int, degree: Optional[int] = None) -> TruncPoly:
    """The generic shape automorphism over Z[a, b, c, d, e, 1/b][q]/q^n:
    a + b T + q c T^2 + q^2 d T^3 + q^3 e T^4, cut at the given degree
    (default n, at most 4 with this generator supply)."""
    if degree is None:
        degree = min(n, 4)
    if not 1 <= degree <= 4:
        raise PreconditionFailed("generic degree must be between 1 and 4")
    if degree > n:
        raise PreconditionFailed(f"degree {degree} exceeds precision {n}")
    ring = universal_coefficient_ring(n)
    names = ("a", "b", "c", "d", "e")
    coeffs = [ring.gen("a"), ring.gen("b")]
    for j in range(2, degree + 1):
        coeffs.append(ring.mul(ring.q_power(j - 1), ring.gen(names[j])))
    return TruncPoly._raw(ring, coeffs)


def specialize_matrix(
    m: AdjointMatrix, target: Ring, assignment: Mapping[str, object]
) -> AdjointMatrix:
    """Evaluate a symbolic matrix entrywise in a numeric entry ring of
    the same q-adic precision."""
    ring = m.ring
    if not isinstance(ring, SymbolicRing):
        raise PreconditionFailed("only symbolic matrices specialize")
    if target.truncation != ring.truncation:
        raise PreconditionFailed(
            f"target precision {target.truncation} != {ring.truncation}"
        )
    rows = tuple(
        tuple(ring.substitute(e, target, assignment) for e in row)
        for row in m.rows
    )
    return AdjointMatrix(m.spec, "numeric", target, rows, m.warning)


# ---------------------------------------------------------------------------
# the congruence subgroup as a direct sum of cyclic pieces


class ModuleDecomposition(NamedTuple):
    """Cyclic decomposition of the level-r congruence subgroup at
    precision n, one slot per monomial correction degree.

    orders[j] is the annihilator exponent of the degree-j slot, found by
    actually rescaling the basis element by growing powers of q until it
    collapses to the identity.  expected[j] is the closed-form n -
    max(r, j-1).  summands lists the nonzero orders largest first, so
    the module reads (+) over k of R/q^summands[k].
    """

    n: int
    r: int
    weights: Tuple[int, ...]
    orders: Tuple[int, ...]
    expected: Tuple[int, ...]

    @property
    def agrees(self) -> bool:
        return self.orders == self.expected

    @property
    def summands(self) -> Tuple[int, ...]:
        return tuple(sorted((k for k in self.orders if k > 0), reverse=True))

    def to_json(self) -> dict:
        return {
            "kind": "module-decomposition",
            "precision": self.n,
            "level": self.r,
            "slot_weights": list(self.weights),
            "slot_orders": list(self.orders),
            "expected_orders": list(self.expected),
            "agrees": self.agrees,
            "summands": list(self.summands),
        }

    def render_text(self) -> str:
        parts = []
        for k, run in itertools.groupby(self.summands):
            piece = f"R/q^{k}" if k > 1 else "R/q"
            count = len(list(run))
            parts.append(piece if count == 1 else f"{piece} ^ {count}")
        body = " (+) ".join(parts) or "0"
        tag = "" if self.agrees else "   [differs from the closed form]"
        return (
            f"level {self.r} congruence subgroup at precision {self.n}: "
            + body
            + tag
        )


def module_decomposition(ring: Ring, r: Optional[int] = None) -> ModuleDecomposition:
    """Decompose the level-r congruence subgroup over a q^n-truncated
    ring into cyclic q-power pieces.  Defaults to the half-precision
    level r = n/2 (n even), the smallest level that is always abelian.
    """
    n = _require_truncated(ring)
    if r is None:
        if n % 2:
            raise PreconditionFailed(
                f"no default level at odd precision {n}; pass r explicitly"
            )
        r = n // 2
    if not 1 <= r <= n:
        raise PreconditionFailed(f"congruence level {r} outside 1..{n}")
    if 2 * r < n:
        raise NotAbelian(
            f"level {r} at precision {n}: the subgroup is not a module"
        )
    ident = identity_map(ring)
    weights = []
    orders = []
    expected = []
    for j in range(n + 1):
        w = min(max(r, j - 1), n)
        weights.append(w)
        expected.append(n - w)
        basis = kernel_element(ring, w, [ring.zero()] * j + [ring.one()])
        check_kernel_element(basis, r)  # once, where scalar_mul would per step
        correction = (basis - ident).raw_coeffs()
        k = 0
        while _kernel_poly(ring, ring.q_power(k), correction) != ident:
            k += 1
            if k > n:
                raise AlgebraError("annihilator search left the q-adic range")
        orders.append(k)
    return ModuleDecomposition(n, r, tuple(weights), tuple(orders), tuple(expected))

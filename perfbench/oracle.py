"""Arithmetic written apart from affaut, used only to check its outputs.

Nothing here imports affaut.  Coefficient payloads are shared by plain
convention: an element of Z/p^n is an int in [0, p^n), an element of
F_p[t]/(t^e) is a tuple of e ints in [0, p), lowest degree first, and a
polynomial map is a list of such payloads, lowest degree first.  Symbolic
polynomials are read from the command line's JSON into lists of
(coefficient, {generator: exponent}) pairs.
"""

from __future__ import annotations


class ZMod:
    """Z/p^n with q = p."""

    def __init__(self, p: int, n: int):
        self.p, self.n, self.m = p, n, p ** n
        self.zero, self.one = 0, 1

    def add(self, a, b):
        return (a + b) % self.m

    def sub(self, a, b):
        return (a - b) % self.m

    def mul(self, a, b):
        return a * b % self.m

    def val(self, a) -> int:
        a %= self.m
        if not a:
            return self.n
        v = 0
        while a % self.p == 0:
            a //= self.p
            v += 1
        return v

    def q_power(self, k: int):
        return self.p ** k % self.m

    def lift(self, a):
        """Canonical lift of a payload from a lower precision."""
        return a % self.m

    def rand(self, rng):
        return rng.randrange(self.m)

    def rand_unit(self, rng):
        return rng.randrange(1, self.p) + self.p * rng.randrange(self.m // self.p)


class Series:
    """F_p[t]/(t^e) with q = t."""

    def __init__(self, p: int, e: int):
        self.p, self.n = p, e
        self.zero = (0,) * e
        self.one = (1,) + (0,) * (e - 1)

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def mul(self, a, b):
        e = self.n
        out = [0] * e
        for i, x in enumerate(a):
            if x:
                for j in range(e - i):
                    out[i + j] += x * b[j]
        return tuple(c % self.p for c in out)

    def val(self, a) -> int:
        for i, c in enumerate(a):
            if c % self.p:
                return i
        return self.n

    def q_power(self, k: int):
        if k >= self.n:
            return self.zero
        return (0,) * k + (1,) + (0,) * (self.n - k - 1)

    def lift(self, a):
        return tuple(a) + (0,) * (self.n - len(a))

    def rand(self, rng):
        return tuple(rng.randrange(self.p) for _ in range(self.n))

    def rand_unit(self, rng):
        return (rng.randrange(1, self.p),) + self.rand(rng)[1:]


# -- polynomial maps over either ring ---------------------------------------


def trim(R, f) -> list:
    f = list(f)
    while f and R.val(f[-1]) >= R.n:
        f.pop()
    return f


def evaluate(R, f, x):
    acc = R.zero
    for c in reversed(f):
        acc = R.add(R.mul(acc, x), c)
    return acc


def poly_mul(R, a, b) -> list:
    if not a or not b:
        return []
    out = [R.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if R.val(x) >= R.n:
            continue
        for j, y in enumerate(b):
            out[i + j] = R.add(out[i + j], R.mul(x, y))
    return trim(R, out)


def compose(R, f, g) -> list:
    """f(g(T)) by Horner; schoolbook products, so for small degrees only."""
    acc: list = []
    for c in reversed(f):
        acc = poly_mul(R, acc, g)
        acc = [R.add(acc[0], c)] + acc[1:] if acc else [c]
    return trim(R, acc)


def identity(R) -> list:
    return [R.zero, R.one]


def is_automorphism(R, f) -> bool:
    return len(f) > 1 and R.val(f[1]) == 0 and all(R.val(c) >= 1 for c in f[2:])


def in_atilde(R, f, d: int) -> bool:
    """deg(f mod q^m) <= d*2^(m-2) for 2 <= m <= n, from the raw
    coefficients."""
    vals = [R.val(c) for c in f]
    for m in range(2, R.n + 1):
        deg = max((i for i, v in enumerate(vals) if v < m), default=-1)
        if deg > d << (m - 2):
            return False
    return True


def sample_filtered(R, d: int, rng) -> list:
    """A random element of the degree-filtered subgroup: the coefficient of
    T^j gets the least valuation the degree bounds allow."""
    n = R.n
    coeffs = [R.rand(rng), R.rand_unit(rng)]
    for j in range(2, (d << (n - 2)) + 1):
        v = next(m for m in range(1, n + 1) if m == n or j <= d << (m - 1))
        coeffs.append(R.mul(R.q_power(v), R.rand(rng)))
    return trim(R, coeffs)


def sparse_generator(p: int, n: int, d: int) -> list:
    """T + qT^d + q^2T^2d + ... + q^(n-1)T^(2^(n-2) d) over Z/p^n."""
    m = p ** n
    coeffs = [0] * ((1 << (n - 2)) * d + 1)
    coeffs[1] = 1
    for k in range(1, n):
        j = (1 << (k - 1)) * d
        coeffs[j] = (coeffs[j] + p ** k) % m
    return coeffs


# -- exact composition over Z/m at larger degrees ---------------------------


def _kron_mul(a, b, m) -> list:
    w = (2 * (m - 1).bit_length() + min(len(a), len(b)).bit_length() + 7) // 8
    pa = int.from_bytes(b"".join(c.to_bytes(w, "little") for c in a), "little")
    pb = int.from_bytes(b"".join(c.to_bytes(w, "little") for c in b), "little")
    raw = (pa * pb).to_bytes(w * (len(a) + len(b)), "little")
    return [
        int.from_bytes(raw[i * w:(i + 1) * w], "little") % m
        for i in range(len(a) + len(b) - 1)
    ]


def zmod_compose(f, g, m) -> list:
    acc = [f[-1] % m]
    for c in reversed(f[:-1]):
        acc = _kron_mul(acc, g, m)
        acc[0] = (acc[0] + c) % m
    while acc and not acc[-1]:
        acc.pop()
    return acc


def zmod_iterate(f, k: int, m: int) -> list:
    acc, base = [0, 1], f
    while k:
        if k & 1:
            acc = zmod_compose(acc, base, m)
        k >>= 1
        if k:
            base = zmod_compose(base, base, m)
    return acc


def prime_factors(k: int) -> list:
    out, d = [], 2
    while d * d <= k:
        if k % d == 0:
            out.append(d)
            while k % d == 0:
                k //= d
        d += 1
    if k > 1:
        out.append(k)
    return out


def is_order(f, k, m) -> bool:
    """f^k = T and f^(k/l) != T for every prime l dividing k."""
    if not isinstance(k, int) or k < 1:
        return False
    if any(zmod_iterate(f, k // l, m) == [0, 1] for l in prime_factors(k)):
        return False
    return zmod_iterate(f, k, m) == [0, 1]


# -- symbolic polynomials ---------------------------------------------------


def terms_from_json(j) -> list:
    return [
        (int(t["coeff"]), {g: int(k) for g, k in t["exponents"].items()})
        for t in j["terms"]
    ]


def eval_terms(terms, values, modulus=None) -> int:
    total = 0
    for c, exps in terms:
        for g, k in exps.items():
            c *= values[g] ** k if modulus is None else pow(values[g], k, modulus)
        total += c
    return total if modulus is None else total % modulus


def ghost(p: int, comps, j: int) -> int:
    return sum(p ** i * comps[i] ** (p ** (j - i)) for i in range(j + 1))


def check_witt_law(p, level, sums, prods, rng, points=3) -> bool:
    """Ghost equations w_j(s) = w_j(x) + w_j(y) and w_j(m) = w_j(x) w_j(y)
    at random integer points; sums and prods are term lists."""
    if len(sums) != level + 1 or len(prods) != level + 1:
        return False
    for _ in range(points):
        xs = [rng.randrange(-4, 5) for _ in range(level + 1)]
        ys = [rng.randrange(-4, 5) for _ in range(level + 1)]
        values = {f"x{i}": v for i, v in enumerate(xs)}
        values.update({f"y{i}": v for i, v in enumerate(ys)})
        s = [eval_terms(t, values) for t in sums]
        m = [eval_terms(t, values) for t in prods]
        for j in range(level + 1):
            gx, gy = ghost(p, xs, j), ghost(p, ys, j)
            if ghost(p, s, j) != gx + gy or ghost(p, m, j) != gx * gy:
                return False
    return True


def witt_to_residue(p: int, comps) -> int:
    n = len(comps) - 1
    return sum(p ** i * pow(c, p ** (n - i), p ** (n + 1)) for i, c in enumerate(comps)) % p ** (n + 1)


# -- group laws over F_p ------------------------------------------------------


def point_to_map(p: int, length: int, scheme, point) -> list:
    """The map over Z/p^length whose coefficient of T^j has the Witt digits
    the point assigns to the (j, slot) pairs of the scheme."""
    top = max(j for j, _ in scheme)
    digits = [[0] * length for _ in range(top + 1)]
    for value, (j, slot) in zip(point, scheme):
        digits[j][slot] = value
    return trim(ZMod(p, length), [witt_to_residue(p, d) for d in digits])


def law_point(law_terms, coords, left, right, p) -> tuple:
    """Evaluate composition-law polynomials at a pair of points."""
    values = dict(zip(coords, left))
    values.update({c + "'": v for c, v in zip(coords, right)})
    return tuple(eval_terms(t, values, p) for t in law_terms)


def random_point(p, scheme, rng) -> tuple:
    return tuple(
        rng.randrange(1, p) if (j, slot) == (1, 0) else rng.randrange(p)
        for j, slot in scheme
    )


# -- conjugation matrices -----------------------------------------------------


def check_conjugation_matrix(R, f, flavor, r, columns) -> bool:
    """Column j holds the coordinates of (c_j - T)/q^r for the conjugate
    c_j = f g_j f^-1 of the basis correction g_j; check c_j(f) = f(g_j)
    as polynomials, modulo q^(r+1) for the graded flavor "n" (entries
    mod q) and exactly for flavor "k"."""
    n = R.n
    if len(columns) != n + 1:
        return False
    bound = r + 1 if flavor == "n" else n
    qr = R.q_power(r)
    for j, col in enumerate(columns):
        w = r if flavor == "n" else max(r, j - 1)
        g = [R.zero] * max(j + 1, 2)
        g[1] = R.one
        g[j] = R.add(g[j], R.q_power(w))
        c = [R.mul(qr, R.lift(e)) for e in col]
        c[1] = R.add(c[1], R.one)
        lhs, rhs = compose(R, c, f), compose(R, f, trim(R, g))
        width = max(len(lhs), len(rhs))
        lhs += [R.zero] * (width - len(lhs))
        rhs += [R.zero] * (width - len(rhs))
        if any(R.val(R.sub(a, b)) < bound for a, b in zip(lhs, rhs)):
            return False
    return True


def specialize(terms, values, p, prec, bk) -> int:
    """A symbolic matrix entry over Z[a..e, 1/b][q] at a numeric point, in
    Z/p^prec, with q -> p."""
    m = p ** prec
    return eval_terms(terms, dict(values, q=p), m) * pow(values["b"], -bk, m) % m

"""Exact arithmetic in GF(p^f) for odd p, in a polynomial basis.

A field element c_0 + c_1 z + ... + c_{f-1} z^{f-1} is stored as the
integer code sum(c_j * p**j) in [0, p^f).  Scalar work goes through
FieldElem; bulk work uses the vectorized code-array helpers on FieldCtx
(vadd/vsub/vmul/vneg), which the linear-algebra layer builds on; for
f > 1, vmul multiplies through log/antilog tables of zeta, built on first
use from the structure tensor.
Inversion is by extended Euclid on polynomials, never by table lookup.
The polynomial arithmetic over Z_p behind it, the structure tensor and
the irreducibility test on moduli are the small list helpers below, and
the integer helpers `is_prime` and `prime_factors` are exact trial
division.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (BudgetExceeded, CtxMismatch, MathDomainError, NotPrime, QDoesNotDivide,
                     ReducibleModulus, ZeroInverse)


def prime_factors(n: int) -> tuple[int, ...]:
    """The distinct prime factors of n >= 1 in increasing order, by trial division."""
    n, out, d = int(n), [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return tuple(out)


def is_prime(n: int) -> bool:
    """Exact primality of an integer by trial division."""
    return n >= 2 and prime_factors(n) == (n,)


def power(base, e: int, mul):
    """base^e for e >= 1 through the product `mul`, by the left-to-right binary
    method (Knuth, TAOCP Vol. 2, section 4.6.3): bit_length(e) - 1 squarings and
    popcount(e) - 1 other products.  Every power in the package goes through it."""
    if e < 1:
        raise MathDomainError(f"power takes an exponent >= 1, got {e}")
    result = base
    for bit in bin(e)[3:]:
        result = mul(result, result)
        if bit == "1":
            result = mul(result, base)
    return result


# GF(p)[x] helpers: polynomials are lists of ints in [0, p), low to high,
# trimmed of zero leading coefficients (the zero polynomial is []).

def _trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_sub(a, b, p):
    n = max(len(a), len(b))
    a, b = a + [0] * (n - len(a)), b + [0] * (n - len(b))
    return _trim([(x - y) % p for x, y in zip(a, b)])


def _poly_mul(a, b, p):
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return [c % p for c in out]  # leading coefficients multiply to nonzero


def _poly_divmod(a, m, p):
    """(quotient, remainder) of a by a nonzero m over Z_p."""
    r, dm, lead_inv = list(a), len(m) - 1, pow(m[-1], -1, p)
    quo = [0] * max(len(r) - dm, 0)
    for k in range(len(quo) - 1, -1, -1):
        c = quo[k] = r[k + dm] * lead_inv % p
        for j in range(dm + 1):
            r[k + j] = (r[k + j] - c * m[j]) % p
    return _trim(quo), _trim(r[:dm])


def _poly_powmod(a, e, m, p):
    """a^e mod m over Z_p for e >= 1."""
    return power(_poly_divmod(a, m, p)[1], e,
                 lambda x, y: _poly_divmod(_poly_mul(x, y, p), m, p)[1])


def _poly_gcdex(a, b, p):
    """(s, g) for a nonzero b: g the monic gcd of a and b over Z_p, s a = g mod b."""
    r0, r1, s0, s1 = a, b, [1], []
    while r1:
        quo, rem = _poly_divmod(r0, r1, p)
        r0, r1, s0, s1 = r1, rem, s1, _poly_sub(s0, _poly_mul(quo, s1, p), p)
    c = pow(r0[-1], -1, p)
    return [x * c % p for x in s0], [x * c % p for x in r0]


def _is_irreducible(poly, p):
    """Irreducibility over Z_p of a polynomial given low-to-high; constants are not.

    Rabin's test (SIAM J. Comput. 9, 1980): m of degree n >= 1 is
    irreducible exactly when x^(p^n) = x mod m and gcd(x^(p^(n/r)) - x, m)
    = 1 for every prime r | n.
    """
    m = _trim([int(c) % p for c in poly])
    n = len(m) - 1
    if n < 1:
        return False
    x = _poly_divmod([0, 1], m, p)[1]
    frob = [x]  # frob[k] = x^(p^k) mod m
    for _ in range(n):
        frob.append(_poly_powmod(frob[-1], p, m, p))
    return frob[n] == x and all(
        _poly_gcdex(_poly_sub(frob[n // r], x, p), m, p)[1] == [1]
        for r in prime_factors(n))


# f > 1 fields up to this size multiply through log tables (5 int64 per element)
_LOG_TABLE_LIMIT = 2 ** 20
# `mod_p` reduces arrays of more entries than this as x - (x // p) p: numpy
# divides by a scalar with a multiply and shift (libdivide) for `//` but not for
# `%`.  Timed on (a * b) % p with a, b < p = 31 (medians of 41 interleaved
# runs, 2-vCPU x86-64 host), `%` is faster up to about 640 entries (4.7 against
# 5.0 us there), even at 768 and 1.2x slower at 1024 (6.7 against 5.7 us),
# 1.7x slower at 4805 (24 against 14 us)
_DIVISION_FREE_ENTRIES = 1024
# entries per pass of `mod_p`'s quotient block: 64 KB, below glibc's default
# 128 KB mmap threshold, so a large reduction maps no memory
_REDUCE_CHUNK = 1 << 13

# ---------------------------------------------------------------------------


class FieldElem:
    """A single element of GF(p^f), identified by its integer code."""

    __slots__ = ("ctx", "code")

    def __init__(self, ctx: "FieldCtx", code: int):
        self.ctx = ctx
        self.code = code

    def _check(self, other):
        if not isinstance(other, FieldElem):
            if isinstance(other, int):
                return self.ctx.elem(other)
            raise TypeError(f"cannot combine FieldElem with {type(other).__name__}")
        if other.ctx is not self.ctx and other.ctx.signature != self.ctx.signature:
            raise CtxMismatch("operands live in different fields")
        return other

    @property
    def coeffs(self) -> tuple[int, ...]:
        c, code = [], self.code
        for _ in range(self.ctx.f):
            code, r = divmod(code, self.ctx.p)
            c.append(r)
        return tuple(c)

    def __add__(self, other):
        other = self._check(other)
        return FieldElem(self.ctx, self.ctx.add(self.code, other.code))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._check(other)
        return FieldElem(self.ctx, self.ctx.sub(self.code, other.code))

    def __rsub__(self, other):
        return self._check(other) - self

    def __mul__(self, other):
        other = self._check(other)
        return FieldElem(self.ctx, self.ctx.mul(self.code, other.code))

    __rmul__ = __mul__

    def __neg__(self):
        return FieldElem(self.ctx, self.ctx.neg(self.code))

    def __pow__(self, e: int):
        return FieldElem(self.ctx, self.ctx.pow(self.code, e))

    def inverse(self) -> "FieldElem":
        return FieldElem(self.ctx, self.ctx.inv(self.code))

    def order(self) -> int:
        return self.ctx.order_of(self.code)

    def is_zero(self) -> bool:
        return self.code == 0

    def __eq__(self, other):
        if isinstance(other, int):
            return self.code == self.ctx.elem(other).code
        return (isinstance(other, FieldElem)
                and self.ctx.signature == other.ctx.signature
                and self.code == other.code)

    def __hash__(self):
        return hash((self.ctx.signature, self.code))

    def __repr__(self):
        if self.ctx.f == 1:
            return f"GF({self.ctx.p})({self.code})"
        return f"GF({self.ctx.p}^{self.ctx.f})({list(self.coeffs)})"


class FieldCtx:
    """GF(p^f) with a fixed irreducible modulus and primitive element.

    Immutable after construction apart from the log tables that the first
    f > 1 vmul caches (two threads racing there build the same tables);
    every operation is a pure function of integer codes, so contexts are
    safe to share across threads.

    The primitive element is kept as its code: `zeta` builds a FieldElem on
    each read, so no element held by the context points back at it, and
    reference counting frees a dropped context (and whatever holds it)
    without waiting for the cyclic collector.
    """

    def __init__(self, p: int, f: int = 1, modulus=None):
        """Refuses a non-prime or even p, f < 1, then p - 1 > 3037000499
        (BudgetExceeded) and a modulus that is not a monic irreducible of
        degree f (ReducibleModulus).

        Without a modulus the smallest monic irreducible of degree f
        (coefficient lists enumerated as base-p integers) is taken, so
        results are reproducible; for f = 1 it is x - 0.
        """
        if not is_prime(p):
            raise NotPrime(f"p = {p} is not prime")
        if p == 2:
            raise NotPrime("p = 2 is rejected: odd characteristic is assumed throughout")
        if f < 1:
            raise MathDomainError(f"degree f must be >= 1, got {f}")
        limit = math.isqrt(np.iinfo(np.int64).max)  # (p-1)^2 must not overflow int64
        if p - 1 > limit:
            raise BudgetExceeded(f"GF({p}) digit products overflow int64 past p - 1 = {limit}")
        if modulus is None:
            monics = ([(c // p ** j) % p for j in range(f)] + [1] for c in range(p ** f))
            modulus = next((m for m in monics if _is_irreducible(m, p)), None)
            if modulus is None:
                raise MathDomainError(f"no monic irreducible of degree {f} over Z_{p} was found")
        modulus = [int(c) % p for c in modulus]
        if len(modulus) != f + 1 or modulus[-1] != 1:
            raise ReducibleModulus(f"modulus must be monic of degree {f}")
        if not _is_irreducible(modulus, p):
            raise ReducibleModulus("modulus is reducible over Z_p")
        self.p = p
        self.f = f
        self.modulus = tuple(modulus)
        self.size = p ** f
        self.order = self.size - 1
        self.signature = (p, f, self.modulus)
        self._order_factors = prime_factors(self.order)
        # structure tensor: z^i * z^j = sum_k T[i,j,k] z^k  (mod modulus)
        T = np.ones((1, 1, 1), dtype=np.int64)
        if f > 1:
            m, T = _trim(list(self.modulus)), np.zeros((f, f, f), dtype=np.int64)
            for i in range(f):
                for j in range(f):
                    r = _poly_divmod([0] * (i + j) + [1], m, p)[1]
                    T[i, j, :len(r)] = r
        self._tensor = T
        self._powers_of_p = p ** np.arange(f, dtype=np.int64)
        self._logs = None
        self._zeta = self._find_zeta()

    @property
    def zeta(self) -> FieldElem:
        return FieldElem(self, self._zeta)

    # --- scalar ops on codes -----------------------------------------------

    def elem(self, value) -> FieldElem:
        """Coerce: FieldElem passes through, ints embed via Z -> GF(p) -> GF(p^f),
        lists/tuples are coefficient vectors."""
        if isinstance(value, FieldElem):
            if value.ctx.signature != self.signature:
                raise CtxMismatch("operands live in different fields")
            return value
        if isinstance(value, (list, tuple)):
            return self.from_coeffs(value)
        return FieldElem(self, int(value) % self.p)

    def from_code(self, code: int) -> FieldElem:
        return FieldElem(self, int(code) % self.size)

    def from_coeffs(self, coeffs) -> FieldElem:
        coeffs = list(coeffs)
        if len(coeffs) > self.f:
            raise MathDomainError(f"an element of GF({self.p}^{self.f}) has at most {self.f} "
                                  f"coefficients, got {len(coeffs)}")
        code = 0
        for c in reversed(coeffs):
            code = code * self.p + (int(c) % self.p)
        return FieldElem(self, code)

    def zero(self) -> FieldElem:
        return FieldElem(self, 0)

    def one(self) -> FieldElem:
        return FieldElem(self, 1)

    def decode(self, codes):
        """int64 array of codes -> digit array with trailing axis of length f."""
        codes = np.asarray(codes, dtype=np.int64)
        return (codes[..., None] // self._powers_of_p) % self.p

    def encode(self, digits):
        return (np.asarray(digits, dtype=np.int64) % self.p) @ self._powers_of_p

    def add(self, a: int, b: int) -> int:
        return int(self.vadd(a, b))

    def sub(self, a: int, b: int) -> int:
        return int(self.vsub(a, b))

    def neg(self, a: int) -> int:
        return int(self.vneg(a))

    def mul(self, a: int, b: int) -> int:
        a, b = int(a), int(b)
        if self.f == 1:
            return (a * b) % self.p
        return int(self._vmul_tensor(a, b))

    def inv(self, a: int) -> int:
        a = int(a)
        if a == 0:
            raise ZeroInverse("0 has no multiplicative inverse")
        if self.f == 1:
            return pow(a, -1, self.p)
        # extended Euclid: s a = g mod modulus, g the monic gcd
        s, g = _poly_gcdex(_trim(list(FieldElem(self, a).coeffs)),
                           _trim(list(self.modulus)), self.p)
        if g != [1]:
            raise ZeroInverse("element is not invertible")
        return self.from_coeffs(s).code

    def pow(self, a: int, e: int) -> int:
        a, e = int(a), int(e)
        if e < 0:
            return self.pow(self.inv(a), -e)
        if self.f == 1:
            return pow(a, e, self.p)
        return power(a, e, self.mul) if e else 1

    def order_of(self, a: int) -> int:
        a = int(a)
        if a == 0:
            raise ZeroInverse("0 has no multiplicative order")
        order = self.order
        for r in self._order_factors:
            while order % r == 0 and self.pow(a, order // r) == 1:
                order //= r
        return order

    # --- vectorized ops on int64 code arrays --------------------------------

    def mod_p(self, x, scratch=None):
        """x mod p, reduced in place, for an int64 array x that the caller
        owns; an integer or numpy scalar is returned reduced.

        Every GF(p) reduction of a computed array goes through here: the
        f = 1 vector ops, `_linalg`'s products and its rref's pivot rows and
        slabs, and both FG products.  Up to `_DIVISION_FREE_ENTRIES` entries
        this is `x %= p`; larger x are reduced as x - (x // p) p, the
        quotients held in `scratch` (an int64 array of x's shape) or else in
        one block of whole rows of x, about `_REDUCE_CHUNK` entries, reused
        along x."""
        p = self.p
        if not isinstance(x, np.ndarray):
            return x % p
        if x.size <= _DIVISION_FREE_ENTRIES:
            x %= p
            return x
        rows = len(x) if scratch is not None else max(1, _REDUCE_CHUNK * len(x) // x.size)
        if scratch is None:
            scratch = np.empty((min(rows, len(x)), *x.shape[1:]), dtype=np.int64)
        for lo in range(0, len(x), rows):
            part = x[lo:lo + rows]
            quot = np.floor_divide(part, p, out=scratch[:len(part)])
            quot *= p
            part -= quot
        return x

    def vadd(self, a, b):
        return self.mod_p(a + b) if self.f == 1 else self.encode(self.decode(a) + self.decode(b))

    def vsub(self, a, b):
        return self.mod_p(a - b) if self.f == 1 else self.encode(self.decode(a) - self.decode(b))

    def vneg(self, a):
        return self.mod_p(-np.asarray(a)) if self.f == 1 else self.encode(-self.decode(a))

    def vmul(self, a, b):
        a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
        if self.f == 1:
            return self.mod_p(a * b)
        if self.size > _LOG_TABLE_LIMIT:
            return self._vmul_tensor(a, b)
        log, antilog = self._log_tables()
        return antilog[log[a] + log[b]]

    def _vmul_tensor(self, a, b):
        """Products through the structure tensor; builds the log tables and
        is their test oracle."""
        da, db = np.broadcast_arrays(self.decode(a), self.decode(b))
        return self.encode(np.einsum("...i,...j,ijk->...k", da, db, self._tensor))

    def _log_tables(self):
        """(log, antilog) of zeta, built on the first f > 1 vmul.

        antilog[k] = zeta^k for 0 <= k < 2 (p^f - 1), then zeros; log[0]
        points past the powers, so a product with a zero operand reads 0.
        """
        if self._logs is None:
            n = self.order
            powers = np.ones(1, dtype=np.int64)
            while powers.size < n:  # double the run zeta^0 .. zeta^(k-1) by zeta^k
                step = self._vmul_tensor(powers[-1], self._zeta)
                powers = np.concatenate([powers, self._vmul_tensor(powers, step)])
            powers = powers[:n]
            log = np.empty(self.size, dtype=np.int64)
            log[powers] = np.arange(n)
            log[0] = 2 * n
            self._logs = (log, np.concatenate([powers, powers, np.zeros(2 * n + 1, np.int64)]))
        return self._logs

    def vsum(self, a, axis):
        if self.f == 1:
            return self.mod_p(np.asarray(a).sum(axis=axis))
        return self.encode(self.decode(a).sum(axis=axis))

    # --- construction helpers ------------------------------------------------

    def _find_zeta(self) -> int:
        for code in range(2, self.size):
            if self.order_of(code) == self.order:
                return code
        return 1  # GF(2) never happens: p is odd and size >= 3

    def __repr__(self):
        return f"FieldCtx(GF({self.p}^{self.f}))" if self.f > 1 else f"FieldCtx(GF({self.p}))"


def make_field(p: int, f: int = 1, modulus=None) -> FieldCtx:
    """GF(p^f) with a verified irreducible modulus and primitive zeta (see FieldCtx)."""
    return FieldCtx(p, f, modulus)


class QDecomp:
    """The split p^f - 1 = s * q^m together with omega and eta.

    omega = zeta^((p^f-1)/q) has order q; eta = zeta^(q^m) has order s.
    """

    def __init__(self, field: FieldCtx, q: int):
        if not is_prime(q) or q == 2:
            raise QDoesNotDivide(f"q = {q} must be an odd prime")
        if field.order % q != 0:
            raise QDoesNotDivide(f"q = {q} does not divide p^f - 1 = {field.order}")
        self.field = field
        self.q = q
        m, rest = 0, field.order
        while rest % q == 0:
            rest //= q
            m += 1
        self.m = m
        self.s = rest
        self.omega = field.zeta ** (field.order // q)
        self.eta = field.zeta ** (q ** m)

    def __repr__(self):
        return (f"QDecomp(q={self.q}, s={self.s}, m={self.m}, "
                f"omega={self.omega.code}, eta={self.eta.code})")


def q_decompose(field: FieldCtx, q: int) -> QDecomp:
    return QDecomp(field, q)

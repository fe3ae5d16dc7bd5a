"""Exact arithmetic in small finite fields.

A field is presented as K[x]/(f) for a coefficient field K and a monic
irreducible modulus f; prime fields use K = integers mod p and f = x.
Elements are coefficient vectors over K with respect to the power basis
(1, g, ..., g^(k-1)), g the class of x.  The API works on integer element
*indices* only: an element is the index sum(c_i * |K|^i) of its coefficient
vector (`index_of`, `coeffs_of`), so index 0 is zero, index 1 is one and,
for k > 1, index |K| is g.  `FieldSpec.add/sub/neg/mul/inv/power` take and
return indices, as do `primitive_element` and `discrete_log`; matrices
store indices too.

`relative_extension(base, h)` builds F_{q^h} on top of an existing field
with q elements, which keeps coordinates over F_q directly available;
rank-metric code expansion needs exactly that view.  `field_make(p, k)` is
the relative extension of degree k over the prime field.  Either way the
modulus is the lexicographically smallest monic irreducible (coefficients
compared constant term first), so that repeated runs agree bit for bit.

Extension fields with at most 2**16 elements get exp/log tables on first
multiplicative use; larger fields multiply and raise to powers through the
polynomial helpers that also test moduli, `_pmod(_pmul(a, b))` and
`_ppowmod` on coefficient vectors.  Everything here is deterministic: a
field's arithmetic does not change after construction.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Sequence

DESK_ORDER_LIMIT = 2 ** 20
_TABLE_LIMIT = 2 ** 16


# Miller-Rabin with these bases decides primality for every n below
# _PROVEN_LIMIT (Sorenson and Webster, 2015); nothing above it is decided
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PROVEN_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic primality; ValueError at or above _PROVEN_LIMIT."""
    if n < 2:
        return False
    for p in _MR_BASES:  # every prime up to 41, in order
        if n % p == 0:
            return n == p
        if n < p * p:  # no prime factor up to p
            return True
    if n >= _PROVEN_LIMIT:
        raise ValueError(f"{n} is too large to prove prime (limit {_PROVEN_LIMIT})")
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _iroot(x: int, k: int) -> int:
    """floor(x ** (1/k)) for x >= 1 whose k-th root is within float range:
    integer Newton steps down from just above a float estimate."""
    r = int(math.exp(math.log(x) / k) * (1 + 1e-9)) + 1
    while True:
        s = ((k - 1) * r + x // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def prime_factors(n: int) -> tuple[int, ...]:
    """Distinct prime divisors of n, ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return tuple(out)


def prime_power(q: int) -> tuple[int, int]:
    """Write q = p^k with p prime, or raise ValueError.

    A q with a prime factor p up to 41 must be a power of p.  Otherwise
    every prime factor exceeds 2^5, and the largest k <= log_32(q) with an
    integer k-th root r of q is the only candidate: if q = p^k, every other
    exact root is a power of p.  r's primality is decided by `is_prime`, so
    a q whose root is too large to prove prime is refused, not guessed;
    the k whose roots would all be that large are not tried.
    """
    if q < 2:
        raise ValueError(f"q = {q} is not a prime power")
    for p in _MR_BASES:
        if q % p == 0:
            k = round(math.log(q, p))
            if p ** k == q:
                return p, k
            raise ValueError(f"q = {q} is not a prime power")
    # a root r < _PROVEN_LIMIT < 2^82 needs 82k >= bits(q); below that k, no root is provable
    low = -(-q.bit_length() // _PROVEN_LIMIT.bit_length())
    for k in range((q.bit_length() - 1) // 5, low - 1, -1):
        r = _iroot(q, k)
        if r ** k == q:
            if is_prime(r):
                return r, k
            raise ValueError(f"q = {q} is not a prime power")
    raise ValueError(f"q = {q} is too large to decide whether it is a prime power")


class FieldSpec:
    """A finite field; construct via `field_make` or `relative_extension`.

    Attributes:
        p: characteristic.
        k: extension degree over the coefficient field `base`.
        modulus: monic modulus as a tuple of base-element indices,
            constant term first, length k + 1.
        base: coefficient field, or None for a prime field (then k = 1
            and the modulus is x, encoded (0, 1)).
        order: number of elements.
    """

    __slots__ = ("p", "k", "modulus", "base", "order", "_subord",
                 "_exp", "_log", "_tables_done", "_prim_index")

    def __init__(self, p: int, k: int, modulus: tuple[int, ...],
                 base: "FieldSpec | None"):
        self.p = p
        self.k = k
        self.modulus = modulus
        self.base = base
        self._subord = p if base is None else base.order
        self.order = self._subord ** k
        self._exp: list[int] | None = None
        self._log: list[int] | None = None
        self._tables_done = False
        self._prim_index: int | None = None

    # -- identity -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return (isinstance(other, FieldSpec)
                and self.p == other.p and self.k == other.k
                and self.modulus == other.modulus and self.base == other.base)

    def __hash__(self) -> int:
        return hash((self.p, self.k, self.modulus,
                     None if self.base is None else self.base.order))

    def __repr__(self) -> str:
        if self.base is None:
            return f"GF({self.p})"
        if self.base.base is None:
            return f"GF({self.p}^{self.k})"
        return f"GF({self.base.order}^{self.k} rel)"

    # -- index <-> coefficient views ----------------------------------------

    def coeffs_of(self, a: int) -> tuple[int, ...]:
        """Coefficient vector of element index a, constant term first."""
        if self.base is None:
            return (a,)
        b = self._subord
        out = []
        for _ in range(self.k):
            a, r = divmod(a, b)
            out.append(r)
        return tuple(out)

    def index_of(self, coeffs: Sequence[int]) -> int:
        if len(coeffs) != self.k:
            raise ValueError(f"expected {self.k} coefficients, got {len(coeffs)}")
        b = self._subord
        val = 0
        for c in reversed(coeffs):
            if not 0 <= c < b:
                raise ValueError(f"coefficient {c} out of range [0, {b})")
            val = val * b + c
        return val

    # -- arithmetic on element indices --------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if self.base is None:
            return (a + b) % self.p
        return self._digitwise(a, b, self.base.add)

    def sub(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if self.base is None:
            return (a - b) % self.p
        return self._digitwise(a, b, self.base.sub)

    def neg(self, a: int) -> int:
        return self.sub(0, a)

    def _digitwise(self, a, b, op):
        s = self._subord
        out = 0
        shift = 1
        for _ in range(self.k):
            out += op(a % s, b % s) * shift
            a //= s
            b //= s
            shift *= s
        return out

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if a == 1:
            return b
        if b == 1:
            return a
        if self.base is None:
            return (a * b) % self.p
        if self._ensure_tables():
            n = self.order - 1
            return self._exp[(self._log[a] + self._log[b]) % n]
        return self._mul_direct(a, b)

    def _mul_direct(self, a: int, b: int) -> int:
        K = self.base
        return self._index_of_poly(
            _pmod(_pmul(self.coeffs_of(a), self.coeffs_of(b), K), self.modulus, K))

    def _index_of_poly(self, c: list[int]) -> int:
        return self.index_of(c + [0] * (self.k - len(c)))

    def inv(self, a: int) -> int:
        if a == 0:
            raise ValueError("inversion of zero")
        if a == 1:
            return 1
        if self.base is None:
            return pow(a, self.p - 2, self.p)
        if self._ensure_tables():
            n = self.order - 1
            return self._exp[(n - self._log[a]) % n]
        return self._pow_direct(a, self.order - 2)

    def power(self, a: int, e: int) -> int:
        """a**e with any integer exponent (negative goes via the inverse)."""
        if a == 0:
            if e > 0:
                return 0
            if e == 0:
                return 1
            raise ValueError("inversion of zero")
        n = self.order - 1
        e %= n if n else 1
        if e == 0:
            return 1
        if self.base is not None and self._ensure_tables():
            return self._exp[(self._log[a] * e) % n]
        return self._pow_direct(a, e)

    def _pow_direct(self, a: int, e: int) -> int:
        if self.base is None:
            return pow(a, e, self.p)
        return self._index_of_poly(_ppowmod(self.coeffs_of(a), e, self.modulus, self.base))

    # -- exp/log tables -------------------------------------------------------

    def _ensure_tables(self) -> bool:
        if self._tables_done:
            return self._exp is not None
        self._tables_done = True
        if self.order > _TABLE_LIMIT:
            return False
        g = self._find_primitive()
        n = self.order - 1
        exp = [1] * n
        log = [0] * self.order
        v = 1
        for i in range(n):
            exp[i] = v
            log[v] = i
            v = self._mul_direct(v, g)
        self._exp = exp
        self._log = log
        return True

    def _find_primitive(self) -> int:
        if self._prim_index is not None:
            return self._prim_index
        n = self.order - 1
        fs = prime_factors(n)
        for cand in range(1, self.order):
            if all(self._pow_direct(cand, n // f) != 1 for f in fs):
                self._prim_index = cand
                return cand
        raise AssertionError("no primitive element found; field is corrupt")


# -- polynomial helpers over an arbitrary FieldSpec (used for moduli) --------

def _pnorm(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _psub(a: Sequence[int], b: Sequence[int], K: FieldSpec) -> list[int]:
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else 0
        y = b[i] if i < len(b) else 0
        out.append(K.sub(x, y))
    return _pnorm(out)


def _pmul(a: Sequence[int], b: Sequence[int], K: FieldSpec) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            if y:
                out[i + j] = K.add(out[i + j], K.mul(x, y))
    return _pnorm(out)


def _pmod(a: Sequence[int], f: Sequence[int], K: FieldSpec) -> list[int]:
    """a mod f for monic f."""
    a = _pnorm(list(a))
    d = len(f) - 1
    while len(a) > d:
        c = a[-1]
        off = len(a) - 1 - d
        for j in range(d + 1):
            if f[j]:
                a[off + j] = K.sub(a[off + j], K.mul(c, f[j]))
        _pnorm(a)
    return a


def _ppowmod(a: Sequence[int], e: int, f: Sequence[int], K: FieldSpec) -> list[int]:
    acc = [1]
    base = _pmod(a, f, K)
    while e:
        if e & 1:
            acc = _pmod(_pmul(acc, base, K), f, K)
        base = _pmod(_pmul(base, base, K), f, K)
        e >>= 1
    return acc


def _pgcd(a: Sequence[int], b: Sequence[int], K: FieldSpec) -> list[int]:
    a, b = list(a), list(b)
    while b:
        lead = K.inv(b[-1])
        if lead != 1:
            b = [K.mul(lead, c) for c in b]
        a, b = b, _pmod(a, b, K)
    return list(a)


def poly_is_irreducible(f: Sequence[int], K: FieldSpec) -> bool:
    """Rabin's test for a monic polynomial over K."""
    f = list(f)
    d = len(f) - 1
    if d < 1 or f[-1] != 1:
        raise ValueError("modulus must be monic of degree >= 1")
    if d == 1:
        return True
    q = K.order
    x = [0, 1]
    if _pmod(_psub(_ppowmod(x, q ** d, f, K), x, K), f, K):
        return False
    for ell in prime_factors(d):
        g = _psub(_ppowmod(x, q ** (d // ell), f, K), x, K)
        if len(_pgcd(g, f, K)) != 1:
            return False
    return True


def _smallest_irreducible(K: FieldSpec, d: int) -> tuple[int, ...]:
    """Lexicographically first monic irreducible of degree d over K.

    Coefficient tuples (c_0, ..., c_{d-1}) are compared constant term
    first, so the walk is `itertools.product` order with c_0 slowest; the
    top coefficient is fixed to 1.  For d > 1 every candidate with c_0 = 0
    is divisible by x, so the walk starts at c_0 = 1.
    """
    if d == 1:
        return (0, 1)
    for low in itertools.product(range(1, K.order), *[range(K.order)] * (d - 1)):
        if poly_is_irreducible(low + (1,), K):
            return low + (1,)
    raise AssertionError(f"no irreducible of degree {d} over {K!r}")


# -- public constructors ------------------------------------------------------

@functools.lru_cache(maxsize=None)
def field_make(p: int, k: int) -> FieldSpec:
    """The field F_{p^k} with the canonical (smallest) modulus.

    Deterministic: equal inputs give identical moduli across runs.
    """
    if not is_prime(p):
        raise ValueError(f"characteristic {p} is not prime")
    if k < 1:
        raise ValueError(f"extension degree {k} must be >= 1")
    if p ** k > DESK_ORDER_LIMIT:
        raise ValueError(f"field of order {p}^{k} exceeds desk scale ({DESK_ORDER_LIMIT})")
    if k == 1:
        return FieldSpec(p, 1, (0, 1), None)
    return relative_extension(field_make(p, 1), k)


@functools.lru_cache(maxsize=None)
def field_for_order(q: int) -> FieldSpec:
    """F_q for a prime power q."""
    p, k = prime_power(q)
    return field_make(p, k)


@functools.lru_cache(maxsize=None)
def relative_extension(base: FieldSpec, h: int) -> FieldSpec:
    """Degree-h extension of `base`, with coordinates over `base` exposed."""
    if h < 1:
        raise ValueError(f"extension degree {h} must be >= 1")
    if base.order ** h > DESK_ORDER_LIMIT:
        raise ValueError("extension exceeds desk scale")
    return FieldSpec(base.p, h, _smallest_irreducible(base, h), base)


# -- top-level operations -----------------------------------------------------

def primitive_element(spec: FieldSpec) -> int:
    """Index of the smallest-index element generating the whole unit group."""
    return spec._find_primitive()


def discrete_log(spec: FieldSpec, base: int, x: int) -> int:
    """The unique e in [0, order-1) with base**e = x, for a primitive base.

    Both arguments are element indices.  Raises ValueError for x = 0, for
    an index outside the field and for a base that is zero or not primitive.
    Without log tables it takes baby-step giant-step, about 2·sqrt(order)
    multiplications, or sqrt(order) for a further log to the same base.
    """
    if not (0 <= base < spec.order and 0 <= x < spec.order):
        raise ValueError(f"element index out of range [0, {spec.order})")
    if x == 0:
        raise ValueError("discrete log of zero")
    n = spec.order - 1
    if base == 0 or any(spec.power(base, n // f) == 1 for f in prime_factors(n)):
        raise ValueError("base is not primitive")
    if spec.base is not None and spec._ensure_tables():
        lb = spec._log[base]
        lx = spec._log[x]
        return (lx * pow(lb, -1, n)) % n if n > 1 else 0
    # baby-step giant-step: e = i·s + j with j < s, and i < s as e < n <= s^2
    s, baby, giant = _baby_steps(spec, base)
    for i in range(s):
        j = baby.get(x)
        if j is not None:
            return i * s + j
        x = spec.mul(x, giant)
    raise AssertionError("exhausted group without finding x")


@functools.lru_cache(maxsize=4)
def _baby_steps(spec: FieldSpec, base: int) -> tuple[int, dict[int, int], int]:
    """(s, {base^j: j for j < s}, base^-s), s the least with s^2 >= order - 1:
    the part of `discrete_log` that does not depend on x."""
    n = spec.order - 1
    s = math.isqrt(n - 1) + 1
    baby, acc = {}, 1
    for j in range(s):
        baby[acc] = j  # distinct, as base is primitive and s <= n
        acc = spec.mul(acc, base)
    return s, baby, spec.inv(acc)

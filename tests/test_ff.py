import itertools
import random
import time

import pytest

import naive

from qchroma import ff, selftest
from qchroma.ff import (discrete_log, field_make, primitive_element,
                        relative_extension)


def test_prime_field_modulus_is_x():
    for p in (2, 3, 5, 7):
        F = field_make(p, 1)
        assert (F.p, F.k, F.modulus) == (p, 1, (0, 1))


def test_f4_modulus_from_exhaustive_scan():
    # oracle: test all 4 monic quadratics over F_2 for roots / factorizations
    F2 = field_make(2, 1)
    def has_factor(c0, c1):
        # x^2 + c1 x + c0 factors over F_2 iff it has a root or equals (x^2+x+1)^-ish
        return any((r * r + c1 * r + c0) % 2 == 0 for r in range(2))
    irreducible = [(c0, c1) for c0 in range(2) for c1 in range(2)
                   if not has_factor(c0, c1)]
    assert irreducible == [(1, 1)]
    assert field_make(2, 2).modulus == (1, 1, 1)


def test_field_make_rejects_bad_input():
    with pytest.raises(ValueError):
        field_make(6, 1)
    with pytest.raises(ValueError):
        field_make(2, 0)
    with pytest.raises(ValueError):
        field_make(2, 21)  # beyond the desk-scale cap


def test_modulus_is_irreducible_by_exhaustive_factor_scan():
    # oracle: trial division by every monic polynomial of degree <= k/2
    for p, k in ((2, 4), (3, 3), (5, 2)):
        F = field_make(p, k)
        mod = list(F.modulus)
        for d in range(1, k // 2 + 1):
            for lowbits in itertools.product(range(p), repeat=d):
                divisor = list(lowbits) + [1]
                if _poly_divides(divisor, mod, p):
                    raise AssertionError(
                        f"modulus of GF({p}^{k}) has factor {divisor}")


def _poly_divides(g, f, p):
    f = f[:]
    while len(f) >= len(g):
        c = f[-1]
        if c:
            shift = len(f) - len(g)
            for i, gc in enumerate(g):
                f[shift + i] = (f[shift + i] - c * gc) % p
        f.pop()
    return not any(f)


def test_f4_arithmetic():
    F4 = field_make(2, 2)
    theta = F4.index_of((0, 1))
    assert F4.coeffs_of(F4.mul(theta, theta)) == (1, 1)  # theta^2 = theta + 1
    for a in range(1, 4):
        assert F4.mul(a, F4.inv(a)) == 1
        assert F4.add(a, a) == 0  # characteristic 2


def test_power_and_inverse_errors():
    F4 = field_make(2, 2)
    a = F4.index_of((0, 1))
    assert F4.power(a, 3) == 1
    assert F4.power(a, -1) == F4.inv(a)
    with pytest.raises(ValueError):
        F4.inv(0)
    with pytest.raises(ValueError):
        F4.power(0, -1)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 16])
def test_axioms_exhaustively(q):
    assert selftest._field_axioms_at(q) == ""


def test_primitive_elements():
    assert primitive_element(field_make(2, 1)) == 1
    F4 = field_make(2, 2)
    g = primitive_element(F4)
    assert g == 2 == F4.index_of((0, 1))  # theta has order 3 and precedes theta+1
    assert [F4.power(g, e) for e in range(1, 4)].index(1) == 2
    F5 = field_make(5, 1)
    assert primitive_element(F5) == 2
    # oracle: 2 has order 4 mod 5 while 1 does not generate
    assert sorted(pow(2, e, 5) for e in range(4)) == [1, 2, 3, 4]


def test_discrete_log_small_cases():
    F5 = field_make(5, 1)
    assert discrete_log(F5, 2, 1) == 0
    assert discrete_log(F5, 2, 2) == 1
    assert discrete_log(F5, 2, 4) == 2
    with pytest.raises(ValueError):
        discrete_log(F5, 2, 0)
    with pytest.raises(ValueError):
        discrete_log(F5, 0, 2)
    with pytest.raises(ValueError):
        discrete_log(F5, 4, 2)  # 4 has order 2, not primitive
    with pytest.raises(ValueError):
        discrete_log(F5, 2, 5)  # not an index of F_5


@pytest.mark.parametrize("p, k", [(257, 2), (65537, 1)])
def test_discrete_log_above_the_table_limit_matches_the_linear_walk(p, k):
    # no log tables here: baby-step giant-step against one walk of the group
    F = field_make(p, k)
    assert F.order > ff._TABLE_LIMIT
    g = primitive_element(F)
    walk, acc = {}, 1
    for e in range(F.order - 1):
        walk[acc] = e
        acc = F.mul(acc, g)
    for x in [1, g, F.inv(g), F.order - 1, *list(walk)[::331]]:  # F.inv(g): e = order - 2
        assert discrete_log(F, g, x) == walk[x]


@pytest.mark.parametrize("q", [7, 16, 81, 125, 512])
def test_discrete_log_pow_roundtrip(q):
    assert selftest._dlog_roundtrip_at(q) == ""


def test_relative_extension_matches_absolute_for_prime_base():
    # same selection rule over F_2 either way
    F2 = field_make(2, 1)
    rel = relative_extension(F2, 3)
    assert rel.modulus == field_make(2, 3).modulus
    assert rel.order == 8


def _check_against_schoolbook(F, pairs):
    # mul, the table-free product and power, and inv, each against
    # naive.naive_mul (the power by repeated products)
    for a, b in pairs:
        want = naive.naive_mul(F, a, b)
        assert F.mul(a, b) == F._mul_direct(a, b) == want
    for a in {a for a, _ in pairs}:
        acc = 1
        for e in range(6):
            assert F.power(a, e) == F._pow_direct(a, e) == acc
            acc = naive.naive_mul(F, acc, a)
        if a:
            assert naive.naive_mul(F, a, F.inv(a)) == 1
            assert naive.naive_mul(F, a, F._pow_direct(a, F.order - 2)) == 1


# F_16, F_27, F_25, and the relative F_{4^3} and F_{9^2}
@pytest.mark.parametrize("q, h", [(2, 4), (3, 3), (5, 2), (4, 3), (9, 2)])
def test_arithmetic_matches_schoolbook_exhaustively(q, h):
    F = relative_extension(ff.field_for_order(q), h)
    _check_against_schoolbook(F, list(itertools.product(range(F.order), repeat=2)))


@pytest.mark.parametrize("p, k", [(257, 2), (2, 17)])
def test_arithmetic_above_the_table_limit_matches_schoolbook(p, k):
    F = field_make(p, k)
    assert F.order > ff._TABLE_LIMIT
    rng = random.Random(p * 100 + k)
    pairs = [(rng.randrange(F.order), rng.randrange(F.order)) for _ in range(200)]
    _check_against_schoolbook(F, pairs + [(0, 5), (1, 7), (F.order - 1, F.order - 1)])
    assert not F._ensure_tables()


def test_relative_extension_over_f4():
    F4 = field_make(2, 2)
    E = relative_extension(F4, 2)
    assert E.order == 16
    # field axioms exhaustively on the tower
    for a, b, c in itertools.product(range(16), repeat=3):
        assert E.mul(E.mul(a, b), c) == E.mul(a, E.mul(b, c))
        assert E.mul(a, E.add(b, c)) == E.add(E.mul(a, b), E.mul(a, c))
    for a in range(1, 16):
        assert E.mul(a, E.inv(a)) == 1
    # coefficients of an element really are F_4 indices
    assert E.coeffs_of(E.index_of((3, 2))) == (3, 2)


def test_element_index_convention():
    F9 = field_make(3, 2)
    for a in range(9):
        coeffs = F9.coeffs_of(a)
        assert sum(c * 3 ** i for i, c in enumerate(coeffs)) == a
        assert F9.index_of(coeffs) == a
    assert F9.coeffs_of(0) == (0, 0)
    assert F9.coeffs_of(1) == (1, 0)


@pytest.mark.parametrize("q, d", [(2, d) for d in range(2, 7)]
                         + [(3, d) for d in range(2, 5)]
                         + [(4, 2), (4, 3), (4, 4), (5, 2), (5, 3)])
def test_modulus_is_the_first_irreducible_of_a_full_walk(q, d):
    assert relative_extension(ff.field_for_order(q), d).modulus == \
        naive.naive_smallest_irreducible(q, d)


def test_f4_degree_8_modulus_is_found_quickly():
    start = time.perf_counter()
    E = relative_extension(ff.field_for_order(4), 8)
    assert time.perf_counter() - start < 1.0
    assert E.modulus == (1, 0, 0, 0, 0, 2, 0, 3, 1)


def test_prime_power_matches_trial_division_and_refuses_what_it_cannot_prove():
    def by_trial_division(q):
        p = next(d for d in range(2, q + 1) if q % d == 0)
        k = 0
        while q % p == 0:
            q, k = q // p, k + 1
        return (p, k) if q == 1 else None

    def decided(q):
        try:
            return ff.prime_power(q)
        except ValueError:
            return None
    for q in range(2, 5000):
        assert decided(q) == by_trial_division(q)
        assert ff.is_prime(q) == (by_trial_division(q) == (q, 1))
    # roots above 41 found by integer k-th roots, primes far beyond trial division
    for p, k in ((43, 2), (43, 60), (1_000_003, 3), (2 ** 61 - 1, 1), (2 ** 61 - 1, 2),
                 (2, 100), (3, 1000)):
        assert ff.prime_power(p ** k) == (p, k)
    for q in (0, 1, 43 * 47, 43 ** 2 * 47, (2 ** 61 - 1) * 43, 2 ** 100 * 3):
        with pytest.raises(ValueError, match="not a prime power"):
            ff.prime_power(q)
    # a strong pseudoprime to the bases 2..37 is still found composite
    assert not ff.is_prime(318_665_857_834_031_151_167_461)
    start = time.perf_counter()
    beyond = next(q for q in range(ff._PROVEN_LIMIT, ff._PROVEN_LIMIT + 1000)
                  if all(q % p for p in range(2, 42)))  # no factor the code divides out
    for q in (2 ** 89 - 1, (2 ** 89 - 1) ** 3, beyond):
        with pytest.raises(ValueError, match="too large"):
            ff.prime_power(q)
    assert time.perf_counter() - start < 1.0

import random
import signal
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicdyn import (
    INF,
    Analysis,
    CompactDomain,
    build_digraph,
    canonical_key,
    normalize_map,
    parse_domain,
    parse_map,
)
from padicdyn.errors import InvalidPrime, PrimeMismatch, ZeroDenominator
from padicdyn.padics import fraction_valuation, int_valuation, require_prime, unit_residue


@pytest.mark.parametrize(
    "p,num,den,expected",
    [
        (7, 98, 3, 2),
        (7, 0, 1, INF),
        (3, 5, 9, -2),
        (2, 12, 1, 2),
        (5, 1, 5, -1),
        (3, -27, 4, 3),
    ],
)
def test_valuation_examples(p, num, den, expected):
    assert fraction_valuation(Fraction(num, den), p) == expected


def test_norm_is_an_exponent_never_a_float():
    # |x| = p^(-v(x)) is handled through the exponent -v(x)
    norm_exponent = -fraction_valuation(Fraction(98, 3), 7)
    assert norm_exponent == -2
    assert isinstance(norm_exponent, int)


rationals = st.fractions(
    min_value=-10**6, max_value=10**6, max_denominator=10**4
)


@given(rationals, rationals, rationals, st.sampled_from([2, 3, 5, 7]))
@settings(max_examples=200)
def test_field_laws(a, b, c, p):
    # the field operations on points commute with reduction modulo p^k
    k = 3
    mod = p**k
    integral = [x for x in (a, b, c) if fraction_valuation(x, p) >= 0]
    for x in integral:
        for y in integral:
            rx, ry = unit_residue(x, p, k), unit_residue(y, p, k)
            assert unit_residue(x + y, p, k) == (rx + ry) % mod
            assert unit_residue(x - y, p, k) == (rx - ry) % mod
            assert unit_residue(x * y, p, k) == rx * ry % mod
            if fraction_valuation(y, p) == 0:
                assert unit_residue(x / y, p, k) == rx * pow(ry, -1, mod) % mod


def test_valuation_arithmetic_bulk():
    # v(xy) = v(x) + v(y); v(x+y) >= min with equality for distinct valuations
    rng = random.Random(20260811)
    for p in (2, 3, 5):
        for _ in range(4000):
            x = Fraction(rng.randint(-(10**6), 10**6), rng.randint(1, 10**4))
            y = Fraction(rng.randint(-(10**6), 10**6), rng.randint(1, 10**4))
            if x == 0 or y == 0:
                continue
            vx, vy = fraction_valuation(x, p), fraction_valuation(y, p)
            assert fraction_valuation(x * y, p) == vx + vy
            s = x + y
            bound = min(vx, vy)
            if s == 0:
                continue
            assert fraction_valuation(s, p) >= bound
            if vx != vy:
                assert fraction_valuation(s, p) == bound


@given(rationals, st.sampled_from([2, 3, 5]), st.integers(-5, 5))
@settings(max_examples=300)
def test_canonical_key_idempotent(x, p, t):
    k = canonical_key(x, t, p)
    assert canonical_key(k, t, p) == k
    # the key is in the same level-t ball as x
    if k != x:
        assert fraction_valuation(x - k, p) >= -t


def test_unit_residue_matches_modular_inverse():
    assert unit_residue(Fraction(3, 2), 7, 2) == (3 * pow(2, -1, 49)) % 49
    assert unit_residue(Fraction(5), 3, 3) == 5


def test_reduce_requires_integrality():
    with pytest.raises(ValueError):
        unit_residue(Fraction(1, 3), 3, 2)


def test_prime_mismatch_rejected():
    # a 3-adic map on a 5-adic domain would otherwise classify and build a
    # digraph from the 3-adic kernel on 5-adic balls
    f, X = parse_map("x+1", 3), CompactDomain.zp(5)
    with pytest.raises(PrimeMismatch, match=r"^map over p = 3 and domain over p = 5$"):
        Analysis(f, X)
    with pytest.raises(PrimeMismatch, match=r"^map over p = 3 and domain over p = 5$"):
        build_digraph(f, X, -1)
    with pytest.raises(PrimeMismatch):
        CompactDomain.zp(3).union(CompactDomain.zp(5))


def test_zero_division_raises():
    with pytest.raises(ZeroDenominator):
        normalize_map([1], [0], 3)


@pytest.mark.parametrize("p", [0, 1, -3, 4, 6, 561, 2**61 + 1, 3_215_031_751, 10**30])
def test_require_prime_rejects(p):
    # 561 is a Carmichael number, 3215031751 a strong pseudoprime to the
    # bases 2, 3, 5 and 7; 10^30 lies beyond the exact test's range
    with pytest.raises(InvalidPrime):
        require_prime(p)


@pytest.mark.parametrize("p", [2, 3, 7, 2**61 - 1, 3_317_044_064_679_887_385_961_813])
def test_require_prime_accepts(p):
    require_prime(p)


# the library entry points that check their prime, each given one
_PRIME_CHECKS = {
    "parse_map": lambda p: parse_map("x+1", p),
    "normalize_map": lambda p: normalize_map([1, 1], [1], p),
    "parse_domain": lambda p: parse_domain("Zp", p),
    "CompactDomain.ball": lambda p: CompactDomain.ball(0, 0, p),
}


@pytest.mark.parametrize("entry", _PRIME_CHECKS)
def test_a_non_prime_is_refused_after_a_prime_and_after_a_refusal(entry):
    # require_prime remembers the primes it accepted: 9 is refused after 7
    # was accepted, and again after 9 was refused once
    check = _PRIME_CHECKS[entry]
    check(7)
    for _ in range(2):
        with pytest.raises(InvalidPrime, match="^p must be a prime: got 9$"):
            check(9)


def test_require_prime_agrees_with_trial_division():
    small = [n for n in range(2, 3000) if all(n % d for d in range(2, int(n**0.5) + 1))]
    accepted = []
    for n in range(-5, 3000):
        try:
            require_prime(n)
        except InvalidPrime:
            continue
        accepted.append(n)
    assert accepted == small


@contextmanager
def _deadline(seconds: int):
    """Fail instead of hanging when the body runs past ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"no answer within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("p", [1, 0, 4])
@pytest.mark.parametrize(
    "construct",
    [
        lambda p: CompactDomain.zp(p),
        lambda p: CompactDomain.ball(1, -1, p),
        lambda p: CompactDomain.sphere(1, p),
        lambda p: normalize_map([1, 1], [1], p),
    ],
    ids=["zp", "ball", "sphere", "normalize_map"],
)
def test_public_constructors_reject_a_non_prime_promptly(construct, p):
    with _deadline(5), pytest.raises(InvalidPrime, match=f"p must be a prime: got {p}"):
        construct(p)


@pytest.mark.parametrize("p", [1, 0, -1])
def test_int_valuation_refuses_moduli_below_two(p):
    # n % 1 == 0 and n % -1 == 0 for every n: the loop would never end
    with _deadline(5), pytest.raises(InvalidPrime):
        int_valuation(12, p)


def _stepwise_valuation(n, p):
    """The one-step division loop, as the oracle for ``int_valuation``."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


@given(
    st.sampled_from([2, 3, 5, 7, 101]),
    st.integers(-10**6, 10**6).filter(bool),
    st.integers(0, 200),
)
@settings(max_examples=300, derandomize=True)
def test_int_valuation_matches_the_stepwise_loop(p, u, e):
    # u may itself carry factors of p; e crosses the hand-over to the ladder
    n = u * p**e
    assert int_valuation(n, p) == _stepwise_valuation(n, p)


def test_int_valuation_of_a_tall_power_finishes():
    # the one-step loop needs 524,288 divisions of a number of 830k bits
    with _deadline(30):
        assert int_valuation(2 * 3**524288, 3) == 524288

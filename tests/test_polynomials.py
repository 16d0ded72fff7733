from fractions import Fraction
from math import comb, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_domains import level_balls, sub_balls

from padicdyn import (
    INF,
    NEG_INF,
    CompactDomain,
    fraction_valuation,
    normalize_map,
    parse_domain,
    poly_eval,
)
from padicdyn.domains import Ball
from padicdyn.polynomials import (
    _ball_probe,
    _int_add,
    _int_derivative,
    _int_divexact,
    _int_gcd,
    _int_mul,
    _rescaled_coefficients,
    _taylor_coefficients,
    squarefree_part,
)

# Oracle arithmetic on coefficient lists (ints or Fractions, lowest degree
# first), written out independently of the library.


def trimmed(coeffs) -> list:
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def padd(a, b, sign=1) -> list:
    """a + sign*b."""
    n = max(len(a), len(b))
    return trimmed(
        (a[i] if i < len(a) else 0) + sign * (b[i] if i < len(b) else 0) for i in range(n)
    )


def pmul(a, b) -> list:
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, c in enumerate(a):
        for j, d in enumerate(b):
            out[i + j] += c * d
    return trimmed(out)


def pscale(a, c) -> list:
    return trimmed(c * x for x in a)


def pderiv(a) -> list:
    return [i * c for i, c in enumerate(a)][1:]


def ptaylor(F, a) -> list:
    """Coefficients of F(x + a), from the binomial expansion of each term."""
    out = [0] * len(F)
    for i, c in enumerate(F):
        for j in range(i + 1):
            out[j] += c * comb(i, j) * a ** (i - j)
    return trimmed(out)


def as_ints(F) -> list[int]:
    """Integer-valued coefficients as ints; raises on any other value."""
    out = []
    for c in F:
        if Fraction(c).denominator != 1:
            raise ValueError(f"coefficient {c} is not an integer")
        out.append(int(c))
    return out


def is_integral(F, p) -> bool:
    return all(fraction_valuation(c, p) >= 0 for c in F)


def shift_variable(F, p, k) -> list:
    """F(p^k x)."""
    pk = Fraction(p) ** k
    return [a * pk**i for i, a in enumerate(F)]


def norm_constant_exponent(F, p, center) -> float:
    """Oracle for ``_ball_probe``'s constancy level, on ``Fraction``s: the
    largest level t certifying |F| constant on the ball of radius p^t
    around the center (INF for constants, 0 included, NEG_INF when
    F(center) = 0 for a nonzero F), read from F's Taylor coefficients g_i
    at the center as the largest t with v(g_0) < v(g_i) - i*t for every
    i >= 1.  The probe at radius p^-k says ``exact`` exactly when t >= -k."""
    g = ptaylor(F, center)
    if not g:
        return INF
    if g[0] == 0:
        return NEG_INF
    v0 = fraction_valuation(g[0], p)
    best = INF
    for i in range(1, len(g)):
        if g[i]:
            best = min(best, (fraction_valuation(g[i], p) - v0 - 1) // i)
    return best


def test_eval_example():
    # F = x^2 - 1 at 2
    assert poly_eval([-1, 0, 1], 2) == 3


def test_derivative_example():
    # d/dx (2x^3 + x^2 + x) = 6x^2 + 2x + 1
    assert _int_derivative((0, 1, 1, 2)) == [1, 2, 6]


def test_taylor_shift_example():
    # (x+1)^2 = x^2 + 2x + 1
    assert _taylor_coefficients([0, 0, 1], 1) == [1, 2, 1]


def test_zero_polynomial_degree_is_minus_one():
    # the zero polynomial is the empty tuple; the zero map has m = -1
    f = normalize_map([0, 0], [5], 5)
    assert f.P == () and f.m == -1
    assert f.t1 == ()


coeff_lists = st.lists(
    st.fractions(min_value=-50, max_value=50, max_denominator=20),
    min_size=1,
    max_size=6,
)


@given(coeff_lists, st.fractions(min_value=-20, max_value=20, max_denominator=10))
@settings(max_examples=200)
def test_taylor_shift_property(coeffs, a):
    # G(x) = F(x + a) evaluated at x - a recovers F(x), and the synthetic
    # shift gives the binomial expansion's coefficients
    G = _taylor_coefficients(coeffs, a)
    assert trimmed(G) == ptaylor(coeffs, a)
    for x in (Fraction(0), Fraction(1), Fraction(-3, 2), Fraction(7)):
        assert poly_eval(G, x - a) == poly_eval(coeffs, x)


def test_gcd_and_exact_division():
    A = [-1, 0, 1]  # x^2 - 1
    B = [2, 2]  # 2x + 2
    assert _int_gcd(A, B) == [1, 1]
    assert _int_divexact(A, [1, 1]) == [-1, 1]
    with pytest.raises(ValueError, match="division is not exact"):
        _int_divexact([1, 0, 1], [1, 1])
    # exact over Q but not over Z
    with pytest.raises(ValueError, match="division is not exact"):
        _int_divexact(A, B)


def test_squarefree_part_is_primitive():
    # 2 (x - 1)^2 (x + 2) collapses to (x - 1)(x + 2), content 1
    assert squarefree_part([4, -6, 0, 2]) == [-2, 1, 1]
    # -(x - 1)^2 keeps the sign of its leading coefficient
    assert squarefree_part([-1, 2, -1]) == [1, -1]
    # no repeated factor: the input itself, content kept
    assert squarefree_part([6, 0, 3]) == [6, 0, 3]


@pytest.mark.parametrize(
    "p,coeffs,center,expected",
    [
        (7, [1, 0, 1], 2, -1),  # x^2 + 1 around 2
        (3, [5], 0, INF),  # nonzero constant
        (3, [0, 1], 0, NEG_INF),  # root at the center
    ],
)
def test_norm_constant_examples(p, coeffs, center, expected):
    # exact on the balls of radius p^-k at and inside the constancy level,
    # and not on the coarser ones
    for k in range(-3, 6):
        assert _ball_probe(coeffs, p, center, k)[3] == (expected >= -k)


@pytest.mark.parametrize(
    "p,coeffs,center",
    [
        (7, [1, 0, 1], 2),
        (3, [1, 2, 0, 1], 4),
        (5, [2, 1, 1], 3),
        (2, [1, 1, 1], 1),
    ],
)
def test_norm_constant_soundness_exhaustive(p, coeffs, center):
    # the probe certifies the ball at the oracle's constancy level t and
    # not the one above it, and every point of the certified ball,
    # enumerated two levels deeper, has the same norm as the center
    t = norm_constant_exponent(coeffs, p, center)
    assert isinstance(t, int) and abs(t) <= 4
    assert _ball_probe(coeffs, p, center, -t)[3]
    assert not _ball_probe(coeffs, p, center, -t - 1)[3]
    want = fraction_valuation(poly_eval(coeffs, center), p)
    ball = Ball.containing(center, t, p)
    for sub in sub_balls(ball, t - 2):
        assert fraction_valuation(poly_eval(coeffs, sub.key), p) == want


@st.composite
def _probe_cases(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    kind = draw(st.sampled_from(["Zp", "B(0,1)", "B(0,2)", "sphere"]))
    if kind == "sphere":
        X = CompactDomain.sphere(draw(st.integers(-2, 2)), p)
    else:
        X = parse_domain(kind, p)
    balls = level_balls(X, X.base_level - draw(st.integers(0, 2)))
    ball = balls[draw(st.integers(0, len(balls) - 1))]
    shape = draw(st.sampled_from(["zero", "constant", "random", "repeated root"]))
    if shape == "zero":
        F = []
    elif shape == "constant":
        F = [draw(st.integers(1, p**4)) * draw(st.sampled_from([1, -1]))]
    else:
        F = trimmed(draw(st.lists(st.integers(-p**3, p**3), min_size=1, max_size=5)))
        if shape == "repeated root":
            # a root r / p^M near the ball's key (at it when the offset is
            # 0), with multiplicity 2 or 3
            M = X.height_exponent()
            r = int(ball.key * p**M) + draw(st.integers(-p, p)) * p ** draw(st.integers(0, 3))
            for _ in range(draw(st.integers(2, 3))):
                F = pmul(F, [-r, p**M])
    # the kernel rescales P and Q with one d >= both degrees
    d = max(len(F) - 1, 0) + draw(st.integers(0, 2))
    return tuple(F), X, ball, d


@given(_probe_cases())
@settings(max_examples=400, deadline=None, derandomize=True)
def test_probe_agrees_with_the_fraction_oracle(case):
    # v(F(a)) = v(G(y)) - Md, v(F'(a)) = v(G'(y)) + M(1 - d), and the
    # probe of G at y on the ball of x-level t (k = M - t) is exact when t
    # is at most F's constancy level at a: asked at the ball's level and on
    # both sides of the constancy level
    F, X, ball, d = case
    p, M, a = X.prime, X.height_exponent(), ball.key
    G, y = _rescaled_coefficients(F, p, d, M), int(a * p**M)
    c = norm_constant_exponent(F, p, a)
    for t in {ball.level} | ({c, c + 1} if abs(c) != INF else set()):
        v0, v1, _, exact = _ball_probe(G, p, y, M - t)
        assert v0 - M * d == fraction_valuation(poly_eval(F, a), p)
        assert v1 + M * (1 - d) == fraction_valuation(poly_eval(pderiv(F), a), p)
        assert exact == (c >= t)


@given(_probe_cases())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_probe_bounds_the_valuation_on_the_ball(case):
    # v is the least v(g_j) + jk over G's Taylor coefficients at y, and
    # every point of y + p^k Z_p, enumerated two levels down, has v(G) >= v,
    # with v(G) = v(G(y)) when the probe says exact; asked at the ball's
    # radius and one level to either side
    F, X, ball, d = case
    p, M = X.prime, X.height_exponent()
    G, y = _rescaled_coefficients(F, p, d, M), int(ball.key * p**M)
    g = ptaylor(G, y)
    k0 = M - ball.level
    for k in range(max(k0 - 1, 0), k0 + 2):
        v0, _, v, exact = _ball_probe(G, p, y, k)
        assert v == min((fraction_valuation(c, p) + j * k for j, c in enumerate(g)), default=INF)
        for j in range(p**2):
            x = y + j * p**k
            w = fraction_valuation(sum(c * x**i for i, c in enumerate(G)), p)
            assert w >= v
            if exact:
                assert w == v0


small_polys = st.lists(st.integers(-6, 6), min_size=1, max_size=4).map(trimmed)


def _monic(coeffs):
    """Coefficients, lowest degree first, scaled to a monic polynomial."""
    coeffs = trimmed(Fraction(c) for c in coeffs)
    return [c / coeffs[-1] for c in coeffs] if coeffs else []


@given(small_polys, small_polys, small_polys)
@settings(max_examples=150, deadline=None)
def test_gcd_and_squarefree_part_agree_with_sympy(a, b, c):
    # A = a*c and B = b*c^2 share the factor c; F = A*B has repeated roots
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")

    def to_sympy(F):
        return sympy.Poly(list(reversed(F)) or [0], x, domain="QQ")

    def from_sympy(S):
        return _monic(reversed([Fraction(int(k.p), int(k.q)) for k in S.all_coeffs()]))

    A, B = _int_mul(a, c), _int_mul(_int_mul(b, c), c)
    if not A or not B:
        return
    g = _int_gcd(A, B)
    assert g[-1] > 0 and gcd(*g) == 1
    assert _monic(g) == from_sympy(to_sympy(A).gcd(to_sympy(B)))
    F = _int_mul(A, B)
    sf = squarefree_part(F)
    assert _monic(sf) == from_sympy(to_sympy(F).sqf_part())
    assert sf == F or gcd(*sf) == 1


integer_polys = st.lists(st.integers(-20, 20), max_size=5).map(trimmed)


@given(integer_polys, integer_polys.filter(bool), integer_polys)
@settings(max_examples=200, deadline=None)
def test_exact_division_of_integer_polynomials(a, b, r):
    # non-monic divisors: A*B/B = A, a remainder of lower degree than B is
    # never divided away, and the primitive gcd divides in Z[x] (Gauss)
    assert _int_divexact(_int_mul(a, b), b) == a
    if r and len(r) < len(b):
        with pytest.raises(ValueError, match="division is not exact"):
            _int_divexact(_int_add(_int_mul(a, b), r), b)
    g = _int_gcd(_int_mul(a, b), b)
    assert g[-1] > 0
    assert _int_mul(_int_divexact(b, g), g) == b



def taylor_shift_probe(G, p, y, k):
    """``_ball_probe`` as it was before its constant-term case: every
    answer read off the Taylor coefficients of G at y."""
    g = ptaylor(G, y)
    if not g:
        return INF, INF, INF, True
    v0 = fraction_valuation(g[0], p)
    v1 = v = INF
    for j in range(1, len(g)):
        if g[j]:
            w = fraction_valuation(g[j], p)
            if j == 1:
                v1 = w
            v = min(v, w + j * k)
    return v0, v1, min(v0, v), v0 < v


@st.composite
def _shift_probe_cases(draw):
    """(G, p, y, k): an integer G (zero and constants included), at times
    with a root at y or a factor p^k, so that G(y) reaches valuation k."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    y = draw(st.integers(-p**3, p**3))
    k = draw(st.integers(-1, 4))
    G = trimmed(draw(st.lists(st.integers(-p**3, p**3), max_size=5)))
    shape = draw(st.sampled_from(["plain", "root at y", "divisible"]))
    if shape == "root at y":
        G = pmul(G, [-y, 1])
    elif shape == "divisible":
        G = pscale(G, p ** max(k, 0))
    return G, p, y, k


def test_probe_matches_the_taylor_shift_probe():
    # where v(G(y)) < k the probe answers from G(y) and G'(y) alone; both
    # routes give the four values of the probe that always shifts
    seen = set()

    @given(_shift_probe_cases())
    @settings(max_examples=400, deadline=None, derandomize=True)
    def check(case):
        G, p, y, k = case
        assert _ball_probe(G, p, y, k) == taylor_shift_probe(G, p, y, k)
        seen.add(fraction_valuation(poly_eval(G, y), p) < k)

    check()
    assert seen == {True, False}

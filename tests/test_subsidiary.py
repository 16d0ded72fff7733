"""Subsidiary edge data on the kernel's integers against the Fraction path.

The oracle is the earlier exact-fraction computation: Taylor shifts of P and
Q at the source key a, the least s making P(p^s x + a) - (p^s y + b) Q(p^s x + a)
integral, and the valuations of Q(a), T1(a) and Q'(a) from ``poly_eval``.
The integer path must give the same (s, bounds, passes) on every edge of
the transport level and one level below, or the same
ConstantTermNotIntegral message.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_kernel import PRIMES, domains
from test_polynomials import padd, pderiv, pmul, pscale, ptaylor, trimmed

from padicdyn import Analysis, parse_domain, parse_map
from padicdyn.config import AnalysisConfig
from padicdyn.digraph import SubsidiaryEdgeData, subsidiary_edge_data
from padicdyn.errors import ConstantTermNotIntegral, PadicDynError
from padicdyn.maps import normalize_map
from padicdyn.padics import INF, NEG_INF, ceil_div, fraction_valuation
from padicdyn.polynomials import _rescaled_coefficients, poly_eval

MAX_VERTICES = 800


def _old_s_exponent(f, a, b):
    p = f.prime
    Pa = ptaylor(f.P, a)
    Qa = ptaylor(f.Q, a)
    deg = max(len(Pa), len(Qa)) - 1
    Pa += [0] * (deg + 1 - len(Pa))
    Qa += [0] * (deg + 1 - len(Qa))
    c00 = Pa[0] - b * Qa[0] if deg >= 0 else 0
    if c00 != 0 and fraction_valuation(c00, p) < 0:
        raise ConstantTermNotIntegral(
            f"constant term P(a) - b Q(a) has negative valuation at a={a}, b={b}"
        )
    s = 0
    for i in range(0, deg + 1):
        cq = Qa[i]
        if cq != 0:
            v = fraction_valuation(cq, p)
            if v < 0:
                s = max(s, ceil_div(-int(v), i + 1))
        if i >= 1:
            c = Pa[i] - b * cq
            if c != 0:
                v = fraction_valuation(c, p)
                if v < 0:
                    s = max(s, ceil_div(-int(v), i))
    return s


def _old_subsidiary_edge_data(f, a, b, t, radius_exponent):
    p = f.prime
    s = _old_s_exponent(f, a, b)
    vq = fraction_valuation(poly_eval(f.Q, a), p)
    vt = fraction_valuation(poly_eval(f.t1, a), p)
    e = NEG_INF if vt is INF else 2 * int(vq) - int(vt)
    vqd = fraction_valuation(poly_eval(pderiv(f.Q), a), p)
    b1 = -s
    b2 = NEG_INF if e is NEG_INF else radius_exponent - e
    b3 = INF if vqd is INF else (NEG_INF if e is NEG_INF else int(vqd) - int(vq) + e)
    b4 = NEG_INF if e is NEG_INF else -2 * s - int(vq) + 2 * e
    passes = t <= min(b1, b2, b3, b4)
    return SubsidiaryEdgeData(s, (b1, b2, b3, b4), passes)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ConstantTermNotIntegral as exc:
        return ConstantTermNotIntegral, str(exc)


def _horner(coeffs, u):
    out = []
    for c in reversed(coeffs):
        out = padd(pmul(out, u), [c])
    return out


@st.composite
def _cases(draw):
    """A map and a domain from ``test_kernel.domains``, half of them beyond
    Z_p.  The map has integer coefficients (constant maps and constant
    denominators included) or coefficients of valuation -1 to 1; or it is
    x + p^k A(x) / Q(x) with deg A <= deg Q, which moves points little (it
    reaches ConstantTermNotIntegral where |Q| > 1); or it is a map g of Z_p
    carried onto the domain's ball, f(x) = c + g(u) / p^R with
    u = p^R (x - c)."""
    p = draw(PRIMES)
    X = draw(domains(p, ("zp", "ball", "punctured", "beyond", "beyond", "beyond")))
    kind = draw(st.sampled_from(["integer", "fractional", "near-identity", "carried"]))
    x = [0, 1]
    if kind in ("integer", "fractional"):
        e = (0, 0) if kind == "integer" else (-1, 1)
        coeff = st.builds(lambda n, k: n * Fraction(p) ** k,
                          st.integers(-30, 30), st.integers(*e))
        pc = draw(st.lists(coeff, min_size=1, max_size=5))
        qc = draw(st.lists(coeff, min_size=1, max_size=4))
        if not any(qc):
            qc[-1] = 1
        return normalize_map(pc, qc, p), X
    if kind == "near-identity":
        qc = draw(st.lists(st.integers(-30, 30), min_size=1, max_size=3))
        if not any(qc):
            qc[-1] = 1
        ac = draw(st.lists(st.integers(-30, 30), min_size=1, max_size=len(qc)))
        Q, k = trimmed(qc), draw(st.integers(0, 2))
        return normalize_map(padd(pmul(x, Q), pscale(ac, p**k)), Q, p), X
    M = X.height_exponent()
    c = min(X.keys) if len(X.keys) == 1 and X.base_level == 0 else Fraction(0)
    R = 0 if c.denominator > 1 else M
    gc = draw(st.lists(st.integers(-30, 30), min_size=1, max_size=4))
    hc = [draw(st.sampled_from([1, -1, 2, 3, p]))]
    hc += [p * k for k in draw(st.lists(st.integers(-5, 5), max_size=2))]
    u = pscale(padd(x, [c], -1), p**R)
    G, H = _horner(gc, u), _horner(hc, u)
    return normalize_map(padd(G, pscale(H, c * p**R)), pscale(H, p**R), p), X


def test_integer_edge_data_agrees_with_the_fraction_path():
    seen = set()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_cases())
    # s = 1 on half the edges; a constant term of valuation -1 (as in the
    # golden cases)
    @example((parse_map("x/(1+2x^2)", 2), parse_domain("B(0,1)", 2)))
    @example((parse_map("(3x-3x^2)/(1+3x)", 2), parse_domain("B(1/2,0)", 2)))
    def check(case):
        f, X = case
        p, M = f.prime, X.height_exponent()
        try:
            # the budget keeps classify's work small; levels too fine for
            # MAX_VERTICES are left out
            A = Analysis(f, X, AnalysisConfig(ball_cap=1000))
            top = A.transport_level
            levels = [t for t in (top, top - 1)
                      if len(X.keys) * p ** (X.base_level - t) <= MAX_VERTICES]
            graphs = [A.digraph(t) for t in levels]
        except PadicDynError:
            return
        d = max(f.m, f.n)
        num, den = (_rescaled_coefficients(F, p, d, M) for F in (f.P, f.Q))
        for t, G in zip(levels, graphs):
            y, keys = G.residues, G.keys
            got = [_outcome(subsidiary_edge_data, num, den, p, M, y[i], y[j], t, top)
                   for i, j in enumerate(G.succ)]
            want = [_outcome(_old_subsidiary_edge_data, f, keys[i], keys[j], t, top)
                    for i, j in enumerate(G.succ)]
            assert got == want
            # the level's data is the per-edge data, or the first edge's error
            failures = [w for w in want if isinstance(w, tuple)]
            if failures:
                with pytest.raises(ConstantTermNotIntegral) as info:
                    A.subsidiary(t)
                assert str(info.value) == failures[0][1]
                seen.add(ConstantTermNotIntegral)
            else:
                assert A.subsidiary(t).subsidiary == tuple(want)
                seen.update(("s > 0" if w.s_exponent else "s = 0", w.passes) for w in want)
            seen.add(f"M = {M}")

    check()
    assert {ConstantTermNotIntegral, "M = 0", "M = 1", "M = 2"} <= seen
    assert {("s = 0", True), ("s = 0", False), ("s > 0", False)} <= seen

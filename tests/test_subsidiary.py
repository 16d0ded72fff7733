"""Subsidiary edge data on the kernel's integers against the Fraction path,
and the intrinsic level from per-ball bounds against the per-edge search.

The first oracle is the earlier exact-fraction computation: Taylor shifts of
P and Q at the source key a, the least s making P(p^s x + a) -
(p^s y + b) Q(p^s x + a) integral, and the valuations of Q(a), T1(a) and
Q'(a) from ``poly_eval``.  The integer path must give the same (s, bounds,
passes) on every edge of the transport level and one level below, or the
same ConstantTermNotIntegral message.

The second oracle finds the intrinsic level as it was first defined: for
each candidate level from the top, the subsidiary data of every edge of the
candidate and of the margin levels below it.  ``Analysis.intrinsic_level``
must give the same level or the same error, and ``mp`` the same verdict.

The third check holds each ball that the search settles beyond Z_p to
``_settle``'s contract, edge by edge on its keys a few levels down: s bounds
every edge's s where the ball's bounds keep the level, and no edge's s is
below it at the levels down to ``exact_to``.
"""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from test_domains import level_balls
from test_kernel import PRIMES, domains, one_lipschitz_instances, shift_instances
from test_polynomials import padd, pderiv, pmul, pscale, ptaylor, trimmed

from padicdyn import Analysis, Ball, CompactDomain, digraph, parse_domain, parse_map
from padicdyn.config import AnalysisConfig
from padicdyn.digraph import (
    SubsidiaryEdgeData,
    _edge_data,
    _expansion,
    subsidiary_edge_data,
)
from padicdyn.errors import (
    ConstantTermNotIntegral,
    DecompositionTooLarge,
    DepthCapExceeded,
    DerivativeRootInDomain,
    PadicDynError,
)
from padicdyn.maps import normalize_map
from padicdyn.padics import INF, NEG_INF, ceil_div, fraction_valuation
from padicdyn.polynomials import poly_eval

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
def _cases(draw, kinds=("zp", "ball", "punctured", "beyond", "beyond", "beyond")):
    """A map and a domain of ``kinds`` from ``test_kernel.domains``, by
    default half of them beyond Z_p.  The map has integer coefficients
    (constant maps and constant denominators included) or coefficients of
    valuation -1 to 1; or it is x + p^k A(x) / Q(x) with deg A <= deg Q,
    which moves points little (it reaches ConstantTermNotIntegral where
    |Q| > 1); or it is a map g of Z_p carried onto the domain's ball,
    f(x) = c + g(u) / p^R with u = p^R (x - c)."""
    p = draw(PRIMES)
    X = draw(domains(p, kinds))
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
    c = level_balls(X, 0)[0].key if X.base_level == 0 and X.count(0) == 1 else Fraction(0)
    R = 0 if c.denominator > 1 else M
    gc = draw(st.lists(st.integers(-30, 30), min_size=1, max_size=4))
    hc = [draw(st.sampled_from([1, -1, 2, 3, p]))]
    hc += [p * k for k in draw(st.lists(st.integers(-5, 5), max_size=2))]
    u = pscale(padd(x, [c], -1), p**R)
    G, H = _horner(gc, u), _horner(hc, u)
    return normalize_map(padd(G, pscale(H, c * p**R)), pscale(H, p**R), p), X


def test_integer_edge_data_agrees_with_the_fraction_path(monkeypatch):
    seen = set()
    # Analysis.subsidiary computes an edge on its own only where no ball of
    # Z_p settles it; the others share their ball's datum
    per_edge = []
    monkeypatch.setattr(digraph, "subsidiary_edge_data",
                        lambda *args: per_edge.append(args) or subsidiary_edge_data(*args))

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
            # the budget keeps classify's work small
            A = Analysis(f, X, AnalysisConfig(ball_cap=1000))
            top = A.transport_level
        except PadicDynError:
            return
        form = f.rescaled(M)
        # the transport level and up to four levels below it, each of at
        # most MAX_VERTICES balls
        for t in range(top, top - 5, -1):
            if X.count(t) > MAX_VERTICES:
                break
            try:
                G = A.digraph(t)
            except PadicDynError:
                continue
            y, keys = G.residues, G.keys
            got = [_outcome(subsidiary_edge_data, form, y[i], y[j], t, top)
                   for i, j in enumerate(G.succ)]
            want = [_outcome(_old_subsidiary_edge_data, f, keys[i], keys[j], t, top)
                    for i, j in enumerate(G.succ)]
            assert got == want
            # the level's data is the per-edge data, or the first edge's error
            failures = [w for w in want if isinstance(w, tuple)]
            seen.add(f"M = {M}")
            per_edge.clear()
            if failures:
                with pytest.raises(ConstantTermNotIntegral) as info:
                    A.subsidiary(t)
                assert str(info.value) == failures[0][1]
                seen.add(ConstantTermNotIntegral)
                continue
            assert A.subsidiary(t).subsidiary == tuple(want)
            seen.update(("s > 0" if w.s_exponent else "s = 0", w.passes) for w in want)
            if M == 0:
                seen.add(("M = 0", top - t, "per edge", bool(per_edge)))
                seen.add(("M = 0", top - t, "per ball", len(per_edge) < len(want)))

    check()
    assert {ConstantTermNotIntegral, "M = 0", "M = 1", "M = 2"} <= seen
    assert {("s = 0", True), ("s = 0", False), ("s > 0", False)} <= seen
    # on Z_p, levels whose data came from settled balls and from single edges
    for below in range(5):
        assert {("M = 0", below, "per edge", True),
                ("M = 0", below, "per ball", True)} <= seen, below


def per_edge_intrinsic_level(A):
    """The intrinsic-level search on every edge of every level it reads."""
    level = A.transport_level
    if not A.report.derivative_root_free:
        raise DerivativeRootInDomain(
            "intrinsic level requires a root-free derivative on the domain"
        )
    margin = A.config.intrinsic_margin
    floor = level - A.config.descent_cap
    for t in range(level, floor - 1, -1):
        if all(A.subsidiary(t - j).is_subsidiary_equal for j in range(margin + 1)):
            return t
    raise DepthCapExceeded(
        f"no level down to {floor} has matching digraph and subsidiary digraph",
        level=floor,
    )


def _result(fn, *args):
    """The value, or the exception's type and message."""
    try:
        return fn(*args)
    except PadicDynError as exc:
        return type(exc), str(exc)


@st.composite
def _contractions(draw):
    """g(p^M x) / p^M on B(0, M) (Z_p for M = 0), for
    g(u) = (a_0 + p^k a_1 u) / (b_0 + p^k (b_1 u + b_2 u^2)) with a unit b_0:
    g maps Z_p into itself and scales distances by at most p^-k, so the ball
    is invariant and the intrinsic level lies levels below the transport
    level."""
    M = draw(st.integers(0, 2))
    p = draw(PRIMES if M == 0 else st.sampled_from([2, 3]))
    k = draw(st.integers(1, 4))
    a0, a1 = draw(st.lists(st.integers(-20, 20), min_size=2, max_size=2))
    b0 = draw(st.integers(1, p - 1)) + p * draw(st.integers(-3, 3))
    b1, b2 = draw(st.lists(st.integers(-3, 3), min_size=2, max_size=2))
    P = [a0, a1 * p ** (k + M)]
    Q = [b0 * p**M, b1 * p ** (k + 2 * M), b2 * p ** (k + 3 * M)]
    X = CompactDomain.ball(0, M, p) if M else CompactDomain.zp(p)
    return normalize_map(P, Q, p), X


def test_intrinsic_level_matches_the_per_edge_search():
    seen = set()

    @settings(max_examples=300, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
    @given(st.one_of(_cases(), _contractions(), _contractions(), one_lipschitz_instances(),
                     shift_instances()),
           st.data())
    # M = 1 with t0 six levels below the transport level, and a search that
    # runs out of levels (the golden cases); ConstantTermNotIntegral at the
    # transport level, at one edge and at two (the first in vertex order is
    # raised); s = 1 on half the edges
    @example((parse_map("(9+2x)/(9-9x-5x^2)", 2), parse_domain("B(0,1)", 2)), None)
    @example((parse_map("(3x-3x^2)/(1+3x)", 2), parse_domain("B(1/2,0)", 2)), None)
    @example((parse_map("(4+4x+4x^2)/(4+2x)", 3), parse_domain("B(1/3,0)+B(2/3,0)", 3)), None)
    @example((parse_map("x/(1+2x^2)", 2), parse_domain("B(0,1)", 2)), None)
    def check(case, data):
        f, X = case
        p = f.prime
        if data is None:  # the explicit examples: default margin, descent cap 3
            margin, descent_cap, cap = 2, 3, 3000
        else:
            margin = data.draw(st.integers(0, 4), label="margin")
            descent_cap = data.draw(st.sampled_from([32, 32, 32, 0, 1, 2, 4]),
                                    label="descent cap")
            # a cap of a few levels' balls stops some searches with
            # DecompositionTooLarge, and keeps the per-edge search small
            k = data.draw(st.integers(1, 12), label="cap levels")
            cap = min(X.count(X.base_level - k) + data.draw(st.integers(0, p - 1)), 3000)
        config = AnalysisConfig(descent_cap=descent_cap, ball_cap=cap, intrinsic_margin=margin)
        try:
            new, old = Analysis(f, X, config), Analysis(f, X, config)
        except PadicDynError:
            assume(False)
        want = _result(per_edge_intrinsic_level, old)
        got = _result(lambda A: A.intrinsic_level, new)
        beyond = X.height_exponent() > 0
        if isinstance(want, tuple):
            seen.add((beyond, want[0]))
        else:
            seen.add((beyond, "t0 below the top" if want < old.transport_level else "t0"))
        assert got == want
        # mp reads t0 and the levels down to t0 - 1: the same verdict and
        # witness as with the per-edge search's t0
        if not isinstance(want, tuple):
            old.__dict__["intrinsic_level"] = want
        assert _result(new.mp) == _result(old.mp)

    check()
    assert {(False, "t0 below the top"), (True, "t0 below the top"),
            (False, DecompositionTooLarge), (True, DecompositionTooLarge),
            (True, DepthCapExceeded), (True, ConstantTermNotIntegral)} <= seen


# s = 1 on the settled ball B(0, -2) from its W_2 term alone; the CLI prints
# t0: -12 with the term and without it, so no golden case pins the term
W2_MAP, W2_DOMAIN = "(-7-9x)/(-10-10x-5x^2)", "B(0,2)"


def _settled_balls(A):
    """(level, rescaled centre, settle's values) of every ball that the
    intrinsic-level search settles, and its outcome."""
    settled, settle = [], A._settle

    def record(y, t):
        values = settle(y, t)
        if values is not None:
            settled.append((t, y, values))
        return values

    A._settle = record
    return settled, _result(lambda A: A.intrinsic_level, A)


def _settled_edges(A, u, y, values, levels=3, max_keys=64):
    """(t, edge data, the ball's bounds keep t, t <= exact_to) for each
    level-t key of the level-u ball at y, at the first ``levels`` levels
    t <= min(u, l) of at most ``max_keys`` keys each."""
    p, M, l = A.f.prime, A.form.M, A.transport_level
    s, vq, vqd, vt, exact_to = values
    top = min(u, l)
    for t in range(top, top - levels, -1):
        if p ** (u - t) > max_keys:
            return
        expand = _expansion(A.form, M - t)
        kept = _edge_data(s, vq, vqd, vt, l, t).passes
        for key in range(y, p ** (M - t), p ** (M - u)):
            datum = subsidiary_edge_data(A.form, key, expand(key)[0], t, l)
            yield t, datum, kept, t <= exact_to


def test_settled_balls_beyond_zp_bound_the_s_of_their_edges():
    # Analysis._settle: s bounds the s of each edge that the bounds under s
    # keep, and no edge's s is below s at the levels u <= exact_to
    seen = set()

    @settings(max_examples=200, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
    @given(st.one_of(_cases(kinds=("beyond",)),
                     _contractions().filter(lambda case: case[1].height_exponent())))
    @example((parse_map(W2_MAP, 2), parse_domain(W2_DOMAIN, 2)))
    def check(case):
        f, X = case
        try:
            A = Analysis(f, X, AnalysisConfig(ball_cap=3000))
            A.transport_level
        except PadicDynError:
            assume(False)
        settled, result = _settled_balls(A)
        seen.add(result[0] if isinstance(result, tuple) else "t0")
        for u, y, values in settled:
            s = values[0]
            for t, datum, kept, exact in _settled_edges(A, u, y, values):
                if kept:
                    assert datum.passes and datum.s_exponent <= s, (u, y, t)
                    seen.add("kept")
                if exact:
                    assert datum.s_exponent >= s, (u, y, t)
                    seen.add("exact")
                if kept and exact:
                    seen.add("s > 0" if s else "s = 0")

    check()
    assert {"t0", "kept", "exact", "s > 0", "s = 0"} <= seen, seen


def test_a_w2_term_sets_s_on_a_settled_ball():
    # the level -2 ball B(0, -2) (rescaled centre y = 0, M = 2) settles with
    # s = 1; at each of its level -5 keys a, with b the key of a's
    # successor, the Q_a[i] and W_1 terms of the edge's s are at most 0 and
    # its W_2 term is 1, and the edge is kept with s = 1
    f = parse_map(W2_MAP, 2)
    A = Analysis(f, parse_domain(W2_DOMAIN, 2))
    assert (A.form.M, A.transport_level) == (2, -5)
    values = A._settle(0, -2)
    assert values is not None and values[0] == 1
    edges = list(_settled_edges(A, -2, 0, values, levels=1))
    assert len(edges) == 8
    for t, datum, kept, exact in edges:
        assert (t, kept, exact, datum.s_exponent, datum.passes) == (-5, True, True, 1, True)
    G, ball = A.digraph(-5), Ball(-2, Fraction(0), 2)
    sources = [i for i, a in enumerate(G.keys) if ball.contains(a)]
    assert len(sources) == 8
    for i in sources:
        a, b = G.keys[i], G.keys[G.succ[i]]
        Pa, Qa = ptaylor(f.P, a), ptaylor(f.Q, a)
        Pa += [0] * (len(Qa) - len(Pa))
        q_terms = [ceil_div(-int(fraction_valuation(c, 2)), k + 1) for k, c in enumerate(Qa) if c]
        w1, w2 = (ceil_div(-int(fraction_valuation(Pa[k] - b * Qa[k], 2)), k) for k in (1, 2))
        assert max(q_terms) <= 0 and w1 <= 0 and w2 == 1
        assert _old_s_exponent(f, a, b) == 1


def test_the_first_taylor_terms_are_den_prime_and_t1():
    # _settle reads den' and t1 where _taylor[1] holds (Qh_1, W_1); the
    # identity holds on every form, on Z_p and beyond it
    seen = set()
    domain = st.sampled_from(["Zp", "B(0,1)", "B(0,2)", "Zp-B(1,-1)"])
    # n p^k for k = -1 .. 1
    coeff = st.tuples(st.integers(-30, 30), st.integers(-1, 1))

    @settings(max_examples=150, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.filter_too_much])
    @given(PRIMES, domain, st.lists(coeff, min_size=1, max_size=5),
           st.lists(coeff, min_size=1, max_size=4).filter(lambda qc: any(n for n, _ in qc)))
    def check(p, text, pc, qc):
        P, Q = ([n * Fraction(p) ** k for n, k in cs] for cs in (pc, qc))
        f, X = normalize_map(P, Q, p), parse_domain(text, p)
        try:
            A = Analysis(f, X, AnalysisConfig(ball_cap=1000))
        except PadicDynError:
            assume(False)
        form = A.form
        assert A._taylor[1] == (pderiv(form.den), list(form.t1))
        seen.add(text)

    check()
    assert seen == {"Zp", "B(0,1)", "B(0,2)", "Zp-B(1,-1)"}

"""Acceptance suite: one test per criterion, exact tolerances, wall-clock
budgets checked inside the tests.  Run with `pytest tests/test_acceptance.py -v -s`
to see one PASS line per criterion.
"""

import io
import random
import time
from fractions import Fraction

import pytest
from test_domains import level_balls

from padicdyn import (
    Analysis,
    CompactDomain,
    classify,
    cycle_decomposition,
    degree_gate,
    fraction_valuation,
    global_obstruction,
    hensel_lift,
    normalize_map,
    parse_domain,
    parse_map,
    poly_eval,
)
from padicdyn.cli import EXIT_OK, invocation_from_args, run
from padicdyn.errors import (
    DepthCapExceeded,
    HenselPreconditionFailed,
    PadicDynError,
    PoleInDomain,
)
from padicdyn.global_qp import ERGODICITY, MINIMALITY, certify_no_roots_qp
from padicdyn.hensel import hensel_precondition


def run_cli(args):
    buf = io.StringIO()
    code = run(invocation_from_args(args), stdout=buf)
    return code, buf.getvalue()


class _Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        if exc[0] is None:
            assert self.elapsed < self.seconds, (
                f"{self.name} took {self.elapsed:.2f}s (budget {self.seconds}s)"
            )
            print(f"ACCEPTANCE {self.name}: PASS ({self.elapsed:.2f}s)")


P7 = ["-p", "7", "--map", "(x^2-1)/x", "--domain", "B(2,-1)+B(5,-1)"]
P3_PUNCTURED = ["-p", "3", "--map", "(2x^3+x^2+x)/(x^2+1)", "--domain", "Zp-B(4,-2)-B(5,-2)"]
P3_QUARTIC = ["-p", "3", "--map", "(x^4+x^3+2x^2+1)/(x^3-x+1)"]


def test_criterion_1_two_ball_digraph_reproduction(tmp_path):
    with _Budget("1 (digraph reproduction)", 1.0):
        dot = tmp_path / "g.dot"
        code, out = run_cli(P7 + ["digraph", "--level", "-2", "--dot", str(dot)])
        assert code == EXIT_OK
        assert "vertices: 14" in out
        assert "cycle lengths: [2, 6, 6]" in out
        f = parse_map("(x^2-1)/x", 7)
        X = parse_domain("B(2,-1)+B(5,-1)", 7)
        G = Analysis(f, X).digraph(-2)
        dec = cycle_decomposition(G)
        key_sets = [set(G.residues[i] for i in c) for c in dec.cycle_indices]
        assert {2, 9, 23, 26, 40, 47} in key_sets
        assert sorted(len(c) for c in dec.cycle_indices) == [2, 6, 6]


def test_criterion_2_mp_and_ergodic_verdicts():
    with _Budget("2 (mp / ergodic verdicts)", 1.0):
        code, out = run_cli(P7 + ["mp"])
        assert code == EXIT_OK and out.splitlines()[0] == "MeasurePreserving"
        code, out = run_cli(P7 + ["ergodic", "--depth", "-6"])
        assert code == EXIT_OK and "NotErgodic at level -2" in out


def test_criterion_3_punctured_domain_reproduction():
    with _Budget("3 (punctured domain analysis)", 2.0):
        code, out = run_cli(P3_PUNCTURED + ["classify"])
        assert code == EXIT_OK
        assert "classification: Locally1Lipschitz" in out
        assert "radius exponent l: -2" in out
        code, out = run_cli(P3_PUNCTURED + ["intrinsic-level"])
        assert code == EXIT_OK and "t0: -2" in out
        code, out = run_cli(P3_PUNCTURED + ["components", "--level", "-2"])
        assert code == EXIT_OK
        # Y1 = B(8,-2) is the cycle at key 8; Y2 = B(0,-1) is the union of
        # the cycles at keys 0, 3, 6
        assert "component [8]: NotMeasurePreserving" in out
        for k in (0, 3, 6):
            assert f"component [{k}]: MeasurePreserving" in out
        f = parse_map("(2x^3+x^2+x)/(x^2+1)", 3)
        A = Analysis(f, parse_domain("Zp-B(4,-2)-B(5,-2)", 3))
        comps = {int(c.cycle[0].key): c for c in A.components(-2)}
        y2 = CompactDomain.from_balls(
            [b for k in (0, 3, 6) for b in comps[k].cycle]
        )
        assert y2.base_level == -1 and [b.key for b in level_balls(y2, -1)] == [Fraction(0)]
        # a union of cycles is measure preserving when each of its cycles is
        assert all(comps[k].verdict == "MeasurePreserving" for k in (0, 3, 6))


def test_criterion_4_quartic_global_reproduction():
    with _Budget("4 (global quartic analysis)", 1.0):
        f = parse_map("(x^4+x^3+2x^2+1)/(x^3-x+1)", 3)
        gate = degree_gate(f)
        assert gate.gate_passed and gate.N_exponent == 1
        Z3 = CompactDomain.zp(3)
        A = Analysis(f, Z3)
        assert A.report.radius_exponent == -1
        assert A.intrinsic_level == -1
        G = A.subsidiary(-1)
        dec = cycle_decomposition(G)
        assert dec.is_single_cycle and dec.cycle_lengths == [3]
        assert G.is_subsidiary_equal
        code, out = run_cli(P3_QUARTIC + ["--domain", "Qp", "global"])
        assert code == EXIT_OK
        assert "invertible local isometry: Yes" in out
        assert "measure preserving: Yes" in out


def test_criterion_5_radius_agreement():
    with _Budget("5 (scaling radii)", 1.0):
        cases = [
            ("(x^2-1)/x", "B(2,-1)+B(5,-1)", 7, -1),
            ("(2x^3+x^2+x)/(x^2+1)", "Zp-B(4,-2)-B(5,-2)", 3, -2),
            ("(x^4+x^3+2x^2+1)/(x^3-x+1)", "Zp", 3, -1),
        ]
        for text, dom, p, expected in cases:
            report = classify(parse_map(text, p), parse_domain(dom, p))
            assert report.derivative_root_free
            assert report.radius_exponent == expected


def _random_one_lipschitz_maps(count, seed=20260811):
    """Random integral maps on Z_p, p in {2,3,5}, kept when classification
    certifies locally 1-Lipschitz behaviour and Z_p is forward invariant."""
    rng = random.Random(seed)
    primes = [2, 3, 5]
    kept = []
    while len(kept) < count:
        p = primes[len(kept) % 3]
        deg_p = rng.randint(1, 4)
        deg_q = rng.randint(0, 3)
        pc = [rng.randint(-9, 9) for _ in range(deg_p)] + [rng.randint(1, 9)]
        qc = [rng.randint(-9, 9) for _ in range(deg_q)] + [rng.randint(1, 9)]
        try:
            f = normalize_map(pc, qc, p)
            if f.n < 0 or f.m < 1:
                continue
            X = CompactDomain.zp(p)
            A = Analysis(f, X)
            if not A.report.is_one_lipschitz or A.report.transport_level is None:
                continue
            top = min(A.transport_level, -1)
            A.digraph(top)
        except (PadicDynError, DepthCapExceeded):
            continue
        kept.append((p, f, A, top))
    return kept


def _brute_force_edges(f, p, t, modulus_exponent=4):
    """Functional graph on residue classes mod p^|t| from all residues mod
    p^4, computed with plain integer arithmetic."""
    mod_full = p**modulus_exponent
    mod_t = p**(-t)
    edges = {}
    for r in range(mod_full):
        num = 0
        for c in reversed(f.P):
            num = num * r + c
        den = 0
        for c in reversed(f.Q):
            den = den * r + c
        value = Fraction(num, den)
        if value.denominator % p == 0:
            return None  # leaves Z_p: instance must have been filtered out
        image = value.numerator * pow(value.denominator, -1, mod_t) % mod_t
        ball = r % mod_t
        if ball in edges and edges[ball] != image:
            return None  # ball image straddles two balls: not 1-Lipschitz
        edges[ball] = image
    return edges


def test_criterion_6_oracle_equivalence():
    with _Budget("6 (oracle equivalence, 200 maps)", 60.0):
        maps = _random_one_lipschitz_maps(200)
        assert len(maps) >= 200
        for p, f, A, top in maps:
            for t in range(top, -5, -1):
                G = A.digraph(t)
                # on Z_p the residues are the integer keys
                lib_edges = {G.residues[i]: G.residues[j] for i, j in enumerate(G.succ)}
                oracle = _brute_force_edges(f, p, t)
                assert oracle is not None, f"oracle rejected accepted map {f}"
                assert oracle == lib_edges, f"edge mismatch for {f} at {t}"
                # cycle criterion == equal preimage measure at this level:
                # in-degree 1 everywhere iff each ball's preimage is one ball
                preimage = {b: 0 for b in lib_edges}
                for ball, image in oracle.items():
                    preimage[image] += 1
                all_cycles = not cycle_decomposition(G).tail_indices
                equal_measure = all(v == 1 for v in preimage.values())
                assert all_cycles == equal_measure


def test_criterion_7_hensel_suite():
    with _Budget("7 (lifting suite, 100 instances)", 10.0):
        rng = random.Random(4242)
        instances = []
        while len(instances) < 100:
            p = rng.choice([2, 3, 5, 7])
            deg = rng.randint(2, 5)
            coeffs = [rng.randint(-p**3, p**3) for _ in range(deg + 1)]
            if coeffs[-1] == 0:
                coeffs[-1] = 1
            F = tuple(coeffs)
            seed = Fraction(rng.randint(0, p**3))
            try:
                hensel_precondition(F, p, seed)
            except HenselPreconditionFailed:
                continue
            instances.append((p, F, seed))
        for p, F, seed in instances:
            res = hensel_lift(F, p, seed, 12)
            assert fraction_valuation(poly_eval(F, res.root), p) >= 12
            diff = res.root - seed
            if diff != 0:
                assert fraction_valuation(diff, p) >= -res.bound_exponent
        # cross-check small cases against exhaustive root search mod p^4
        for p, F, seed in instances[:25]:
            res = hensel_lift(F, p, seed, 4)
            mod = p**4
            roots = set()
            for r in range(mod):
                acc = 0
                for c in reversed(F):
                    acc = (acc * r + c) % mod
                if acc == 0:
                    roots.add(r)
            assert int(res.root) % mod in roots


def test_criterion_8_preserving_maps_are_isometries():
    with _Budget("8 (isometry property)", 30.0):
        instances = [
            ("(x^2-1)/x", "B(2,-1)+B(5,-1)", 7),
            ("(x^4+x^3+2x^2+1)/(x^3-x+1)", "Zp", 3),
            ("x+1", "Zp", 5),
        ]
        rng = random.Random(515151)
        for text, dom, p in instances:
            f = parse_map(text, p)
            X = parse_domain(dom, p)
            A = Analysis(f, X)
            verdict = A.mp()
            assert verdict.kind == "MeasurePreserving"
            l = A.report.radius_exponent
            balls = level_balls(X, l)
            done = 0
            while done < 1000:
                ball = rng.choice(balls)
                u1 = rng.randint(0, p**6)
                u2 = rng.randint(0, p**6)
                if u1 == u2:
                    continue
                step = Fraction(p) ** (-l)
                x = ball.key + u1 * step
                y = ball.key + u2 * step
                if x == y:
                    continue
                lhs = fraction_valuation(f.eval(x) - f.eval(y), p)
                assert lhs == fraction_valuation(x - y, p)
                done += 1


def test_criterion_9_obstruction_suite():
    with _Budget("9 (obstruction witnesses, 50 maps)", 10.0):
        rng = random.Random(606060)
        produced = 0
        while produced < 50:
            p = rng.choice([2, 3, 5])
            shape = rng.choice(["low-degree", "expanding", "scaled"])
            if shape == "low-degree":
                # m <= n: constant or linear over quadratic, pole-free only
                pc = [rng.randint(-4, 4), rng.randint(1, 4)]
                qc = [rng.randint(-4, 4), rng.randint(-4, 4), 1]
                f = normalize_map(pc, qc, p)
                if certify_no_roots_qp(f.Q, p)[0] != "root-free":
                    continue
            elif shape == "expanding":
                deg = rng.randint(2, 4)
                pc = [rng.randint(-4, 4) for _ in range(deg)] + [rng.randint(1, 4)]
                f = normalize_map(pc, [1], p)
            else:
                f = normalize_map([rng.randint(-4, 4), p], [1], p)
            if degree_gate(f).gate_passed:
                continue
            w = global_obstruction(f, ERGODICITY)
            assert w.verified, f"unverified ergodicity witness for {f}"
            assert _claim_holds_at_samples(f, w), f"ergodicity witness fails for {f}"
            try:
                wm = global_obstruction(f, MINIMALITY)
                assert wm.verified, f"unverified minimality witness for {f}"
                assert _claim_holds_at_samples(f, wm), f"minimality witness fails for {f}"
            except PoleInDomain:
                pass  # contraction witnesses need pole-free denominators
            produced += 1


def _claim_holds_at_samples(f, w):
    """Independent oracle for a witness: f at every ball centre 4 levels
    below each checked region satisfies the stated claim."""
    p = f.prime
    if w.kind == "InvariantBall":
        regions = [CompactDomain.ball(0, w.region.level, p)]
        claim = w.image_region.contains
    else:
        assert w.kind == "EscapingRegion"
        regions = [CompactDomain.sphere(w.sphere_exponent + k, p) for k in range(3)]

        def claim(y):
            return -fraction_valuation(y, p) >= w.min_image_exponent
    return all(
        claim(f.eval(b.key)) for X in regions for b in level_balls(X, X.base_level - 4)
    )

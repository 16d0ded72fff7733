import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicdyn import Ball, CompactDomain, fraction_valuation, parse_domain
from padicdyn.cli import main
from padicdyn.config import DEFAULT_CONFIG, AnalysisConfig
from padicdyn.domains import decompose_residues, residue_ball
from padicdyn.errors import (
    DecompositionTooLarge,
    EmptyDomain,
    LevelTooCoarse,
    PrimeMismatch,
)


def level_balls(X, t, config=DEFAULT_CONFIG):
    """X's level-t balls in key order: the Ball view of ``decompose_residues``."""
    M, ys = decompose_residues(X, t, config)
    return [residue_ball(y, t, M, X.prime) for y in ys]


def sub_balls(b, level):
    """The level-``level`` balls inside the ball b, level <= b.level, in key
    order."""
    step = Fraction(b.prime) ** -b.level
    return [Ball(level, b.key + j * step, b.prime) for j in range(b.prime ** (b.level - level))]


def base_keys(X):
    return frozenset(b.key for b in level_balls(X, X.base_level))


def in_domain(x, X):
    return any(b.contains(x) for b in X.balls)


def two_unit_balls():
    return CompactDomain.ball(2, -1, 7).union(CompactDomain.ball(5, -1, 7))


def punctured_z3():
    return (
        CompactDomain.zp(3)
        .difference(CompactDomain.ball(4, -2, 3))
        .difference(CompactDomain.ball(5, -2, 3))
    )


def test_decompose_two_unit_balls_level_minus_two():
    keys = [b.key for b in level_balls(two_unit_balls(), -2)]
    assert keys == sorted(
        Fraction(k) for k in (2, 9, 16, 23, 30, 37, 44, 5, 12, 19, 26, 33, 40, 47)
    )


def test_decompose_zp_level_minus_one():
    keys = [b.key for b in level_balls(CompactDomain.zp(3), -1)]
    assert keys == [Fraction(0), Fraction(1), Fraction(2)]


def test_decompose_punctured_domain():
    X = punctured_z3()
    assert X.base_level == -2
    assert [b.key for b in level_balls(X, -2)] == [Fraction(k) for k in (0, 1, 2, 3, 6, 7, 8)]
    assert X.measure == Fraction(7, 9)


def test_level_too_coarse():
    with pytest.raises(LevelTooCoarse):
        level_balls(punctured_z3(), -1)


def test_representatives_z3_minus_three():
    # a ball's key is its representative
    values = sorted(int(b.key) for b in level_balls(CompactDomain.zp(3), -3))
    assert values == list(range(27))


def test_representatives_nested():
    # a representative at level t is among the representatives at t-1
    X = two_unit_balls()
    coarse = {b.key for b in level_balls(X, -2)}
    fine = {b.key for b in level_balls(X, -3)}
    assert coarse <= fine


def test_single_ball_representative():
    assert [b.key for b in level_balls(CompactDomain.ball(2, -1, 7), -1)] == [Fraction(2)]


def test_locate_examples():
    X = two_unit_balls()
    assert in_domain(51, X) and Ball.containing(51, -2, 7).key == Fraction(2)
    assert in_domain(47, X) and Ball.containing(47, -2, 7).key == Fraction(47)
    assert not in_domain(3, X)
    # |3-2| = |3-5| = 1: both balls lie at distance exponent 0
    assert [fraction_valuation(3 - b.key, 7) for b in level_balls(X, X.base_level)] == [0, 0]


def test_locate_representative_roundtrip():
    X = punctured_z3()
    for t in (-2, -3, -4):
        for ball in level_balls(X, t):
            assert in_domain(ball.key, X) and Ball.containing(ball.key, t, 3) == ball


def test_refinement_structure():
    X = two_unit_balls()
    for t in (-2, -3):
        coarse = level_balls(X, t)
        fine = level_balls(X, t - 1)
        assert len(fine) == 7 * len(coarse)
        parents = {b.key for b in coarse}
        children_per_parent = {}
        for c in fine:
            pk = c.parent().key
            assert pk in parents
            children_per_parent[pk] = children_per_parent.get(pk, 0) + 1
        assert set(children_per_parent.values()) == {7}


def test_measures_add_up():
    X = two_unit_balls()
    for t in (-1, -2, -3):
        balls = level_balls(X, t)
        assert sum(b.measure for b in balls) == X.measure
        assert len(balls) == X.measure / Fraction(7) ** t


def test_union_coarsens_back():
    parts = [CompactDomain.ball(k, -1, 3) for k in (0, 1, 2)]
    X = parts[0].union(parts[1]).union(parts[2])
    assert X.base_level == 0
    assert base_keys(X) == frozenset([Fraction(0)])


def test_overlapping_union_dedupes():
    X = CompactDomain.ball(0, -1, 3).union(CompactDomain.ball(3, -2, 3))
    assert X.measure == Fraction(1, 3)


def test_empty_difference_rejected():
    with pytest.raises(EmptyDomain):
        CompactDomain.zp(5).difference(CompactDomain.zp(5))


def test_a_domain_of_no_balls_is_refused():
    with pytest.raises(EmptyDomain, match="^domain with no balls$"):
        CompactDomain.from_balls([])


def test_difference_across_primes_is_refused():
    with pytest.raises(PrimeMismatch, match="^domains over different primes$"):
        CompactDomain.zp(3).difference(CompactDomain.ball(1, -1, 5))


def test_ball_budget_guard():
    tight = AnalysisConfig(ball_cap=100)
    with pytest.raises(DecompositionTooLarge):
        decompose_residues(CompactDomain.zp(5), -4, tight)


@pytest.mark.parametrize("p,allowed", [(11, True), (13, False)])
def test_difference_checks_its_pieces_against_the_ball_cap(monkeypatch, p, allowed):
    # Zp - B(1, -1) is p - 1 balls, and Zp - B(1, -2) is 2(p - 1)
    monkeypatch.setattr("padicdyn.domains.DEFAULT_CONFIG", AnalysisConfig(ball_cap=20))
    assert len(parse_domain("Zp-B(1,-1)", p).balls) == p - 1
    if allowed:
        assert len(parse_domain("Zp-B(1,-2)", p).balls) == 2 * (p - 1)
        return
    with pytest.raises(DecompositionTooLarge,
                       match=rf"^difference at level -2 needs {2 * (p - 1)} balls \(cap 20\)$"):
        parse_domain("Zp-B(1,-2)", p)


def test_a_deep_difference_splits_on_integers():
    # 12,000 balls with keys of up to 5,615 bits, split on integer residues;
    # a split through a Fraction valuation per piece takes about 0.9 s
    start = time.perf_counter()
    X = parse_domain("Zp-B(1,-2000)", 7)
    assert time.perf_counter() - start < 0.5
    assert len(X.balls) == 12000 and X.base_level == -2000
    assert X.measure == 1 - Fraction(1, 7**2000)


def test_sphere_decomposition():
    S = CompactDomain.sphere(1, 3)
    assert S.base_level == 0
    assert base_keys(S) == frozenset([Fraction(1, 3), Fraction(2, 3)])
    assert S.measure == Fraction(2)
    assert S.height_exponent() == 1


def test_positive_level_ball_contains_fractions():
    X = CompactDomain.ball(0, 2, 3)
    assert in_domain(Fraction(10, 9), X)
    assert Ball.containing(Fraction(10, 9), 0, 3).key == Fraction(1, 9)


centers = st.integers(min_value=-200, max_value=200)
levels = st.integers(min_value=-3, max_value=2)


@given(centers, levels, st.sampled_from([2, 3, 5]))
@settings(max_examples=200)
def test_ball_membership_matches_key(center, level, p):
    b = Ball.containing(center, level, p)
    assert b.contains(center)
    assert Ball.containing(b.key, level, p) == b


def refined_keys(X, level):
    """X's level-``level`` keys, by subdividing each of its balls."""
    return {s.key for b in X.balls for s in sub_balls(b, level)}


def assert_maximal(X):
    """X's balls are in key order, disjoint and none inside another (two
    balls meet only when one holds the other), and no p of them are the
    complete set of children of one parent."""
    assert list(X.balls) == sorted(X.balls, key=lambda b: b.key)
    for a in X.balls:
        assert not any(b != a and b.level >= a.level and b.contains(a.key) for b in X.balls)
    assert max(Counter(b.parent() for b in X.balls).values()) < X.prime


def ball_lists(p, size=3):
    """One to ``size`` balls at levels -3 .. 1 (over Z_p and beyond), which
    may overlap or nest."""
    ball = st.builds(lambda c, t: Ball.containing(Fraction(c, p), t, p),
                     st.integers(0, p**4), st.integers(-3, 1))
    return st.lists(ball, min_size=1, max_size=size)


@given(st.sampled_from([2, 3]).flatmap(lambda p: st.tuples(ball_lists(p), ball_lists(p))))
@settings(max_examples=300, derandomize=True)
def test_domain_algebra_matches_refined_key_sets(pair):
    # every operand refined to the finest level, as the algebra once ran
    # and each result is held in the one maximal form, so == is set equality
    A, B = (CompactDomain.from_balls(balls) for balls in pair)
    level = min(b.level for balls in pair for b in balls)
    for balls, X in zip(pair, (A, B)):
        assert refined_keys(X, level) == {s.key for b in balls for s in sub_balls(b, level)}
        assert_maximal(X)
    union = A.union(B)
    assert refined_keys(union, level) == refined_keys(A, level) | refined_keys(B, level)
    assert_maximal(union)
    left = refined_keys(A, level) - refined_keys(B, level)
    if not left:
        with pytest.raises(EmptyDomain):
            A.difference(B)
    else:
        difference = A.difference(B)
        assert refined_keys(difference, level) == left
        assert_maximal(difference)


def flat_residues(X, t):
    """``decompose_residues`` on the flat form: X's base keys from
    ``sub_balls``, with the height M read off them, rescaled by p^M,
    sorted, and strided by p^(M - base level)."""
    p, base = X.prime, X.base_level
    keys = [s.key for b in X.balls for s in sub_balls(b, base)]
    M = max(0, base, *(-fraction_valuation(k, p) for k in keys if k != 0))
    bases = sorted(int(k * p**M) for k in keys)
    step = p ** (M - base)
    return M, [y + s for s in range(0, p ** (M - t), step) for y in bases]


@given(st.sampled_from([2, 3, 5]).flatmap(
    lambda p: st.tuples(ball_lists(p, 4), st.lists(ball_lists(p, 2), max_size=1),
                        st.integers(0, 2))))
@settings(max_examples=200, derandomize=True)
def test_decompose_residues_matches_the_flat_form(drawn):
    # up to four balls, and now and then the balls of a second list taken out
    balls, removed, depth = drawn
    X = CompactDomain.from_balls(balls)
    for other in removed:
        try:
            X = X.difference(CompactDomain.from_balls(other))
        except EmptyDomain:
            pass
    t = X.base_level - depth
    M, ys = decompose_residues(X, t)
    assert (M, ys) == flat_residues(X, t)
    assert M == X.height_exponent()
    assert X.count(t) == len(ys)


def test_a_deep_domain_is_its_maximal_balls():
    start = time.perf_counter()
    X = parse_domain("Zp-B(1,-12)", 3)
    assert time.perf_counter() - start < 1
    assert len(X.balls) == 24 and X.base_level == -12
    assert X.measure == 1 - Fraction(1, 3**12)


def cli_lines(argv, capsys):
    """Exit status and output of one command, which must take under 1 s."""
    start = time.perf_counter()
    code = main(argv)
    assert time.perf_counter() - start < 1
    out, err = capsys.readouterr()
    return code, out + err


# x^2 - 7 has the derivative root 0, so classify takes the profile route,
# which decomposes X at min(base level, -1)
CLASSIFY_X2_MINUS_7 = {
    "Zp-B(1,-13)": (
        1, "error: decomposition at level -13 needs 1594322 balls (cap 1000000)\n"
    ),
    "Zp-B(1,-13)+B(1,-13)": (0, (
        "classification: Locally1Lipschitz\nradius exponent l: -1\n"
        "derivative root-free: no\nscalar exponents at level -1: [0]\n"
        "certified upper bounds on 1 ball(s) near derivative roots\n"
    )),
    "B(0,-1)+B(1,-14)": (
        1, "error: decomposition at level -14 needs 1594324 balls (cap 1000000)\n"
    ),
}


@pytest.mark.parametrize(
    "domain,level,count",
    [
        # each domain was refused while it was parsed, as its flat form at
        # the level named here needed more than ball_cap balls
        ("Zp-B(1,-13)", -13, 1594323),
        ("Zp-B(1,-13)+B(1,-13)", -13, 1594323),
        ("B(0,-1)+B(1,-14)", -14, 1594324),
    ],
)
@pytest.mark.parametrize("command", [["classify"], ["hensel", "--seed", "1"]])
def test_domain_algebra_refines_within_the_ball_cap(capsys, domain, level, count, command):
    # the algebra builds the maximal balls only; a decomposition that a
    # command needs is refused when it is built, with X's own count, and
    # hensel, which reads no domain, answers
    argv = ["-p", "3", "--map", "x^2-7", "--domain", domain] + command
    hensel = (0, "root: 148891 (mod 3^12)\ndistance bound exponent: -1\nnewton steps: 4\n")
    want = CLASSIFY_X2_MINUS_7[domain] if command == ["classify"] else hensel
    assert cli_lines(argv, capsys) == want
    # the flat form counted the operands' balls; X's own balls are no more
    assert parse_domain(domain, 3).count(level) <= count


def test_a_deep_punctured_domain_classifies_from_its_maximal_balls(capsys):
    # 24 maximal balls and 531,440 level -12 balls: the walks visit the
    # maximal balls at their own levels
    argv = ["-p", "3", "--map", "x+1", "--domain", "Zp-B(1,-12)", "classify"]
    assert cli_lines(argv, capsys) == (0, (
        "classification: LocallyIsometric\nradius exponent l: -12\n"
        "derivative root-free: yes\nscalar exponents at level -12: [0]\n"
    ))


@pytest.mark.parametrize(
    "domain,same_as",
    [
        # a union drops a ball inside another (6 s and 24 s before)
        ("B(0,0)+B(1,-11)", "Zp"),
        ("B(1,-13)+B(0,0)", "Zp"),
        # a difference refines only the balls that meet the other domain
        ("B(0,-1)-B(1,-14)", "B(0,-1)"),
        ("B(0,-1)-B(1,-20)-B(2,-20)", "B(0,-1)"),
    ],
)
def test_domain_algebra_refines_only_where_needed(capsys, domain, same_as):
    assert parse_domain(domain, 3) == parse_domain(same_as, 3)
    argv = ["-p", "3", "--map", "x+1", "--domain", domain, "classify"]
    assert cli_lines(argv, capsys) == cli_lines(argv[:5] + [same_as, "classify"], capsys)


def test_an_empty_difference_is_found_without_refining():
    with pytest.raises(EmptyDomain, match="after '-' \\(offset 8\\)"):
        parse_domain("B(1,-13)-Zp", 3)

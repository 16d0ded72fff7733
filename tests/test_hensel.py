import random
from fractions import Fraction

import pytest

import padicdyn.hensel
from padicdyn import (
    CompactDomain,
    cli,
    fraction_valuation,
    hensel_lift,
    lower_bound_bF,
    poly_eval,
)
from padicdyn.errors import (
    CertificateFailed,
    HenselPreconditionFailed,
    InvalidHenselInput,
    PadicDynError,
    RootCertified,
)
from padicdyn.hensel import MAX_ROOT_DIGITS, hensel_precondition
from padicdyn.padics import unit_residue


def test_square_root_of_two_mod_49():
    # oracle: 10 is the unique residue mod 49 congruent to 3 mod 7 with r^2 = 2
    matches = [r for r in range(49) if (r * r - 2) % 49 == 0 and r % 7 == 3]
    assert matches == [10]
    res = hensel_lift((-2, 0, 1), 7, Fraction(3), 2)
    assert res.root == 10
    assert isinstance(res.root, Fraction)
    assert res.bound_exponent == -1


def test_linear_is_exact():
    res = hensel_lift((-5, 1), 7, Fraction(5), 10)
    assert res.root == 5
    assert poly_eval((-5, 1), res.root) == 0


def test_precondition_failure_reports_norms():
    # |F(1)| = |-2| = 1 equals |F'(1)|^2, and no seed residue mod 7 works
    F = (-3, 0, 1)
    with pytest.raises(HenselPreconditionFailed) as info:
        hensel_lift(F, 7, Fraction(1), 2)
    assert info.value.value_valuation == 0
    assert info.value.derivative_valuation == 0
    for seed in range(7):
        v = fraction_valuation(poly_eval(F, seed), 7)
        dv = fraction_valuation(poly_eval((0, 2), seed), 7)
        assert not v > 2 * dv  # 3 is not a square mod 7


def test_certifies_root_in_radius():
    # the descent's lifting certificate: |F(3)| = 7^-1 < |F'(3)|^2 = 1 puts
    # a root of x^2 - 2 within 7^-1 of 3, on the ball B(3, -1) itself; the
    # ball around 1 (F(1) = -1, a unit) holds none
    F = (-2, 0, 1)
    with pytest.raises(RootCertified, match=r"^a root of F provably lies in B\(3, -1\)$"):
        lower_bound_bF(F, CompactDomain.ball(3, -1, 7))
    assert lower_bound_bF(F, CompactDomain.ball(1, -1, 7)) == 0


def test_requires_integral_inputs():
    with pytest.raises(ValueError):
        hensel_lift((Fraction(1, 7), 1), 7, Fraction(0), 2)
    with pytest.raises(ValueError):
        hensel_lift((1, 1), 7, Fraction(1, 7), 2)
    # coefficients are ints: a Fraction is refused even when it is a
    # 7-adic integer
    with pytest.raises(InvalidHenselInput, match="^lifting requires integer coefficients"):
        hensel_lift((Fraction(-1, 2), 1), 7, Fraction(4), 2)
    with pytest.raises(InvalidHenselInput, match="without trailing zeros$"):
        hensel_lift((-2, 0, 1, 0), 7, Fraction(3), 2)


def test_input_errors_are_library_errors_and_value_errors():
    # the CLI reports PadicDynError as "error: ..." with exit status 1
    F = (-2, 0, 1)
    for args in [((Fraction(1, 7), 1), 7, Fraction(0), 2),
                 (F, 7, Fraction(1, 7), 2),
                 (F, 7, Fraction(3), 0),
                 (F, 7, Fraction(3), 5089)]:
        with pytest.raises(InvalidHenselInput) as info:
            hensel_lift(*args)
        assert isinstance(info.value, PadicDynError)
        assert isinstance(info.value, ValueError)


def test_postcondition_failure_is_a_typed_error(monkeypatch):
    # a reduction that is off by one at the requested precision yields a
    # "root" that is not one; the check must hold under python -O too
    def off_by_one(x, p, k):
        return unit_residue(x, p, k) + (1 if k == 4 else 0)

    monkeypatch.setattr(padicdyn.hensel, "unit_residue", off_by_one)
    with pytest.raises(CertificateFailed, match="not a root of F modulo 7\\^4"):
        hensel_lift((-2, 0, 1), 7, Fraction(3), 4)


def test_non_convergence_is_a_typed_error(monkeypatch, capsys):
    # no Newton step allowed: the library raises CertificateFailed, and the
    # CLI prints it as one error line with exit status 1
    monkeypatch.setattr(padicdyn.hensel, "_MAX_NEWTON_STEPS", 0)
    with pytest.raises(CertificateFailed, match="^Newton iteration failed to converge in 0 steps$"):
        hensel_lift((-2, 0, 1), 7, Fraction(3), 4)
    argv = ["-p", "7", "--map", "x^2-2", "hensel", "--seed", "3", "--prec", "12"]
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: Newton iteration failed to converge in 0 steps\n"


def _random_instances(count, seed=7):
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        p = rng.choice([2, 3, 5, 7])
        deg = rng.randint(2, 5)
        coeffs = [rng.randint(-p**3, p**3) for _ in range(deg + 1)]
        if coeffs[-1] == 0:
            coeffs[-1] = 1
        F = tuple(coeffs)
        a = Fraction(rng.randint(0, p**3))
        try:
            hensel_precondition(F, p, a)
        except HenselPreconditionFailed:
            continue
        found.append((p, F, a))
    return found


def test_lift_postconditions_random():
    for p, F, a in _random_instances(40):
        k = 12
        res = hensel_lift(F, p, a, k)
        assert fraction_valuation(poly_eval(F, res.root), p) >= k
        diff = res.root - a
        if diff != 0:
            assert fraction_valuation(diff, p) >= -res.bound_exponent


def test_lift_against_exhaustive_roots_mod_p4():
    # the lifted root agrees with one of the residues killing F mod p^4
    for p, F, a in _random_instances(15, seed=11):
        res = hensel_lift(F, p, a, 4)
        roots = [
            r
            for r in range(p**4)
            if sum(c * pow(r, i, p**4) for i, c in enumerate(F)) % p**4 == 0
        ]
        assert int(res.root) % p**4 in roots


@pytest.mark.parametrize("p,k", [(7, 5088), (2, 14284), (3, 9012)])
def test_precision_limit_is_the_last_exponent_whose_power_prints(p, k):
    # p^k has at most MAX_ROOT_DIGITS decimal digits, p^(k+1) more
    assert p**k < 10**MAX_ROOT_DIGITS <= p ** (k + 1)
    F = (-2, 0, 1) if p == 7 else (-1, 0, 0, 1)
    with pytest.raises(InvalidHenselInput, match=f"^precision exponent {k + 1} is too large"):
        hensel_lift(F, p, Fraction(1 if p != 7 else 3), k + 1)


def test_largest_accepted_precision_still_answers(capsys):
    # 7^5088 has 4,300 digits: the root prints in full, and k = 5089 is
    # refused before any work
    argv = ["-p", "7", "--map", "x^2-2", "hensel", "--seed", "3", "--prec"]
    assert cli.main(argv + ["5088"]) == 0
    root = capsys.readouterr().out.splitlines()[0]
    assert root.startswith("root: ") and root.endswith(" (mod 7^5088)")
    r = int(root.split()[1])
    assert (r * r - 2) % 7**5088 == 0 and r % 7 == 3
    with pytest.raises(InvalidHenselInput, match="7\\^5089 has more than 4300 decimal digits"):
        cli.run(cli.invocation_from_args(argv + ["5089"]))

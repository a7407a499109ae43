"""Sieve utilities and resonator construction/evaluation."""

import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsylab import errors
from bsylab.accum import comp_sum
from bsylab.resonator import (
    ResonatorParams,
    ResonatorTable,
    build_resonator,
    lemma4_check,
    read_header,
    read_table,
    resonator_denominator,
    resonator_numerator,
    solve_L,
    write_table,
)
from bsylab.sieve import factorize, primes_in, primes_up_to

# ---------------------------------------------------------------- sieve


def test_primes_small():
    np.testing.assert_array_equal(primes_up_to(30),
                                  [2, 3, 5, 7, 11, 13, 17, 19, 23, 29])
    np.testing.assert_array_equal(primes_in(2.0, 30.0),
                                  [3, 5, 7, 11, 13, 17, 19, 23, 29])
    assert primes_up_to(10 ** 5).size == 9592


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=2, max_value=100_000))
def test_factorize_reconstructs(n):
    f = factorize(n)
    prod = 1
    for p, e in f:
        assert e >= 1
        assert all(p % q for q in range(2, int(math.isqrt(p)) + 1))
        prod *= p ** e
    assert prod == n


def _mobius(n):
    """mu(n) from the factorization: 0 unless n is squarefree, else -1 to
    the number of its primes."""
    f = factorize(n)
    return 0 if any(e > 1 for _, e in f) else (-1) ** len(f)


# ----------------------------------------------------------- parameters


def test_solve_L_inverts_constraint():
    # the defining relation: A = L^2 (log L)^(2 nu + 1), B = L^3,
    # L^2 (log B)^(2 nu + 1) = (2 nu + 1) log N
    for N, nu in ((4103, 0), (10 ** 6, 1)):
        L = solve_L(N, nu)
        lhs = L ** 2 * (3.0 * math.log(L)) ** (2 * nu + 1)
        assert lhs == pytest.approx((2 * nu + 1) * math.log(N), rel=1e-9)


def test_solve_L_known_point():
    # N = exp(4 (3 log 2)^1 / 2) makes L = 2 for nu = 0... solve forward:
    N = round(math.exp(4.0 * (3.0 * math.log(2.0)) / 1.0))
    L = solve_L(N, 0)
    assert L == pytest.approx(2.0, rel=1e-3)


@pytest.mark.parametrize("N, nu", [(4103, 0), (10 ** 6, 1), (10 ** 9, 0),
                                   (10 ** 12, 1)])
def test_solve_L_matches_findroot(N, nu):
    L = solve_L(N, nu)
    with mpmath.workdps(40):
        root = mpmath.findroot(
            lambda x: x * x * (3 * mpmath.log(x)) ** (2 * nu + 1)
            - (2 * nu + 1) * mpmath.log(N), L)
        assert abs(L - root) <= 1e-13 * root


# (4103, 1) is left out: its root has A <= 1, so solve_L is Degenerate
@pytest.mark.parametrize("N, nu", [
    (N, nu) for N in (4103, 10 ** 5, 10 ** 6, 10 ** 9, 10 ** 12, 10 ** 18,
                      2 ** 63 - 1)
    for nu in (0, 1) if (N, nu) != (4103, 1)])
def test_solve_L_within_4_ulps_of_findroot(N, nu):
    L = solve_L(N, nu)
    k = 2 * nu + 1
    with mpmath.workdps(40):
        root = mpmath.findroot(
            lambda x: x * x * (3 * mpmath.log(x)) ** k - k * mpmath.log(N), L)
        assert abs(L - root) <= 4 * np.spacing(float(root))


def test_solve_L_degenerate():
    with pytest.raises(errors.Degenerate):
        solve_L(2, 0)          # root too low: the window floor A <= 1
    with pytest.raises(errors.Degenerate):
        # root exists but the window floor A <= 1: no primes can enter
        ResonatorParams.solved(N=1_000_000, nu=2)


def test_solved_params_consistent():
    p = ResonatorParams.solved(N=4103, nu=0)
    assert p.A == pytest.approx(p.L ** 2 * math.log(p.L), rel=1e-12)
    assert p.B == pytest.approx(p.L ** 3, rel=1e-12)
    # non-override params reject inconsistent windows
    with pytest.raises(ValueError):
        ResonatorParams(mu=2, nu=0, N=4103, h=0.0, L=p.L, A=p.A * 2,
                        B=p.B)


def test_params_validation():
    with pytest.raises(ValueError):
        ResonatorParams(mu=2, nu=0, N=100, h=1.5, L=1.0, A=2.0, B=30.0,
                        override=True)
    with pytest.raises(ValueError):
        ResonatorParams(mu=2, nu=0, N=100, h=0.1, L=1.0, A=30.0, B=2.0,
                        override=True)


def test_params_reject_N_beyond_int64():
    # the table's products m*p are formed in int64
    with pytest.raises(ValueError, match=r"2\^63"):
        ResonatorParams(mu=2, nu=0, N=2 ** 63, h=0.0, L=1.0, A=2.0,
                        B=30.0, override=True)
    ResonatorParams(mu=2, nu=0, N=2 ** 63 - 1, h=0.0, L=1.0, A=2.0,
                    B=30.0, override=True)


# ---------------------------------------------------------------- table


def test_toy_table_structure(toy_table, toy_params):
    ns, rs = toy_table.ns, toy_table.rs
    assert ns[0] == 1 and rs[0] == 1.0
    window = set(primes_in(toy_params.A, toy_params.B).tolist())
    for n in ns[1:].tolist():
        f = factorize(n)
        assert all(e == 1 for _, e in f)          # squarefree
        assert all(p in window for p, _ in f)     # window primes only
        assert n <= toy_params.N
    # multiplicativity: r(mn) = r(m) r(n) for coprime table entries
    lut = dict(zip(ns.tolist(), rs.tolist()))
    assert lut[15] == pytest.approx(lut[3] * lut[5], rel=1e-14)
    assert lut[21] == pytest.approx(lut[3] * lut[7], rel=1e-14)


def test_minus_variant_signs(toy_params):
    minus = build_resonator(toy_params, "minus")
    plus = build_resonator(toy_params, "plus")
    np.testing.assert_array_equal(minus.ns, plus.ns)
    for n, rm, rp in zip(minus.ns.tolist(), minus.rs, plus.rs):
        assert rm == pytest.approx(_mobius(n) * rp, rel=1e-14)


def test_window_past_N_is_not_sieved():
    # only primes <= N enter an entry: B = 1e300 builds the table of
    # B = N + 1 without sieving to B
    wide = ResonatorParams(mu=2, nu=0, N=100, h=0.1, L=1.0, A=2.0,
                           B=1e300, override=True)
    tight = ResonatorParams(mu=2, nu=0, N=100, h=0.1, L=1.0, A=2.0,
                            B=101.0, override=True)
    for variant in ("plus", "minus"):
        got, ref = build_resonator(wide, variant), build_resonator(tight,
                                                                   variant)
        np.testing.assert_array_equal(got.ns, ref.ns)
        np.testing.assert_array_equal(got.rs, ref.rs)


def test_entry_cap():
    params = ResonatorParams(mu=2, nu=0, N=10 ** 9, h=0.1, L=1.0,
                             A=2.0, B=200.0, override=True)
    with pytest.raises(errors.TableTooLarge):
        build_resonator(params, "plus", entry_cap=1000)


#: A nu = 1 override family of 2136 entries over 16 window primes.
_NU1 = ResonatorParams(mu=2, nu=1, N=300_000, h=0.0, L=0.5, A=2.0,
                       B=60.0, override=True)


def _exact_table(params, variant):
    """Every squarefree product of window primes <= N, by combinations;
    r is the left-to-right product over ascending primes, negated at
    each factor for the minus variant."""
    ps = primes_in(params.A, params.B)
    rp = params.L * np.log(ps.astype(float)) ** params.nu \
        / np.sqrt(ps.astype(float))
    sign = -1.0 if variant == "minus" else 1.0
    table = {1: 1.0}
    for k in range(1, ps.size + 1):
        if math.prod(ps[:k].tolist()) > params.N:
            break
        for idx in itertools.combinations(range(ps.size), k):
            n, r = 1, 1.0
            for i in idx:
                n *= int(ps[i])
                r *= sign * float(rp[i])
            if n <= params.N:
                table[n] = r
    ns = sorted(table)
    return np.array(ns, dtype=np.int64), np.array([table[n] for n in ns])


@pytest.mark.parametrize("variant", ["plus", "minus"])
@pytest.mark.parametrize("family", ["toy", "nu1", "solved_1e10"])
def test_table_matches_exact_enumeration(toy_params, family, variant):
    params = {"toy": toy_params, "nu1": _NU1,
              "solved_1e10": ResonatorParams.solved(N=10 ** 10, nu=0,
                                                    h=0.1)}[family]
    table = build_resonator(params, variant)
    ns, rs = _exact_table(params, variant)
    np.testing.assert_array_equal(table.ns, ns)
    np.testing.assert_array_equal(table.rs.view(np.int64),
                                  rs.view(np.int64))   # bit for bit


def test_entry_cap_boundary():
    size = build_resonator(_NU1, "plus").ns.size
    assert size == 2136
    assert build_resonator(_NU1, "minus", entry_cap=size).ns.size == size
    with pytest.raises(errors.TableTooLarge):
        build_resonator(_NU1, "minus", entry_cap=size - 1)


def _pair_loop(table):
    """Brute-force Lambda-weighted double sum over the table."""
    p_ = table.params
    lut = dict(zip(table.ns.tolist(), table.rs.tolist()))
    total = []
    for n, rn in lut.items():
        for m, rm in lut.items():
            q, rem = divmod(n, m)
            if rem or q < 2:
                continue
            f = factorize(q)
            if len(f) != 1 or f[0][1] != 1:
                continue
            p = f[0][0]
            lp = math.log(p)
            total.append(rm * rn * lp * math.sin(p_.h * lp) ** p_.mu
                         / (math.sqrt(p) * lp ** p_.nu))
    return comp_sum(np.array(total if total else [0.0]))


@pytest.mark.parametrize("variant", ["plus", "minus"])
def test_numerator_pair_loop_oracle(toy_params, variant):
    table = build_resonator(toy_params, variant)
    num = resonator_numerator(table)
    oracle = _pair_loop(table)
    assert abs(num - oracle) <= 1e-12 * max(1.0, abs(oracle))


def test_lemma4_signs():
    params = ResonatorParams.solved(N=4103, nu=0, h=0.1)
    out = lemma4_check(params)
    assert out["ratio_plus"] > 0 > out["ratio_minus"]
    assert out["ratio_plus"] == pytest.approx(-out["ratio_minus"],
                                              rel=1e-12)
    assert out["normalized_plus"] > 0


def test_lemma4_large_N_costs_by_table():
    # N = 1e10 leaves window primes 11..19 and a 16-entry table; the
    # correlation kernel must be bounded by the table, not sieve to N.
    params = ResonatorParams.solved(N=10 ** 10, nu=0, h=0.1)
    out = lemma4_check(params)
    assert out["ratio_plus"] > 0 > out["ratio_minus"]
    for variant in ("plus", "minus"):
        table = build_resonator(params, variant)
        assert table.ns.size == 16
        oracle = _pair_loop(table)
        assert abs(resonator_numerator(table) - oracle) \
            <= 1e-12 * abs(oracle)


def test_lemma4_h_guard():
    params = ResonatorParams.solved(N=4103, nu=0, h=0.9)
    with pytest.raises(ValueError):
        lemma4_check(params)


@pytest.mark.parametrize("h, match", [(0.0, "0 < h"),
                                      (1e-300, "underflows to 0")])
def test_lemma4_needs_positive_h_and_a_nonzero_scale(h, match):
    # h = 0 and h = 1e-300 made h^mu, the normalization's first factor,
    # exactly 0 (a ZeroDivisionError)
    params = ResonatorParams.solved(N=4103, nu=0, h=h)
    with pytest.raises(ValueError, match=match):
        lemma4_check(params)


def test_table_io_roundtrip(toy_table, tmp_path):
    path = str(tmp_path / "table.txt")
    write_table(toy_table, path)
    ns, rs = read_table(path)
    np.testing.assert_array_equal(ns, toy_table.ns)
    np.testing.assert_array_equal(rs, toy_table.rs)   # repr round-trip


def test_table_parse_error(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1 1.0\nbogus\n")
    with pytest.raises(errors.ParseError) as exc:
        read_table(str(path))
    assert exc.value.line_number == 2


@pytest.mark.parametrize("n", ["0", "-3", str(2 ** 63)])
def test_table_entry_out_of_range_is_a_parse_error(tmp_path, n):
    path = tmp_path / "bad.txt"
    path.write_text(f"# N = 10\n1 1.0\n{n} 0.5\n")
    with pytest.raises(errors.ParseError, match=r">= 1 and < 2\^63") as exc:
        read_table(str(path))
    assert exc.value.line_number == 3


@pytest.mark.parametrize("r", ["nan", "inf", "-inf"])
def test_table_coefficient_not_finite_is_a_parse_error(tmp_path, r):
    path = tmp_path / "bad.txt"
    path.write_text(f"1 1.0\n2 0.5\n3 {r}\n")
    with pytest.raises(errors.ParseError, match="finite") as exc:
        read_table(str(path))
    assert exc.value.line_number == 3


def test_table_coefficients_must_be_finite():
    # L = 1e300 overflows r(pq) = r(p) r(q)
    params = ResonatorParams(mu=2, nu=0, N=100, h=0.1, L=1e300, A=2.0,
                             B=30.0, override=True)
    with np.errstate(over="ignore"), pytest.raises(ValueError,
                                                   match="finite"):
        build_resonator(params)


def test_header_roundtrip(toy_table, tmp_path):
    path = str(tmp_path / "table.txt")
    write_table(toy_table, path)
    assert read_header(path) == ("plus", toy_table.params)
    (tmp_path / "plain.txt").write_text("# N = 10\n1 1.0\n")
    assert read_header(str(tmp_path / "plain.txt")) is None


@pytest.mark.parametrize("header", [
    "# resonator",
    "# resonator sign=plus N=abc mu=2 nu=0 h=0.1 L=1.0 A=2.0 B=30.0 "
    "override=True",
    "# resonator sign=odd N=100 mu=2 nu=0 h=0.1 L=1.0 A=2.0 B=30.0 "
    "override=True",
    "# resonator sign=plus N=100 mu=2 nu=0 h=nan L=1.0 A=2.0 B=30.0 "
    "override=True",
    "# resonator sign=plus N=100 mu=2 nu=0 h=0.1 L=1.0 A=2.0 B=30.0 "
    "override=yes",
    "# resonator sign=plus N=100 mu=2 nu=0 h=0.1 L=1.0 A=2.0 B=30.0",
])
def test_malformed_header_is_a_parse_error(tmp_path, header):
    path = tmp_path / "bad.txt"
    path.write_text(f"{header}\n1 1.0\n")
    with pytest.raises(errors.ParseError, match="header") as exc:
        read_header(str(path))
    assert exc.value.line_number == 1

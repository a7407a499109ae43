"""Acceptance gate: ten criteria, one pass/fail line printed per criterion.

Each test prints ``ACCEPTANCE <n> <name>: PASS|FAIL (measured figures)``
so the gate is legible straight from the pytest log.  The experiments
live in ``bsylab.acceptance``; ``bsy report`` runs the same functions.
"""

import pytest

from bsylab import acceptance
from bsylab.config import DEFAULT


def _line(n, name, result):
    measured, threshold, detail = result
    ok = measured <= threshold
    verdict = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {n} {name}: {verdict} ({detail})")
    assert ok, f"criterion {n} ({name}): {detail}"


@pytest.fixture(scope="module")
def ladder_I(zeros_10k):
    return acceptance.ladder_I(zeros_10k, DEFAULT)


def test_criterion_1_zeta_engine():
    _line(1, "zeta-engine", acceptance.zeta_engine(DEFAULT))


def test_criterion_2_zeros():
    _line(2, "zeros", acceptance.zero_census(DEFAULT))


def test_criterion_3_theorem2_bounded(zeros_10k, ladder_I):
    _line(3, "theorem2-bounded",
          acceptance.theorem2_bounded(zeros_10k, ladder_I, DEFAULT))


def test_criterion_4_decay_exponent(ladder_I):
    _line(4, "decay-exponent", acceptance.decay_exponent(ladder_I))


def test_criterion_5_weight_identity():
    _line(5, "weight-identity", acceptance.weight_identity(DEFAULT))


def test_criterion_6_zero_sum(zeros_10k):
    _line(6, "zero-sum", acceptance.zero_sum(zeros_10k, DEFAULT))


def test_criterion_7_argument_suite(zeros_10k):
    _line(7, "argument-suite", acceptance.argument_suite(zeros_10k, DEFAULT))


def test_criterion_8_lemma2_omega(zeros_10k):
    _line(8, "lemma2-omega", acceptance.lemma2_omega(zeros_10k, DEFAULT))


def test_criterion_9_resonator(toy_params):
    _line(9, "resonator", acceptance.resonator_exact(toy_params))


def test_criterion_10_lemma3_mv(toy_table, trivial_table):
    _line(10, "lemma3-mv",
          acceptance.lemma3_mv(toy_table, trivial_table, DEFAULT))

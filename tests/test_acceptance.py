"""Release gate: every acceptance criterion at its frozen tolerance.

Each test executes one named check from hetnetsim.validation and prints a
PASS/FAIL line with the measured value before asserting.  Run with
``pytest tests/test_acceptance.py -s`` to see all lines, or use the CLI
``hetnetsim validate`` for the same suite outside pytest.
"""

from hetnetsim import validation

SEED = 1


def _assert_all(results):
    if not isinstance(results, list):
        results = [results]
    for result in results:
        print(result.line())
        # a numpy bool would break the JSON report
        assert type(result.passed) is bool, result.name
    failed = [r for r in results if not r.passed]
    assert not failed, "; ".join(r.line() for r in failed)


def test_criterion_1_pilot_only_closed_forms():
    # LS / MMSE empirical NMSE vs closed forms, 0.2 dB over the P_T grid
    _assert_all(validation.check_pilot_only_closed_forms(SEED))


def test_criterion_2_proposition_2_agreement():
    # DA NMSE vs the closed-form prediction: 1.0 dB analytic-fed,
    # 0.3 dB with error-free side information
    _assert_all([
        validation.check_da_analytic_agreement(),
        validation.check_da_zero_error_agreement(),
    ])


def test_criterion_3_dominance_and_low_power_gap():
    # DA <= MMSE <= LS at every sweep point; > 15 dB DA gain at -7 dBm
    _assert_all(validation.check_nmse_dominance(SEED))


def test_criterion_4_ber_analytics():
    # factor-2 agreement where empirical BER > 1e-4, Jensen bound ordering,
    # 1e-8 closed-form vs quadrature agreement on the 20-point grid
    _assert_all(validation.check_ber_analytics(SEED))


def test_criterion_5_sinr_moment_matching():
    # simulated SINR moments vs the deterministic equivalent, 5%
    _assert_all(validation.check_lemma1_moments())


def test_criterion_6_fixed_point():
    # exact special cases to 1e-10 and residuals < 1e-12 on 100 instances
    _assert_all(validation.check_fixed_point())


def test_criterion_7_power_floor():
    # DA increment at 60 dBm within 0.5% of the saturation limit
    _assert_all(validation.check_power_floor(SEED))


def test_criterion_8_saturation_and_degradation():
    # BER = 1/2 and tau_d = 0 reduce DA to pilot-only; zero BER gives the
    # total-energy SNR-like term exactly
    _assert_all(validation.check_saturation_limits(SEED))


def test_criterion_9_rate_ordering():
    # DA rate >= pilot-only for decoupled UEs and MUEs under both path-loss
    # models; SUE rate spread < 1% over the P_D sweep
    _assert_all(validation.check_rate_ordering(SEED))


def test_criterion_10_detector_ordering():
    # MMSE <= ZF <= MRC at the high-power end; single-UE ZF == MRC
    _assert_all(validation.check_detector_ordering(SEED))


def test_criterion_11_determinism():
    # identical CSV bytes across repeated runs and worker counts
    _assert_all(validation.check_csv_determinism(SEED))


def test_validation_report_is_complete():
    # the release gate reports at least 12 named checks, and the per-criterion
    # tests above cover that same roster
    assert len(validation.ALL_CHECK_NAMES) >= 12
    assert len(set(validation.ALL_CHECK_NAMES)) == len(validation.ALL_CHECK_NAMES)
    report = validation.ValidationReport(checks=tuple(
        validation.check_fixed_point() + validation.check_saturation_limits(SEED)))
    assert report.passed
    assert any("fixed-point" in line for line in report.lines())
    failing = validation.CheckResult(
        name="example", passed=False, measured="x", threshold="y")
    assert "FAIL" in failing.line()
    assert not validation.ValidationReport(checks=(failing,)).passed

"""Acceptance criteria.

Each criterion is one (possibly parametrized) test whose verbose pytest line
is its pass/fail record. Tolerances are pinned in the constants below and are
never widened: cells that the implementation cannot reproduce from the
information available fail honestly rather than being relaxed or skipped.
"""
import numpy as np
import pytest
from scipy.stats import ks_2samp

from levygof.datasets import fixture_analysis
from levygof.distributions import (AlternativeSpec, LevyParams, QuantileSplit, sample_levy,
                                   theoretical_qcm, theoretical_second_moment)
from levygof.montecarlo import ReplicationPlan, p_value, power_study, simulate_null
from levygof.statistics import StatisticSpec, cov, evaluate, evaluate_batch, mle, qcm, qcv
from levygof.streams import RandomStream
from oracles import qcmoment_quadrature_oracle

SEED = 2718

# ----------------------------------------------------------------------------
# Criterion 1 — deterministic real-data statistics, tolerance +-0.01.
# ----------------------------------------------------------------------------

C1_EXPECTED = {
    ("vessels", "vn"): 1.23,
    ("vessels", "tn"): -0.04,
    ("vessels", "on"): -0.01,
    ("vessels", "deltan"): 0.08,
    ("vessels", "ran"): -0.35,
    ("rainfall", "vn"): 11.16,
    ("rainfall", "tn"): 7.37,
    ("rainfall", "on"): 1.96,
    ("rainfall", "deltan"): 0.32,
    ("rainfall", "ran"): 0.40,
}


@pytest.mark.parametrize("dataset,kind", list(C1_EXPECTED),
                         ids=[f"{d}-{k}" for d, k in C1_EXPECTED])
def test_criterion1_real_data_statistics(dataset, kind):
    value = evaluate(StatisticSpec(kind), fixture_analysis(dataset))
    assert value == pytest.approx(C1_EXPECTED[(dataset, kind)], abs=0.01)


# ----------------------------------------------------------------------------
# Criterion 2 — real-data p-values at 1e5 null replicates.
# ----------------------------------------------------------------------------

C2_REPLICATES = 10**5
C2_DS1_EXPECTED = {"vn": 0.56, "tn": 0.91, "on": 0.49, "deltan": 0.90, "ran": 0.82}


@pytest.fixture(scope="module")
def null_1e5():
    cache = {}

    def get(kind, n):
        key = (kind, n)
        if key not in cache:
            plan = ReplicationPlan(SEED, C2_REPLICATES)
            (cache[key],) = simulate_null((StatisticSpec(kind),), n, plan)
        return cache[key]

    return get


@pytest.mark.slow
@pytest.mark.parametrize("kind", list(C2_DS1_EXPECTED))
def test_criterion2_vessels_p_values(kind, null_1e5):
    data = fixture_analysis("vessels")
    value = evaluate(StatisticSpec(kind), data)
    p = p_value(null_1e5(kind, data.size), value)
    assert p == pytest.approx(C2_DS1_EXPECTED[kind], abs=0.02)


@pytest.mark.slow
@pytest.mark.parametrize("kind", list(C2_DS1_EXPECTED))
def test_criterion2_rainfall_p_values_below_1e4(kind, null_1e5):
    data = fixture_analysis("rainfall")
    value = evaluate(StatisticSpec(kind), data)
    p = p_value(null_1e5(kind, data.size), value)
    assert p < 1e-4


# ----------------------------------------------------------------------------
# Criterion 3 — closed forms vs adaptive quadrature within 1e-8 on 20 splits.
# ----------------------------------------------------------------------------

C3_SPLITS = [
    QuantileSplit(a, b)
    for a, b in [(0.0, 0.1), (0.0, 0.3), (0.0, 0.4), (0.0, 0.7), (0.0, 0.95),
                 (0.02, 0.48), (0.05, 0.2), (0.1, 0.5), (0.1, 0.9),
                 (0.2, 0.48), (0.2, 0.5), (0.25, 0.75), (0.3, 0.6),
                 (0.4, 0.9), (0.5, 0.95), (0.6, 0.8), (0.7, 0.99),
                 (0.8, 0.95), (0.9, 0.99), (0.01, 0.99)]
]


def test_criterion3_closed_form_vs_quadrature():
    assert len(C3_SPLITS) == 20
    worst = 0.0
    for split in C3_SPLITS:
        m1 = qcmoment_quadrature_oracle(split, 1.0, 1)
        m2 = qcmoment_quadrature_oracle(split, 1.0, 2)
        worst = max(worst, abs(theoretical_qcm(split, 1.0) - m1),
                    abs(theoretical_second_moment(split, 1.0) - m2))
    assert worst < 1e-8


# ----------------------------------------------------------------------------
# Criteria 4 & 5 — estimator replication studies at c = 2.
# ----------------------------------------------------------------------------

QCM_BOXPLOT_SPLIT = QuantileSplit(0.2, 0.48)
QCM_CORR_SPLIT = QuantileSplit(0.02, 0.48)
QCV_SPLIT = QuantileSplit(0.0, 0.7)


def _estimator_matrix(n, replicates, c=2.0, qcm_split=QCM_BOXPLOT_SPLIT):
    """Columns: QCM, QCV, MLE, COV estimates over `replicates` Levy samples."""
    rows = np.empty((replicates, n))
    for i in range(replicates):
        rows[i] = sample_levy(LevyParams(c=c), n, RandomStream(SEED + 1, i))
    xs = np.sort(rows, axis=1)
    return np.column_stack([qcm(xs, qcm_split), qcv(xs, QCV_SPLIT), mle(rows), cov(rows)])


@pytest.mark.slow
@pytest.mark.parametrize("n", [20, 50, 100, 200])
def test_criterion4_estimator_medians_and_iqr(n):
    est = _estimator_matrix(n, 10**4)
    medians = np.median(est, axis=0)
    assert np.all(np.abs(medians - 2.0) < 0.2), medians
    q75, q25 = np.percentile(est, [75, 25], axis=0)
    iqr = q75 - q25
    assert np.argmin(iqr) == 2, iqr  # MLE column


@pytest.mark.slow
def test_criterion5_correlation_structure():
    est = _estimator_matrix(250, 10**4, qcm_split=QCM_CORR_SPLIT)
    corr = np.corrcoef(est[:, [0, 2, 3]].T)  # QCM, MLE, COV
    assert corr[0, 1] == pytest.approx(0.83, abs=0.05)  # QCM-MLE
    assert corr[1, 2] == pytest.approx(0.76, abs=0.05)  # COV-MLE
    assert corr[0, 2] == pytest.approx(0.40, abs=0.05)  # QCM-COV


# ----------------------------------------------------------------------------
# Criterion 6 — power spot checks, 5e3 replicates, tolerance +-0.04
# (cells published at 1.00 are checked as >= 0.98).
# ----------------------------------------------------------------------------

C6_CELLS = [
    ("vn", AlternativeSpec("lognormal", (0.0, 1.0)), 30, 0.05, 0.82),
    ("on", AlternativeSpec("halfnormal", (1.0,)), 50, 0.05, 1.00),
    ("vn", AlternativeSpec("halfnormal", (1.0,)), 50, 0.05, 0.55),
    ("on", AlternativeSpec("pareto", (0.75, 1.0)), 20, 0.05, 0.55),
    ("on", AlternativeSpec("absloggamma", (3.0, 2.0)), 20, 0.01, 0.89),
    ("cn", AlternativeSpec("pareto", (0.75, 1.0)), 50, 0.05, 0.18),
]


@pytest.mark.slow
@pytest.mark.parametrize(
    "kind,alt,n,level,expected", C6_CELLS,
    ids=[f"{k}-{a.family}-n{n}-l{lv}" for k, a, n, lv, _ in C6_CELLS])
def test_criterion6_power_spot_checks(kind, alt, n, level, expected):
    b = 5000
    (cell,) = power_study(simulate_null((StatisticSpec(kind),), n, ReplicationPlan(SEED, b)),
                          alt, level)
    if expected >= 1.0:
        assert cell["power"] >= 0.98
    else:
        assert cell["power"] == pytest.approx(expected, abs=0.04)


# ----------------------------------------------------------------------------
# Criterion 7 — empirical asymptotic normality and pivotality.
# ----------------------------------------------------------------------------

@pytest.mark.slow
@pytest.mark.parametrize("kind", ["vn", "on", "tn"])
def test_criterion7_normal_fit_at_n1000(kind):
    from levygof.montecarlo import normality_diagnostic

    rep = normality_diagnostic(*simulate_null((StatisticSpec(kind),), 1000,
                                              ReplicationPlan(SEED, 10**4)))
    assert rep["ks_distance"] < 0.05


@pytest.mark.slow
@pytest.mark.parametrize("kind", ["vn", "on", "tn"])
def test_criterion7_pivotality_in_c(kind):
    spec = StatisticSpec(kind)
    (a,) = simulate_null((spec,), 250, ReplicationPlan(SEED, 5000), c=1.0)
    (b,) = simulate_null((spec,), 250, ReplicationPlan(SEED + 7, 5000), c=100.0)
    assert ks_2samp(a.values, b.values).statistic < 0.03


# ----------------------------------------------------------------------------
# Criterion 8 — exact invariances on randomized samples.
# ----------------------------------------------------------------------------

def test_criterion8_invariance_suite():
    rng = np.random.default_rng(SEED)
    kinds = ["vn", "on", "tn", "cn", "ran", "deltan"]
    for _ in range(1000):
        n = int(rng.integers(25, 60))
        x = rng.gamma(2.0, 1.0, size=n) + 0.05
        lam = float(10.0 ** rng.uniform(-3, 3))
        for kind in kinds:
            spec = StatisticSpec(kind)
            base = evaluate(spec, x)
            scaled = evaluate(spec, lam * x)
            assert abs(scaled - base) <= 1e-10 * max(1.0, abs(base)), kind
        mu = float(rng.uniform(-100.0, 100.0))
        spec = StatisticSpec("cn")
        base = evaluate(spec, x)
        shifted = evaluate(spec, x + mu)
        assert abs(shifted - base) <= 1e-10 * max(1.0, abs(base))


# ----------------------------------------------------------------------------
# Criterion 9 — byte-identical Monte Carlo output across runs and workers.
# ----------------------------------------------------------------------------

def test_criterion9_determinism():
    spec = StatisticSpec("tn")
    (one,) = simulate_null((spec,), 30, ReplicationPlan(SEED, 1500, worker_hint=1))
    (again,) = simulate_null((spec,), 30, ReplicationPlan(SEED, 1500, worker_hint=1))
    (parallel,) = simulate_null((spec,), 30, ReplicationPlan(SEED, 1500, worker_hint=3))
    assert one.values.tobytes() == again.values.tobytes()
    assert one.values.tobytes() == parallel.values.tobytes()

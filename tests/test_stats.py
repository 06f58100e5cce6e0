"""Statistics checked against independent oracles: exhaustive rank
permutations, Fraction-exact normal equations, likelihood grid searches,
finite-difference gradients, and scipy.stats for the distribution tails and
midranks the package computes without it."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import linalg as sla
from scipy import special
from scipy import stats as sstats

from novascape import _compiled, stats
from novascape.cli import PipelineConfig
from novascape.corpus import FilterConfig, apply_filters
from novascape.errors import (
    EmptySample,
    NumericError,
    RankDeficient,
    SeparationError,
    UnknownTerm,
)
from novascape.metrics import score_corpus
from novascape.stats import (
    BATTERY_FEATURES,
    DESCRIBE_COLUMNS,
    JOINED_COLUMNS,
    JOINED_LABELS,
    LABELS,
    REFERENCE_LABEL,
    STANDARD_MODELS,
    TERM_LABELS,
    Design,
    FitResult,
    ModelSpec,
    build_design,
    describe,
    fit_arrays,
    fit_model,
    format_model_table,
    group_test_battery,
    join_scores,
    mann_whitney_u,
    marginal_means,
    significance_stars,
)
from novascape.synth import SynthConfig, generate_corpus


def sigmoid(v: float) -> float:
    return 1.0 / (1.0 + math.exp(-v))


# ---------------------------------------------------------------------------
# Mann-Whitney / AUC

class TestMannWhitney:
    def test_complete_separation(self):
        res = mann_whitney_u([1, 2, 3], [4, 5, 6])
        assert res.u_statistic == 0.0
        assert res.auc == 0.0
        assert mann_whitney_u([4, 5, 6], [1, 2, 3]).auc == 1.0

    def test_identical_constant_samples(self):
        res = mann_whitney_u([5, 5, 5], [5, 5, 5])
        assert res.p_value == 1.0
        assert res.auc == 0.5

    def test_frozen_exact_enumeration(self):
        # C(4,2)=6 assignments; U in {0,1,2,2,3,4}; |U-2|>=1 for 4 of them
        res = mann_whitney_u([1, 3], [2, 4])
        assert res.exact
        assert res.u_statistic == 1.0
        assert res.p_value == pytest.approx(4 / 6, abs=1e-12)

    def test_single_vs_three(self):
        assert mann_whitney_u([10], [1, 2, 3]).auc == 1.0

    def test_empty_sample_raises(self):
        with pytest.raises(EmptySample):
            mann_whitney_u([], [1, 2])
        with pytest.raises(EmptySample):
            mann_whitney_u([1], []).auc

    def test_non_finite_sample_raises(self):
        for x, y in (([1.0, float("nan")], [2.0]), ([2.0], [1.0, float("nan")])):
            with pytest.raises(NumericError):
                mann_whitney_u(x, y).auc

    def test_group_means_and_n(self):
        res = mann_whitney_u([1, 3], [2, 4, 6])
        assert res.group_means == (2.0, 4.0)
        assert res.n == (2, 3)

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_approx_within_005_of_exact_for_nondegenerate_splits(self, data):
        """The normal approximation tracks exact enumeration to 0.05 on
        tie-free splits with at least 3 per group. (Singleton or pair groups
        and heavy ties genuinely exceed 0.05; there the reported p comes from
        the exact path instead.)"""
        n = data.draw(st.integers(6, 12))
        n1 = data.draw(st.integers(3, n - 3))
        perm = data.draw(st.permutations(range(n)))
        x = [float(v) for v in perm[:n1]]
        y = [float(v) for v in perm[n1:]]
        exact = mann_whitney_u(x, y, exact_limit=12)
        approx = mann_whitney_u(x, y, exact_limit=0)
        assert exact.exact and not approx.exact
        assert abs(approx.p_value - exact.p_value) <= 0.05

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(0, 5), min_size=1, max_size=6),
        st.lists(st.integers(0, 5), min_size=1, max_size=6),
    )
    def test_reported_p_is_exact_below_the_enumeration_limit(self, x, y):
        res = mann_whitney_u(x, y)
        oracle = mann_whitney_u(x, y, exact_limit=12)
        assert abs(res.p_value - oracle.p_value) < 1e-12

    @settings(max_examples=120, deadline=None)
    @given(
        st.lists(st.floats(-5, 5, allow_nan=False), min_size=1, max_size=12),
        st.lists(st.floats(-5, 5, allow_nan=False), min_size=1, max_size=12),
    )
    def test_auc_antisymmetry(self, x, y):
        assert abs(mann_whitney_u(x, y).auc + mann_whitney_u(y, x).auc - 1.0) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(0, 3), min_size=2, max_size=6),
        st.lists(st.integers(0, 3), min_size=2, max_size=6),
    )
    def test_exact_p_matches_brute_force_reimplementation(self, x, y):
        """Second, test-local enumeration of assignments as an oracle."""
        res = mann_whitney_u(x, y)
        pooled = sorted(x + y)
        n1 = len(x)
        mu = n1 * len(y) / 2

        def u_of(sample1, sample2):
            u = 0.0
            for a in sample1:
                for b in sample2:
                    u += 1.0 if a > b else (0.5 if a == b else 0.0)
            return u

        u_obs = u_of(x, y)
        hits = total = 0
        for combo in itertools.combinations(range(len(pooled)), n1):
            s1 = [pooled[i] for i in combo]
            s2 = [pooled[i] for i in range(len(pooled)) if i not in combo]
            total += 1
            if abs(u_of(s1, s2) - mu) >= abs(u_obs - mu) - 1e-9:
                hits += 1
        assert res.u_statistic == pytest.approx(u_obs, abs=1e-9)
        assert res.p_value == pytest.approx(hits / total, abs=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-3, 3), min_size=1, max_size=40))
    def test_midranks_match_scipy_rankdata(self, values):
        pooled = np.array(values, dtype=float)
        ranks, counts = stats._midranks(pooled)
        assert np.array_equal(ranks, sstats.rankdata(pooled, method="average"))
        assert np.array_equal(counts, np.unique(pooled, return_counts=True)[1])

    @settings(max_examples=120, deadline=None)
    @given(
        st.lists(st.integers(0, 6), min_size=1, max_size=30),
        st.lists(st.integers(0, 6), min_size=1, max_size=30),
    )
    def test_normal_approximation_p_matches_scipy_stats(self, x, y):
        res = mann_whitney_u(x, y, exact_limit=0)
        pooled = np.array(x + y, dtype=float)
        n1, n2, n = len(x), len(y), len(pooled)
        counts = np.unique(pooled, return_counts=True)[1]
        if len(counts) == 1:
            assert res.p_value == 1.0
            return
        u = float(sstats.rankdata(pooled)[:n1].sum()) - n1 * (n1 + 1) / 2.0
        sigma2 = (n1 * n2 / 12.0) * ((n + 1) - float((counts**3 - counts).sum()) / (n * (n - 1)))
        z = max(abs(u - n1 * n2 / 2.0) - 0.5, 0.0) / math.sqrt(sigma2)
        assert res.u_statistic == u
        assert res.p_value == min(1.0, 2.0 * sstats.norm.sf(z))
        reference = sstats.mannwhitneyu(x, y, method="asymptotic").pvalue
        assert res.p_value == pytest.approx(reference, rel=1e-9, abs=1e-300)


# the grid the special-function kernels are pinned on, against scipy.stats
ORACLE_DF = (1, 2, 7, 30, 383, 4500, 1_000_000)
ORACLE_Z = np.concatenate([
    [0.0, 1e-300, 40.0, 1e3, np.inf],
    np.random.default_rng(0).standard_normal(2000) * np.logspace(-3, 1.5, 2000),
])


def fixed_fit(family: str, beta, df_resid: int, cov=None) -> FitResult:
    beta = np.asarray(beta, dtype=float)
    return FitResult(
        family=family,
        columns=tuple(f"x{j}" for j in range(len(beta))),
        beta=beta,
        cov=np.eye(len(beta)) if cov is None else np.asarray(cov, dtype=float),
        r_squared=0.0,
        n_obs=df_resid + len(beta),
        log_likelihood=0.0,
        df_resid=df_resid,
    )


class TestDistributionKernels:
    """p-values and critical values equal scipy.stats's bit for bit."""

    @pytest.mark.parametrize("df", ORACLE_DF)
    def test_ols_p_values_are_student_t_tails(self, df):
        fit = fixed_fit(stats.FAMILY_OLS, ORACLE_Z, df)  # unit se, so z = beta
        expected = 2.0 * sstats.t.sf(np.abs(ORACLE_Z), df)
        assert list(fit.p_values.values()) == expected.tolist()

    @pytest.mark.parametrize("family", [stats.FAMILY_LOGISTIC, stats.FAMILY_POISSON])
    def test_glm_p_values_are_normal_tails(self, family):
        fit = fixed_fit(family, ORACLE_Z, 50)
        expected = 2.0 * sstats.norm.sf(np.abs(ORACLE_Z))
        assert list(fit.p_values.values()) == expected.tolist()

    @pytest.mark.parametrize("family, df", [(stats.FAMILY_OLS, df) for df in ORACLE_DF]
                             + [(stats.FAMILY_LOGISTIC, 50), (stats.FAMILY_POISSON, 50)])
    def test_marginal_mean_interval_uses_the_975_quantile(self, family, df):
        X = np.column_stack([np.ones(6), [0, 1, 0, 1, 1, 0], np.linspace(-1, 1, 6)])
        fit = fixed_fit(family, [0.3, 0.5, -0.2], df,
                        cov=[[0.04, 0.01, 0.0], [0.01, 0.09, 0.002], [0.0, 0.002, 0.01]])
        crit = sstats.t.ppf(0.975, df) if family == stats.FAMILY_OLS else sstats.norm.ppf(0.975)
        for mm in marginal_means(fit, X, "x1"):
            assert mm.se > 0
            assert (mm.ci_low, mm.ci_high) == (mm.estimate - crit * mm.se, mm.estimate + crit * mm.se)


class TestBattery:
    def demo_data(self):
        rng = np.random.default_rng(5)
        n = 40
        data = {
            "crowdfunded": (np.arange(n) % 2).astype(float),
            "distinctiveness": rng.normal(5, 1, n),
            "novelty_count": rng.poisson(1, n).astype(float),
            "novelty_binary": rng.integers(0, 2, n).astype(float),
            "resonance": rng.normal(0, 1, n),
            "is_expansion": rng.integers(0, 2, n).astype(float),
            "complexity": rng.uniform(1, 4, n),
            "is_adult": np.zeros(n),
            "team_size": rng.integers(1, 4, n).astype(float),
            "debut": rng.integers(0, 2, n).astype(float),
        }
        data["resonance"][:10] = np.nan
        return data

    def test_labels_and_nan_handling(self):
        results = group_test_battery(self.demo_data())
        labels = [label for label, _ in results]
        assert labels == [LABELS[column] for column in BATTERY_FEATURES]
        res = dict(results)["Resonance"]
        assert sum(res.n) == 30  # NaNs dropped

    def test_constant_feature_is_tie(self):
        res = dict(group_test_battery(self.demo_data()))["Is Adult/Mature"]
        assert res.auc == 0.5
        assert res.p_value == 1.0

    def test_feature_with_an_empty_group_has_no_result(self):
        data = self.demo_data()
        data["resonance"][data["crowdfunded"] == 1] = np.nan
        results = dict(group_test_battery(data))
        assert results["Resonance"] is None
        assert all(res is not None for label, res in results.items() if label != "Resonance")


# ---------------------------------------------------------------------------
# design building

def demo_table(n=32, seed=0):
    rng = np.random.default_rng(seed)
    genres = np.array(
        [("Strategy", "Family", "Party", "War", "Abstract", "Thematic", "Child", "Custom")[i % 8] for i in range(n)],
        dtype=object,
    )
    return {
        "outcome": rng.normal(size=n),
        "binary": rng.integers(0, 2, n).astype(float),
        "counts": rng.poisson(2, n).astype(float),
        "crowdfunded": rng.integers(0, 2, n).astype(float),
        "playing_time": rng.uniform(0, 200, n),
        "constant": np.ones(n),
        "year": np.array([2006 + i % 4 for i in range(n)], dtype=np.int64),
        "genre": genres,
    }


class TestBuildDesign:
    def test_eight_genres_make_seven_dummies(self):
        spec = ModelSpec("outcome", "ols", (("crowdfunded", "identity"),), ("genre",))
        design = build_design(demo_table(), spec)
        dummies = [c for c in design.columns if c.startswith("genre=")]
        assert len(dummies) == 7
        assert "genre=Abstract" not in design.columns  # smallest level dropped

    def test_intercept_first_and_term_order(self):
        spec = ModelSpec("outcome", "ols", (("playing_time", "log1p"), ("crowdfunded", "identity")), ("year",))
        design = build_design(demo_table(), spec)
        assert design.columns[:3] == ("const", "playing_time", "crowdfunded")
        assert design.columns[3:] == ("year=2007", "year=2008", "year=2009")

    def test_log1p_at_zero(self):
        data = demo_table()
        data["playing_time"][0] = 0.0
        spec = ModelSpec("outcome", "ols", (("playing_time", "log1p"),))
        design = build_design(data, spec)
        assert design.X[0, 1] == 0.0
        assert np.allclose(design.X[:, 1], np.log1p(data["playing_time"]))

    def test_zscore_transform(self):
        spec = ModelSpec("outcome", "ols", (("playing_time", "zscore"),))
        design = build_design(demo_table(), spec)
        assert design.X[:, 1].mean() == pytest.approx(0.0, abs=1e-12)
        assert design.X[:, 1].std(ddof=1) == pytest.approx(1.0, rel=1e-12)

    def test_constant_term_rank_deficient(self):
        spec = ModelSpec("outcome", "ols", (("constant", "identity"),))
        with pytest.raises(RankDeficient) as exc:
            fit_model(build_design(demo_table(), spec))
        assert "constant" in str(exc.value) or "const" in str(exc.value)

    def test_complete_cases_only(self):
        data = demo_table()
        data["outcome"][:5] = np.nan
        spec = ModelSpec("outcome", "ols", (("crowdfunded", "identity"),))
        design = build_design(data, spec)
        assert design.X.shape[0] == 27
        assert design.rows_used.tolist() == list(range(5, 32))

    def test_unknown_term_and_level(self):
        with pytest.raises(UnknownTerm):
            build_design(demo_table(), ModelSpec("outcome", "ols", (("nope", "identity"),)))

    def test_outcome_cannot_be_term(self):
        with pytest.raises(ValueError):
            ModelSpec("outcome", "ols", (("outcome", "identity"),))

    def test_spec_json_round_trip(self):
        spec = STANDARD_MODELS[0][1]
        back = PipelineConfig.from_dict(PipelineConfig(models={"m": spec}).to_dict()).models["m"]
        assert back == spec

    def test_terms_accept_bare_strings(self):
        model = {"outcome": "distinctiveness", "family": "ols",
                 "terms": ["crowdfunded", ["playing_time", "log1p"]]}
        spec = PipelineConfig.from_dict({"models": {"m": model}}).models["m"]
        assert spec.terms == (("crowdfunded", "identity"), ("playing_time", "log1p"))

    @pytest.mark.parametrize("family, outcome", [("ols", "outcome"), ("logistic", "binary"),
                                                 ("poisson", "counts")])
    def test_numeric_and_object_fixed_effects_code_alike(self, family, outcome):
        # np.unique codes the int64 year, a set and a dict the object one
        data = demo_table(n=200, seed=4)
        data["binary"][data["year"] == 2007] = 1.0  # a separated level for the logit
        as_object = dict(data, year=data["year"].astype(object))
        spec = ModelSpec(outcome, family, (("crowdfunded", "identity"),), ("year", "genre"))
        numeric, objects = build_design(data, spec), build_design(as_object, spec)
        assert np.array_equal(numeric.X.view(np.int64), objects.X.view(np.int64))
        assert numeric.columns == objects.columns
        assert numeric.separated == objects.separated
        assert np.array_equal(numeric.rows_used, objects.rows_used)

    @pytest.mark.parametrize("missing", [np.nan, None])
    def test_missing_fixed_effect_value_is_an_incomplete_case(self, missing):
        # NaN in a float column takes the np.unique path; None, with a NaN,
        # in an object column the set path
        if missing is None:
            fe = np.array([1] * 20 + [2] * 17 + [None, np.nan, None], dtype=object)
        else:
            fe = np.array([1.0] * 20 + [2.0] * 17 + [np.nan] * 3)
        data = dict(demo_table(n=40), fe=fe)
        design = build_design(data, ModelSpec("outcome", "ols", (("crowdfunded", "identity"),), ("fe",)))
        assert [c for c in design.columns if c.startswith("fe=")] == ["fe=2" if missing is None else "fe=2.0"]
        assert design.rows_used.tolist() == list(range(37))
        assert design.X[:, -1].tolist() == [0.0] * 20 + [1.0] * 17

    def test_a_level_per_row_is_rejected_before_the_matrix_is_built(self):
        # one dummy per id but the reference: n rows, n + 1 columns
        data = dict(demo_table(), id=np.array([f"g{i}" for i in range(32)], dtype=object))
        spec = ModelSpec("outcome", "ols", (("crowdfunded", "identity"),), ("id",))
        with pytest.raises(NumericError, match=r"^need more rows \(32\) than columns \(33\)$"):
            build_design(data, spec)

    def test_join_builds_exactly_the_joined_columns(self):
        records = generate_corpus(SynthConfig(dimension=8, year_start=2006, year_end=2009,
                                              games_per_year=40, seed=3))
        data = join_scores(records, score_corpus(records, spans=(2,), last_complete_year=2009), span=2)
        assert tuple(data) == stats.JOINED_COLUMNS


# ---------------------------------------------------------------------------
# OLS

class TestOls:
    def test_exact_line(self):
        X = np.column_stack([np.ones(3), [0.0, 1.0, 2.0]])
        fit = fit_arrays("ols", X, np.array([0.0, 1.0, 2.0]), columns=("const", "x"))
        assert fit.coefficients["x"] == pytest.approx(1.0, abs=1e-12)
        assert fit.coefficients["const"] == pytest.approx(0.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def fraction_ols_oracle(self, xs, ys):
        """Solve the 2x2 normal equations exactly with Fractions."""
        n = len(xs)
        sx = sum(xs)
        sxx = sum(v * v for v in xs)
        sy = sum(ys)
        sxy = sum(a * b for a, b in zip(xs, ys))
        det = Fraction(n) * sxx - Fraction(sx) * sx
        b0 = (Fraction(sxx) * sy - Fraction(sx) * sxy) / det
        b1 = (Fraction(n) * sxy - Fraction(sx) * sy) / det
        return b0, b1

    def test_matches_fraction_normal_equations(self):
        xs = [0, 1, 2, 3]
        ys = [1, 3, 2, 5]
        b0, b1 = self.fraction_ols_oracle(xs, ys)
        assert (b0, b1) == (Fraction(11, 10), Fraction(11, 10))  # hand-derived
        X = np.column_stack([np.ones(4), np.array(xs, dtype=float)])
        fit = fit_arrays("ols", X, np.array(ys, dtype=float), columns=("const", "x"))
        assert fit.coefficients["const"] == pytest.approx(float(b0), abs=1e-10)
        assert fit.coefficients["x"] == pytest.approx(float(b1), abs=1e-10)

    def test_hc0_matches_fraction_sandwich(self):
        xs = [0, 1, 2, 3]
        ys = [1, 3, 2, 5]
        b0, b1 = self.fraction_ols_oracle(xs, ys)
        resid = [Fraction(y) - b0 - b1 * x for x, y in zip(xs, ys)]
        # bread and meat exactly
        n = len(xs)
        sx = sum(xs)
        sxx = sum(v * v for v in xs)
        det = Fraction(n) * sxx - Fraction(sx) * sx
        bread = [[Fraction(sxx) / det, Fraction(-sx) / det], [Fraction(-sx) / det, Fraction(n) / det]]
        meat = [[Fraction(0)] * 2 for _ in range(2)]
        for x, e in zip(xs, resid):
            row = (Fraction(1), Fraction(x))
            for i in range(2):
                for j in range(2):
                    meat[i][j] += e * e * row[i] * row[j]
        prod = [[sum(bread[i][k] * meat[k][j] for k in range(2)) for j in range(2)] for i in range(2)]
        cov = [[sum(prod[i][k] * bread[k][j] for k in range(2)) for j in range(2)] for i in range(2)]
        X = np.column_stack([np.ones(4), np.array(xs, dtype=float)])
        fit = fit_arrays("ols", X, np.array(ys, dtype=float), robust="hc0", columns=("const", "x"))
        assert fit.robust_se["const"] == pytest.approx(math.sqrt(float(cov[0][0])), rel=1e-10)
        assert fit.robust_se["x"] == pytest.approx(math.sqrt(float(cov[1][1])), rel=1e-10)

    def fraction_hc0_se(self, xs, ys):
        """HC0 standard errors of (const, x) from the exact bread and meat."""
        b0, b1 = self.fraction_ols_oracle(xs, ys)
        n, sx, sxx = len(xs), sum(xs), sum(v * v for v in xs)
        det = Fraction(n) * sxx - Fraction(sx) * sx
        bread = [[Fraction(sxx) / det, Fraction(-sx) / det], [Fraction(-sx) / det, Fraction(n) / det]]
        rows = [(Fraction(1), Fraction(x)) for x in xs]
        resid = [Fraction(y) - b0 - b1 * x for x, y in zip(xs, ys)]
        meat = [[sum(e * e * r[i] * r[j] for r, e in zip(rows, resid)) for j in range(2)] for i in range(2)]

        def mul(a, b):
            return [[sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2)] for i in range(2)]

        cov = mul(mul(bread, meat), bread)
        return math.sqrt(float(cov[0][0])), math.sqrt(float(cov[1][1]))

    def test_pivoted_columns_match_fraction_oracles(self):
        # the large-scale x column is pivoted ahead of the intercept, so beta
        # and the bread must be put back in column order
        xs = [0, 1000, 2000, 3000]
        ys = [1, 3, 2, 5]
        X = np.column_stack([np.ones(4), np.array(xs, dtype=float)])
        assert stats._pivoted_qr(X, with_q=False)[2].tolist() == [1, 0]
        fit = fit_arrays("ols", X, np.array(ys, dtype=float), robust="hc0", columns=("const", "x"))
        b0, b1 = self.fraction_ols_oracle(xs, ys)
        assert fit.coefficients["const"] == pytest.approx(float(b0), rel=1e-10)
        assert fit.coefficients["x"] == pytest.approx(float(b1), rel=1e-10)
        se0, se1 = self.fraction_hc0_se(xs, ys)
        assert fit.robust_se["const"] == pytest.approx(se0, rel=1e-10)
        assert fit.robust_se["x"] == pytest.approx(se1, rel=1e-10)

    def test_hc1_scales_hc0(self):
        rng = np.random.default_rng(3)
        X = np.column_stack([np.ones(30), rng.normal(size=30)])
        y = rng.normal(size=30)
        hc0 = fit_arrays("ols", X, y, robust="hc0")
        hc1 = fit_arrays("ols", X, y, robust="hc1")
        n, k = 30, 2
        for name in hc0.columns:
            assert hc1.robust_se[name] ** 2 == pytest.approx(
                hc0.robust_se[name] ** 2 * n / (n - k), rel=1e-12
            )
            assert hc1.robust_se[name] >= hc0.robust_se[name]

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(9)
        X = np.column_stack([np.ones(50), rng.normal(size=(50, 3))])
        y = rng.normal(size=50)
        fit = fit_arrays("ols", X, y)
        resid = y - X @ fit.beta
        assert np.abs(X.T @ resid).max() / max(np.abs(y).max(), 1) < 1e-8

    def test_scale_invariance_of_z_and_p(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=40)
        X1 = np.column_stack([np.ones(40), x])
        X2 = np.column_stack([np.ones(40), 3.0 * x])
        y = 1 + 0.5 * x + rng.normal(size=40)
        f1 = fit_arrays("ols", X1, y, columns=("const", "x"))
        f2 = fit_arrays("ols", X2, y, columns=("const", "x"))
        assert f2.coefficients["x"] == pytest.approx(f1.coefficients["x"] / 3.0, rel=1e-10)
        assert f2.z_or_t["x"] == pytest.approx(f1.z_or_t["x"], abs=1e-8)
        assert f2.p_values["x"] == pytest.approx(f1.p_values["x"], abs=1e-8)

    def test_rank_deficient_raises_with_columns(self):
        X = np.column_stack([np.ones(10), np.arange(10.0), 2 * np.arange(10.0)])
        with pytest.raises(RankDeficient):
            fit_arrays("ols", X, np.arange(10.0), columns=("const", "a", "b"))

    def test_nonfinite_raises(self):
        X = np.column_stack([np.ones(5), np.arange(5.0)])
        y = np.arange(5.0)
        y[2] = np.nan
        with pytest.raises(NumericError):
            fit_arrays("ols", X, y)


# ---------------------------------------------------------------------------
# GLMs

def grid_mle_oracle(ll_fn, center=(0.0, 0.0), width=4.0, passes=5, points=41):
    """Nested grid search for a 2-parameter MLE, refining around the best."""
    b0, b1 = center
    for _ in range(passes):
        g0 = np.linspace(b0 - width, b0 + width, points)
        g1 = np.linspace(b1 - width, b1 + width, points)
        best = (-math.inf, b0, b1)
        for c0 in g0:
            for c1 in g1:
                ll = ll_fn(c0, c1)
                if ll > best[0]:
                    best = (ll, c0, c1)
        _, b0, b1 = best
        width = 4.0 * width / (points - 1)  # two grid cells each side
    return b0, b1


class TestLogistic:
    def fixture(self):
        x = np.array([-2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 2.5])
        y = np.array([0, 0, 0, 1, 0, 1, 0, 1, 1, 1], dtype=float)
        X = np.column_stack([np.ones(len(x)), x])
        return X, y, x

    def test_null_effect(self):
        rng = np.random.default_rng(21)
        n = 400
        X = np.column_stack([np.ones(n), rng.normal(size=n)])
        y = rng.integers(0, 2, n).astype(float)
        fit = fit_arrays("logistic", X, y, columns=("const", "x"))
        assert abs(fit.coefficients["x"]) < 0.25
        assert 0.0 <= fit.r_squared < 0.02
        assert fit.converged

    def test_matches_grid_oracle(self):
        X, y, x = self.fixture()

        def ll(b0, b1):
            total = 0.0
            for xi, yi in zip(x, y):
                p = sigmoid(b0 + b1 * xi)
                p = min(max(p, 1e-12), 1 - 1e-12)
                total += yi * math.log(p) + (1 - yi) * math.log(1 - p)
            return total

        b0, b1 = grid_mle_oracle(ll)
        fit = fit_arrays("logistic", X, y, columns=("const", "x"))
        assert fit.coefficients["const"] == pytest.approx(b0, abs=1e-4)
        assert fit.coefficients["x"] == pytest.approx(b1, abs=1e-4)
        assert fit.converged

    def test_score_at_optimum_near_zero(self):
        X, y, _ = self.fixture()
        fit = fit_arrays("logistic", X, y)
        mu = 1.0 / (1.0 + np.exp(-(X @ fit.beta)))
        assert np.abs(X.T @ (y - mu)).max() < 1e-6

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(17)
        X = np.column_stack([np.ones(12), rng.normal(size=12)])
        y = rng.integers(0, 2, 12).astype(float)
        beta = rng.normal(scale=0.5, size=2)

        def ll(b):
            total = 0.0
            for xi, yi in zip(X, y):
                eta = float(xi @ b)
                p = sigmoid(eta)
                p = min(max(p, 1e-300), 1 - 1e-16)
                total += yi * math.log(p) + (1 - yi) * math.log(1 - p)
            return total

        mu = 1.0 / (1.0 + np.exp(-(X @ beta)))
        analytic = X.T @ (y - mu)
        h = 1e-5
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            fd = (ll(beta + e) - ll(beta - e)) / (2 * h)
            assert fd == pytest.approx(analytic[j], rel=1e-4, abs=1e-6)

    def test_separation_raises(self):
        # narrow margin: the separating coefficient must exceed the 30 bound
        x = np.array([-0.03, -0.02, -0.01, 0.01, 0.02, 0.03])
        y = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
        X = np.column_stack([np.ones(6), x])
        with pytest.raises(SeparationError):
            fit_arrays("logistic", X, y)

    def test_wide_margin_separable_data_stops_at_finite_coefficients(self):
        # with unit margins the score tolerance is met near |beta| ~ 20,
        # inside the divergence bound, so the fit reports convergence
        x = np.array([-2.0, -1.0, 1.0, 2.0])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        X = np.column_stack([np.ones(4), x])
        fit = fit_arrays("logistic", X, y, columns=("const", "x"))
        assert fit.converged
        assert abs(fit.coefficients["x"]) < 30

    def test_constant_outcome_raises(self):
        X = np.column_stack([np.ones(6), np.arange(6.0)])
        with pytest.raises(SeparationError):
            fit_arrays("logistic", X, np.ones(6))

    def test_mcfadden_bounds(self):
        X, y, _ = self.fixture()
        fit = fit_arrays("logistic", X, y)
        assert 0.0 <= fit.r_squared < 1.0


class TestPoisson:
    def test_constant_outcome_gives_log_intercept(self):
        X = np.ones((20, 1))
        y = np.full(20, 7.0)
        fit = fit_arrays("poisson", X, y, columns=("const",))
        assert fit.coefficients["const"] == pytest.approx(math.log(7.0), abs=1e-8)

    def test_matches_grid_oracle(self):
        x = np.array([-1.0, -0.5, 0.0, 0.5, 1.0, 1.5])
        y = np.array([0.0, 1.0, 1.0, 2.0, 4.0, 3.0])
        X = np.column_stack([np.ones(len(x)), x])

        def ll(b0, b1):
            total = 0.0
            for xi, yi in zip(x, y):
                lam = math.exp(b0 + b1 * xi)
                total += yi * (b0 + b1 * xi) - lam - math.lgamma(yi + 1)
            return total

        b0, b1 = grid_mle_oracle(ll)
        fit = fit_arrays("poisson", X, y, columns=("const", "x"))
        assert fit.coefficients["const"] == pytest.approx(b0, abs=1e-4)
        assert fit.coefficients["x"] == pytest.approx(b1, abs=1e-4)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(23)
        X = np.column_stack([np.ones(10), rng.normal(size=10)])
        y = rng.poisson(2.0, 10).astype(float)
        beta = rng.normal(scale=0.3, size=2)

        def ll(b):
            total = 0.0
            for xi, yi in zip(X, y):
                eta = float(xi @ b)
                total += yi * eta - math.exp(eta) - math.lgamma(yi + 1)
            return total

        analytic = X.T @ (y - np.exp(X @ beta))
        h = 1e-5
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            fd = (ll(beta + e) - ll(beta - e)) / (2 * h)
            assert fd == pytest.approx(analytic[j], rel=1e-4, abs=1e-6)

    def test_negative_counts_rejected(self):
        X = np.ones((4, 1))
        with pytest.raises(NumericError):
            fit_arrays("poisson", X, np.array([1.0, -1.0, 2.0, 0.0]))

    def test_scale_invariance(self):
        rng = np.random.default_rng(31)
        x = rng.normal(size=60)
        y = rng.poisson(np.exp(0.3 + 0.4 * x)).astype(float)
        f1 = fit_arrays("poisson", np.column_stack([np.ones(60), x]), y, columns=("const", "x"))
        f2 = fit_arrays("poisson", np.column_stack([np.ones(60), 2.0 * x]), y, columns=("const", "x"))
        assert f2.coefficients["x"] == pytest.approx(f1.coefficients["x"] / 2.0, rel=1e-6)
        assert f2.z_or_t["x"] == pytest.approx(f1.z_or_t["x"], abs=1e-8)


class TestSeparatedLevels:
    TERMS = (("crowdfunded", "identity"), ("playing_time", "log1p"))

    @pytest.mark.parametrize("outcome, family, value", [
        ("binary", "logistic", 1.0), ("binary", "logistic", 0.0), ("counts", "poisson", 0.0),
    ])
    @pytest.mark.parametrize("level", [2006, 2008])  # the reference level and another
    def test_constant_outcome_level_is_dropped(self, outcome, family, value, level):
        data = demo_table(n=200)
        in_level = data["year"] == level
        data[outcome][in_level] = value
        spec = ModelSpec(outcome, family, self.TERMS, ("year",))
        design = build_design(data, spec)
        assert design.separated == (("year", level, int(in_level.sum())),)
        # the design built from the data without that level's rows
        kept = np.flatnonzero(~in_level)
        expected = build_design({name: column[kept] for name, column in data.items()}, spec)
        assert design.rows_used.tolist() == kept.tolist()
        assert design.columns == expected.columns
        assert np.array_equal(design.X, expected.X) and np.array_equal(design.y, expected.y)
        reference = min({2006, 2007, 2008, 2009} - {level})
        assert [c for c in design.columns if c.startswith("year=")] == [
            f"year={year}" for year in range(reference + 1, 2010) if year != level]
        fit = fit_model(design)
        assert fit.n_iter <= 8 and abs(fit.coefficients["const"]) < 5

    def test_ols_keeps_constant_outcome_levels(self):
        data = demo_table(n=200)
        data["outcome"][data["year"] == 2006] = 1.0
        design = build_design(data, ModelSpec("outcome", "ols", self.TERMS, ("year",)))
        assert design.separated == () and len(design.rows_used) == 200

    @pytest.mark.parametrize("fixed_effects", [("year", "genre"), ("genre", "year")])
    def test_separation_cascades_across_fixed_effects(self, fixed_effects):
        # year 2006 is all 0; once it is dropped, genre b is all 1
        rng = np.random.default_rng(5)
        n = 240
        year = np.array([2006, 2007, 2008])[np.arange(n) % 3]
        genre = np.array(["a", "b", "c", "d"], dtype=object)[(np.arange(n) // 3) % 4]
        y = rng.integers(0, 2, n).astype(float)
        y[year == 2006] = 0.0
        y[(genre == "b") & (year != 2006)] = 1.0
        data = {"binary": y, "x": rng.normal(size=n), "year": year, "genre": genre}
        design = build_design(data, ModelSpec("binary", "logistic", ("x",), fixed_effects))
        in_b = (genre == "b") & (year != 2006)
        assert sorted(design.separated) == [("genre", "b", int(in_b.sum())),
                                            ("year", 2006, int((year == 2006).sum()))]
        assert design.rows_used.tolist() == np.flatnonzero((year != 2006) & ~in_b).tolist()
        dummies = {"year": ["year=2008"], "genre": ["genre=c", "genre=d"]}
        assert list(design.columns[2:]) == [c for fe in fixed_effects for c in dummies[fe]]
        assert fit_model(design).n_iter <= 8

    def test_every_level_separated_raises(self):
        data = demo_table(n=200)
        data["binary"] = (data["year"] >= 2008).astype(float)
        with pytest.raises(SeparationError, match="every year level"):
            build_design(data, ModelSpec("binary", "logistic", self.TERMS, ("year",)))

    @pytest.mark.parametrize("seed", range(4))
    def test_synthetic_novelty_logit_converges_in_a_few_steps(self, seed):
        # the first scored year, 2007 at span 2, is 100% novel: its past window holds only burn-in
        cfg = SynthConfig(year_start=2006, year_end=2015, games_per_year=500,
                          crowdfunded_share_by_year=0.3, novelty_boost=2.0, seed=seed)
        kept, _ = apply_filters(generate_corpus(cfg), FilterConfig())
        data = join_scores(kept, score_corpus(kept, spans=(2,), last_complete_year=2015), span=2)
        design = build_design(data, dict(STANDARD_MODELS)["Novelty"])
        fit = fit_model(design)
        assert [level for _, level, _ in design.separated] == [2007]
        assert fit.n_iter <= 8 and abs(fit.coefficients["const"]) < 5


class TestStepHalving:
    def large_mean(self):
        rng = np.random.default_rng(8)
        group = (np.arange(200) % 2).astype(float)
        y = rng.poisson(np.where(group == 1, 1500.0, 1000.0)).astype(float)
        return np.column_stack([np.ones(200), group]), y, group

    def test_large_mean_poisson_recovers_by_step_halving(self):
        # the undamped first step from zero puts the constant near 1000, where exp overflows
        X, y, group = self.large_mean()
        fit = fit_arrays("poisson", X, y, columns=("const", "group"))
        # with one binary regressor the MLE is the log of each group's mean
        mean0, mean1 = y[group == 0].mean(), y[group == 1].mean()
        assert fit.coefficients["const"] == pytest.approx(math.log(mean0), abs=1e-8)
        assert fit.coefficients["group"] == pytest.approx(math.log(mean1 / mean0), abs=1e-8)
        assert fit.max_score < 1e-6

    def test_overflow_without_halvings_left_is_not_separation(self, monkeypatch):
        # only the undamped first step is tried, and its exp(eta) overflows
        X, y, _ = self.large_mean()
        monkeypatch.setattr(stats, "MAX_STEP_HALVINGS", 0)
        with pytest.raises(NumericError, match="halvings") as exc:
            fit_arrays("poisson", X, y)
        assert not isinstance(exc.value, SeparationError)


class TestIterationCap:
    @pytest.mark.parametrize("family, y", [
        ("logistic", [0, 0, 0, 1, 0, 1, 0, 1, 1, 1]),
        ("poisson", [0, 1, 0, 2, 1, 3, 2, 4, 3, 5]),
    ])
    def test_fit_that_reaches_the_cap_raises(self, monkeypatch, family, y):
        X = np.column_stack([np.ones(10), np.linspace(-2.0, 2.5, 10)])
        y = np.array(y, dtype=float)
        assert fit_arrays(family, X, y).converged
        monkeypatch.setattr(stats, "MAX_IRLS_ITER", 1)
        with pytest.raises(NumericError, match="did not converge"):
            fit_arrays(family, X, y)


class TestOneFactorization:
    MODELS = [("outcome", "ols"), ("binary", "logistic"), ("counts", "poisson")]

    @pytest.mark.parametrize("outcome, family", MODELS)
    def test_each_fit_makes_one_pivoted_qr_and_no_lstsq(self, monkeypatch, outcome, family):
        real_qr = stats._pivoted_qr
        calls = []

        def counting_qr(X, with_q):
            calls.append(with_q)
            return real_qr(X, with_q)

        def no_lstsq(*args, **kwargs):
            raise AssertionError("np.linalg.lstsq called")

        monkeypatch.setattr(stats, "_pivoted_qr", counting_qr)
        monkeypatch.setattr(np.linalg, "lstsq", no_lstsq)
        spec = ModelSpec(outcome, family, (("crowdfunded", "identity"), ("playing_time", "log1p")), ("year",))
        fit_model(build_design(demo_table(n=200), spec))
        # only OLS solves with Q; a GLM's rank check forms none
        assert calls == [family == "ols"]

    @pytest.mark.parametrize("outcome, family", MODELS)
    def test_rank_deficient_fit_names_the_dependent_middle_column(self, outcome, family):
        data = demo_table(n=200)
        data["half_time"] = 0.5 * data["playing_time"]
        terms = (("playing_time", "identity"), ("half_time", "identity"), ("crowdfunded", "identity"))
        design = build_design(data, ModelSpec(outcome, family, terms))
        with pytest.raises(RankDeficient) as exc:
            fit_model(design)
        assert exc.value.columns == ["half_time"]

    def test_unknown_family_is_rejected_before_any_fit(self):
        # without the check, any family but "ols" and "logistic" would fit a Poisson model
        with pytest.raises(ValueError, match="unknown family 'logit'"):
            fit_arrays("logit", np.column_stack([np.ones(4), np.arange(4.0)]), np.array([0.0, 1.0, 0.0, 1.0]))


@st.composite
def designs(draw):
    """(X, y): a float64 design with more rows than columns, full rank or with
    columns that are zero, repeated, rescaled or sums of others, and an outcome."""
    k = draw(st.integers(1, 8))
    n = draw(st.integers(k + 1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.standard_normal((n, k)) * 10.0 ** rng.uniform(-3, 3, size=k)
    for j in draw(st.lists(st.integers(0, k - 1), max_size=3, unique=True)):
        kind = draw(st.sampled_from(["zero", "repeat", "scaled", "sum"]))
        others = [i for i in range(k) if i != j] or [j]
        if kind == "zero":
            X[:, j] = 0.0
        elif kind == "repeat":
            X[:, j] = X[:, others[0]]
        elif kind == "scaled":
            X[:, j] = -2.5 * X[:, others[-1]]
        else:
            X[:, j] = X[:, others].sum(axis=1)
    return X, rng.standard_normal(n)


def outcome(call):
    """call()'s bytes, or the type of the error it raises."""
    try:
        return call().tobytes()
    except Exception as exc:
        return type(exc)


class TestCompiledRoutines:
    """The LAPACK and special-function routines the package loads from scipy's
    extension files against scipy.linalg and scipy.special, and the public
    modules it falls back to, to the same bytes."""

    @settings(max_examples=150, deadline=None)
    @given(designs())
    def test_pivoted_qr_and_solves_equal_scipy_linalg(self, design):
        X, y = design
        q, r, perm = stats._pivoted_qr(X, with_q=True)
        want_q, want_r, want_perm = sla.qr(X, mode="economic", pivoting=True, check_finite=False)
        assert (q.tobytes(), r.tobytes(), perm.tobytes()) == (want_q.tobytes(), want_r.tobytes(), want_perm.tobytes())
        assert (r.flags.f_contiguous, perm.dtype) == (want_r.flags.f_contiguous, want_perm.dtype)
        none, raw_r, raw_perm = stats._pivoted_qr(X, with_q=False)
        _, want_raw_r, want_raw_perm = sla.qr(X, mode="raw", pivoting=True, check_finite=False)
        assert none is None and (raw_r.tobytes(), raw_perm.tobytes()) == (want_raw_r.tobytes(), want_raw_perm.tobytes())
        # both of dtrtrs's storage orders, for the two right-hand sides an OLS fit solves
        for a in (r, np.ascontiguousarray(r)):
            for b in (q.T @ y, np.eye(X.shape[1])):
                assert outcome(lambda: stats._solve_upper(a, b)) == outcome(lambda: sla.solve_triangular(a, b))

    def test_solve_upper_rejects_what_solve_triangular_rejects(self):
        r = np.triu(np.arange(1.0, 10.0).reshape(3, 3))
        for b in (np.array([1.0, np.nan, 0.0]), np.array([np.inf, 1.0, 0.0])):
            with pytest.raises(ValueError):
                stats._solve_upper(r, b)
        r[1, 1] = 0.0
        with pytest.raises(np.linalg.LinAlgError, match="diagonal 1"):
            stats._solve_upper(r, np.ones(3))

    @pytest.mark.parametrize("name", ["expit", "gammaln", "ndtr", "ndtri"])
    def test_one_argument_special_functions_equal_scipy_special(self, name):
        grid = np.concatenate([[-np.inf, np.inf, np.nan, 0.0, -0.0, 1.0, -1.0, 0.5, 1e-300, -1e-300, 1e308],
                               np.linspace(-40.0, 40.0, 1001), np.linspace(0.0, 1.0, 1001)])
        mine, theirs = getattr(stats, name), getattr(special, name)
        assert mine is theirs
        assert mine(grid).tobytes() == theirs(grid).tobytes()

    @pytest.mark.parametrize("name", ["stdtr", "stdtrit"])
    def test_student_t_functions_equal_scipy_special(self, name):
        df = np.array([-1.0, 0.0, 0.5, 1.0, 2.0, 7.0, 383.0, 1e6, 1e300, np.inf, np.nan])[:, None]
        x = np.concatenate([[-np.inf, np.inf, np.nan, 0.0, -0.0, 0.975, 1.0], np.linspace(-40.0, 40.0, 1001),
                            np.linspace(0.0, 1.0, 1001)])
        mine, theirs = getattr(stats, name), getattr(special, name)
        assert mine is theirs
        assert mine(df, x).tobytes() == theirs(df, x).tobytes()

    def test_scipy_objects_pass_the_signature_check(self):
        for expected in stats._SPECIAL_SIGNATURES:
            assert _compiled.signature(getattr(special, expected.partition("(")[0])) == expected
        for expected in stats._LAPACK_SIGNATURES:
            assert _compiled.signature(getattr(sla.lapack, expected.partition("(")[0].rpartition(" ")[2])) == expected

    def test_special_fallback_is_scipy_special(self, monkeypatch):
        monkeypatch.setattr(stats, "routines", lambda relpath, signatures: None)
        assert stats._special_functions() == tuple(
            getattr(special, name) for name in ("expit", "gammaln", "ndtr", "ndtri", "stdtr", "stdtrit"))

    @pytest.mark.parametrize("outcome, family", TestOneFactorization.MODELS)
    def test_lapack_fallback_gives_the_same_fit(self, monkeypatch, outcome, family):
        spec = ModelSpec(outcome, family, (("crowdfunded", "identity"), ("playing_time", "log1p")), ("year",))
        design = build_design(demo_table(n=200), spec)

        def fit_bytes():
            fit = fit_model(design)
            return fit.beta.tobytes(), fit.cov.tobytes(), fit.log_likelihood, fit.r_squared, fit.n_iter

        direct = fit_bytes()
        monkeypatch.setattr(stats, "routines", lambda relpath, signatures: None)
        assert fit_bytes() == direct


# ---------------------------------------------------------------------------
# marginal means

class TestMarginalMeans:
    def test_zero_coefficient_gives_identical_means(self):
        rng = np.random.default_rng(2)
        n = 50
        focal = rng.integers(0, 2, n).astype(float)
        X = np.column_stack([np.ones(n), focal])
        y = rng.normal(size=n)  # focal truly unrelated
        fit = fit_arrays("ols", X, y, columns=("const", "focal"))
        # force the focal coefficient to exactly zero
        fit.beta[1] = 0.0
        m0, m1 = marginal_means(fit, X, "focal")
        assert m0.estimate == pytest.approx(m1.estimate, abs=1e-12)

    def test_ols_difference_equals_beta(self):
        rng = np.random.default_rng(4)
        n = 60
        focal = rng.integers(0, 2, n).astype(float)
        X = np.column_stack([np.ones(n), focal])
        y = 1.0 + 2.5 * focal + rng.normal(size=n)
        fit = fit_arrays("ols", X, y, columns=("const", "focal"))
        m0, m1 = marginal_means(fit, X, "focal")
        assert m1.estimate - m0.estimate == pytest.approx(fit.coefficients["focal"], rel=1e-10)

    def test_logistic_matches_manual_averaging(self):
        rng = np.random.default_rng(6)
        n = 10
        x = rng.normal(size=n)
        focal = rng.integers(0, 2, n).astype(float)
        X = np.column_stack([np.ones(n), focal, x])
        y = rng.integers(0, 2, n).astype(float)
        fit = fit_arrays("logistic", X, y, columns=("const", "focal", "x"))
        m0, m1 = marginal_means(fit, X, "focal")
        for level, got in ((0.0, m0), (1.0, m1)):
            preds = []
            for row in X:
                eta = fit.beta[0] + fit.beta[1] * level + fit.beta[2] * row[2]
                preds.append(sigmoid(eta))
            assert got.estimate == pytest.approx(sum(preds) / n, rel=1e-10)
            assert got.ci_low <= got.estimate <= got.ci_high

    def test_unknown_focal(self):
        X = np.column_stack([np.ones(10), np.arange(10.0)])
        fit = fit_arrays("ols", X, np.arange(10.0) + 0.01 * np.random.default_rng(1).normal(size=10))
        with pytest.raises(UnknownTerm):
            marginal_means(fit, X, "nope")


# ---------------------------------------------------------------------------
# descriptives and formatting

def describe_one(values) -> dict:
    """describe's one row for a single column, keyed by DESCRIBE_COLUMNS."""
    (row,) = describe({"complexity": np.array(values)})
    return dict(zip(DESCRIBE_COLUMNS, row))


class TestDescribe:
    def test_constant_column(self):
        row = describe_one(np.full(5, 3.0))
        assert row["std"] == 0.0
        assert row["min"] == row["p25"] == row["p50"] == row["p75"] == row["max"] == 3.0

    def test_symmetric_four_values(self):
        row = describe_one([1.0, 2.0, 3.0, 4.0])
        assert row["mean"] == 2.5
        assert row["p50"] == 2.5
        assert row["count"] == 4

    def test_nan_dropped(self):
        row = describe_one([1.0, np.nan, 3.0])
        assert row["count"] == 2
        assert row["mean"] == 2.0

    def test_no_finite_value_has_only_its_count(self):
        assert describe({"complexity": np.array([np.nan, np.inf])}) == [("Avg. Complexity Rating", 0) + (None,) * 7]

    def test_rows_follow_the_joined_numeric_columns_without_year(self):
        numeric = [c for c in JOINED_COLUMNS if c not in JOINED_LABELS and c != "year"]
        assert list(LABELS) == numeric
        data = {column: np.arange(3.0) for column in reversed(JOINED_COLUMNS)}
        assert [row[0] for row in describe(data)] == [LABELS[c] for c in numeric]

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from((0.0, -0.0, 1.0, -1.0, 1e-300, -1e-300, 1e300, -1e300)),
                              st.floats(-1e300, 1e300)), min_size=1, max_size=200))
    def test_quartiles_equal_numpy_percentile_bit_for_bit(self, values):
        # ties, signed zeros and magnitudes from 1e-300 to 1e300 drawn often; describe's
        # std would overflow at 1e300, so its quartile routine is called directly
        values = np.array(values)
        before = values.copy()
        assert stats._quartiles(values).tobytes() == np.percentile(values, (25, 50, 75)).tobytes()
        # describe's mean and std read the values in their order afterwards
        assert values.tobytes() == before.tobytes()


class TestFormatting:
    def fitted_columns(self):
        rng = np.random.default_rng(12)
        n = 400
        data = {
            "crowdfunded": rng.integers(0, 2, n).astype(float),
            "team_size": rng.integers(1, 5, n).astype(float),
            "debut": rng.integers(0, 2, n).astype(float),
            "complexity": rng.uniform(1, 4, n),
            "playing_time": rng.uniform(10, 200, n),
            "min_players": rng.integers(1, 3, n).astype(float),
            "max_players": rng.integers(3, 7, n).astype(float),
            "min_age": rng.integers(6, 16, n).astype(float),
            "is_expansion": rng.integers(0, 2, n).astype(float),
            "is_adult": rng.integers(0, 2, n).astype(float),
            "year": np.array([2006 + i % 5 for i in range(n)], dtype=np.int64),
            "genre": np.array([("A", "B", "C")[i % 3] for i in range(n)], dtype=object),
        }
        data["distinctiveness"] = 5 + 0.3 * data["crowdfunded"] + rng.normal(size=n)
        data["novelty_binary"] = (rng.random(n) < 0.5).astype(float)
        data["resonance"] = rng.normal(size=n) * 0.1
        fits = []
        for title, spec in STANDARD_MODELS:
            design = build_design(data, spec)
            fits.append((title, fit_model(design)))
        return fits

    def test_stars(self):
        assert significance_stars(0.0005) == "***"
        assert significance_stars(0.005) == "**"
        assert significance_stars(0.04) == "*"
        assert significance_stars(0.2) == ""

    def test_table_contains_all_rows_and_markers(self):
        text = format_model_table(self.fitted_columns())
        for column, _ in STANDARD_MODELS[0][1].terms:
            assert TERM_LABELS[column] in text
        assert TERM_LABELS["const"] in text
        assert "Year FE" in text
        assert "Genre FE" in text
        assert "Yes" in text
        assert "R-Squared" in text
        assert "McFadden's Pseudo R-Squared" in text
        assert "0.235" in text and "0.412" in text and "0.014" in text
        assert "Observations" in text

    def test_reference_footer_lines_up_with_the_columns(self):
        lines = format_model_table(self.fitted_columns()).splitlines()
        footer = next(line for line in lines if line.startswith(REFERENCE_LABEL))
        observations = next(line for line in lines if line.startswith("Observations"))
        assert len(footer) == len(observations)

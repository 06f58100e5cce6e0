"""Statistical battery: rank tests, fixed-effects regressions, marginal means.

Everything here is deterministic and hand-rolled where the numbers carry the
analysis: Mann-Whitney U (midranks, tie-corrected normal approximation,
exact enumeration for tiny samples), OLS and logistic/Poisson maximum
likelihood with heteroskedasticity-robust sandwich covariance, average
adjusted predictions with delta-method intervals, and a fixed-format text
table for the three-model comparison. scipy supplies only decompositions
and distribution functions.
"""

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np
from scipy import linalg as sla
from scipy import stats as sstats
from scipy.special import expit, gammaln

from .corpus import RecordSet
from .errors import (
    EmptySample,
    NumericError,
    RankDeficient,
    SeparationError,
    UnknownTerm,
)
from .metrics import ScoreTable

FAMILY_OLS = "ols"
FAMILY_LOGISTIC = "logistic"
FAMILY_POISSON = "poisson"
FAMILIES = (FAMILY_OLS, FAMILY_LOGISTIC, FAMILY_POISSON)

TRANSFORMS = ("identity", "log1p", "zscore")
ROBUST_VARIANTS = ("hc0", "hc1")

MAX_IRLS_ITER = 100
SCORE_TOL = 1e-8
LL_REL_TOL = 1e-10
SEPARATION_BOUND = 30.0

# display labels for the standard model terms, in table order
TERM_LABELS = (
    ("crowdfunded", "Is Crowdfunded"),
    ("team_size", "Team Size"),
    ("debut", "Debut"),
    ("complexity", "Avg. Complexity Rating"),
    ("playing_time", "Playing Time (Log Mins)"),
    ("min_players", "Min. # of Players"),
    ("max_players", "Max. # of Players"),
    ("min_age", "Min. Age"),
    ("is_expansion", "Is Expansion"),
    ("is_adult", "Is Adult/Mature"),
    ("const", "Constant"),
)

# two-group comparison battery of corpus features
BATTERY_FEATURES = (
    ("distinctiveness", "Distinctiveness"),
    ("novelty_count", "Novelty (Count)"),
    ("novelty_binary", "Novelty (Binary)"),
    ("resonance", "Resonance"),
    ("is_expansion", "Is Expansion"),
    ("complexity", "Avg. Complexity Rating"),
    ("is_adult", "Is Adult/Mature"),
    ("team_size", "Team Size"),
    ("debut", "Debut"),
)

DESCRIBE_VARIABLES = (
    ("distinctiveness", "Distinctiveness"),
    ("novelty_count", "Novelty (Count)"),
    ("novelty_binary", "Novelty (Binary)"),
    ("resonance", "Resonance"),
    ("crowdfunded", "Is Crowdfunded"),
    ("team_size", "Team Size"),
    ("debut", "Debut"),
    ("complexity", "Avg. Complexity Rating"),
    ("playing_time", "Playing Time (Mins)"),
    ("min_players", "Min. # of Players"),
    ("max_players", "Max. # of Players"),
    ("min_age", "Min. Age"),
    ("is_expansion", "Is Expansion"),
    ("is_adult", "Is Adult/Mature"),
    ("num_ratings", "Num. of Ratings"),
)

# published estimates for the crowdfunded coefficient on the 2017 BGG corpus
# (2-year windows); shown next to user results for orientation, never asserted
REFERENCE_CROWDFUNDED = {
    "Distinctiveness": 0.235,
    "Novelty": 0.412,
    "Resonance": 0.014,
}


def significance_stars(p: float) -> str:
    if p < 0.001:
        return "***"
    if p < 0.01:
        return "**"
    if p < 0.05:
        return "*"
    return ""


# ---------------------------------------------------------------------------
# data table: records joined with one span's scores

def join_scores(records: RecordSet, scores: ScoreTable, span: int) -> Dict[str, np.ndarray]:
    """Column table of every record that has a score row for the given span.

    Resonance is NaN where absent; model building drops incomplete cases per
    outcome.
    """
    rows = [r for r in scores.for_span(span) if r.record_id in records.by_id]
    if not rows:
        raise EmptySample(f"no scored records for span {span}")
    recs = [records.by_id[r.record_id] for r in rows]
    out: Dict[str, np.ndarray] = {
        "id": np.array([r.id for r in recs], dtype=object),
        "year": np.array([r.year for r in recs], dtype=np.int64),
        "genre": np.array([r.genre for r in recs], dtype=object),
        "crowdfunded": np.array([float(r.crowdfunded) for r in recs]),
        "team_size": np.array([float(r.team_size) for r in recs]),
        "debut": np.array([float(r.debut) for r in recs]),
        "complexity": np.array([r.complexity for r in recs]),
        "playing_time": np.array([r.playing_time for r in recs]),
        "min_players": np.array([float(r.min_players) for r in recs]),
        "max_players": np.array([float(r.max_players) for r in recs]),
        "min_age": np.array([float(r.min_age) for r in recs]),
        "is_expansion": np.array([float(r.is_expansion) for r in recs]),
        "is_adult": np.array([float(r.is_adult) for r in recs]),
        "num_ratings": np.array([float(r.num_ratings) for r in recs]),
        "distinctiveness": np.array([s.distinctiveness for s in rows]),
        "novelty_count": np.array([float(s.novelty_count) for s in rows]),
        "novelty_binary": np.array([float(s.novelty_binary) for s in rows]),
        "resonance": np.array([math.nan if s.resonance is None else s.resonance for s in rows]),
    }
    return out


# ---------------------------------------------------------------------------
# Mann-Whitney U and AUC

@dataclass(frozen=True)
class GroupTestResult:
    u_statistic: float
    p_value: float
    auc: float
    group_means: Tuple[float, float]
    n: Tuple[int, int]
    exact: bool = False

    def __post_init__(self):
        assert 0.0 <= self.p_value <= 1.0
        assert abs(self.auc - self.u_statistic / (self.n[0] * self.n[1])) < 1e-9


def _u_statistic(pooled: np.ndarray, n1: int) -> float:
    ranks = sstats.rankdata(pooled, method="average")  # midranks for ties
    r1 = float(ranks[:n1].sum())
    return r1 - n1 * (n1 + 1) / 2.0


def _exact_two_sided_p(pooled: np.ndarray, n1: int, u_obs: float) -> float:
    """Enumerate all group assignments of the pooled values."""
    n = len(pooled)
    mu = n1 * (n - n1) / 2.0
    dev = abs(u_obs - mu)
    hits = total = 0
    for idx in itertools.combinations(range(n), n1):
        mask = np.zeros(n, dtype=bool)
        mask[list(idx)] = True
        u = _u_statistic(np.concatenate([pooled[mask], pooled[~mask]]), n1)
        total += 1
        if abs(u - mu) >= dev - 1e-9:
            hits += 1
    return hits / total


def mann_whitney_u(x, y, exact_limit: int = 12) -> GroupTestResult:
    """Two-sided Mann-Whitney U for sample x against sample y.

    U counts x-over-y wins plus half-ties, so auc = U/(n1*n2) is the
    probability that a random x outranks a random y. Small pooled samples
    (n1+n2 <= exact_limit) are tested by exhaustive enumeration; otherwise a
    tie-corrected normal approximation with 0.5 continuity correction.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) == 0 or len(y) == 0:
        raise EmptySample("both samples must be non-empty")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise NumericError("non-finite sample values")
    n1, n2 = len(x), len(y)
    n = n1 + n2
    pooled = np.concatenate([x, y])
    u = _u_statistic(pooled, n1)
    auc = u / (n1 * n2)
    means = (float(x.mean()), float(y.mean()))

    _, tie_counts = np.unique(pooled, return_counts=True)
    if len(tie_counts) == 1:
        # every value identical in both samples
        return GroupTestResult(u, 1.0, 0.5, means, (n1, n2))

    if n <= exact_limit:
        p = _exact_two_sided_p(pooled, n1, u)
        return GroupTestResult(u, p, auc, means, (n1, n2), exact=True)

    mu = n1 * n2 / 2.0
    tie_term = float(((tie_counts**3) - tie_counts).sum()) / (n * (n - 1))
    sigma2 = (n1 * n2 / 12.0) * ((n + 1) - tie_term)
    if sigma2 <= 0:
        return GroupTestResult(u, 1.0, auc, means, (n1, n2))
    z = max(abs(u - mu) - 0.5, 0.0) / math.sqrt(sigma2)
    p = min(1.0, 2.0 * sstats.norm.sf(z))
    return GroupTestResult(u, p, auc, means, (n1, n2))


def auc_effect(x, y) -> float:
    """P(X > Y) + 0.5 P(X = Y) for random members of each sample."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) == 0 or len(y) == 0:
        raise EmptySample("both samples must be non-empty")
    return _u_statistic(np.concatenate([x, y]), len(x)) / (len(x) * len(y))


def group_test_battery(
    data: Mapping[str, np.ndarray],
    group_column: str = "crowdfunded",
    features: Sequence[Tuple[str, str]] = BATTERY_FEATURES,
) -> List[Tuple[str, GroupTestResult]]:
    """Mann-Whitney comparisons of each feature between the two groups.

    Group 1 is group_column == 1 (crowdfunded), so auc > 0.5 means that group
    ranks higher. NaNs (absent resonance) are dropped per feature.
    """
    mask1 = data[group_column] == 1
    out = []
    for column, label in features:
        values = data[column]
        ok = np.isfinite(values)
        x = values[ok & mask1]
        y = values[ok & ~mask1]
        out.append((label, mann_whitney_u(x, y)))
    return out


# ---------------------------------------------------------------------------
# model specification and design matrices

@dataclass(frozen=True)
class ModelSpec:
    outcome: str
    family: str
    terms: Tuple[Tuple[str, str], ...]
    fixed_effects: Tuple[str, ...] = ()
    robust_se: str = "hc1"

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.robust_se not in ROBUST_VARIANTS:
            raise ValueError(f"unknown robust_se {self.robust_se!r}")
        seen = set()
        for column, transform in self.terms:
            if transform not in TRANSFORMS:
                raise ValueError(f"unknown transform {transform!r} for {column!r}")
            if column == self.outcome:
                raise ValueError(f"outcome {self.outcome!r} cannot be a term")
            if column in seen:
                raise ValueError(f"duplicate term {column!r}")
            seen.add(column)

    @classmethod
    def from_dict(cls, payload: Mapping) -> "ModelSpec":
        terms = []
        for entry in payload.get("terms", ()):
            if isinstance(entry, str):
                terms.append((entry, "identity"))
            else:
                column, transform = entry
                terms.append((str(column), str(transform)))
        return cls(
            outcome=str(payload["outcome"]),
            family=str(payload["family"]),
            terms=tuple(terms),
            fixed_effects=tuple(payload.get("fixed_effects", ())),
            robust_se=str(payload.get("robust_se", "hc1")),
        )

    def to_dict(self) -> dict:
        return {
            "outcome": self.outcome,
            "family": self.family,
            "terms": [[c, t] for c, t in self.terms],
            "fixed_effects": list(self.fixed_effects),
            "robust_se": self.robust_se,
        }


# the three headline models plus the count-novelty check
STANDARD_TERMS = tuple(
    (c, "log1p" if c == "playing_time" else "identity")
    for c, _ in TERM_LABELS
    if c != "const"
)
STANDARD_FE = ("year", "genre")

STANDARD_MODELS = (
    ("Distinctiveness", ModelSpec("distinctiveness", FAMILY_OLS, STANDARD_TERMS, STANDARD_FE)),
    ("Novelty", ModelSpec("novelty_binary", FAMILY_LOGISTIC, STANDARD_TERMS, STANDARD_FE)),
    ("Resonance", ModelSpec("resonance", FAMILY_OLS, STANDARD_TERMS, STANDARD_FE)),
)
COUNT_NOVELTY_MODEL = ("Novelty (Count)", ModelSpec("novelty_count", FAMILY_POISSON, STANDARD_TERMS, STANDARD_FE))


@dataclass
class Design:
    X: np.ndarray
    y: np.ndarray
    columns: Tuple[str, ...]
    spec: ModelSpec
    rows_used: np.ndarray


def _apply_transform(values: np.ndarray, transform: str, column: str) -> np.ndarray:
    if transform == "identity":
        return values
    if transform == "log1p":
        if (values < 0).any():
            raise NumericError(f"log1p term {column!r} has negative values")
        return np.log1p(values)
    sd = values.std(ddof=1) if len(values) > 1 else 0.0
    if sd == 0:
        raise NumericError(f"zscore term {column!r} is constant")
    return (values - values.mean()) / sd


def build_design(
    data: Mapping[str, np.ndarray],
    spec: ModelSpec,
) -> Design:
    """Complete-case design matrix with intercept, transformed terms, and
    dummy-coded fixed effects (reference level = smallest).

    Its rank is not checked here: fit_model factorizes X once and raises
    RankDeficient there, naming the dropped columns.
    """
    for column, _ in spec.terms:
        if column not in data:
            raise UnknownTerm(f"term column {column!r} not in data")
    if spec.outcome not in data:
        raise UnknownTerm(f"outcome column {spec.outcome!r} not in data")

    n = len(data[spec.outcome])
    keep = np.ones(n, dtype=bool)
    keep &= np.isfinite(np.asarray(data[spec.outcome], dtype=float))
    for column, _ in spec.terms:
        keep &= np.isfinite(np.asarray(data[column], dtype=float))
    rows = np.flatnonzero(keep)
    if len(rows) == 0:
        raise EmptySample(f"no complete cases for outcome {spec.outcome!r}")

    y = np.asarray(data[spec.outcome], dtype=float)[rows]
    cols = [np.ones(len(rows))]
    names = ["const"]
    for column, transform in spec.terms:
        values = np.asarray(data[column], dtype=float)[rows]
        cols.append(_apply_transform(values, transform, column))
        names.append(column)
    for fe in spec.fixed_effects:
        if fe not in data:
            raise UnknownTerm(f"fixed-effect column {fe!r} not in data")
        values = data[fe][rows]
        levels = sorted(set(values.tolist()))
        for level in levels[1:]:
            cols.append((values == level).astype(float))
            names.append(f"{fe}={level}")

    X = np.column_stack(cols)
    if not np.isfinite(X).all():
        raise NumericError("design matrix has non-finite entries")
    return Design(
        X=X,
        y=y,
        columns=tuple(names),
        spec=spec,
        rows_used=rows,
    )


# ---------------------------------------------------------------------------
# fitting

@dataclass
class FitResult:
    """One fitted model: beta and its robust sandwich covariance cov, in column order.

    The per-term maps (coefficients, robust_se, z_or_t, p_values) are views
    of beta, cov, family and df_resid. converged is always True: a GLM fit
    that reaches MAX_IRLS_ITER raises NumericError instead of returning.
    """

    family: str
    columns: Tuple[str, ...]
    beta: np.ndarray
    cov: np.ndarray
    r_squared: float
    n_obs: int
    log_likelihood: float
    robust: str
    df_resid: int
    n_iter: int = 0
    max_score: float = 0.0
    converged = True

    @cached_property
    def coefficients(self) -> Dict[str, float]:
        return dict(zip(self.columns, self.beta.tolist()))

    @cached_property
    def robust_se(self) -> Dict[str, float]:
        return dict(zip(self.columns, np.sqrt(np.clip(np.diag(self.cov), 0.0, None)).tolist()))

    @cached_property
    def z_or_t(self) -> Dict[str, float]:
        """beta / se per term; 0 where se is 0."""
        return {name: b / se if se > 0 else 0.0
                for (name, b), se in zip(self.coefficients.items(), self.robust_se.values())}

    @cached_property
    def p_values(self) -> Dict[str, float]:
        """Two-sided p per term: t on df_resid for OLS, normal for the GLMs; 1 where se is 0."""
        z = np.abs(list(self.z_or_t.values()))
        tail = sstats.t.sf(z, self.df_resid) if self.family == FAMILY_OLS else sstats.norm.sf(z)
        return {name: 2.0 * float(t) if se > 0 else 1.0
                for name, t, se in zip(self.columns, tail, self.robust_se.values())}


def _factorize(X, y, columns):
    """Checked float X and y, column names (x0, x1, ... by default) and the
    column-pivoted QR (q, r, perm) of X, so that X[:, perm] = q @ r.

    Raises RankDeficient naming the columns pivoting leaves past the
    numerical rank.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or len(y) != X.shape[0]:
        raise NumericError("X must be 2-D with one row per outcome value")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise NumericError("non-finite values in design or outcome")
    n, k = X.shape
    if n <= k:
        raise NumericError(f"need more rows ({n}) than columns ({k})")
    columns = tuple(columns) if columns else tuple(f"x{j}" for j in range(k))
    q, r, perm = sla.qr(X, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    tol = max(X.shape) * np.finfo(float).eps * (diag[0] if len(diag) else 0.0)
    rank = int((diag > tol).sum())
    if rank < k:
        raise RankDeficient(tuple(columns[j] for j in sorted(perm[rank:])))
    return X, y, columns, (q, r, perm)


def _sandwich(X: np.ndarray, resid: np.ndarray, bread: np.ndarray, robust: str) -> np.ndarray:
    meat = (X * (resid**2)[:, None]).T @ X
    cov = bread @ meat @ bread
    if robust == "hc1":
        n, k = X.shape
        cov = cov * (n / (n - k))
    return cov


def fit_ols(X: np.ndarray, y: np.ndarray, robust: str = "hc1", columns: Optional[Sequence[str]] = None) -> FitResult:
    """Least squares with HC0/HC1 sandwich errors and classical R².

    One column-pivoted QR of X checks the rank and gives both beta and the
    (X'X)^{-1} bread. Inference uses the t distribution on n - k residual
    degrees of freedom.
    """
    X, y, columns, (q, r, perm) = _factorize(X, y, columns)
    n, k = X.shape
    beta = np.empty(k)
    beta[perm] = sla.solve_triangular(r, q.T @ y)
    rinv = sla.solve_triangular(r, np.eye(k))
    bread = np.empty((k, k))
    bread[np.ix_(perm, perm)] = rinv @ rinv.T  # (X'X)^{-1}
    resid = y - X @ beta
    cov = _sandwich(X, resid, bread, robust)

    sse = float(resid @ resid)
    sst = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - sse / sst if sst > 0 else 0.0
    sigma2 = sse / n
    ll = -0.5 * n * (math.log(2 * math.pi * sigma2) + 1.0) if sigma2 > 0 else math.inf
    return FitResult(
        family=FAMILY_OLS,
        columns=columns,
        beta=beta,
        cov=cov,
        r_squared=r2,
        n_obs=n,
        log_likelihood=ll,
        robust=robust,
        df_resid=n - k,
    )


def _glm_ll(family: str, eta: np.ndarray, y: np.ndarray) -> float:
    if family == FAMILY_LOGISTIC:
        return float((y * eta - np.logaddexp(0.0, eta)).sum())
    mu = np.exp(eta)
    return float((y * eta - mu - gammaln(y + 1.0)).sum())


def _glm_mu_w(family: str, eta: np.ndarray):
    if family == FAMILY_LOGISTIC:
        mu = expit(eta)
        return mu, mu * (1.0 - mu)
    mu = np.exp(eta)
    return mu, mu


def _null_ll(family: str, y: np.ndarray) -> float:
    if family == FAMILY_LOGISTIC:
        p = y.mean()
        return float(len(y) * (p * math.log(p) + (1 - p) * math.log(1 - p)))
    lam = y.mean()
    return float((y * math.log(lam) - lam - gammaln(y + 1.0)).sum())


def _fit_glm(family: str, X: np.ndarray, y: np.ndarray, robust: str, columns) -> FitResult:
    X, y, columns, _ = _factorize(X, y, columns)
    n, k = X.shape
    if family == FAMILY_LOGISTIC:
        if not np.isin(y, (0.0, 1.0)).all():
            raise NumericError("logistic outcome must be 0/1")
        if y.min() == y.max():
            raise SeparationError("outcome is constant")
    else:
        if (y < 0).any() or not np.equal(np.mod(y, 1), 0).all():
            raise NumericError("poisson outcome must be non-negative integers")
        if y.max() == 0:
            raise SeparationError("outcome is all zeros")

    beta = np.zeros(k)
    ll = _glm_ll(family, X @ beta, y)
    for it in range(1, MAX_IRLS_ITER + 1):
        mu, w = _glm_mu_w(family, X @ beta)
        score = X.T @ (y - mu)
        max_score = float(np.abs(score).max())
        if max_score < SCORE_TOL:
            break
        a = (X * np.maximum(w, 1e-12)[:, None]).T @ X
        try:
            step = np.linalg.solve(a, score)
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"singular weighted information matrix: {exc}")
        beta = beta + step
        if np.abs(beta).max() > SEPARATION_BOUND:
            raise SeparationError(
                f"coefficients diverged beyond {SEPARATION_BOUND}; data likely separable"
            )
        new_ll = _glm_ll(family, X @ beta, y)
        if abs(new_ll - ll) <= LL_REL_TOL * (abs(ll) + 1e-12):
            break
        ll = new_ll
    else:
        raise NumericError(
            f"{family} fit did not converge in {MAX_IRLS_ITER} iterations (max |score| {max_score:.3g})"
        )

    # one evaluation at the final beta gives the reported score, the bread and the log-likelihood
    eta = X @ beta
    mu, w = _glm_mu_w(family, eta)
    max_score = float(np.abs(X.T @ (y - mu)).max())
    bread = np.linalg.inv((X * np.maximum(w, 1e-12)[:, None]).T @ X)
    cov = _sandwich(X, y - mu, bread, robust)
    ll = _glm_ll(family, eta, y)
    ll0 = _null_ll(family, y)
    pseudo_r2 = 1.0 - ll / ll0 if ll0 != 0 else 0.0
    return FitResult(
        family=family,
        columns=columns,
        beta=beta,
        cov=cov,
        r_squared=pseudo_r2,
        n_obs=n,
        log_likelihood=ll,
        robust=robust,
        df_resid=n - k,
        n_iter=it,
        max_score=max_score,
    )


def fit_logistic(X, y, robust: str = "hc1", columns=None) -> FitResult:
    """Logistic MLE by Newton/IRLS with sandwich errors and McFadden R²."""
    return _fit_glm(FAMILY_LOGISTIC, X, y, robust, columns)


def fit_poisson(X, y, robust: str = "hc1", columns=None) -> FitResult:
    """Log-link Poisson MLE; same iteration and error contract as logistic."""
    return _fit_glm(FAMILY_POISSON, X, y, robust, columns)


def fit_model(design: Design) -> FitResult:
    if design.spec.family == FAMILY_OLS:
        return fit_ols(design.X, design.y, design.spec.robust_se, design.columns)
    if design.spec.family == FAMILY_LOGISTIC:
        return fit_logistic(design.X, design.y, design.spec.robust_se, design.columns)
    return fit_poisson(design.X, design.y, design.spec.robust_se, design.columns)


# ---------------------------------------------------------------------------
# marginal means

@dataclass(frozen=True)
class MarginalMean:
    level: float
    estimate: float
    se: float
    ci_low: float
    ci_high: float


def marginal_means(
    fit: FitResult,
    X: np.ndarray,
    focal: str,
    levels: Sequence[float] = (0.0, 1.0),
) -> Tuple[MarginalMean, ...]:
    """Average adjusted prediction at each focal level, with delta-method
    95% intervals from the robust covariance.

    Every observation's focal column is forced to the level and predictions
    are averaged over the observed covariate distribution.
    """
    if focal not in fit.columns:
        raise UnknownTerm(f"{focal!r} is not a model column")
    X = np.asarray(X, dtype=float)
    j = fit.columns.index(focal)
    crit = (
        sstats.t.ppf(0.975, fit.df_resid) if fit.family == FAMILY_OLS else sstats.norm.ppf(0.975)
    )
    out = []
    for level in levels:
        Xa = X.copy()
        Xa[:, j] = level
        eta = Xa @ fit.beta
        if fit.family == FAMILY_OLS:
            pred = eta
            dmu = np.ones(len(eta))
        elif fit.family == FAMILY_LOGISTIC:
            pred = expit(eta)
            dmu = pred * (1.0 - pred)
        else:
            pred = np.exp(eta)
            dmu = pred
        m = float(pred.mean())
        grad = (Xa * dmu[:, None]).mean(axis=0)
        var = float(grad @ fit.cov @ grad)
        se = math.sqrt(max(var, 0.0))
        lo, hi = m - crit * se, m + crit * se
        out.append(MarginalMean(float(level), m, se, lo, hi))
    return tuple(out)


# ---------------------------------------------------------------------------
# descriptives

def describe(
    data: Mapping[str, np.ndarray],
    variables: Sequence[Tuple[str, str]] = DESCRIBE_VARIABLES,
) -> List[dict]:
    """Count/mean/std/min/quartiles/max per variable; NaNs dropped per
    variable, std on the n-1 denominator, percentiles linearly interpolated."""
    rows = []
    for column, label in variables:
        if column not in data:
            continue
        values = np.asarray(data[column], dtype=float)
        values = values[np.isfinite(values)]
        n = len(values)
        if n == 0:
            rows.append({"variable": label, "count": 0})
            continue
        q25, q50, q75 = np.percentile(values, (25, 50, 75))
        rows.append(
            {
                "variable": label,
                "count": n,
                "mean": float(values.mean()),
                "std": float(values.std(ddof=1)) if n > 1 else 0.0,
                "min": float(values.min()),
                "p25": float(q25),
                "p50": float(q50),
                "p75": float(q75),
                "max": float(values.max()),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# output formatting

def fit_rows(fit: FitResult) -> List[dict]:
    """Per-term rows (term, coef, se, z, p) for CSV emission."""
    return [
        {
            "term": name,
            "coef": fit.coefficients[name],
            "se": fit.robust_se[name],
            "z": fit.z_or_t[name],
            "p": fit.p_values[name],
        }
        for name in fit.columns
    ]


def _fmt_cell(fit: Optional[FitResult], term: str) -> Tuple[str, str]:
    if fit is None or term not in fit.coefficients:
        return "", ""
    coef = fit.coefficients[term]
    stars = significance_stars(fit.p_values[term])
    return f"{coef:.3f}{stars}", f"({fit.robust_se[term]:.3f})"


def format_model_table(
    fits: Sequence[Tuple[str, Optional[FitResult]]],
    reference: Optional[Mapping[str, float]] = None,
    term_labels: Sequence[Tuple[str, str]] = TERM_LABELS,
) -> str:
    """Fixed-width text table in the three-column journal layout.

    One column per (title, fit); coefficient rows in term_labels order with
    significance stars, standard errors parenthesized underneath, fixed
    effects compressed to Yes markers, R² labeled by family, and any
    supplied reference values printed as a comparison footer (display only).
    """
    titles = [t for t, _ in fits]
    fitted = [f for _, f in fits]
    label_w = max(len("McFadden's Pseudo R-Squared"), max(len(lbl) for _, lbl in term_labels)) + 2
    col_w = max(16, max(len(t) for t in titles) + 2)

    def row(label, cells):
        return label.ljust(label_w) + "".join(c.center(col_w) for c in cells)

    lines = []
    lines.append(row("", titles))
    fam_names = {FAMILY_OLS: "OLS", FAMILY_LOGISTIC: "Logistic", FAMILY_POISSON: "Poisson"}
    lines.append(row("", [fam_names.get(f.family, "") if f else "" for f in fitted]))
    lines.append("-" * (label_w + col_w * len(fits)))
    for term, label in term_labels:
        cells = [_fmt_cell(f, term) for f in fitted]
        if all(c == ("", "") for c in cells):
            continue
        lines.append(row(label, [c[0] for c in cells]))
        lines.append(row("", [c[1] for c in cells]))
    lines.append("-" * (label_w + col_w * len(fits)))

    fe_columns = {}
    for _, fit in fits:
        if fit is None:
            continue
        for name in fit.columns:
            if "=" in name:
                fe_columns.setdefault(name.split("=", 1)[0], set())
    for fe in sorted(fe_columns):
        label = f"{fe.capitalize()} FE"
        cells = []
        for f in fitted:
            has = f is not None and any(c.startswith(f"{fe}=") for c in f.columns)
            cells.append("Yes" if has else "")
        lines.append(row(label, cells))

    ols_cells = [f"{f.r_squared:.3f}" if f and f.family == FAMILY_OLS else "" for f in fitted]
    if any(ols_cells):
        lines.append(row("R-Squared", ols_cells))
    glm_cells = [f"{f.r_squared:.3f}" if f and f.family != FAMILY_OLS else "" for f in fitted]
    if any(glm_cells):
        lines.append(row("McFadden's Pseudo R-Squared", glm_cells))
    lines.append(row("Observations", [f"{f.n_obs:,}" if f else "" for f in fitted]))
    lines.append("-" * (label_w + col_w * len(fits)))
    lines.append("Note: *p<0.05; **p<0.01; ***p<0.001. Robust standard errors in parentheses.")
    if reference:
        ref_cells = [f"{reference[t]:.3f}" if t in reference else "" for t in titles]
        if any(ref_cells):
            lines.append(row("Reference 'Is Crowdfunded' (BGG 2017)", ref_cells))
            lines.append("Reference values are published comparison points only; they are never test targets.")
    return "\n".join(lines) + "\n"

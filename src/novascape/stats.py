"""Statistical battery: rank tests, fixed-effects regressions, marginal means.

Everything here is deterministic and hand-rolled where the numbers carry the
analysis: Mann-Whitney U (midranks, tie-corrected normal approximation,
exact enumeration for tiny samples), one fitter (fit_arrays) for OLS and
logistic and Poisson maximum likelihood with heteroskedasticity-robust
sandwich covariance, average adjusted predictions with delta-method
intervals, and a fixed-format text table of the fitted models, a row per
term. Descriptives, group tests and model rows take their labels from LABELS.

scipy supplies compiled routines only, loaded by `_compiled.routines` without
importing scipy.linalg or scipy.special: LAPACK's dgeqp3, dorgqr and dtrtrs,
called as scipy 1.17's linalg.qr and solve_triangular call them, so every
factor and solution is bit-equal to theirs, and the very expit, gammaln, ndtr,
ndtri, stdtr and stdtrit ufuncs scipy.special exports; normal and Student t
tails and quantiles come straight from those, so none of scipy's distribution
classes is loaded. A scipy whose routines have other signatures takes
scipy.linalg or scipy.special instead, to the same bytes.
"""

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ._compiled import routines
from .corpus import CONTROLS, RecordSet
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
MAX_STEP_HALVINGS = 30
SCORE_TOL = 1e-8
LL_REL_TOL = 1e-10
SEPARATION_BOUND = 30.0

# display labels of the joined numeric columns but year, in descriptives order
LABELS = {
    "distinctiveness": "Distinctiveness",
    "novelty_count": "Novelty (Count)",
    "novelty_binary": "Novelty (Binary)",
    "resonance": "Resonance",
    "crowdfunded": "Is Crowdfunded",
    "team_size": "Team Size",
    "debut": "Debut",
    "complexity": "Avg. Complexity Rating",
    "playing_time": "Playing Time (Mins)",
    "min_players": "Min. # of Players",
    "max_players": "Max. # of Players",
    "min_age": "Min. Age",
    "is_expansion": "Is Expansion",
    "is_adult": "Is Adult/Mature",
    "num_ratings": "Num. of Ratings",
}
# model table labels: playing time enters the standard models as log1p
TERM_LABELS = {**LABELS, "playing_time": "Playing Time (Log Mins)", "const": "Constant"}

# two-group comparison battery of corpus features
BATTERY_FEATURES = ("distinctiveness", "novelty_count", "novelty_binary", "resonance", "is_expansion",
                    "complexity", "is_adult", "team_size", "debut")

DESCRIBE_COLUMNS = ("variable", "count", "mean", "std", "min", "p25", "p50", "p75", "max")

# the LAPACK routines as _pivoted_qr and _solve_upper call them
_LAPACK_SIGNATURES = (
    "qr,jpvt,tau,work,info = dgeqp3(a,[lwork,overwrite_a])",
    "q,work,info = dorgqr(a,tau,[lwork,overwrite_a])",
    "x,info = dtrtrs(a,b,[lower,trans,unitdiag,lda,overwrite_b])",
)
# the special-function ufuncs, with their inputs as numpy names them
_SPECIAL_SIGNATURES = ("expit(x)", "gammaln(x)", "ndtr(x)", "ndtri(x)", "stdtr(x1, x2)", "stdtrit(x1, x2)")


def _special_functions() -> tuple:
    """The _SPECIAL_SIGNATURES ufuncs from scipy's special/_ufuncs extension, the
    very objects scipy.special exports, or from scipy.special when they are not
    all there as ufuncs of those names and inputs."""
    special = routines("special/_ufuncs", _SPECIAL_SIGNATURES)
    if special is None:
        import scipy.special as special
    return tuple(getattr(special, signature.partition("(")[0]) for signature in _SPECIAL_SIGNATURES)


expit, gammaln, ndtr, ndtri, stdtr, stdtrit = _special_functions()

# published estimates for the crowdfunded coefficient on the 2017 BGG corpus
# (2-year windows); shown next to user results for orientation, never asserted
REFERENCE_CROWDFUNDED = {
    "Distinctiveness": 0.235,
    "Novelty": 0.412,
    "Resonance": 0.014,
}
REFERENCE_LABEL = "BGG 2017 'Is Crowdfunded'"


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

# the columns join_scores builds, in order: numeric controls as floats and
# genre as labels (parent_id is no model term); models take outcomes and terms
# from the numeric columns and fixed effects from any
JOINED_SCORES = ("distinctiveness", "novelty_count", "novelty_binary", "resonance")
JOINED_COLUMNS = ("id", "year", *JOINED_SCORES) + tuple(
    name for name, kind in CONTROLS if kind in (bool, int, float, str)
)
JOINED_LABELS = ("id",) + tuple(name for name, kind in CONTROLS if kind is str)


def join_scores(records: RecordSet, scores: ScoreTable, span: int) -> Dict[str, np.ndarray]:
    """Column table (JOINED_COLUMNS) of every record that has a score row for the given span.

    Resonance is NaN where absent; model building drops incomplete cases per
    outcome.
    """
    in_span = np.flatnonzero(scores.spans == span)
    at = np.fromiter(map(records.row_of.get, scores.ids[in_span].tolist(), itertools.repeat(-1)),
                     np.int64, len(in_span))
    take, at = in_span[at >= 0], at[at >= 0]
    if not len(take):
        raise EmptySample(f"no scored records for span {span}")
    out: Dict[str, np.ndarray] = {"id": scores.ids[take], "year": records.years[at]}
    for name in JOINED_SCORES:
        out[name] = getattr(scores, name)[take].astype(float)
    for name, kind in CONTROLS:
        if name in JOINED_COLUMNS:
            column = records.columns[name][at]
            out[name] = column if kind is str else column.astype(float)
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


def _samples(x, y) -> Tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) == 0 or len(y) == 0:
        raise EmptySample("both samples must be non-empty")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise NumericError("non-finite sample values")
    return x, y


def _midranks(pooled: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Average ranks of the pooled values (ties share the mean of their
    positions) and the size of each tie group, from one sort."""
    _, inverse, counts = np.unique(pooled, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2.0)[inverse], counts


def _exact_two_sided_p(ranks: np.ndarray, n1: int, u_obs: float) -> float:
    """Enumerate all group assignments of the pooled ranks."""
    n = len(ranks)
    mu = n1 * (n - n1) / 2.0
    dev = abs(u_obs - mu)
    splits = np.array(list(itertools.combinations(range(n), n1)))
    u = ranks[splits].sum(axis=1) - n1 * (n1 + 1) / 2.0
    return int(np.count_nonzero(np.abs(u - mu) >= dev - 1e-9)) / len(u)


def mann_whitney_u(x, y, exact_limit: int = 12) -> GroupTestResult:
    """Two-sided Mann-Whitney U for sample x against sample y.

    U counts x-over-y wins plus half-ties, so auc = U/(n1*n2) is the
    probability that a random x outranks a random y. Small pooled samples
    (n1+n2 <= exact_limit) are tested by exhaustive enumeration; otherwise a
    tie-corrected normal approximation with 0.5 continuity correction.
    """
    x, y = _samples(x, y)
    n1, n2 = len(x), len(y)
    n = n1 + n2
    ranks, tie_counts = _midranks(np.concatenate([x, y]))
    u = float(ranks[:n1].sum()) - n1 * (n1 + 1) / 2.0
    auc = u / (n1 * n2)
    means = (float(x.mean()), float(y.mean()))

    if len(tie_counts) == 1:
        # every value identical in both samples
        return GroupTestResult(u, 1.0, 0.5, means, (n1, n2))

    if n <= exact_limit:
        p = _exact_two_sided_p(ranks, n1, u)
        return GroupTestResult(u, p, auc, means, (n1, n2), exact=True)

    mu = n1 * n2 / 2.0
    tie_term = float(((tie_counts**3) - tie_counts).sum()) / (n * (n - 1))
    sigma2 = (n1 * n2 / 12.0) * ((n + 1) - tie_term)
    z = max(abs(u - mu) - 0.5, 0.0) / math.sqrt(sigma2)
    p = min(1.0, 2.0 * ndtr(-z))
    return GroupTestResult(u, p, auc, means, (n1, n2))


def group_test_battery(data: Mapping[str, np.ndarray]) -> List[Tuple[str, Optional[GroupTestResult]]]:
    """Mann-Whitney comparisons of each BATTERY_FEATURES column between the two groups.

    Group 1 is crowdfunded == 1, so auc > 0.5 means that group ranks higher.
    NaNs (absent resonance) are dropped per feature; a feature left with an
    empty group gets None instead of a result.
    """
    mask1 = data["crowdfunded"] == 1
    out = []
    for column in BATTERY_FEATURES:
        values = data[column]
        ok = np.isfinite(values)
        x = values[ok & mask1]
        y = values[ok & ~mask1]
        out.append((LABELS[column], mann_whitney_u(x, y) if len(x) and len(y) else None))
    return out


# ---------------------------------------------------------------------------
# model specification and design matrices

@dataclass(frozen=True)
class ModelSpec:
    """One regression: outcome ~ terms + fixed effects, with robust standard errors.

    A term is a (column, transform) pair; a bare column name means
    (name, "identity").
    """

    outcome: str
    family: str
    terms: Tuple[Union[str, Tuple[str, str]], ...]
    fixed_effects: Tuple[str, ...] = ()
    robust_se: str = "hc1"

    def __post_init__(self):
        terms = tuple((t, "identity") if isinstance(t, str) else tuple(t) for t in self.terms)
        object.__setattr__(self, "terms", terms)
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


# the three headline models plus the count-novelty check
STANDARD_TERMS = tuple((c, "log1p" if c == "playing_time" else "identity") for c in (
    "crowdfunded", "team_size", "debut", "complexity", "playing_time", "min_players", "max_players", "min_age",
    "is_expansion", "is_adult"))
STANDARD_FE = ("year", "genre")

STANDARD_MODELS = (
    ("Distinctiveness", ModelSpec("distinctiveness", FAMILY_OLS, STANDARD_TERMS, STANDARD_FE)),
    ("Novelty", ModelSpec("novelty_binary", FAMILY_LOGISTIC, STANDARD_TERMS, STANDARD_FE)),
    ("Resonance", ModelSpec("resonance", FAMILY_OLS, STANDARD_TERMS, STANDARD_FE)),
)
COUNT_NOVELTY_MODEL = ("Novelty (Count)", ModelSpec("novelty_count", FAMILY_POISSON, STANDARD_TERMS, STANDARD_FE))


@dataclass
class Design:
    """The design matrix X and outcome y of one spec, in the columns' order.

    rows_used indexes the data rows that X holds: the complete cases minus
    the rows of separated fixed-effect levels. separated lists each dropped
    level as (fixed effect, level, rows), in the order they were found.
    """

    X: np.ndarray
    y: np.ndarray
    columns: Tuple[str, ...]
    spec: ModelSpec
    rows_used: np.ndarray
    separated: Tuple[Tuple[str, object, int], ...] = ()


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


def _check_glm_outcome(family: str, y: np.ndarray) -> None:
    """NumericError unless y is 0/1 (logistic) or non-negative integers (Poisson)."""
    if family == FAMILY_LOGISTIC:
        if not np.isin(y, (0.0, 1.0)).all():
            raise NumericError("logistic outcome must be 0/1")
    elif (y < 0).any() or not np.equal(np.mod(y, 1), 0).all():
        raise NumericError("poisson outcome must be non-negative integers")


def _code_levels(values: np.ndarray) -> Tuple[list, np.ndarray]:
    """Sorted levels of a fixed-effect column and each row's index into them, -1
    at NaN or None. An object column (genre) takes a set and a dict: np.unique
    sorts Python objects more slowly."""
    if values.dtype == object:
        values = values.tolist()
        levels = sorted(v for v in set(values) if v is not None and v == v)
        index = {level: j for j, level in enumerate(levels)}
        return levels, np.fromiter(map(index.get, values, itertools.repeat(-1)), np.intp, len(values))
    levels, codes = np.unique(values, return_inverse=True)
    valid = levels == levels  # a NaN level sorts last, so the others keep their codes
    return levels[valid].tolist(), np.where(valid[codes], codes, -1)


def _separated_levels(family: str, y: np.ndarray, coded) -> Tuple[np.ndarray, list]:
    """Rows to keep once every separated fixed-effect level is dropped, and
    the dropped levels as (fixed effect, level, rows).

    A logistic level whose outcome is all 0 or all 1, or a Poisson level
    whose outcome is all 0, has no finite maximum likelihood: its dummy (or,
    for the reference level, the constant) runs off to infinity. Dropping
    one fixed effect's level can separate a level of another, so the check
    repeats until nothing changes.
    """
    keep = np.ones(len(y), dtype=bool)
    dropped = []
    while True:
        found = False
        for fe, levels, codes in coded:
            count = np.bincount(codes, weights=keep, minlength=len(levels))
            total = np.bincount(codes, weights=y * keep, minlength=len(levels))
            bad = total == 0
            if family == FAMILY_LOGISTIC:
                bad |= total == count
            bad &= count > 0
            if bad.any():
                found = True
                keep &= ~bad[codes]
                dropped += [(fe, levels[j], int(count[j])) for j in np.flatnonzero(bad)]
        if not found:
            return keep, dropped


def build_design(
    data: Mapping[str, np.ndarray],
    spec: ModelSpec,
) -> Design:
    """Complete-case design matrix with intercept, transformed terms, and dummy-coded fixed
    effects (reference level = smallest level left); a NaN or None fixed effect is incomplete.

    For the logistic and Poisson families, the rows of every fixed-effect
    level that separates the outcome (see _separated_levels) are dropped
    first and listed in Design.separated; SeparationError if no row is left.
    Its rank is not checked here: fit_model factorizes X once and raises
    RankDeficient there, naming the dropped columns.
    """
    for column, _ in spec.terms:
        if column not in data:
            raise UnknownTerm(f"term column {column!r} not in data")
    if spec.outcome not in data:
        raise UnknownTerm(f"outcome column {spec.outcome!r} not in data")
    for fe in spec.fixed_effects:
        if fe not in data:
            raise UnknownTerm(f"fixed-effect column {fe!r} not in data")

    keep = np.isfinite(np.asarray(data[spec.outcome], dtype=float))
    for column, _ in spec.terms:
        keep &= np.isfinite(np.asarray(data[column], dtype=float))
    coded = [(fe, *_code_levels(np.asarray(data[fe]))) for fe in spec.fixed_effects]
    for _, _, codes in coded:
        keep &= codes >= 0
    rows = np.flatnonzero(keep)
    if len(rows) == 0:
        raise EmptySample(f"no complete cases for outcome {spec.outcome!r}")
    y = np.asarray(data[spec.outcome], dtype=float)[rows]
    coded = [(fe, levels, codes[rows]) for fe, levels, codes in coded]

    separated = []
    if spec.family != FAMILY_OLS:
        # checked before separation, which could otherwise drop the offending rows
        _check_glm_outcome(spec.family, y)
        kept, separated = _separated_levels(spec.family, y, coded)
        if not kept.any():
            raise SeparationError(f"every {'/'.join(spec.fixed_effects)} level separates {spec.outcome!r}")
        if separated:
            rows, y = rows[kept], y[kept]
            coded = [(fe, levels, codes[kept]) for fe, levels, codes in coded]

    names = ["const", *(column for column, _ in spec.terms)]
    dummy_at = []  # per fixed effect, each row's dummy column; 0 (the constant) at the reference
    for fe, levels, codes in coded:
        present = np.flatnonzero(np.bincount(codes, minlength=len(levels)))
        column_of = np.zeros(len(levels), dtype=np.intp)
        column_of[present[1:]] = np.arange(len(names), len(names) + len(present) - 1)
        dummy_at.append(column_of[codes])
        names += [f"{fe}={levels[j]}" for j in present[1:]]
    if len(rows) <= len(names):  # fit_arrays' check, before X is allocated
        raise NumericError(f"need more rows ({len(rows)}) than columns ({len(names)})")

    X = np.zeros((len(rows), len(names)))
    X[:, 0] = 1.0
    for j, (column, transform) in enumerate(spec.terms, 1):
        X[:, j] = _apply_transform(np.asarray(data[column], dtype=float)[rows], transform, column)
    if not np.isfinite(X).all():
        raise NumericError("design matrix has non-finite entries")
    for at in dummy_at:
        X[np.arange(len(rows)), at] = 1.0
    return Design(
        X=X,
        y=y,
        columns=tuple(names),
        spec=spec,
        rows_used=rows,
        separated=tuple(separated),
    )


# ---------------------------------------------------------------------------
# fitting

@dataclass
class FitResult:
    """One fitted model: beta and its robust sandwich covariance cov, in column order.

    The per-term maps (coefficients, robust_se, z_or_t, p_values) are views
    of beta, cov, family and df_resid. For a GLM, n_iter counts the Newton
    steps taken, each halved until the log-likelihood does not fall, and
    max_score is the largest |score| at the returned beta; OLS leaves both 0.
    converged is always True: a GLM fit that reaches MAX_IRLS_ITER, or a step
    that still lowers the log-likelihood after MAX_STEP_HALVINGS halvings,
    raises NumericError instead of returning.
    """

    family: str
    columns: Tuple[str, ...]
    beta: np.ndarray
    cov: np.ndarray
    r_squared: float
    n_obs: int
    log_likelihood: float
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
        tail = stdtr(self.df_resid, -z) if self.family == FAMILY_OLS else ndtr(-z)
        return {name: 2.0 * float(t) if se > 0 else 1.0
                for name, t, se in zip(self.columns, tail, self.robust_se.values())}


def _checked(X, y, columns):
    """Float X and y, checked for shape and finiteness, and column names (x0, x1, ... by default)."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or len(y) != X.shape[0]:
        raise NumericError("X must be 2-D with one row per outcome value")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise NumericError("non-finite values in design or outcome")
    n, k = X.shape
    if n <= k:
        raise NumericError(f"need more rows ({n}) than columns ({k})")
    return X, y, tuple(columns) if columns else tuple(f"x{j}" for j in range(k))


def _check_rank(X: np.ndarray, r: np.ndarray, perm: np.ndarray, columns) -> None:
    """RankDeficient naming the columns that the column-pivoted QR X[:, perm] = q @ r
    leaves past the numerical rank; only R's diagonal and perm are read."""
    diag = np.abs(np.diag(r))
    tol = max(X.shape) * np.finfo(float).eps * (diag[0] if len(diag) else 0.0)
    rank = int((diag > tol).sum())
    if rank < X.shape[1]:
        raise RankDeficient(tuple(columns[j] for j in sorted(perm[rank:])))


def _sandwich(X: np.ndarray, resid: np.ndarray, bread: np.ndarray, robust: str, work: np.ndarray) -> np.ndarray:
    meat = np.multiply(X, (resid**2)[:, None], out=work).T @ X
    cov = bread @ meat @ bread
    if robust == "hc1":
        n, k = X.shape
        cov = cov * (n / (n - k))
    return cov


def _lapack_call(routine, *args, **kwargs):
    """routine's outputs less work and info, as scipy 1.17's linalg._decomp_qr.safecall
    returns them: the work size comes from a workspace query first."""
    lwork = routine(*args, lwork=-1, **kwargs)[-2][0].real.astype(np.int_)
    *out, _, info = routine(*args, lwork=lwork, **kwargs)
    if info < 0:
        raise ValueError(f"illegal value in {-info}th argument of internal LAPACK routine")
    return out


def _pivoted_qr(X: np.ndarray, with_q: bool):
    """(q, r, perm) with X[:, perm] == q @ r, bit-equal to scipy 1.17's
    linalg.qr(X, mode="economic", pivoting=True) for a float64 X with more rows
    than columns; q is None unless with_q, as from its mode "raw", which forms none."""
    lapack = routines("linalg/_flapack", _LAPACK_SIGNATURES)
    if lapack is None:
        from scipy import linalg

        q, r, perm = linalg.qr(X, mode="economic" if with_q else "raw", pivoting=True, check_finite=False)
        return q if with_q else None, r, perm
    qr, jpvt, tau = _lapack_call(lapack.dgeqp3, X, overwrite_a=False)
    r = np.triu(qr[:X.shape[1]])
    q = _lapack_call(lapack.dorgqr, qr, tau, overwrite_a=1)[0] if with_q else None
    return q, r, jpvt - 1


def _solve_upper(r: np.ndarray, b: np.ndarray) -> np.ndarray:
    """scipy 1.17's linalg.solve_triangular(r, b) for an upper triangular r, bit for
    bit: dtrtrs on r, or, when r is not Fortran-ordered, on r.T as lower triangular
    and transposed, since dtrtrs reads Fortran order."""
    lapack = routines("linalg/_flapack", _LAPACK_SIGNATURES)
    if lapack is None:
        from scipy import linalg

        return linalg.solve_triangular(r, b)
    if not (np.isfinite(r).all() and np.isfinite(b).all()):
        raise ValueError("array must not contain infs or NaNs")
    if r.flags.f_contiguous:
        x, info = lapack.dtrtrs(r, b, overwrite_b=False, lower=False, trans=0, unitdiag=False)
    else:
        x, info = lapack.dtrtrs(r.T, b, overwrite_b=False, lower=True, trans=True, unitdiag=False)
    if info > 0:
        raise np.linalg.LinAlgError(f"singular matrix: resolution failed at diagonal {info - 1}")
    return x


def fit_arrays(family: str, X, y, robust: str = "hc1", columns: Optional[Sequence[str]] = None) -> FitResult:
    """Least squares (FAMILY_OLS) or logistic or Poisson maximum likelihood, with
    HC0/HC1 sandwich errors.

    One economic column-pivoted QR of X checks the rank (_check_rank) before
    anything reads y. For OLS it also gives beta and the (X'X)^{-1} bread
    (_ols), with classical R² and t inference on n - k residual degrees of
    freedom; for a GLM it forms no Q, and _newton fits, with McFadden R² and
    normal inference.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    X, y, columns = _checked(X, y, columns)
    q, r, perm = _pivoted_qr(X, with_q=family == FAMILY_OLS)
    _check_rank(X, r, perm, columns)
    n_iter, max_score = 0, 0.0
    if family == FAMILY_OLS:
        beta, resid, bread, r2, ll = _ols(X, y, q, r, perm)
    del q  # freed before the n x k buffer of the weighted products is made
    work = np.empty_like(X)
    if family != FAMILY_OLS:
        beta, resid, bread, r2, ll, n_iter, max_score = _newton(family, X, y, work)
    n, k = X.shape
    return FitResult(family=family, columns=columns, beta=beta, cov=_sandwich(X, resid, bread, robust, work),
                     r_squared=r2, n_obs=n, log_likelihood=ll, df_resid=n - k,
                     n_iter=n_iter, max_score=max_score)


def fit_model(design: Design) -> FitResult:
    return fit_arrays(design.spec.family, design.X, design.y, design.spec.robust_se, design.columns)


def _ols(X: np.ndarray, y: np.ndarray, q: np.ndarray, r: np.ndarray, perm: np.ndarray):
    """(beta, residuals, (X'X)^{-1}, R², Gaussian log-likelihood) from X[:, perm] == q @ r."""
    n, k = X.shape
    beta = np.empty(k)
    beta[perm] = _solve_upper(r, q.T @ y)
    rinv = _solve_upper(r, np.eye(k))
    bread = np.empty((k, k))
    bread[np.ix_(perm, perm)] = rinv @ rinv.T
    resid = y - X @ beta
    sse = float(resid @ resid)
    sst = float(((y - y.mean()) ** 2).sum())
    sigma2 = sse / n
    ll = -0.5 * n * (math.log(2 * math.pi * sigma2) + 1.0) if sigma2 > 0 else math.inf
    return beta, resid, bread, 1.0 - sse / sst if sst > 0 else 0.0, ll


def _glm_ll(family: str, eta: np.ndarray, y: np.ndarray, log_y_factorial: float) -> float:
    """Log-likelihood at eta, less log_y_factorial (sum(log y!) for Poisson, 0 for
    logistic). An overflowing exp(eta) gives -inf or nan, without a warning."""
    if family == FAMILY_LOGISTIC:
        return float((y * eta - np.logaddexp(0.0, eta)).sum())
    with np.errstate(over="ignore", invalid="ignore"):
        return float((y * eta - np.exp(eta)).sum()) - log_y_factorial


def _glm_mu_w(family: str, eta: np.ndarray):
    if family == FAMILY_LOGISTIC:
        mu = expit(eta)
        return mu, mu * (1.0 - mu)
    mu = np.exp(eta)
    return mu, mu


def _null_ll(family: str, y: np.ndarray, log_y_factorial: float) -> float:
    if family == FAMILY_LOGISTIC:
        p = y.mean()
        return float(len(y) * (p * math.log(p) + (1 - p) * math.log(1 - p)))
    lam = y.mean()
    return float((y * math.log(lam) - lam).sum()) - log_y_factorial


def _newton(family: str, X: np.ndarray, y: np.ndarray, work: np.ndarray):
    """(beta, residuals y - mu, inverse information, McFadden R², log-likelihood,
    Newton steps, max |score|) of a logistic or Poisson fit by Newton/IRLS,
    with each weighted X written into the n x k `work`.

    The outcome is checked first: NumericError unless it is 0/1 or counts,
    SeparationError if it is constant (logistic) or all zero (Poisson).
    """
    _check_glm_outcome(family, y)
    if family == FAMILY_LOGISTIC and y.min() == y.max():
        raise SeparationError("outcome is constant")
    if family == FAMILY_POISSON and y.max() == 0:
        raise SeparationError("outcome is all zeros")

    # the Poisson log-likelihood's constant sum(log y!), summed once
    log_y_factorial = float(gammaln(y + 1.0).sum()) if family == FAMILY_POISSON else 0.0
    beta = np.zeros(X.shape[1])
    eta = np.zeros(len(y))
    ll = _glm_ll(family, eta, y, log_y_factorial)
    for it in range(1, MAX_IRLS_ITER + 1):
        mu, w = _glm_mu_w(family, eta)
        score = X.T @ (y - mu)
        max_score = float(np.abs(score).max())
        if max_score < SCORE_TOL:
            break
        a = np.multiply(X, np.maximum(w, 1e-12)[:, None], out=work).T @ X
        try:
            step = np.linalg.solve(a, score)
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"singular weighted information matrix: {exc}")
        # halve the Newton step while the log-likelihood is not finite or
        # falls by more than rounding near the optimum (Marschner 2011)
        for _ in range(MAX_STEP_HALVINGS + 1):
            new_beta = beta + step
            new_eta = X @ new_beta
            new_ll = _glm_ll(family, new_eta, y, log_y_factorial)
            if math.isfinite(new_ll) and new_ll >= ll - LL_REL_TOL * (abs(ll) + 1e-12):
                break
            step = 0.5 * step
        else:
            raise NumericError(
                f"{family} step {it} still lowers the log-likelihood, or makes it non-finite, "
                f"after {MAX_STEP_HALVINGS} halvings"
            )
        beta, eta, last_ll, ll = new_beta, new_eta, ll, new_ll
        if np.abs(beta).max() > SEPARATION_BOUND:
            raise SeparationError(
                f"coefficients diverged beyond {SEPARATION_BOUND}; data likely separable"
            )
        if abs(ll - last_ll) <= LL_REL_TOL * (abs(last_ll) + 1e-12):
            break
    else:
        raise NumericError(
            f"{family} fit did not converge in {MAX_IRLS_ITER} iterations (max |score| {max_score:.3g})"
        )

    # one evaluation at the final beta gives the reported score and the bread
    mu, w = _glm_mu_w(family, eta)
    max_score = float(np.abs(X.T @ (y - mu)).max())
    bread = np.linalg.inv(np.multiply(X, np.maximum(w, 1e-12)[:, None], out=work).T @ X)
    ll0 = _null_ll(family, y, log_y_factorial)
    pseudo_r2 = 1.0 - ll / ll0 if ll0 != 0 else 0.0
    return beta, y - mu, bread, pseudo_r2, ll, it, max_score


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
) -> Tuple[MarginalMean, ...]:
    """Average adjusted prediction at focal levels 0 and 1, with delta-method
    95% intervals from the robust covariance.

    Every observation's focal column is forced to the level and predictions
    are averaged over the observed covariate distribution.
    """
    if focal not in fit.columns:
        raise UnknownTerm(f"{focal!r} is not a model column")
    X = np.asarray(X, dtype=float)
    j = fit.columns.index(focal)
    crit = stdtrit(fit.df_resid, 0.975) if fit.family == FAMILY_OLS else ndtri(0.975)
    out = []
    Xa = np.empty_like(X)  # each level's X, then its derivative-weighted X
    for level in (0.0, 1.0):
        np.copyto(Xa, X)
        Xa[:, j] = level
        eta = Xa @ fit.beta
        pred, dmu = (eta, np.ones(len(eta))) if fit.family == FAMILY_OLS else _glm_mu_w(fit.family, eta)
        m = float(pred.mean())
        grad = np.multiply(Xa, dmu[:, None], out=Xa).mean(axis=0)
        var = float(grad @ fit.cov @ grad)
        se = math.sqrt(max(var, 0.0))
        lo, hi = m - crit * se, m + crit * se
        out.append(MarginalMean(float(level), m, se, lo, hi))
    return tuple(out)


# ---------------------------------------------------------------------------
# descriptives

def describe(data: Mapping[str, np.ndarray]) -> List[tuple]:
    """One DESCRIBE_COLUMNS row per LABELS column in data: count/mean/std/min/quartiles/max,
    NaNs dropped, std on the n-1 denominator, quartiles np.percentile's (_quartiles);
    a column with no finite value has only its count, 0."""
    rows = []
    for column, label in LABELS.items():
        if column not in data:
            continue
        values = np.asarray(data[column], dtype=float)
        values = values[np.isfinite(values)]
        n = len(values)
        if n == 0:
            rows.append((label, 0) + (None,) * 7)
            continue
        std = float(values.std(ddof=1)) if n > 1 else 0.0
        rows.append((label, n, float(values.mean()), std, float(values.min()),
                     *map(float, _quartiles(values)), float(values.max())))
    return rows


def _quartiles(values: np.ndarray) -> np.ndarray:
    """np.percentile(values, (25, 50, 75)) of finite floats, bit for bit, without its
    np.unique, which imports numpy.ma: numpy 2's linear rule at index q * (n - 1),
    from one partition at the same order statistics, and its _lerp's t >= 0.5 branch."""
    n = len(values)
    index = (n - 1) * np.array([0.25, 0.5, 0.75])
    lower = np.where(index >= n - 1, -1, np.floor(index)).astype(np.intp)
    upper = np.where(index >= n - 1, -1, lower + 1)
    ordered = np.partition(values, sorted({0, -1, *lower.tolist(), *upper.tolist()}))
    a, b, t = ordered[lower], ordered[upper], index - lower
    return np.where(t >= 0.5, b - (b - a) * (1 - t), a + (b - a) * t)


# ---------------------------------------------------------------------------
# output formatting

def _fmt_cell(fit: Optional[FitResult], term: str) -> Tuple[str, str]:
    if fit is None or term not in fit.coefficients:
        return "", ""
    coef = fit.coefficients[term]
    stars = significance_stars(fit.p_values[term])
    return f"{coef:.3f}{stars}", f"({fit.robust_se[term]:.3f})"


def format_model_table(fits: Sequence[Tuple[str, Optional[FitResult]]]) -> str:
    """Fixed-width text table in the three-column journal layout.

    One column per (title, fit); a coefficient row per fitted term that is no
    fixed-effect dummy, in order of first use across the fits with the
    constant last, labelled from TERM_LABELS or else by column name, with
    significance stars and standard errors parenthesized underneath; fixed
    effects compressed to Yes markers, R² labeled by family, and the
    REFERENCE_CROWDFUNDED values of the titles that have one printed as a
    comparison footer row labelled REFERENCE_LABEL (display only).
    """
    titles = [t for t, _ in fits]
    fitted = [f for _, f in fits]
    terms = sorted(dict.fromkeys(c for f in fitted if f is not None for c in f.columns if "=" not in c),
                   key="const".__eq__)
    labels = [TERM_LABELS.get(term, term) for term in terms]
    label_w = max(map(len, ["McFadden's Pseudo R-Squared", REFERENCE_LABEL, *labels])) + 2
    col_w = max(16, max(len(t) for t in titles) + 2)

    def row(label, cells):
        return label.ljust(label_w) + "".join(c.center(col_w) for c in cells)

    lines = []
    lines.append(row("", titles))
    fam_names = {FAMILY_OLS: "OLS", FAMILY_LOGISTIC: "Logistic", FAMILY_POISSON: "Poisson"}
    lines.append(row("", [fam_names.get(f.family, "") if f else "" for f in fitted]))
    lines.append("-" * (label_w + col_w * len(fits)))
    for term, label in zip(terms, labels):
        cells = [_fmt_cell(f, term) for f in fitted]
        lines.append(row(label, [c[0] for c in cells]))
        lines.append(row("", [c[1] for c in cells]))
    lines.append("-" * (label_w + col_w * len(fits)))

    fe_columns = {name.split("=", 1)[0] for f in fitted if f is not None for name in f.columns if "=" in name}
    for fe in sorted(fe_columns):
        has = [f is not None and any(c.startswith(f"{fe}=") for c in f.columns) for f in fitted]
        lines.append(row(f"{fe.capitalize()} FE", ["Yes" if h else "" for h in has]))

    ols_cells = [f"{f.r_squared:.3f}" if f and f.family == FAMILY_OLS else "" for f in fitted]
    if any(ols_cells):
        lines.append(row("R-Squared", ols_cells))
    glm_cells = [f"{f.r_squared:.3f}" if f and f.family != FAMILY_OLS else "" for f in fitted]
    if any(glm_cells):
        lines.append(row("McFadden's Pseudo R-Squared", glm_cells))
    lines.append(row("Observations", [f"{f.n_obs:,}" if f else "" for f in fitted]))
    lines.append("-" * (label_w + col_w * len(fits)))
    lines.append("Note: *p<0.05; **p<0.01; ***p<0.001. Robust standard errors in parentheses.")
    ref_cells = [f"{REFERENCE_CROWDFUNDED[t]:.3f}" if t in REFERENCE_CROWDFUNDED else "" for t in titles]
    if any(ref_cells):
        lines.append(row(REFERENCE_LABEL, ref_cells))
        lines.append("Reference values are published comparison points only; they are never test targets.")
    return "\n".join(lines) + "\n"

"""Acceptance gate: one test per release criterion, each printing a verdict.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Every tolerance below is pinned; loosening one is a release decision, not a
test fix. The synthetic-recovery criterion runs a full Monte Carlo and takes
about 95 s on a 2-CPU host (93 s measured under `pytest -q`, with OpenBLAS's
default two threads); everything else finishes in seconds.
"""

import itertools
import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from novascape.cli import main as cli_main, recovery_seed
from novascape.corpus import RecordSet
from novascape.landscape import flip_edges
from novascape.metrics import build_profile, cross_hamming, distinctiveness_fast, score_corpus
from novascape.stats import (
    _glm_ll,
    _glm_mu_w,
    auc_effect,
    fit_logistic,
    fit_ols,
    fit_poisson,
    mann_whitney_u,
)
from novascape.synth import SynthConfig, generate_corpus

from conftest import make_record, make_registry


def check(name: str, ok: bool, detail: str = "") -> None:
    print(f"[acceptance] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def popcount_int(x: int) -> int:
    return bin(x).count("1")


def random_corpus(n: int, dim: int, years, seed: int) -> RecordSet:
    """Uniform random bit vectors spread evenly over the given years."""
    rng = np.random.default_rng(seed)
    registry = make_registry(dim)
    years = list(years)
    recs = []
    for i in range(n):
        bits = tuple(int(b) for b in rng.integers(0, 2, size=dim))
        recs.append(make_record(f"r{i:05d}", years[i % len(years)], bits, registry))
    return RecordSet(recs, registry)


def as_ints(matrix: np.ndarray) -> list:
    dim = matrix.shape[1]
    weights = [1 << j for j in range(dim)]
    return [sum(w for w, b in zip(weights, row) if b) for row in matrix]


class TestOracleEquivalence:
    def test_distinctiveness_fast_matches_brute_force(self):
        t0 = time.perf_counter()
        rs = random_corpus(1000, 51, range(2006, 2011), seed=510)
        span = 2
        ints = as_ints(rs.matrix)
        table = score_corpus(rs, spans=(span,))
        checked = 0
        sums_exact = True
        div_ok = True
        for i, rec in enumerate(rs.records):
            win = rs.rows_in_years(rec.year - span, rec.year - 1)
            if len(win) == 0:
                assert table.get(rec.id, span) is None
                continue
            oracle_sum = sum(popcount_int(ints[i] ^ ints[j]) for j in win)
            prod_sum = int(cross_hamming(rec.vector[None, :], rs.matrix[win])[0].sum())
            sums_exact &= prod_sum == oracle_sum
            profile = build_profile(rs, rec.year - span, rec.year - 1)
            fast = distinctiveness_fast(rec.vector, profile)
            oracle = Fraction(oracle_sum, len(win))
            for value in (fast, table.get(rec.id, span).distinctiveness):
                rel = abs(value - float(oracle)) / max(float(oracle), 1e-300)
                div_ok &= rel <= 1e-12
            checked += 1
        elapsed = time.perf_counter() - t0
        check(
            "oracle equivalence (distinctiveness brute force, 1000x51, 5 years)",
            sums_exact and div_ok and checked == 800 and elapsed < 10.0,
            f"{checked} records, integer sums exact={sums_exact}, "
            f"division<=1e-12 rel={div_ok}, {elapsed:.2f}s (<10s)",
        )


class TestNoveltyOracle:
    def test_novelty_count_matches_exhaustive_scan(self):
        cfg = SynthConfig(year_start=2006, year_end=2015, games_per_year=500,
                          crowdfunded_share_by_year=0.3, novelty_boost=1.0, seed=21)
        rs = generate_corpus(cfg)
        assert len(rs.records) == 5000
        spans = (1, 2, 5)
        table = score_corpus(rs, spans=spans, last_complete_year=2015)
        row_of = {i: rec for i, rec in enumerate(rs.records)}
        mismatches = 0
        scored = 0
        for span in spans:
            for i, rec in row_of.items():
                win = rs.rows_in_years(rec.year - span, rec.year - 1)
                got = table.get(rec.id, span)
                if len(win) == 0:
                    assert got is None and (rec.id, span) in set(table.unscored)
                    continue
                oracle = int(np.count_nonzero(rs.matrix[win] != rec.vector[None, :], axis=1).min())
                mismatches += got.novelty_count != oracle
                mismatches += got.novelty_binary != (oracle > 0)
                scored += 1
        # independent integer route on a subsample
        ints = as_ints(rs.matrix)
        rng = np.random.default_rng(7)
        for i in rng.choice(len(ints), size=200, replace=False):
            rec = row_of[int(i)]
            win = rs.rows_in_years(rec.year - 2, rec.year - 1)
            if len(win) == 0:
                continue
            oracle = min(popcount_int(ints[int(i)] ^ ints[j]) for j in win)
            mismatches += table.get(rec.id, 2).novelty_count != oracle
        check(
            "novelty oracle (exhaustive min scan, 5000 records, spans {1,2,5})",
            mismatches == 0 and scored == len(table),
            f"{scored} scored rows, {mismatches} mismatches",
        )


class TestResonanceIdentity:
    def test_identity_and_coverage(self):
        cfg = SynthConfig(year_start=2006, year_end=2015, games_per_year=200,
                          crowdfunded_share_by_year=0.3, novelty_boost=1.0, seed=33)
        rs = generate_corpus(cfg)
        span = 2
        last = 2015
        table = score_corpus(rs, spans=(span,), last_complete_year=last)
        ints = as_ints(rs.matrix)
        idx = {rec.id: i for i, rec in enumerate(rs.records)}
        identity_ok = True
        absent_ok = True
        n_res = 0
        for row in table:
            i = idx[row.record_id]
            rec = rs.records[i]
            if rec.year + span > last:
                absent_ok &= row.resonance is None
                continue
            past = rs.rows_in_years(rec.year - span, rec.year - 1)
            future = rs.rows_in_years(rec.year + 1, rec.year + span)
            if len(future) == 0:
                absent_ok &= row.resonance is None
                continue
            d_past = Fraction(sum(popcount_int(ints[i] ^ ints[j]) for j in past), len(past))
            d_future = Fraction(sum(popcount_int(ints[i] ^ ints[j]) for j in future), len(future))
            oracle = float(d_past) - float(d_future)
            identity_ok &= row.resonance is not None
            identity_ok &= abs(row.resonance - oracle) <= 1e-12 * max(1.0, abs(oracle))
            identity_ok &= abs(row.distinctiveness - float(d_past)) <= 1e-12 * float(d_past)
            n_res += 1
        strictly_fewer = 0 < n_res < len(table)
        check(
            "resonance identity (past minus future, absent without coverage)",
            identity_ok and absent_ok and strictly_fewer,
            f"{n_res} resonance rows < {len(table)} scored rows, identity to 1e-12",
        )


class TestLandscapeEdges:
    def test_flip_edges_equal_all_pairs_hamming_one(self):
        # random keys alone are never adjacent in 51 bits, so salt the set
        # with single- and double-bit neighbors to create genuine edges
        rng = np.random.default_rng(4242)
        base = rng.integers(0, 1 << 51, size=1700, dtype=np.int64)
        variants = [base]
        for _ in range(2):
            flips = np.int64(1) << rng.integers(0, 51, size=len(base), dtype=np.int64)
            variants.append(variants[-1] ^ flips)
        keys = np.unique(np.concatenate(variants))[:5000]
        assert len(keys) == 5000
        key_list = [int(k) for k in keys]

        t0 = time.perf_counter()
        edges = flip_edges(key_list, 51)
        build_time = time.perf_counter() - t0

        matrix = ((keys[:, None] >> np.arange(51)[None, :]) & 1).astype(np.uint8)
        oracle = set()
        block = 1000
        for lo in range(0, len(keys), block):
            dist = cross_hamming(matrix[lo:lo + block], matrix)
            for bi, gi in zip(*np.nonzero(dist == 1)):
                i, j = lo + int(bi), int(gi)
                if i < j:
                    oracle.add((min(key_list[i], key_list[j]), max(key_list[i], key_list[j])))
        check(
            "landscape edges (brute-force all-pairs Hamming-1, 5000 nodes)",
            set(edges) == oracle and build_time < 1.0,
            f"{len(edges)} edges match, construction {build_time*1000:.0f}ms (<1s)",
        )


def exact_mw_p(x, y) -> float:
    """Two-sided exact Mann-Whitney p by enumerating all group assignments."""
    pooled = list(x) + list(y)
    n1 = len(x)
    order = sorted(range(len(pooled)), key=lambda i: pooled[i])
    ranks = [0.0] * len(pooled)
    i = 0
    while i < len(order):
        j = i
        while j < len(order) and pooled[order[j]] == pooled[order[i]]:
            j += 1
        r = (i + j + 1) / 2.0
        for k in range(i, j):
            ranks[order[k]] = r
        i = j
    def u_of(assign):
        r1 = sum(ranks[i] for i in assign)
        return r1 - n1 * (n1 + 1) / 2.0
    mu = n1 * len(y) / 2.0
    u_obs = u_of(range(n1))
    dev = abs(u_obs - mu)
    hits = total = 0
    for assign in itertools.combinations(range(len(pooled)), n1):
        total += 1
        hits += abs(u_of(assign) - mu) >= dev - 1e-9
    return hits / total


def grid_mle(ll, lo=(-10.0, -10.0), hi=(10.0, 10.0), points=41, passes=6):
    """2-parameter maximum by iteratively refined grid search."""
    lo, hi = list(lo), list(hi)
    best = None
    for _ in range(passes):
        g0 = np.linspace(lo[0], hi[0], points)
        g1 = np.linspace(lo[1], hi[1], points)
        best = max(((ll(a, b), a, b) for a in g0 for b in g1), key=lambda t: t[0])
        _, a, b = best
        w0 = (hi[0] - lo[0]) / (points - 1)
        w1 = (hi[1] - lo[1]) / (points - 1)
        lo, hi = [a - w0, b - w1], [a + w0, b + w1]
    return best[1], best[2]


def fraction_solve(A, b):
    """Exact Gaussian elimination over Fractions."""
    n = len(A)
    M = [[Fraction(A[i][j]) for j in range(n)] + [Fraction(b[i])] for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if M[r][col] != 0)
        M[col], M[piv] = M[piv], M[col]
        inv = M[col][col]
        M[col] = [v / inv for v in M[col]]
        for r in range(n):
            if r != col and M[r][col] != 0:
                f = M[r][col]
                M[r] = [v - f * w for v, w in zip(M[r], M[col])]
    return [M[i][n] for i in range(n)]


class TestStatisticsFidelity:
    def test_all_fidelity_checks(self):
        rng = np.random.default_rng(99)
        # Mann-Whitney p vs exact enumeration on every split size up to 12,
        # over distinct-value, heavily tied, and constant samples
        mw_ok = True
        worst = 0.0
        for n1 in range(1, 12):
            for n2 in range(1, 13 - n1):
                base = list(rng.permutation(np.arange(n1 + n2, dtype=float)))
                tied = [0.0] * (n1 + n2 - 2) + [1.0, 1.0]
                const = [3.0] * (n1 + n2)
                for pooled in (base, tied, const):
                    x, y = np.array(pooled[:n1]), np.array(pooled[n1:])
                    p = mann_whitney_u(x, y).p_value
                    diff = abs(p - exact_mw_p(x, y))
                    worst = max(worst, diff)
                    mw_ok &= diff <= 0.05

        # AUC antisymmetry with ties
        auc_ok = True
        for _ in range(50):
            x = rng.integers(0, 5, size=rng.integers(2, 20)).astype(float)
            y = rng.integers(0, 5, size=rng.integers(2, 20)).astype(float)
            auc_ok &= abs(auc_effect(x, y) + auc_effect(y, x) - 1.0) <= 1e-12

        # OLS against exact normal equations on an integer fixture
        X = np.array([[1, x, x * x % 5] for x in range(9)], dtype=float)
        y_ols = np.array([2, 4, 3, 8, 9, 7, 12, 15, 11], dtype=float)
        beta_exact = fraction_solve(
            (X.T @ X).astype(int).tolist(), (X.T @ y_ols).astype(int).tolist()
        )
        fit = fit_ols(X, y_ols)
        ols_ok = all(
            abs(fit.beta[j] - float(beta_exact[j])) <= 1e-10 for j in range(3)
        )

        # logistic and Poisson MLEs against refined likelihood grids
        x_val = np.array([-2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 2.5])
        Xg = np.column_stack([np.ones_like(x_val), x_val])
        y_log = np.array([0, 0, 0, 1, 0, 1, 1, 1, 1, 1], dtype=float)

        def ll_logistic(a, b):
            eta = a + b * x_val
            return float(np.sum(y_log * eta - np.logaddexp(0.0, eta)))

        ga, gb = grid_mle(ll_logistic)
        fl = fit_logistic(Xg, y_log)
        glm_ok = abs(fl.beta[0] - ga) <= 1e-4 and abs(fl.beta[1] - gb) <= 1e-4

        y_poi = np.array([0, 1, 0, 2, 1, 3, 2, 4, 6, 5], dtype=float)

        def ll_poisson(a, b):
            eta = a + b * x_val
            return float(np.sum(y_poi * eta - np.exp(eta)))

        pa, pb = grid_mle(ll_poisson, lo=(-5.0, -5.0), hi=(5.0, 5.0))
        fp = fit_poisson(Xg, y_poi)
        glm_ok &= abs(fp.beta[0] - pa) <= 1e-4 and abs(fp.beta[1] - pb) <= 1e-4

        # analytic score vs central finite differences, away from the optimum
        grad_ok = True
        for family, y_vec in (("logistic", y_log), ("poisson", y_poi)):
            beta = np.array([0.3, -0.4])
            mu, _ = _glm_mu_w(family, Xg @ beta)
            analytic = Xg.T @ (y_vec - mu)
            h = 1e-6
            for j in range(2):
                e = np.zeros(2)
                e[j] = h
                fd = (
                    _glm_ll(family, Xg @ (beta + e), y_vec)
                    - _glm_ll(family, Xg @ (beta - e), y_vec)
                ) / (2 * h)
                grad_ok &= abs(fd - analytic[j]) <= 1e-4 * max(1.0, abs(analytic[j]))

        check(
            "statistics fidelity (MW exact, AUC, OLS, GLM grids, gradients)",
            mw_ok and auc_ok and ols_ok and glm_ok and grad_ok,
            f"MW worst |dp|={worst:.2e} (<=0.05), AUC 1e-12={auc_ok}, "
            f"OLS 1e-10={ols_ok}, GLM grids 1e-4={glm_ok}, gradients 1e-4={grad_ok}",
        )


class TestSyntheticEffectRecovery:
    def test_boost_recovered_and_null_calibrated(self):
        t0 = time.perf_counter()
        recovered = 0
        for seed in range(100):
            fits = recovery_seed(seed, boost=2.0)
            recovered += all(c > 0 and p < 0.001 for c, p in fits.values())
        false_pos = 0
        for seed in range(200):
            fits = recovery_seed(seed, boost=0.0)
            c, p = fits["Distinctiveness"]
            false_pos += p < 0.05
        fpr = false_pos / 200
        elapsed = time.perf_counter() - t0
        check(
            "synthetic effect recovery (boost=2 in >=95/100 seeds, null FPR in [0.02,0.08])",
            recovered >= 95 and 0.02 <= fpr <= 0.08 and elapsed < 600,
            f"recovered {recovered}/100, FPR {false_pos}/200={fpr:.3f}, "
            f"{elapsed:.0f}s (<600s)",
        )


COEFFICIENT_LABELS = [
    "Is Crowdfunded", "Team Size", "Debut", "Avg. Complexity Rating",
    "Playing Time (Log Mins)", "Min. # of Players", "Max. # of Players",
    "Min. Age", "Is Expansion", "Is Adult/Mature",
]


def run_small_pipeline(tmp_path, seed=11):
    payload = {
        "out_dir": str(tmp_path / "run"),
        "spans": [1, 2],
        "stats_span": 2,
        "landscape": {"snapshot_years": [2009, 2011], "min_type_count": 4, "seed": 7},
        "synth": {"dimension": 12, "year_start": 2006, "year_end": 2011,
                  "games_per_year": 150, "crowdfunded_share_by_year": 0.3,
                  "base_mechanism_rate": 0.3, "novelty_boost": 1.0, "seed": seed},
    }
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(payload))
    assert cli_main(["report", "--config", str(cfg)]) == 0
    return tmp_path / "run"


class TestReportShape:
    def test_stats_emits_journal_style_regression_report(self, tmp_path):
        out = run_small_pipeline(tmp_path)
        text = (out / "models.txt").read_text()
        lines = text.splitlines()

        label_rows = []
        for line in lines:
            stripped = line.rstrip()
            for label in COEFFICIENT_LABELS + ["Constant"]:
                if stripped.startswith(label + " "):
                    label_rows.append(label)
        rows_ok = label_rows == COEFFICIENT_LABELS + ["Constant"]

        fe_ok = any(l.startswith("Year FE") and "Yes" in l for l in lines) and any(
            l.startswith("Genre FE") and "Yes" in l for l in lines
        )
        r2_ok = any(l.startswith("R-Squared") for l in lines) and any(
            l.startswith("McFadden's Pseudo R-Squared") for l in lines
        )
        refs_printed = all(tok in text for tok in ("0.235", "0.412", "0.014"))
        not_asserted = "never" in text  # the footer disclaims the references
        check(
            "report shape (10 coefficient rows, FE markers, family R2 labels, references printed)",
            rows_ok and fe_ok and r2_ok and refs_printed and not_asserted,
            f"rows={rows_ok} fe={fe_ok} r2_labels={r2_ok} references_printed={refs_printed}",
        )


class TestDeterminism:
    def test_full_pipeline_is_byte_identical_across_runs(self, tmp_path):
        out = run_small_pipeline(tmp_path)
        first = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        out2 = run_small_pipeline(tmp_path)
        second = {p.name: p.read_bytes() for p in sorted(out2.iterdir())}
        same = first == second
        check(
            "determinism (two full pipeline runs, identical bytes)",
            same and len(first) >= 15,
            f"{len(first)} files compared{'' if same else '; MISMATCH'}",
        )

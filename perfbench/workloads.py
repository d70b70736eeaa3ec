"""Seeded inputs, jobs and plain-numpy output checks for the benchmark.

Every workload builds its inputs here, in plain numpy, from a
``numpy.random.SeedSequence`` the runner derives from the workload seed
and the job index, so each job sees fresh data (a cache keyed on input
content cannot hit) and the same seed always gives the same inputs. The
program receives only the generated CSV file or array.

A workload has three steps:

* ``prepare(seed_seq, workdir)`` makes one job's inputs (not timed as
  job work; it is part of set-up for the warm-up jobs);
* ``run(job)`` drives covreg through its public entry points and returns
  the outputs (the timed job);
* ``check(job, outputs)`` recomputes every checked quantity from the
  benchmark's own arrays with plain numpy and returns a list of
  problems, empty when the outputs are correct (not timed).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import covreg
from covreg import cli, harness

FACTOR_VARIANCE = 0.25
BETA_RANGE = (0.5, 1.5)
SPECIFIC_VARIANCE_RANGE = (0.05, 0.5)  # log-uniform, one decade
QUASI_NULL_REL = 1e-10  # README: eigenvalues below 1e-10 * lambda_max are null

# Tolerances of the checks. The README promises 1e-8 relative Frobenius
# between the shrunk matrix and its factor model and a diagonal kept to
# 1e-10; the other values leave room for different but exact orders of
# floating-point summation between the program and the oracle.
EXACT_REL = 1e-9
FACTOR_REL = 1e-8
DIAG_REL = 1e-10
CSV_REL = 1e-10  # 12 significant digits in CSV output
SOLVE_REL = 1e-6  # dense solves of matrices with condition numbers ~1e6


# ---------------------------------------------------------------- inputs


def one_factor_panel(rng: np.random.Generator, n: int, t: int):
    """Returns (r, truth): an N x T one-factor panel and its true covariance.

    Factor variance 0.25; betas uniform on [0.5, 1.5]; specific variances
    log-uniform over one decade, so assets differ in scale.
    """
    beta = rng.uniform(*BETA_RANGE, n)
    lo, hi = np.log(SPECIFIC_VARIANCE_RANGE)
    specific = np.exp(rng.uniform(lo, hi, n))
    factor = np.sqrt(FACTOR_VARIANCE) * rng.standard_normal(t)
    r = beta[:, None] * factor + rng.standard_normal((n, t)) * np.sqrt(specific)[:, None]
    truth = FACTOR_VARIANCE * np.outer(beta, beta) + np.diag(specific)
    return r, truth


def asset_ids(n: int) -> tuple[str, ...]:
    return tuple(f"A{i + 1:04d}" for i in range(n))


def panel_csv(r: np.ndarray) -> str:
    """Header row, then one row per asset: id, then full-precision values."""
    header = "asset," + ",".join(f"t{j:04d}" for j in range(r.shape[1]))
    rows = (
        name + "," + ",".join(map(repr, row))
        for name, row in zip(asset_ids(r.shape[0]), r.tolist())
    )
    return header + "\n" + "\n".join(rows) + "\n"


# ---------------------------------------------------------------- oracles


def demeaned(r: np.ndarray) -> np.ndarray:
    return r - r.mean(axis=1, keepdims=True)


def scm(r: np.ndarray) -> np.ndarray:
    """C = X X^T / M with M = T - 1."""
    x = demeaned(r)
    return x @ x.T / (r.shape[1] - 1)


def mean_correlation(c: np.ndarray) -> float:
    """Mean off-diagonal correlation, clamped to [0, 0.999]."""
    n = c.shape[0]
    sigma = np.sqrt(np.diag(c))
    corr = c / np.outer(sigma, sigma)
    rho = (corr.sum() - np.trace(corr)) / (n * (n - 1))
    return min(max(float(rho), 0.0), 0.999)


def constant_correlation(c: np.ndarray, rho: float) -> np.ndarray:
    sigma = np.sqrt(np.diag(c))
    target = rho * np.outer(sigma, sigma)
    np.fill_diagonal(target, np.diag(c))
    return target


def top_pc(r: np.ndarray) -> tuple[float, np.ndarray]:
    """Leading eigenpair of the SCM of r, from the T x T Gram matrix."""
    x = demeaned(r)
    m = r.shape[1] - 1
    w, u = np.linalg.eigh(x.T @ x / m)
    v = x @ u[:, -1]
    return float(w[-1]), v / np.linalg.norm(v)


def truncated_one_pc(c: np.ndarray, lam: float, v: np.ndarray) -> np.ndarray:
    """Top PC kept, diagonal target rescaled so the diagonal stays C_ii."""
    out = lam * np.outer(v, v)
    out[np.diag_indices_from(out)] = np.diag(c)
    return out


def offdiag_norm(a: np.ndarray) -> float:
    a = a.copy()
    np.fill_diagonal(a, 0.0)
    return float(np.linalg.norm(a))


def min_variance_realized(est: np.ndarray, test: np.ndarray) -> float:
    """Variance over the test segment of the min-variance weights of est."""
    w = np.linalg.solve(est, np.ones(est.shape[0]))
    w /= w.sum()
    x = w @ demeaned(test)
    return float(x @ x / (test.shape[1] - 1))


def rel_err(got, want) -> float:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return float("inf")
    scale = np.linalg.norm(want)
    return float(np.linalg.norm(got - want) / (scale if scale else 1.0))


class Checker:
    """Collects the problems found in one job's outputs."""

    def __init__(self):
        self.problems: list[str] = []

    def close(self, label: str, got, want, tol: float) -> None:
        err = rel_err(got, want)
        if not err <= tol:
            self.problems.append(f"{label}: relative error {err:.3g} > {tol:g}")

    def equal(self, label: str, got, want) -> None:
        if got != want:
            self.problems.append(f"{label}: got {got!r}, want {want!r}")


def factor_dense(d: dict) -> np.ndarray:
    """diag(xi^2) + Omega Phi Omega^T from a factor-model JSON object."""
    n, k = int(d["n"]), int(d["k"])
    xi = np.asarray(d["xi"], dtype=float)
    omega = np.asarray(d["omega"], dtype=float).reshape(n, k)
    phi = np.asarray(d["phi"], dtype=float).reshape(k, k)
    return np.diag(xi**2) + omega @ phi @ omega.T


def dense_from_json(d: dict) -> np.ndarray:
    n = int(d["n"])
    return np.asarray(d["data"], dtype=float).reshape(n, n)


def split_point(t: int, split: float) -> int:
    return int(round(split * t))


@dataclass(frozen=True)
class StabilityOracle:
    """Expected stability_experiment records for a list of dense estimators."""

    n_train: int
    records: list[dict]


def stability_oracle(r, split, estimators, truth=None) -> StabilityOracle:
    """estimators: list of (label, function of (c_train, train) -> dense)."""
    n_train = split_point(r.shape[1], split)
    train, test = r[:, :n_train], r[:, n_train:]
    c_train, c_test = scm(train), scm(test)
    v_train, v_test = top_pc(train)[1], top_pc(test)[1]
    overlap = abs(float(v_train @ v_test))
    records = []
    for label, build in estimators:
        est = build(c_train, train)
        records.append({
            "label": label,
            "in_sample_error": offdiag_norm(est - c_train),
            "out_of_sample_error": offdiag_norm(est - c_test),
            "truth_error": None if truth is None else offdiag_norm(est - truth),
            "realized_variance": min_variance_realized(est, test),
            "leading_pc_overlap": overlap,
        })
    return StabilityOracle(n_train=n_train, records=records)


def check_stability(chk: Checker, where: str, got: dict, want: StabilityOracle,
                    n_obs: int) -> None:
    chk.equal(f"{where} n_train", got["n_train"], want.n_train)
    chk.equal(f"{where} n_test", got["n_test"], n_obs - want.n_train)
    records = got["records"]
    chk.equal(f"{where} labels", [rec["label"] for rec in records],
              [rec["label"] for rec in want.records])
    for rec, exp in zip(records, want.records):
        label = f"{where} {exp['label']}"
        for key in ("in_sample_error", "out_of_sample_error"):
            chk.close(f"{label} {key}", rec[key], exp[key], EXACT_REL)
        if exp["truth_error"] is None:
            chk.equal(f"{label} truth_error", rec["truth_error"], None)
        else:
            chk.close(f"{label} truth_error", rec["truth_error"],
                      exp["truth_error"], EXACT_REL)
        chk.equal(f"{label} invertible", rec["invertible"], True)
        chk.close(f"{label} realized_variance", rec["realized_variance"] or 0.0,
                  exp["realized_variance"], SOLVE_REL)
        chk.close(f"{label} leading_pc_overlap", rec["leading_pc_overlap"],
                  exp["leading_pc_overlap"], SOLVE_REL)


def shrink_toward_diagonal(q):
    return lambda c, _: q * np.diag(np.diag(c)) + (1.0 - q) * c


def shrink_toward_constant_correlation(q):
    return lambda c, _: q * constant_correlation(c, mean_correlation(c)) + (1.0 - q) * c


def truncate_one_pc(c, r):
    return truncated_one_pc(c, *top_pc(r))


# ---------------------------------------------------------------- workloads


class CliWide:
    """Four in-process ``covreg.cli.main`` calls on a wide panel CSV."""

    name = "cli_wide"
    Q = 0.5
    EVAL_METHODS = ("shrink,q=0.5,target=diagonal", "truncated_pc,f_hat=1",
                    "scm_ridge,q=0.01")
    EVAL_ORACLE = (
        ("shrink(q=0.5,diagonal)", shrink_toward_diagonal(0.5)),
        ("truncated_pc(f_hat=1,diagonal)", truncate_one_pc),
        ("scm+ridge(q=0.01)", shrink_toward_diagonal(0.01)),
    )
    SPLIT = 0.5
    OUTPUTS = ("scm", "shrink", "truncate", "eval")

    def __init__(self, n: int = 500, t: int = 251):
        self.n, self.t = n, t

    def properties(self) -> dict:
        return {
            "N": self.n, "T": self.t, "N/M": self.n / (self.t - 1),
            "csv_bytes": len(panel_csv(one_factor_panel(np.random.default_rng(0),
                                                         self.n, self.t)[0])),
            "targets": ["constant_correlation (shrink)", "diagonal (truncate, eval)"],
            "outputs": ["scm: CSV", "shrink: JSON", "truncate: JSON", "eval: JSON"],
        }

    def prepare(self, seed_seq: np.random.SeedSequence, workdir: Path) -> dict:
        r, _ = one_factor_panel(np.random.default_rng(seed_seq), self.n, self.t)
        csv = workdir / "panel.csv"
        csv.write_text(panel_csv(r), encoding="utf-8")
        out = {key: workdir / f"{key}.out" for key in self.OUTPUTS}
        for path in out.values():
            path.unlink(missing_ok=True)
        return {"r": r, "out": out, "argvs": self.argvs(str(csv), out)}

    def argvs(self, csv: str, out: dict) -> list[list[str]]:
        evals = [arg for m in self.EVAL_METHODS for arg in ("--method", m)]
        return [
            ["scm", "-i", csv, "-o", str(out["scm"])],
            ["shrink", "-i", csv, "--q", str(self.Q), "--target", "constant_correlation",
             "--json", "-o", str(out["shrink"])],
            ["truncate", "-i", csv, "--f-hat", "1", "--json", "-o", str(out["truncate"])],
            ["eval", "-i", csv, "--split", str(self.SPLIT), "--json", "-o", str(out["eval"]),
             *evals],
        ]

    def run(self, job: dict) -> list[int]:
        """Returns the exit codes; the outputs are the files in job["out"]."""
        return [cli.main(argv) for argv in job["argvs"]]

    def check(self, job: dict, exit_codes: list[int]) -> list[str]:
        chk = Checker()
        chk.equal("exit codes", exit_codes, [0] * len(self.OUTPUTS))
        missing = [k for k, path in job["out"].items() if not path.exists()]
        if missing:
            chk.problems.append(f"missing outputs {missing}")
            return chk.problems
        r = job["r"]
        c = scm(r)

        # One output at a time, so the checks stay below the program's own
        # peak memory and peak_rss_mb measures the program.
        got = np.loadtxt(job["out"]["scm"], delimiter=",", ndmin=2)
        chk.close("scm csv", got, c, CSV_REL)

        dense, model = self._read_payload(job["out"]["shrink"])
        want = self.Q * constant_correlation(c, mean_correlation(c)) + (1 - self.Q) * c
        chk.close("shrink dense", dense, want, EXACT_REL)
        chk.close("shrink factor model", factor_dense(model), dense, FACTOR_REL)
        chk.equal("shrink q", model["q"], self.Q)

        dense, model = self._read_payload(job["out"]["truncate"])
        chk.close("truncate diagonal", np.diag(dense), np.diag(c), DIAG_REL)
        chk.close("truncate dense", dense, truncated_one_pc(c, *top_pc(r)), FACTOR_REL)
        chk.close("truncate factor model", factor_dense(model), dense, FACTOR_REL)

        oracle = stability_oracle(r, self.SPLIT, self.EVAL_ORACLE)
        with open(job["out"]["eval"], encoding="utf-8") as fh:
            check_stability(chk, "eval", json.load(fh), oracle, self.t)
        return chk.problems

    @staticmethod
    def _read_payload(path: Path) -> tuple[np.ndarray, dict]:
        """(dense matrix, factor-model object) of a shrink/truncate JSON output."""
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        return dense_from_json(payload.pop("dense")), payload["factor_model"]


class EvalGrid:
    """grid_search_q, then stability_experiment, on an in-memory panel."""

    name = "eval_grid"
    GRID = tuple(i / 10 for i in range(11))
    SPLIT = 0.5
    # The four methods of scripts/run_stability.py.
    METHODS = (
        harness.MethodConfig(kind="scm_ridge", q=0.01),
        harness.MethodConfig(kind="shrink", q=0.5, target_kind="diagonal"),
        harness.MethodConfig(kind="shrink", q=0.5, target_kind="constant_correlation"),
        harness.MethodConfig(kind="truncated_pc", f_hat=1, target_kind="diagonal"),
    )
    ORACLE = (
        ("scm+ridge(q=0.01)", shrink_toward_diagonal(0.01)),
        ("shrink(q=0.5,diagonal)", shrink_toward_diagonal(0.5)),
        ("shrink(q=0.5,constant_correlation)", shrink_toward_constant_correlation(0.5)),
        ("truncated_pc(f_hat=1,diagonal)", truncate_one_pc),
    )

    def __init__(self, n: int = 1000, t: int = 501):
        self.n, self.t = n, t

    def properties(self) -> dict:
        m_train = split_point(self.t, self.SPLIT) - 1
        return {
            "N": self.n, "T": self.t, "N/M_train": self.n / m_train,
            "csv_bytes": 0,
            "targets": ["constant_correlation (grid)",
                        "diagonal and constant_correlation (stability)"],
            "outputs": ["grid: q (float)", "stability: StabilityReport"],
        }

    def prepare(self, seed_seq: np.random.SeedSequence, workdir: Path) -> dict:
        r, truth = one_factor_panel(np.random.default_rng(seed_seq), self.n, self.t)
        return {"r": r, "truth": truth, "ids": asset_ids(self.n)}

    def run(self, job: dict) -> dict:
        panel = covreg.ReturnsPanel(returns=job["r"], asset_ids=job["ids"])
        q = harness.grid_search_q(panel, "constant_correlation", list(self.GRID), self.SPLIT)
        report = harness.stability_experiment(panel, self.SPLIT, list(self.METHODS),
                                              truth=job["truth"])
        return {"q": q, "stability": report.to_json_dict()}

    def grid_errors(self, r: np.ndarray) -> np.ndarray:
        """Out-of-sample off-diagonal error of each grid q, as a quadratic in q."""
        n_train = split_point(r.shape[1], self.SPLIT)
        c_train, c_test = scm(r[:, :n_train]), scm(r[:, n_train:])
        a = constant_correlation(c_train, mean_correlation(c_train)) - c_train
        b = c_train - c_test
        for m in (a, b):
            np.fill_diagonal(m, 0.0)
        aa, ab, bb = np.vdot(a, a), np.vdot(a, b), np.vdot(b, b)
        q = np.asarray(self.GRID)
        return np.sqrt(np.maximum(q * q * aa + 2 * q * ab + bb, 0.0))

    def check(self, job: dict, outputs: dict) -> list[str]:
        chk = Checker()
        r = job["r"]
        errors = self.grid_errors(r)
        best = min(range(len(self.GRID)), key=lambda i: (errors[i], -self.GRID[i]))
        q = outputs["q"]
        if q not in self.GRID:
            chk.problems.append(f"grid q {q!r} not on the grid")
        elif q != self.GRID[best] and not (
            errors[self.GRID.index(q)] <= errors[best] * (1 + EXACT_REL)
        ):
            chk.problems.append(f"grid q {q} is not the argmin {self.GRID[best]}")
        oracle = stability_oracle(r, self.SPLIT, self.ORACLE, truth=job["truth"])
        check_stability(chk, "stability", outputs["stability"], oracle, self.t)
        return chk.problems


class BaiYinTall:
    """harness.bai_yin_check on tall panels (M = 4N) through its thread pool."""

    name = "baiyin_tall"

    def __init__(self, n: int = 200, m: int = 800, trials: int = 20):
        self.n, self.m, self.trials = n, m, trials

    def properties(self) -> dict:
        return {
            "N": self.n, "T": self.m + 1, "N/M": self.n / self.m, "trials": self.trials,
            "csv_bytes": 0, "targets": [], "outputs": ["BaiYinReport"],
        }

    def prepare(self, seed_seq: np.random.SeedSequence, workdir: Path) -> dict:
        """The job's input is the Bai-Yin seed, derived from the job's seed_seq."""
        return {"seed": int(seed_seq.generate_state(1, np.uint64)[0])}

    def run(self, job: dict):
        return harness.bai_yin_check(self.n, self.m, self.trials, job["seed"])

    def extremes(self, seed: int) -> tuple[float, float]:
        """Mean smallest positive and largest SCM eigenvalue over the trials."""
        mins, maxs = [], []
        for child in np.random.SeedSequence(seed).spawn(self.trials):
            data = np.random.default_rng(child).standard_normal((self.n, self.m + 1))
            ev = np.linalg.eigvalsh(scm(data))
            ev = ev[ev > QUASI_NULL_REL * ev[-1]]
            mins.append(ev[0])
            maxs.append(ev[-1])
        return float(np.mean(mins)), float(np.mean(maxs))

    def check(self, job: dict, outputs) -> list[str]:
        chk = Checker()
        y = self.n / self.m
        lo, hi = self.extremes(job["seed"])
        chk.close("observed_min", outputs.observed_min, lo, EXACT_REL)
        chk.close("observed_max", outputs.observed_max, hi, EXACT_REL)
        chk.close("y", outputs.y, y, EXACT_REL)
        chk.close("lambda_min_limit", outputs.lambda_min_limit, (1 - y**0.5) ** 2, EXACT_REL)
        chk.close("lambda_max_limit", outputs.lambda_max_limit, (1 + y**0.5) ** 2, EXACT_REL)
        chk.equal("n_trials", outputs.n_trials, self.trials)
        return chk.problems


WORKLOADS = {w.name: w for w in (CliWide, EvalGrid, BaiYinTall)}

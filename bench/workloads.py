"""The three benchmark workloads.

Each workload builds its inputs from the seed in ``__init__`` (set-up, with
one discarded warm-up call), runs whole rounds of the same operations in
``round``, and checks the outputs in ``check`` against ``oracles`` or against
properties the method must have.  rtdlab is reached only through module
attributes (``learner.run_many``, ``cli.main``, ...) so that the tracer's
wrappers see every call.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from rtdlab.errors import RtdLabError

import oracles


def no_op() -> None:
    pass


def derived_seed(*words: int) -> int:
    """A 31-bit seed determined by ``words`` (workload seed, round, ...)."""
    return int(np.random.SeedSequence(list(words)).generate_state(1)[0] >> 1)


def _rel_err(got, want) -> float:
    got = np.asarray(got, float)
    want = np.asarray(want, float)
    return float(np.max(np.abs(got - want)) / max(float(np.max(np.abs(want))), 1e-300))


@dataclass(frozen=True)
class RoundResult:
    attempted: int
    failed: int = 0
    steps: int = 0      # learner steps completed


# ---------------------------------------------------------------- mc_many_runs

class ManyRuns:
    """lambda = 0 runs of the 3x2 model through ``run_many``, two configurations.

    ``fixed``: varpi_relative_fixed from theta_star, alpha0 = 0.02, no burn-in.
    ``adaptive``: varpi_relative, alpha0 = 0.05, burn-in 0.2.
    Both at gamma = 0.99, delta_r = 0.5, rho = 0.65, 1e5 steps per run.
    """

    name = "mc_many_runs"
    REFERENCE = "small"     # reference kernel, see reference.py
    GAMMA, RHO, DELTA_R, N_STEPS = 0.99, 0.65, 0.5, 100_000
    RUNS = {"fixed": 2, "adaptive": 1}
    PREFIX = 2000
    # two-sided tail probability of the |t| gate on each of the 3 + 3 bias
    # components of the fixed variant; the gate is the t_{m-1} quantile
    T_TAIL = 1e-4

    def __init__(self, seed: int):
        from rtdlab import features, learner, models
        self.learner = learner
        self.seed = seed
        chain = models.finite_chain()
        psi = features.finite_poly_basis(3, 2)
        self.env = learner.FiniteChainEnv(chain, psi, policy=models.FINITE_EVAL_POLICY)
        self.psi_bar = features.feature_stats(chain, psi).psi_bar
        p = oracles.chain_matrix(models.FINITE_KERNEL, models.FINITE_EVAL_POLICY)
        pi = oracles.stationary(p)
        cost = models.FINITE_COST.reshape(-1)
        a_bar, _, self.theta_star = oracles.mean_flow(p, pi, psi.matrix, cost,
                                                      self.GAMMA, 0.0, self.DELTA_R)
        _, ups, _ = oracles.noise_sums(p, pi, psi.matrix, cost, self.GAMMA,
                                       self.DELTA_R, "fixed_relative_td0")
        self.iterate_pred = np.linalg.solve(a_bar, ups)
        self.rounds: list[tuple[int, dict]] = []
        for key in self.RUNS:
            learner.run_many(self.env, self.config(key, derived_seed(seed, 999_999)), 1000, 1)

    def config(self, key: str, seed: int):
        lr = self.learner
        if key == "fixed":
            return lr.LearnerConfig(
                gamma=self.GAMMA, lam=0.0, step=lr.StepSchedule(0.02, self.RHO),
                variant="varpi_relative_fixed", delta_r=self.DELTA_R, seed=seed,
                psi_bar=self.psi_bar, theta0=self.theta_star, pr_burn_in_fraction=0.0)
        return lr.LearnerConfig(
            gamma=self.GAMMA, lam=0.0, step=lr.StepSchedule(0.05, self.RHO),
            variant="varpi_relative", delta_r=self.DELTA_R, seed=seed,
            theta0=self.theta_star, pr_burn_in_fraction=0.2)

    def round(self, index: int, between=no_op) -> RoundResult:
        """One round; ``between`` is called before each operation (worker.Timer)."""
        seed = derived_seed(self.seed, index)
        out: dict = {}
        failed = 0
        for key, n_runs in self.RUNS.items():
            between()
            try:
                out[key] = self.learner.run_many(self.env, self.config(key, seed),
                                                 self.N_STEPS, n_runs,
                                                 snapshot_plan=(self.PREFIX,))
            except RtdLabError:
                out[key] = None
                failed += n_runs
        self.rounds.append((seed, out))
        n_ops = sum(self.RUNS.values())
        return RoundResult(n_ops, failed, (n_ops - failed) * self.N_STEPS)

    def check(self) -> list[str]:
        problems: list[str] = []
        fixed = []
        for index, (seed, out) in enumerate(self.rounds):
            for key, runs in out.items():
                if runs is None:
                    problems.append(f"{key}: run_many raised in round {index}")
                    continue
                cfg = self.config(key, seed)
                for r in runs:
                    arrays = [r.theta_final, r.theta_pr] + [s.theta for s in r.snapshots]
                    if not all(np.all(np.isfinite(a)) for a in arrays):
                        problems.append(f"{key} run {r.run_index}: non-finite iterate")
                        continue
                    problems += self._check_prefix(key, cfg, r)
                if key == "fixed":
                    fixed += runs
        if len(fixed) < 2:
            problems.append(f"fixed: {len(fixed)} finished runs, the bias check needs 2")
        else:
            problems += self._check_bias(fixed)
        return problems

    def _check_prefix(self, key, cfg, result) -> list[str]:
        lr = self.learner
        path = self.env.sample_path(self.PREFIX, cfg.eval_mode,
                                    lr.substream(cfg.seed, 2 * result.run_index))
        burn = int(cfg.pr_burn_in_fraction * self.N_STEPS)
        theta, theta_pr = oracles.theta_recursion(
            path.psi_states, path.cost, path.psi_target, gamma=cfg.gamma, lam=cfg.lam,
            alpha0=cfg.step.alpha0, rho=cfg.step.rho, variant=cfg.variant,
            delta_r=cfg.delta_r, theta0=cfg.theta0, psi_bar=cfg.psi_bar,
            baseline_rho=cfg.baseline_step_rho, burn_in=burn)
        snap = [s for s in result.snapshots if s.n == self.PREFIX]
        if len(snap) != 1:
            return [f"{key} run {result.run_index}: no snapshot at step {self.PREFIX}"]
        snap = snap[0]
        problems = []
        if _rel_err(snap.theta, theta) > 1e-9:
            problems.append(f"{key} run {result.run_index}: prefix iterate off by "
                            f"{_rel_err(snap.theta, theta):.2e}")
        if theta_pr is not None and _rel_err(snap.theta_pr, theta_pr) > 1e-9:
            problems.append(f"{key} run {result.run_index}: prefix average off")
        return problems

    def t_gate(self, n_runs: int) -> float:
        from scipy import stats
        return float(stats.t.ppf(1.0 - self.T_TAIL / 2, n_runs - 1))

    def _check_bias(self, runs) -> list[str]:
        alpha_n = min(0.02, float(self.N_STEPS) ** (-self.RHO))
        gate = self.t_gate(len(runs))
        problems = []
        for label, rows, pred in (
                ("theta_N", [r.theta_final for r in runs], self.iterate_pred),
                ("theta_PR", [r.theta_pr for r in runs],
                 self.iterate_pred / (1.0 - self.RHO))):
            t = self.bias_t(rows, pred, alpha_n)
            if np.any(t > gate):
                problems.append(f"{label} bias |t| = {np.round(t, 2)} over {gate:.3g}")
        return problems

    def bias_t(self, rows, pred, alpha_n) -> np.ndarray:
        """|t| statistics of the empirical scaled bias against ``pred``."""
        samples = (np.stack(rows) - self.theta_star) / alpha_n
        se = samples.std(axis=0, ddof=1) / np.sqrt(len(samples))
        return np.abs(samples.mean(axis=0) - pred) / se


# ----------------------------------------------------------------- exact_large

def random_model(rng: np.random.Generator, n_x: int, n_u: int, dim: int = 4):
    """Dense random kernel, policy and costs; features [1, N(0,1) x (dim-1)].

    Every kernel row and policy entry is positive, so the state-action chain
    is irreducible and aperiodic; the constant column gives a normalizer
    xi = e_1 with xi'psi(z) = 1.
    """
    kernel = rng.random((n_u, n_x, n_x)) ** 3 + 1e-3
    kernel /= kernel.sum(axis=2, keepdims=True)
    policy = rng.random((n_x, n_u)) + 0.1
    policy /= policy.sum(axis=1, keepdims=True)
    cost = rng.random((n_x, n_u))
    feats = np.column_stack([np.ones(n_x * n_u), rng.standard_normal((n_x * n_u, dim - 1))])
    return kernel, policy, cost, feats


class ExactLarge:
    """Full exact reports on seeded random unichains with n_z = 20, 24, 28."""

    name = "exact_large"
    REFERENCE = "dense"
    SIZES = ((5, 4), (6, 4), (7, 4))
    GAMMAS = (0.9, 0.99, 0.999)
    DELTAS = (0.0, 0.5)
    RHO, BETA, FD_STEP, N_PROBES = 0.65, 0.9, 1e-5, 100
    REPORTS = (("td0", 0.99, 0.0), ("td0", 0.999, 0.0),
               ("fixed_relative_td0", 0.99, 0.5), ("fixed_relative_td0", 0.999, 0.5),
               ("varpi_relative_td0", 0.99, 0.5))

    def __init__(self, seed: int):
        from rtdlab import asymptotics, features, markov, meanflow
        self.markov, self.features = markov, features
        self.meanflow, self.asymptotics = meanflow, asymptotics
        self.seed = seed
        rng = np.random.default_rng(derived_seed(seed, 1))
        self.raw = [random_model(rng, n_x, n_u) for n_x, n_u in self.SIZES]
        self.models = [self._inputs(*raw) for raw in self.raw]
        self.probes = rng.standard_normal((self.N_PROBES, 4))
        self.report(self._inputs(*random_model(rng, 3, 2)))
        self.first: list[dict] = []
        self.later: list[list[dict]] = []

    def _inputs(self, kernel, policy, cost, feats):
        mk = self.markov
        n_u, n_x, _ = kernel.shape
        return (mk.FiniteMdp(n_states=n_x, n_actions=n_u, kernel=kernel, cost=cost),
                mk.RandomizedPolicy(probs=policy), self.features.FeatureMap(feats))

    def report(self, inputs) -> dict:
        """One operation: a chain's full exact report."""
        mdp, policy, psi = inputs
        mf, asy = self.meanflow, self.asymptotics
        chain = self.markov.build_chain(mdp, policy)
        out = {"chain": chain, "stats": self.features.feature_stats(chain, psi),
               "flows": {}, "reports": {}}
        for gamma in self.GAMMAS:
            for delta in self.DELTAS:
                flow = mf.mean_flow_relative(chain, psi, gamma, 0.0, delta)
                out["flows"][gamma, delta] = (flow, mf.spectral_report(flow.a_bar))
        out["dirichlet"] = mf.dirichlet_report(chain, psi, self.BETA)
        for variant, gamma, delta in self.REPORTS:
            out["reports"][variant, gamma] = asy.asymptotics_report(
                chain, psi, gamma, delta, self.RHO, variant)
        out["sensitivity"] = asy.sensitivity(chain, psi, 0.99, self.RHO)
        return out

    def round(self, index: int, between=no_op) -> RoundResult:
        reports = []
        for inputs in self.models:
            between()
            reports.append(self.report(inputs))
        if index == 0:
            self.first = reports
        else:
            self.later.append(reports)
        return RoundResult(len(self.models))

    @staticmethod
    def _numbers(rep: dict) -> np.ndarray:
        parts = [rep["stats"].sigma0.ravel(), rep["dirichlet"].m_beta.ravel(),
                 rep["sensitivity"].d_sigma.ravel(), rep["sensitivity"].d_bias]
        for flow, _ in rep["flows"].values():
            parts.append(flow.a_bar.ravel())
        for r in rep["reports"].values():
            parts += [r.sigma_theta_star.ravel(), r.bias]
        return np.concatenate(parts)

    def check(self) -> list[str]:
        problems = []
        for i, (raw, inputs, rep) in enumerate(zip(self.raw, self.models, self.first)):
            problems += [f"chain {i}: {p}" for p in self._check_one(raw, inputs, rep)]
            for later in self.later:
                if _rel_err(self._numbers(later[i]), self._numbers(rep)) > 1e-9:
                    problems.append(f"chain {i}: a later round disagrees with the first")
        return problems

    def growth(self, rep: dict):
        """||bias|| and tr Sigma_theta ratios from gamma = 0.99 to 0.999."""
        out = {}
        for variant in ("td0", "fixed_relative_td0"):
            lo, hi = rep["reports"][variant, 0.99], rep["reports"][variant, 0.999]
            out[variant] = (float(np.linalg.norm(hi.bias) / np.linalg.norm(lo.bias)),
                            float(np.trace(hi.sigma_theta_star)
                                  / np.trace(lo.sigma_theta_star)))
        return out

    @staticmethod
    def growth_problems(bias_td, trace_td, bias_rel, trace_rel) -> list[str]:
        """The growth gate on the ratios ``growth`` gives (TD(0), then relative)."""
        problems = []
        # TD(0)'s bias grows like 1/(1-gamma) only along Upsilon_bar's share in
        # the near-null direction of A_bar, which can be small (README)
        if not (bias_td <= 20.0 and 50.0 <= trace_td <= 200.0):
            problems.append(f"TD(0) growth {bias_td:.2f}x bias, {trace_td:.1f}x trace "
                            "outside [0, 20] and [50, 200]")
        if not (bias_rel <= 1.5 and trace_rel <= 1.5):
            problems.append(f"relative growth {bias_rel:.2f}x bias, {trace_rel:.2f}x trace "
                            "above 1.5")
        return problems

    def _check_one(self, raw, inputs, rep) -> list[str]:
        kernel, policy, cost, feats = raw
        problems = []
        p = oracles.chain_matrix(kernel, policy)
        pi = oracles.stationary(p)
        c = cost.reshape(-1)
        chain = rep["chain"]
        if _rel_err(chain.transition, p) > 1e-12 or _rel_err(chain.stationary, pi) > 1e-9:
            problems.append("chain or stationary pmf differs from the oracle")
        for (gamma, delta), (flow, spec) in rep["flows"].items():
            a_bar, b_bar, theta = oracles.mean_flow(p, pi, feats, c, gamma, 0.0, delta)
            where = f"gamma={gamma} delta_r={delta}"
            if _rel_err(flow.a_bar, a_bar) > 1e-9 or _rel_err(flow.b_bar, b_bar) > 1e-9:
                problems.append(f"A_bar or b_bar differs from the oracle at {where}")
            if flow.theta_star is None or _rel_err(flow.theta_star, theta) > 1e-6:
                problems.append(f"theta_star differs from the oracle at {where}")
            if not spec.hurwitz or np.max(np.linalg.eigvals(a_bar).real) >= 0:
                problems.append(f"A_bar not Hurwitz at {where}")
            want = np.sort_complex(np.linalg.eigvals(a_bar))
            if np.max(np.abs(np.sort_complex(spec.eigenvalues) - want)) \
                    > 1e-8 * np.max(np.abs(want)):
                problems.append(f"eigenvalues differ from the oracle at {where}")
        for variant, gamma, delta in self.REPORTS:
            r = rep["reports"][variant, gamma]
            sig, ups, _ = oracles.noise_sums(p, pi, feats, c, gamma, delta, variant)
            if _rel_err(r.sigma_delta, sig) > 1e-7 or _rel_err(r.upsilon_bar, ups) > 1e-7:
                problems.append(f"Sigma_Delta or Upsilon_bar differs from the oracle "
                                f"({variant}, gamma={gamma})")
        g = self.growth(rep)
        problems += self.growth_problems(*g["td0"], *g["fixed_relative_td0"])
        problems += self._check_sensitivity(inputs, rep)
        d_psi = pi[:, None] * feats
        psi_bar = feats.T @ pi
        sigma0 = d_psi.T @ feats - np.outer(psi_bar, psi_bar)
        if _rel_err(rep["stats"].sigma0, sigma0) > 1e-9:
            problems.append("Sigma(0) differs from the oracle")
        dr = rep["dirichlet"]
        quad_m = np.einsum("ki,ij,kj->k", self.probes, dr.m_beta, self.probes)
        quad_s = np.einsum("ki,ij,kj->k", self.probes, sigma0, self.probes)
        if np.any(quad_m - dr.gap * quad_s < -1e-10 * np.abs(quad_m).max()):
            problems.append("theta'M_beta theta < gap * theta'Sigma(0) theta on a probe")
        return problems

    def _check_sensitivity(self, inputs, rep) -> list[str]:
        mdp, policy, psi = inputs
        chain, h, asy = rep["chain"], self.FD_STEP, self.asymptotics
        plus, minus = (asy.asymptotics_report(chain, psi, 0.99, s * h, self.RHO,
                                              "fixed_relative_td0") for s in (1, -1))
        sens = rep["sensitivity"]
        fd_sigma = (plus.sigma_theta_star - minus.sigma_theta_star) / (2 * h)
        fd_bias = (plus.bias - minus.bias) / (2 * h)
        errs = (_rel_err(sens.d_sigma, fd_sigma), _rel_err(sens.d_bias, fd_bias))
        if max(errs) >= 1e-3:
            return [f"sensitivity vs finite differences: rel errors {errs}"]
        return []


# ------------------------------------------------------------------ cli_small

class CliSmall:
    """rtdlab subcommands in-process through ``rtdlab.cli.main``, desk size."""

    name = "cli_small"
    REFERENCE = "small"
    # (key, argv after --out/--seed, takes --seed); moments keeps the CLI's
    # default seed: its 3-sigma verdicts are one fixed draw, see README
    COMMANDS = (
        ("eigs", ["eigs"], True),
        ("dirichlet", ["dirichlet"], True),
        ("sensitivity", ["sensitivity"], True),
        ("moments", ["moments"], False),
        ("bias", ["bias", "--runs", "4", "--steps", "20000"], True),
        ("run_lambda", ["run", "--lam", "0.5", "--eval-mode", "natural",
                        "--runs", "1", "--steps", "100000"], True),
        ("run_speed", ["run", "--model", "speed_scaling", "--alpha0", "1e-6",
                       "--runs", "1", "--steps", "20000"], True),
        ("eigs_speed", ["eigs", "--model", "speed_scaling", "--steps", "20000",
                        "--runs", "2"], True),
        ("run_mu", ["run", "--variant", "relative_fixed_mu", "--runs", "1",
                    "--steps", "1000"], True),
    )
    EXPECTED_FAILURE = ("run_mu", "ConfigError", "relative_fixed_mu requires a baseline mu")
    # gate on sup|theta_PR - theta_star| / sup|theta_star| for the lambda = 0.5
    # run; the O(alpha_N) bias of 1e5 steps alone gives about 0.26 (README)
    THETA_GATE = 0.4

    def __init__(self, seed: int):
        from rtdlab import cli, models
        self.cli, self.models = cli, models
        self.cli_seed = derived_seed(seed, 2)
        self.work = Path(__file__).resolve().parent / "work" / f"{self.name}-{os.getpid()}"
        self.results: list[dict] = []
        self.call(["eigs", "--out", str(self.work / "warm-up")])

    def call(self, argv: list[str]) -> tuple[int, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = self.cli.main(argv)
        return rc, buf.getvalue()

    def argv(self, key: str, out: Path) -> list[str]:
        """The argv of command ``key``, writing to ``out / key``."""
        args, seeded = {k: (a, s) for k, a, s in self.COMMANDS}[key]
        argv = args + ["--out", str(out / key)]
        return argv + ["--seed", str(self.cli_seed)] if seeded else argv

    def round(self, index: int, between=no_op) -> RoundResult:
        out = self.work / f"round-{index:03d}"
        results = {}
        for key, _, _ in self.COMMANDS:
            between()
            results[key] = self.call(self.argv(key, out))
        self.results.append({"dir": out, "calls": results})
        failed = sum(rc != 0 for rc, _ in results.values())
        return RoundResult(len(self.COMMANDS), failed)

    def check(self) -> list[str]:
        problems = []
        first = self.results[0]
        base = first["dir"]
        for key, (rc, text) in first["calls"].items():
            if key == self.EXPECTED_FAILURE[0]:
                problems += self._check_expected_failure(base, rc, text)
            elif rc != 0:
                problems.append(f"{key} exited {rc}: {text.strip()}")
        if problems:
            return problems
        problems += self._check_eigs(base / "eigs" / "eigs.csv")
        sens = json.loads((base / "sensitivity" / "sensitivity.json").read_text())
        if not (sens["rel_err_d_sigma"] < 1e-3 and sens["rel_err_d_bias"] < 1e-3):
            problems.append("sensitivity.json finite-difference errors not below 1e-3")
        mom = json.loads((base / "moments" / "gamma_moments.json").read_text())
        if not (mom["mean_ok"] and mom["var_ok"]):
            problems.append("moments check reports false")
        err = self.lambda_error(base)
        if not err <= self.THETA_GATE:
            problems.append(f"lambda=0.5 run: relative |theta_PR - theta_star| = {err:.3g} "
                            f"over {self.THETA_GATE}")
        for rel in ("bias/bias_table.csv", "run_speed/runs.csv", "eigs_speed/eigs.csv"):
            if not np.all(np.isfinite(self._table(base / rel))):
                problems.append(f"{rel} holds non-finite values")
        problems += self._check_repeats(base)
        return problems

    def _check_expected_failure(self, base, rc, text) -> list[str]:
        key, error, message = self.EXPECTED_FAILURE
        if rc == 0:
            # once the fault is fixed the run gets the checks of the other runs
            if not np.all(np.isfinite(self._table(base / key / "runs.csv"))):
                return [f"{key} holds non-finite values"]
            return []
        try:
            reply = json.loads(text.strip().splitlines()[-1])
        except (ValueError, IndexError):
            return [f"{key} exited {rc} without a JSON error"]
        if reply.get("error") != error or message not in reply.get("message", ""):
            return [f"{key} failed differently than expected: {reply}"]
        return []

    @staticmethod
    def _table(path: Path) -> np.ndarray:
        with open(path) as fh:
            rows = list(csv.reader(fh))
        return np.array([[float(v) for v in row] for row in rows[1:]])

    def _oracle(self):
        m = self.models
        p = oracles.chain_matrix(m.FINITE_KERNEL, m.FINITE_EVAL_POLICY)
        return p, oracles.stationary(p), oracles.FINITE_FEATURES, m.FINITE_COST.reshape(-1)

    def _check_eigs(self, path: Path) -> list[str]:
        p, pi, feats, cost = self._oracle()
        table = self._table(path)
        problems = []
        for row in table:
            gamma, lam, delta = row[:3]
            a_bar, _, _ = oracles.mean_flow(p, pi, feats, cost, gamma, lam, delta)
            want = np.sort_complex(np.linalg.eigvals(a_bar))
            got = np.sort_complex(row[3:6] + 1j * row[6:9])
            if np.max(np.abs(got - want)) > 1e-8 * np.max(np.abs(want)):
                problems.append(f"eigs.csv eigenvalues differ from the oracle at "
                                f"gamma={gamma} delta_r={delta}")
        return problems

    def lambda_error(self, base: Path) -> float:
        """sup|theta_PR - theta_star| / sup|theta_star| of the run_lambda output in ``base``."""
        args = self.cli.build_parser().parse_args(self.argv("run_lambda", base))
        p, pi, feats, cost = self._oracle()
        _, _, theta_star = oracles.mean_flow(p, pi, feats, cost, args.gamma, args.lam,
                                             args.delta_r)
        return _rel_err(self._table(base / "run_lambda" / "runs.csv")[:, 2], theta_star)

    def _check_repeats(self, base: Path) -> list[str]:
        """Every round's files, and a rerun of eigs, match the first round's bytes."""
        rerun = self.work / "rerun"
        key = self.COMMANDS[0][0]
        self.call(self.argv(key, rerun))
        repeats = [(rerun / key, base / key)]
        repeats += [(r["dir"], base) for r in self.results[1:]]
        problems = []
        for other, ref in repeats:
            files = sorted(f.relative_to(ref) for f in ref.rglob("*") if f.is_file())
            for rel in files:
                if not (other / rel).is_file() \
                        or (other / rel).read_bytes() != (ref / rel).read_bytes():
                    problems.append(f"{other / rel} is not byte-identical to the first round")
        return problems

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


WORKLOADS = {cls.name: cls for cls in (ManyRuns, ExactLarge, CliSmall)}

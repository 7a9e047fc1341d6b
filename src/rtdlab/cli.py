"""Command-line front end for the built-in experiments.

Subcommands
    eigs        eigenvalue table of the mean-flow matrix over a gamma grid
    hist        scaled/centered estimates with the theoretical Gaussian overlay
    bias        empirical vs predicted bias, plus the bias-norm curve in delta_r
    sensitivity closed-form derivatives with finite-difference cross-checks
    dirichlet   spectral-gap table and quadratic-form bound margins
    run         plain multi-run harness with per-run JSON and an aggregate CSV
    moments     arrival-distribution moment check for the speed-scaling model

Each ``cmd_*`` only computes: it returns its files as ``{name: (header,
rows)}`` for a CSV and ``{name: dict}`` for a JSON file, and ``main`` writes
them under ``--out`` with :func:`write_outputs` once the command has
returned.  Floats are written at full precision and every JSON file carries
the resolved ``config`` and its ``config_hash``, so a rerun with the same
configuration and seed is byte-identical.

Each subcommand takes ``--out``, ``--config`` and only the flags it reads
(``COMMANDS``); a value it fixes, such as lam = 0 for ``hist`` and ``bias``,
is recorded in ``config`` but no flag or ``--config`` key can set it.  The
keys of the ``--config`` JSON object are the subcommand's flags (``delta_r``
for ``--delta-r``); ``main`` parses them as flags put before the command
line's, so the same rules check them and the command line wins.  A list is
a grid of numbers, a scalar for a grid flag is a one-value grid, and the
last ``--config`` given is used.  The model name, the counts and the ranges
of gamma, lam, delta_r, beta, alpha0 and the finite-difference step are
checked as the flags are parsed, before any work, and so are the flags a
command reads for the speed-scaling model only (``SAMPLED_ONLY``), which a
finite model rejects and ``config`` then leaves out.  Every rejection,
argparse's own included (unknown flag, bad value, missing ``--out``), is an
:class:`~rtdlab.errors.RtdLabError`: the command writes nothing, leaves no
``--out`` directory, prints a one-line JSON object with ``error`` and
``message`` fields and exits 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import math
import sys
from pathlib import Path as FsPath

import numpy as np

from . import models
from .asymptotics import (VARIANT_FIXED_RELATIVE, asymptotics_report, noise_variant,
                          sensitivity)
from .errors import ConfigError, RtdLabError, SingularSystem
from .features import FeatureMap, baseline_mean, builtin_basis, feature_mean, feature_stats
from .learner import (EVAL_MODES, FiniteChainEnv, LearnerConfig, StepSchedule,
                      empirical_bias, empirical_clt_samples, run_many, snapshot_indices)
from .markov import FiniteChain, build_chain, guarded_solve, load_model
from .meanflow import EPS_P_BETA_GRID, dirichlet_report, mean_flow_relative, spectral_report
from .speedscale import (NOISE_WINDOW, SpeedScalingEnv, SpeedScalingModel,
                         estimate_noise_covariance, estimate_stats, gamma_moment_check)

DEFAULT_GAMMA_GRID = (0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99, 0.999)


def _fmt(x) -> str:
    """Full-precision, round-trippable float text."""
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def write_csv(path: FsPath, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if not isinstance(v, str) else v for v in row))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


def write_json(path: FsPath, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, default=_json_default) + "\n")


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    raise TypeError(f"not JSON-serializable: {type(obj)}")


def config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"), default=_json_default)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _resolved(args: argparse.Namespace) -> dict:
    skip = {"out", "config"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def write_outputs(out: FsPath, files: dict, args: argparse.Namespace) -> None:
    """Write a command's files under ``out``.

    A ``(header, rows)`` value is a CSV file; a dict is a JSON file, written
    with the resolved configuration and its hash merged in.
    """
    config = _resolved(args)
    meta = {"config": config, "config_hash": config_hash(config)}
    for name, content in files.items():
        if isinstance(content, tuple):
            write_csv(out / name, *content)
        else:
            write_json(out / name, {**content, **meta})


def resolve_model(name: str, basis: str) -> tuple[FiniteChain, FeatureMap] | SpeedScalingModel:
    """The model a ``--model`` value names: ``(chain, psi)`` for a finite one.

    The chain carries the policy it was built with; the flag's type has
    checked the value's form.
    """
    if name == "speed_scaling":
        if basis != "finite_poly":
            raise ConfigError(f"the speed-scaling model has its own basis, got --basis {basis}")
        return SpeedScalingModel()
    try:
        if name == "finite3x2":
            mdp, policy = models.finite_mdp(), models.finite_eval_policy()
            explicit = None
        else:
            mdp, policy, explicit = load_model(name[5:])
        chain = build_chain(mdp, policy)
    except KeyError as exc:
        raise ConfigError(f"model {name!r} has no key {exc}") from exc
    except (OSError, TypeError, ValueError) as exc:
        raise ConfigError(f"cannot load model {name!r}: {exc}") from exc
    if basis == "file" and explicit is None:
        raise ConfigError(f"--basis file needs a model file with a features matrix, "
                          f"and {name} has none")
    try:
        psi = (FeatureMap(explicit) if basis == "file"
               else builtin_basis(basis, mdp.n_states, mdp.n_actions))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return chain, psi


def _learner_config(args, chain: FiniteChain | None = None,
                    psi: FeatureMap | None = None) -> LearnerConfig:
    sched = StepSchedule(alpha0=args.alpha0, rho=args.rho)
    kw = dict(gamma=args.gamma, lam=args.lam, step=sched, variant=args.variant,
              delta_r=args.delta_r, eval_mode=args.eval_mode, seed=args.seed,
              pr_burn_in_fraction=args.burn_in)
    if args.variant in ("relative_fixed_mu", "varpi_relative_fixed") and chain is None:
        raise ConfigError(f"{args.variant} needs the exact stationary baseline of a "
                          "finite model")
    if args.variant == "relative_fixed_mu":
        # the stationary baseline, as in mean_flow_relative's default
        kw["mu"] = baseline_mean(chain.stationary, psi)
    elif args.variant == "varpi_relative_fixed":
        kw["psi_bar"] = feature_mean(chain, psi)
    return LearnerConfig(**kw)


def _run_many(args, model: tuple[FiniteChain, FeatureMap] | SpeedScalingModel) -> list:
    """The ``--runs`` runs of the chosen variant, with the ``--snapshots`` plan."""
    if isinstance(model, SpeedScalingModel):
        env, cfg = SpeedScalingEnv(model), _learner_config(args)
    else:
        env, cfg = FiniteChainEnv(*model), _learner_config(args, *model)
    plan = ()
    if args.snapshots >= 2:
        n0 = int(args.burn_in * args.steps)
        try:
            plan = tuple(snapshot_indices(max(n0, 1), args.steps, args.rho, args.snapshots))
        except ValueError as exc:
            raise ConfigError(f"no snapshot plan for --snapshots {args.snapshots} after "
                              f"burn-in {n0} of --steps {args.steps}: {exc}") from exc
    return run_many(env, cfg, args.steps, args.runs, snapshot_plan=plan)


def _eigs_header(d: int, extra: tuple[str, ...] = ()) -> list[str]:
    return (["gamma", "lambda", "delta_r"]
            + [f"eig_re_{i+1}" for i in range(d)] + [f"eig_im_{i+1}" for i in range(d)]
            + ["max_re", "cond", "hurwitz", *extra])


def _spectral_row(gamma: float, lam: float, delta_r: float, rep) -> list:
    return ([gamma, lam, delta_r] + list(rep.eigenvalues.real) + list(rep.eigenvalues.imag)
            + [rep.max_real_part, rep.condition_number, rep.hurwitz])


def cmd_eigs(args) -> dict:
    gammas = args.gamma_grid or DEFAULT_GAMMA_GRID
    for g in gammas:
        if args.lam * g >= 1 - 1e-6:
            raise ConfigError(f"gamma {g} has lam * gamma >= 1 - 1e-6 at --lam {args.lam}")
    model = resolve_model(args.model, args.basis)
    grid = [(g, dr) for g in gammas for dr in args.delta_grid or (0.0, args.delta_r)]
    if isinstance(model, SpeedScalingModel):
        if args.lam != 0.0:
            raise ConfigError("the speed-scaling mean flow is estimated at lam = 0 only, "
                              f"got --lam {args.lam}")
        stats_list = [estimate_stats(model, args.steps, args.seed, stream=2 * i)
                      for i in range(args.runs)]
        rows = []
        for g, dr in grid:
            rep = spectral_report(np.mean([s.mean_flow(g, dr) for s in stats_list], axis=0))
            per = [np.min(np.abs(spectral_report(s.mean_flow(g, dr)).eigenvalues.real))
                   for s in stats_list]
            se = float(np.std(per, ddof=1) / np.sqrt(len(per)))
            rows.append(_spectral_row(g, args.lam, dr, rep) + [args.steps, args.runs, se])
        header = _eigs_header(model.dim, ("traj_steps", "n_traj", "min_abs_re_se"))
    else:
        chain, psi = model
        rows = [_spectral_row(g, args.lam, dr, spectral_report(
                    mean_flow_relative(chain, psi, g, args.lam, dr).a_bar))
                for g, dr in grid]
        header = _eigs_header(psi.dim)
    return {"eigs.csv": (header, rows), "eigs_meta.json": {}}


def cmd_hist(args) -> dict:
    model = resolve_model(args.model, args.basis)
    if isinstance(model, SpeedScalingModel) and args.steps <= NOISE_WINDOW:
        raise ConfigError(f"the speed-scaling overlay sums noise lags up to {NOISE_WINDOW} "
                          f"and needs --steps > {NOISE_WINDOW}, got {args.steps}")
    runs = _run_many(args, model)
    # the noise statistics of the variant that ran; td is compared at delta_r = 0
    variant, delta_r = noise_variant(args.variant, args.delta_r)
    if isinstance(model, SpeedScalingModel):
        # only td and varpi_relative run here, so the baseline rides the TD scalar
        stats = estimate_stats(model, args.steps, args.seed, stream=10_001)
        theta_star = stats.theta_star(args.gamma, delta_r)
        sig_d = estimate_noise_covariance(model, stats, args.gamma, delta_r,
                                          args.steps, args.seed, stream=10_003)
        a = stats.mean_flow(args.gamma, delta_r)
        a_inv = guarded_solve(a, np.eye(len(a)), SingularSystem, "A_bar")
        sig_t = a_inv @ sig_d @ a_inv.T
        overlay_src = "monte_carlo"
    else:
        exact = asymptotics_report(*model, args.gamma, delta_r, args.rho, variant)
        theta_star, sig_t = exact.theta_star, exact.sigma_theta_star
        overlay_src = "exact"
    samples = empirical_clt_samples(runs, theta_star,
                                    source="snapshots" if args.snapshots >= 2 else "final")
    d = samples.shape[1]
    return {
        "hist_samples.csv": ([f"component_{i+1}" for i in range(d)],
                             [list(r) for r in samples]),
        "hist_overlay.json": {
            "mean": [0.0] * d,
            "variance": list(np.diag(sig_t)),
            "sigma_theta_star": sig_t,
            "theta_star": theta_star,
            "overlay_source": overlay_src,
            "noise_model": variant,
            "noise_delta_r": delta_r,
            "n_samples": int(samples.shape[0]),
        },
    }


def cmd_bias(args) -> dict:
    chain, psi = resolve_model(args.model, args.basis)
    variant, delta_r = noise_variant(args.variant, args.delta_r)
    exact = asymptotics_report(chain, psi, args.gamma, delta_r, args.rho, variant)
    cfg = dataclasses.replace(_learner_config(args, chain, psi), theta0=exact.theta_star)
    runs = run_many(FiniteChainEnv(chain, psi), cfg, args.steps, args.runs)
    alpha_n = cfg.step.alpha(args.steps)
    emp = empirical_bias([r.theta_final for r in runs], exact.theta_star, alpha_n)
    avg = empirical_bias([r.theta_pr for r in runs], exact.theta_star, alpha_n)
    iterate_pred = (1.0 - args.rho) * exact.bias
    rows = [[i + 1, emp.value[i], emp.stderr[i], iterate_pred[i], avg.value[i],
             avg.stderr[i], exact.bias[i]] for i in range(psi.dim)]
    # ||bias||^2 curve over delta_r with tangent slope at 0
    sens = sensitivity(chain, psi, args.gamma, args.rho)
    deltas = [0.1 * k for k in range(0, 11)]
    biases = [asymptotics_report(chain, psi, args.gamma, dr, args.rho, v).bias
              for v, dr in (noise_variant(args.variant, d) for d in deltas)]
    return {
        "bias_table.csv": (["component", "empirical_iterate", "stderr_iterate",
                            "predicted_iterate", "empirical_averaged", "stderr_averaged",
                            "predicted_averaged"], rows),
        "bias_curve.csv": (["delta_r", "bias_sq_norm"],
                           [[dr, float(b @ b)] for dr, b in zip(deltas, biases)]),
        "bias_meta.json": {
            "slope_at_zero": 2.0 * float(biases[0] @ sens.d_bias),
            "bias_sq_at_zero": float(biases[0] @ biases[0]),
            "noise_model": exact.variant,
            "noise_delta_r": exact.delta_r,
        },
    }


def _rel_err(fd: np.ndarray, closed: np.ndarray) -> float | None:
    """max|fd - closed| / max|fd|, or None (JSON null) when fd is exactly 0."""
    scale = np.max(np.abs(fd))
    return float(np.max(np.abs(fd - closed)) / scale) if scale > 0 else None


def cmd_sensitivity(args) -> dict:
    chain, psi = resolve_model(args.model, args.basis)
    rep = sensitivity(chain, psi, args.gamma, args.rho)
    h = args.fd_step
    r_p, r_m = (asymptotics_report(chain, psi, args.gamma, sign * h, args.rho,
                                   VARIANT_FIXED_RELATIVE) for sign in (1, -1))
    fd_sigma = (r_p.sigma_theta_star - r_m.sigma_theta_star) / (2 * h)
    fd_bias = (r_p.bias - r_m.bias) / (2 * h)
    # the closed-form sensitivity is that of the fixed variant
    variant, delta_r = noise_variant("varpi_relative_fixed", args.delta_r)
    base = asymptotics_report(chain, psi, args.gamma, delta_r, args.rho, variant)
    return {
        "asymptotics.json": {**dataclasses.asdict(base), "gamma": args.gamma, "lambda": 0.0},
        "sensitivity.json": {
            **dataclasses.asdict(rep),
            "fd_d_sigma": fd_sigma,
            "fd_d_bias": fd_bias,
            "fd_step": h,
            "rel_err_d_sigma": _rel_err(fd_sigma, rep.d_sigma),
            "rel_err_d_bias": _rel_err(fd_bias, rep.d_bias),
        },
    }


def cmd_dirichlet(args) -> dict:
    """Rows of ``--beta-grid``, from one report per distinct beta of it and EPS_P_BETA_GRID.

    eps_P is the least gap of the EPS_P_BETA_GRID reports, ``eps_p(chain)`` bit for bit.
    """
    chain, psi = resolve_model(args.model, args.basis)
    probes = np.random.default_rng(args.seed).standard_normal((args.probes, psi.dim))
    grid = args.beta_grid or EPS_P_BETA_GRID
    reports = {beta: dirichlet_report(chain, psi, beta)
               for beta in dict.fromkeys((*EPS_P_BETA_GRID, *grid))}
    floor = min(reports[beta].gap for beta in EPS_P_BETA_GRID)
    quad_sigma0 = np.einsum("ki,ij,kj->k", probes, feature_stats(chain, psi).sigma0, probes)
    rows = []
    for beta in grid:
        rep = reports[beta]
        margins = np.einsum("ki,ij,kj->k", probes, rep.m_beta, probes) - rep.gap * quad_sigma0
        # the column is the least gap over the eps_P grid and this row's beta,
        # which need not lie on the grid
        rows.append([beta, rep.gap, min(floor, rep.gap), margins.min(), int(rep.degenerate)])
    warnings = [f"degenerate spectral gap at beta={beta}"
                for beta in grid if reports[beta].degenerate]
    return {"dirichlet.csv": (["beta", "gap", "eps_p", "min_probe_margin", "degenerate"], rows),
            "dirichlet_meta.json": {"warnings": warnings}}


def cmd_run(args) -> dict:
    runs = _run_many(args, resolve_model(args.model, args.basis))
    files = {f"run_{r.run_index:04d}.json": {
        "run_index": r.run_index,
        "seed": r.seed,
        "n_steps": r.n_steps,
        "theta_final": r.theta_final,
        "theta_pr": r.theta_pr,
        "pr_count": r.pr_count,
        "snapshots": [{"n": s.n, "theta": s.theta,
                       "theta_pr": s.theta_pr, "pr_count": s.pr_count}
                      for s in r.snapshots],
    } for r in runs}
    files["runs.csv"] = (["run_id", "component", "theta_pr", "theta_final"],
                         [[r.run_index, i + 1, r.theta_pr[i], r.theta_final[i]]
                          for r in runs for i in range(len(r.theta_final))])
    files["run_meta.json"] = {}
    return files


def cmd_moments(args) -> dict:
    mc = gamma_moment_check(SpeedScalingModel(), args.steps, args.seed)
    return {"gamma_moments.json": {**dataclasses.asdict(mc),
                                   "mean_ok": mc.mean_ok, "var_ok": mc.var_ok}}


def _checked(kind, rule: str, ok):
    """argparse type: ``kind`` of the text, rejected unless ``ok`` holds."""
    def check(text: str):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {value}")
        return value
    check.__name__ = kind.__name__  # argparse names the type when the text does not parse
    return check


_POSITIVE = (">= 1", lambda n: n >= 1)
_UNIT = ("in [0, 1]", lambda x: 0 <= x <= 1)
_DELTA_R = ("finite and >= 0", lambda x: 0 <= x < math.inf)
_FINITE_POSITIVE = ("finite and > 0", lambda x: 0 < x < math.inf)


def _model_flag(*names: str) -> dict:
    """``--model`` keywords: one of ``names`` or ``file:<path>``."""
    rule = " | ".join((*names, "file:<path>"))
    return dict(type=_checked(str, rule, lambda s: s in names or s.startswith("file:")),
                help=rule)


# every flag a subcommand may take: dest -> add_argument keywords; the flag
# is --<dest> with "_" as "-"
FLAGS = {
    "model": dict(_model_flag("finite3x2", "speed_scaling"), default="finite3x2"),
    "basis": dict(default="finite_poly",
                  help="finite_poly | tabular | file (explicit matrix from model file)"),
    "seed": dict(type=int, default=0),
    "steps": dict(type=_checked(int, *_POSITIVE), default=100_000),
    "runs": dict(type=_checked(int, *_POSITIVE), default=50),
    "gamma": dict(type=_checked(float, *_UNIT), default=0.99),
    "lam": dict(type=_checked(float, *_UNIT), default=0.0),
    "delta_r": dict(type=_checked(float, *_DELTA_R), default=0.5),
    "variant": dict(default="varpi_relative",
                    help="td | relative_fixed_mu | varpi_relative | varpi_relative_fixed"),
    "eval_mode": dict(default="on_policy", choices=EVAL_MODES),
    "alpha0": dict(type=_checked(float, *_FINITE_POSITIVE), default=0.02),
    "rho": dict(type=float, default=0.65),
    "burn_in": dict(type=float, default=0.2),
    "snapshots": dict(type=_checked(int, "0 or >= 2", lambda n: n == 0 or n >= 2), default=0),
    "gamma_grid": dict(type=_checked(float, *_UNIT), nargs="+", default=None),
    "delta_grid": dict(type=_checked(float, *_DELTA_R), nargs="+", default=None),
    "beta_grid": dict(type=_checked(float, "in [0, 1)", lambda x: 0 <= x < 1),
                      nargs="+", default=None),
    "probes": dict(type=_checked(int, *_POSITIVE), default=100),
    "fd_step": dict(type=_checked(float, *_FINITE_POSITIVE), default=1e-5),
}

# subcommand -> (the flags it reads, the values it fixes).  A fixed value is
# recorded in ``config``, but no flag or ``--config`` key can set it: the
# exact overlay of hist and the exact bias are for lam = 0 and on-policy
# targets, and bias runs the fixed variant from theta_star without burn-in.
COMMANDS = {
    "eigs": ("model basis seed lam delta_r gamma_grid delta_grid steps runs", {}),
    "hist": ("model basis seed steps runs gamma delta_r alpha0 rho variant burn_in snapshots",
             {"lam": 0.0, "eval_mode": "on_policy"}),
    "bias": ("model basis seed steps runs gamma delta_r alpha0 rho",
             {"lam": 0.0, "eval_mode": "on_policy", "variant": "varpi_relative_fixed",
              "burn_in": 0.0}),
    "sensitivity": ("model basis seed gamma rho delta_r fd_step", {}),
    "dirichlet": ("model basis seed probes beta_grid", {}),
    "run": ("model basis seed steps runs gamma lam delta_r variant eval_mode alpha0 rho "
            "burn_in snapshots", {}),
    "moments": ("seed steps", {}),
}

# (subcommand, flag) -> keywords that replace the flag's own; bias, and eigs
# of the speed-scaling model, report standard errors over their runs, and
# bias, sensitivity and dirichlet need the exact chain of a finite model
_AT_LEAST_TWO = dict(type=_checked(int, ">= 2", lambda n: n >= 2))
OVERRIDES = {("bias", "runs"): _AT_LEAST_TWO, ("eigs", "runs"): _AT_LEAST_TWO,
             **{(name, "model"): _model_flag("finite3x2")
                for name in ("bias", "sensitivity", "dirichlet")}}

# subcommand -> the flags it reads for the speed-scaling model only, which
# it samples: they take their defaults there when not given, and a finite
# model, whose eigenvalues are exact, takes none of them
SAMPLED_ONLY = {"eigs": ("steps", "runs")}


class _Parser(argparse.ArgumentParser):
    """A parser whose rejections (unknown flag, bad value, missing --out) are ConfigErrors."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process."""
    parser = _Parser(prog="rtdlab", description="relative TD policy-evaluation laboratory")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (flags, fixed) in COMMANDS.items():
        p = sub.add_parser(name, allow_abbrev=False)
        p.add_argument("--config", help="JSON object of flags; flags given here win")
        p.add_argument("--out", type=str, required=True, help="output directory")
        for dest in flags.split():
            spec = {**FLAGS[dest], **OVERRIDES.get((name, dest), {})}
            if dest in SAMPLED_ONLY.get(name, ()):
                spec["default"] = argparse.SUPPRESS
            p.add_argument("--" + dest.replace("_", "-"), dest=dest, **spec)
        p.set_defaults(**fixed)
    return parser


def _config_flags(command: str, path: str) -> list[str]:
    """The JSON object in ``path`` as flags of ``command``, for its parser to check."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config file must hold a JSON object")
    flags = []
    for key, val in raw.items():
        if key not in COMMANDS[command][0].split():
            raise ConfigError(f"unknown config key {key!r}")
        flag = "--" + key.replace("_", "-")
        if not isinstance(val, list):
            flags.append(f"{flag}={val}")
        elif "nargs" in FLAGS[key] and all(type(v) in (int, float) for v in val):
            flags += [flag, *map(str, val)]
        else:
            raise ConfigError(f"config key {key!r}: {val!r} is not a grid of numbers")
    return flags


def _sampled_flags(args: argparse.Namespace) -> None:
    """Fill in the command's SAMPLED_ONLY flags for the speed-scaling model, or reject them."""
    for dest in SAMPLED_ONLY.get(args.command, ()):
        if args.model == "speed_scaling":
            vars(args).setdefault(dest, FLAGS[dest]["default"])
        elif dest in vars(args):
            raise ConfigError(f"{args.command} of a finite model is exact and takes no "
                              f"--{dest.replace('_', '-')}")


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            # argv[0] is the subcommand; its flags from the file come before
            # the command line's, so the command line wins
            flags = _config_flags(args.command, args.config)
            args = parser.parse_args(argv[:1] + flags + argv[1:])
        _sampled_flags(args)
        # looked up at each call, so a cmd_* replaced on the module is the one run
        command = globals()[f"cmd_{args.command}"]
        write_outputs(FsPath(args.out), command(args), args)
        return 0
    except RtdLabError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}))
        return 2


if __name__ == "__main__":
    sys.exit(main())

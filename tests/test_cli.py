import itertools
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from rtdlab import cli, meanflow, models
from rtdlab.cli import COMMANDS, FLAGS, OVERRIDES, SAMPLED_ONLY, config_hash, main
from rtdlab.features import feature_stats, finite_poly_basis
from rtdlab.learner import FiniteChainEnv, LearnerConfig, StepSchedule, run_many
from rtdlab.markov import FiniteMdp, RandomizedPolicy, build_chain, save_model
from rtdlab.meanflow import (EPS_P_BETA_GRID, dirichlet_report, eps_p, mean_flow_relative,
                             spectral_report)
from rtdlab.speedscale import SpeedScalingModel, estimate_noise_covariance, estimate_stats


def read_csv(path: Path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def run_cli(*argv) -> int:
    return main(list(argv))


class TestEigs:
    def test_finite_table(self, tmp_path):
        rc = run_cli("eigs", "--out", str(tmp_path), "--model", "finite3x2",
                     "--gamma-grid", "0.9", "0.99", "--delta-grid", "0", "0.5")
        assert rc == 0
        header, rows = read_csv(tmp_path / "eigs.csv")
        assert header[:3] == ["gamma", "lambda", "delta_r"]
        assert {"max_re", "cond", "hurwitz"} <= set(header)
        assert len(rows) == 4

    def test_matches_direct_composition(self, tmp_path):
        run_cli("eigs", "--out", str(tmp_path), "--gamma-grid", "0.95",
                "--delta-grid", "0.5")
        header, rows = read_csv(tmp_path / "eigs.csv")
        chain = models.finite_chain()
        flow = mean_flow_relative(chain, finite_poly_basis(3, 2), 0.95, 0.0, 0.5)
        rep = spectral_report(flow.a_bar)
        got = dict(zip(header, rows[0]))
        assert float(got["max_re"]) == rep.max_real_part
        assert float(got["cond"]) == rep.condition_number

    def test_round_trip_precision(self, tmp_path):
        run_cli("eigs", "--out", str(tmp_path), "--gamma-grid", "0.99",
                "--delta-grid", "0")
        header, rows = read_csv(tmp_path / "eigs.csv")
        reread = [float(v) for v in rows[0]]
        run_cli("eigs", "--out", str(tmp_path / "again"), "--gamma-grid", "0.99",
                "--delta-grid", "0")
        _, rows2 = read_csv(tmp_path / "again" / "eigs.csv")
        assert rows == rows2
        assert all(np.isfinite(v) for v in reread)

    def test_grid_point_past_lam_gamma_limit_is_named(self, tmp_path, capsys):
        # the point used to be dropped without a note, and gamma 0.9's rows written
        out = tmp_path / "out"
        assert run_cli("eigs", "--out", str(out), "--lam", "1",
                       "--gamma-grid", "0.9", "1.0") == 2
        reply = json.loads(capsys.readouterr().out.strip())
        assert reply["error"] == "ConfigError" and "gamma 1.0 " in reply["message"]
        assert not out.exists()

    def test_speed_scaling_estimates(self, tmp_path):
        rc = run_cli("eigs", "--out", str(tmp_path), "--model", "speed_scaling",
                     "--steps", "20000", "--runs", "3",
                     "--gamma-grid", "0.9", "--delta-grid", "0", "1")
        assert rc == 0
        header, rows = read_csv(tmp_path / "eigs.csv")
        assert "traj_steps" in header and "min_abs_re_se" in header
        assert len(rows) == 2


class TestDeterminism:
    def test_byte_identical_rerun(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            run_cli("run", "--out", str(out), "--steps", "500", "--runs", "3",
                    "--seed", "11", "--variant", "varpi_relative", "--snapshots", "3")
        for name in ("runs.csv", "run_0000.json", "run_0002.json", "run_meta.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_config_hash_recorded(self, tmp_path):
        run_cli("run", "--out", str(tmp_path), "--steps", "100", "--runs", "1")
        meta = json.loads((tmp_path / "run_meta.json").read_text())
        assert len(meta["config_hash"]) == 16


class TestHist:
    def test_finite_overlay(self, tmp_path):
        rc = run_cli("hist", "--out", str(tmp_path), "--steps", "2000", "--runs", "5",
                     "--variant", "varpi_relative", "--alpha0", "0.02")
        assert rc == 0
        overlay = json.loads((tmp_path / "hist_overlay.json").read_text())
        assert overlay["overlay_source"] == "exact"
        assert len(overlay["variance"]) == 3
        header, rows = read_csv(tmp_path / "hist_samples.csv")
        assert len(rows) == 5

    def test_snapshot_samples(self, tmp_path):
        rc = run_cli("hist", "--out", str(tmp_path), "--steps", "2000", "--runs", "4",
                     "--variant", "varpi_relative", "--snapshots", "5")
        assert rc == 0
        _, rows = read_csv(tmp_path / "hist_samples.csv")
        assert len(rows) == 20  # 5 snapshots per run

    def test_speed_scaling_overlay(self, tmp_path):
        rc = run_cli("hist", "--out", str(tmp_path), "--model", "speed_scaling",
                     "--steps", "5000", "--runs", "2", "--gamma", "0.9",
                     "--delta-r", "1", "--variant", "varpi_relative",
                     "--alpha0", "1e-5", "--rho", "0.6")
        assert rc == 0
        overlay = json.loads((tmp_path / "hist_overlay.json").read_text())
        assert overlay["overlay_source"] == "monte_carlo"

    def test_speed_scaling_td_overlay_at_zero_baseline(self, tmp_path):
        # td is compared with its own flow, at delta_r = 0 whatever --delta-r says
        rc = run_cli("hist", "--out", str(tmp_path), "--model", "speed_scaling",
                     "--steps", "5000", "--runs", "2", "--gamma", "0.9", "--seed", "4",
                     "--delta-r", "1", "--variant", "td", "--alpha0", "1e-5", "--rho", "0.6")
        assert rc == 0
        overlay = json.loads((tmp_path / "hist_overlay.json").read_text())
        model = SpeedScalingModel()
        stats = estimate_stats(model, 5000, 4, stream=10_001)
        assert overlay["theta_star"] == stats.theta_star(0.9, 0.0).tolist()
        # Sigma_theta = A^{-1} Sigma_Delta A^{-T} from the Monte Carlo A and Sigma_Delta
        sig_d = estimate_noise_covariance(model, stats, 0.9, 0.0, 5000, 4, stream=10_003)
        a_inv = np.linalg.inv(stats.mean_flow(0.9, 0.0))
        want = a_inv @ sig_d @ a_inv.T
        got = np.array(overlay["sigma_theta_star"])
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        assert overlay["variance"] == np.diag(got).tolist()


class TestBias:
    def test_table_and_curve(self, tmp_path):
        rc = run_cli("bias", "--out", str(tmp_path), "--steps", "5000", "--runs", "8",
                     "--alpha0", "0.02")
        assert rc == 0
        header, rows = read_csv(tmp_path / "bias_table.csv")
        assert header[0] == "component" and len(rows) == 3
        _, curve = read_csv(tmp_path / "bias_curve.csv")
        assert len(curve) == 11
        meta = json.loads((tmp_path / "bias_meta.json").read_text())
        assert np.isfinite(meta["slope_at_zero"])

    def test_rejects_speed_scaling(self, tmp_path):
        rc = run_cli("bias", "--out", str(tmp_path), "--model", "speed_scaling")
        assert rc == 2


@pytest.mark.parametrize("argv,name,model,delta_r", [
    (["hist", "--variant", "td", "--delta-r", "0.5"], "hist_overlay.json", "td0", 0.0),
    (["hist", "--model", "speed_scaling", "--alpha0", "1e-5", "--variant", "varpi_relative",
      "--delta-r", "1"], "hist_overlay.json", "varpi_relative_td0", 1.0),
    (["bias", "--delta-r", "0.5"], "bias_meta.json", "fixed_relative_td0", 0.5),
])
def test_records_the_noise_model_it_compared(tmp_path, argv, name, model, delta_r):
    rc = run_cli(*argv, "--out", str(tmp_path), "--steps", "2000", "--runs", "2")
    assert rc == 0
    meta = json.loads((tmp_path / name).read_text())
    assert (meta["noise_model"], meta["noise_delta_r"]) == (model, delta_r)


class TestSensitivityCmd:
    def test_report_with_fd_check(self, tmp_path):
        rc = run_cli("sensitivity", "--out", str(tmp_path))
        assert rc == 0
        rep = json.loads((tmp_path / "sensitivity.json").read_text())
        assert rep["rel_err_d_sigma"] < 1e-3
        assert rep["rel_err_d_bias"] < 1e-3
        assert np.asarray(rep["d_a_bar"]).shape == (3, 3)


    def test_centred_basis_writes_valid_json(self, tmp_path):
        # psi_bar = 0 makes both finite differences exactly 0; their rel_err is
        # null, not the NaN or Infinity that RFC 8259 JSON has no literal for
        mdp = FiniteMdp(n_states=2, n_actions=1, kernel=[[[0.3, 0.7], [0.7, 0.3]]],
                        cost=[[1.0], [2.0]])
        save_model(tmp_path / "m.json", mdp, RandomizedPolicy(probs=[[1.0], [1.0]]),
                   features=[[1.0], [-1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run_cli("sensitivity", "--out", str(tmp_path / "out"),
                           "--model", f"file:{tmp_path}/m.json", "--basis", "file") == 0

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        text = (tmp_path / "out" / "sensitivity.json").read_text()
        rep = json.loads(text, parse_constant=reject)
        assert (rep["fd_d_sigma"], rep["fd_d_bias"]) == ([[0.0]], [0.0])
        assert (rep["rel_err_d_sigma"], rep["rel_err_d_bias"]) == (None, None)


class TestDirichletCmd:
    def test_margins_nonnegative(self, tmp_path):
        rc = run_cli("dirichlet", "--out", str(tmp_path), "--probes", "50")
        assert rc == 0
        header, rows = read_csv(tmp_path / "dirichlet.csv")
        i = header.index("min_probe_margin")
        g = header.index("gap")
        for row in rows:
            assert float(row[i]) >= -1e-10
            assert 0 < float(row[g]) <= 1.0

    def test_singular_resolvent_is_reported(self, tmp_path, capsys):
        # without the cond guard on I - beta P this beta writes a negative margin
        rc = run_cli("dirichlet", "--out", str(tmp_path), "--beta-grid", "0.9999999999999")
        assert rc == 2
        assert json.loads(capsys.readouterr().out.strip())["error"] == "SingularResolvent"

    @staticmethod
    def k_beta_calls(tmp_path, *grid) -> int:
        with mock.patch.object(meanflow, "_k_beta", wraps=meanflow._k_beta) as k_beta:
            assert run_cli("dirichlet", "--out", str(tmp_path), "--probes", "5", *grid) == 0
        return k_beta.call_count

    def test_eps_p_is_computed_once(self, tmp_path):
        # the rows are the eps_P grid, and eps_P is read from their reports
        assert self.k_beta_calls(tmp_path) == len(EPS_P_BETA_GRID) == 11

    def test_one_report_per_distinct_beta(self, tmp_path):
        # 0.5 is on the eps_P grid, so its row reuses that report
        assert self.k_beta_calls(tmp_path, "--beta-grid", "0.05", "0.5") == 12

    def test_rows_match_their_reports(self, tmp_path):
        assert run_cli("dirichlet", "--out", str(tmp_path), "--probes", "7", "--seed", "3",
                       "--beta-grid", "0.05", "0.5") == 0
        header, rows = read_csv(tmp_path / "dirichlet.csv")
        chain, psi = models.finite_chain(), finite_poly_basis(3, 2)
        sigma0 = feature_stats(chain, psi).sigma0
        probes = np.random.default_rng(3).standard_normal((7, psi.dim))
        for beta, row in zip((0.05, 0.5), rows):
            got = dict(zip(header, map(float, row)))
            rep = dirichlet_report(chain, psi, beta)
            want = min(th @ rep.m_beta @ th - rep.gap * (th @ sigma0 @ th) for th in probes)
            assert (got["beta"], got["gap"]) == (beta, rep.gap)
            assert got["eps_p"] == min(eps_p(chain), rep.gap)
            assert abs(got["min_probe_margin"] - want) <= 1e-14

    def test_transient_file_model(self, tmp_path):
        mdp, policy, psi, _, _ = models.unstable_demo()
        save_model(tmp_path / "demo.json", mdp, policy, psi.matrix)
        out = tmp_path / "out"
        assert run_cli("dirichlet", "--out", str(out), "--model", f"file:{tmp_path}/demo.json",
                       "--basis", "file", "--beta-grid", "0.3", "0.95") == 0
        header, rows = read_csv(out / "dirichlet.csv")
        chain = build_chain(mdp, policy)
        floor = eps_p(chain)
        for beta, row in zip((0.3, 0.95), rows):
            got = dict(zip(header, map(float, row)))
            rep = dirichlet_report(chain, psi, beta)
            assert rep.restricted_support
            assert abs(got["gap"] - rep.gap) <= 1e-12
            assert abs(got["eps_p"] - min(floor, rep.gap)) <= 1e-12
            assert got["min_probe_margin"] >= -1e-10
            assert got["degenerate"] == 0


@pytest.mark.parametrize("argv, stats_calls", [
    (["eigs", "--gamma-grid", "0.9"], 0), (["sensitivity"], 0),
    (["dirichlet", "--probes", "5", "--beta-grid", "0.5"], 1),
], ids=["eigs", "sensitivity", "dirichlet"])
def test_exact_commands_build_no_environment(tmp_path, monkeypatch, argv, stats_calls):
    # they sample nothing, and only dirichlet reads the feature covariance
    calls, stats = [], cli.feature_stats
    monkeypatch.setattr(cli, "FiniteChainEnv", lambda *args: calls.append("env"))
    monkeypatch.setattr(cli, "feature_stats", lambda *args: calls.append("stats") or stats(*args))
    assert run_cli(*argv, "--out", str(tmp_path)) == 0
    assert calls == ["stats"] * stats_calls


class TestRunCmd:
    def test_relative_fixed_mu(self, tmp_path):
        rc = run_cli("run", "--out", str(tmp_path), "--variant", "relative_fixed_mu",
                     "--runs", "1", "--steps", "1000")
        assert rc == 0
        _, rows = read_csv(tmp_path / "runs.csv")
        assert len(rows) == 3
        assert np.all(np.isfinite(np.array(rows, dtype=float)))


REJECTED = [
    (["bias", "--model", "speed_scaling"], "ConfigError"),
    # bias takes no --lam: its exact bias is for lam = 0
    (["bias", "--lam", "0.5"], "ConfigError"),
    (["run", "--model", "speed_scaling"], "NumericalDivergence"),  # default alpha0
    (["run", "--rho", "0.4"], "ConfigError"),
    # fails in the sensitivity step, after the bias table is computed
    (["bias", "--basis", "tabular", "--gamma", "1.0", "--runs", "2", "--steps", "2000"],
     "SingularSystem"),
    (["run", "--steps", "1", "--snapshots", "3"], "ConfigError"),
    (["run", "--steps", "-5"], "ConfigError"),
    (["run", "--runs", "-1"], "ConfigError"),
    (["run", "--snapshots", "1"], "ConfigError"),
    (["hist", "--runs", "0"], "ConfigError"),
    (["eigs", "--model", "speed_scaling", "--runs", "0"], "ConfigError"),
    (["dirichlet", "--probes", "0"], "ConfigError"),
    (["eigs", "--basis", "nope"], "ConfigError"),
    (["eigs", "--basis", "speedscale"], "ConfigError"),
    (["eigs", "--model", "file:{tmp}/missing.json"], "ConfigError"),
    (["eigs", "--model", "file:{tmp}/no_actions.json"], "ConfigError"),
    # flags a command cannot honour: hist and bias compare against the exact
    # lam = 0, on-policy numbers, sensitivity is lam = 0, and the speed-scaling
    # mean flow has no lam
    (["hist", "--lam", "0.5"], "ConfigError"),
    (["hist", "--eval-mode", "natural"], "ConfigError"),
    (["bias", "--eval-mode", "natural"], "ConfigError"),
    (["sensitivity", "--lam", "0.5"], "ConfigError"),
    (["eigs", "--model", "speed_scaling", "--lam", "0.5"], "ConfigError"),
    # argparse's own rejections
    (["run", "--nope", "1"], "ConfigError"),
    (["run", "--steps", "abc"], "ConfigError"),
    (["eigs", "--gamma", "0.9"], "ConfigError"),  # no abbreviation of --gamma-grid
    # bias reports standard errors over its runs
    (["bias", "--runs", "1"], "ConfigError"),
    # ranges
    (["dirichlet", "--beta-grid", "1.0"], "ConfigError"),
    (["eigs", "--delta-grid", "-1"], "ConfigError"),
    (["sensitivity", "--fd-step", "0"], "ConfigError"),
    (["eigs", "--lam", "2"], "ConfigError"),
    (["eigs", "--lam", "1", "--gamma-grid", "1"], "ConfigError"),  # no lam * gamma < 1
    # the speed-scaling model has its own features and no exact chain
    (["eigs", "--model", "speed_scaling", "--basis", "tabular", "--steps", "2000",
      "--runs", "2"], "ConfigError"),
    (["run", "--model", "speed_scaling", "--variant", "varpi_relative_fixed"], "ConfigError"),
    (["hist", "--model", "speed_scaling", "--variant", "relative_fixed_mu"], "ConfigError"),
    (["sensitivity", "--model", "speed_scaling"], "ConfigError"),
    (["dirichlet", "--model", "speed_scaling"], "ConfigError"),
    (["eigs", "--basis", "file"], "ConfigError"),  # finite3x2 has no feature matrix
    # the speed-scaling overlay's noise covariance sums lags up to 200
    (["hist", "--model", "speed_scaling", "--alpha0", "1e-6", "--runs", "2", "--steps", "150"],
     "ConfigError"),
    (["hist", "--model", "speed_scaling", "--alpha0", "1e-6", "--runs", "2", "--steps", "1"],
     "ConfigError"),
    # an empty grid flag names no grid; it used to run the default one
    (["eigs", "--gamma-grid"], "ConfigError"),
    (["eigs", "--delta-grid"], "ConfigError"),
    (["dirichlet", "--beta-grid"], "ConfigError"),
    # the speed-scaling eigs reports a standard error over its runs
    (["eigs", "--model", "speed_scaling", "--runs", "1"], "ConfigError"),
    # a finite eigs is exact and samples nothing
    (["eigs", "--steps", "1"], "ConfigError"),
    (["eigs", "--runs", "2"], "ConfigError"),
    # alpha0 is finite and positive, checked before any path is sampled
    *[([command, f"--alpha0={alpha0}", "--runs", "2", "--steps", "100"], "ConfigError")
      for command in ("run", "hist", "bias") for alpha0 in ("nan", "inf", "0", "-1")],
    # eigs takes its delta_r values from --delta-grid alone
    (["eigs", "--delta-r", "0.3"], "ConfigError"),
]


class TestRejectedCommand:
    @pytest.mark.parametrize("argv, error", REJECTED,
                             ids=[f"argv{i}" for i in range(len(REJECTED))])
    def test_writes_no_directory(self, tmp_path, capsys, argv, error):
        (tmp_path / "no_actions.json").write_text(json.dumps({"n_states": 3}))
        out = tmp_path / "out"
        argv = [a.format(tmp=tmp_path) for a in argv]
        assert run_cli(*argv, "--out", str(out)) == 2
        reply = capsys.readouterr().out.strip()
        assert "\n" not in reply
        assert json.loads(reply)["error"] == error
        assert not out.exists()


TINY = [
    ["eigs", "--gamma-grid", "0.9", "--delta-grid", "0", "0.5"],
    ["hist", "--runs", "2", "--steps", "500", "--snapshots", "3"],
    ["bias", "--runs", "2", "--steps", "500"],
    ["sensitivity"],
    ["dirichlet", "--probes", "5", "--beta-grid", "0.5"],
    ["run", "--runs", "2", "--steps", "200"],
    ["moments", "--steps", "1000"],
]


class TestOutputWriter:
    @pytest.mark.parametrize("argv", TINY, ids=[a[0] for a in TINY])
    def test_every_json_file_carries_the_config(self, tmp_path, argv):
        assert run_cli(*argv, "--out", str(tmp_path)) == 0
        metas = [json.loads(p.read_text()) for p in sorted(tmp_path.glob("*.json"))]
        assert metas
        for meta in metas:
            assert meta["config_hash"] == config_hash(meta["config"])
            assert meta["config"] == metas[0]["config"]
        assert metas[0]["config"]["command"] == argv[0]

    @pytest.mark.parametrize("argv", TINY, ids=[a[0] for a in TINY])
    def test_config_holds_the_flags_and_fixed_values(self, tmp_path, argv):
        # every TINY command runs a finite model, which takes no SAMPLED_ONLY flag
        assert run_cli(*argv, "--out", str(tmp_path)) == 0
        meta = json.loads(next(tmp_path.glob("*.json")).read_text())
        flags, fixed = COMMAND_FLAGS[argv[0]]
        read = set(flags.split()) - set(SAMPLED_ONLY.get(argv[0], ()))
        assert set(meta["config"]) == read | set(fixed) | {"command"}
        for key, value in fixed.items():
            assert meta["config"][key] == value

    @pytest.mark.parametrize("command, csv, grids", [
        ("eigs", "eigs.csv", {"gamma_grid": 0, "delta_grid": 2}),
        ("dirichlet", "dirichlet.csv", {"beta_grid": 0}),
    ])
    def test_config_at_defaults_holds_the_grids_that_ran(self, tmp_path, command, csv, grids):
        # grids -> the column of the CSV that holds the grid's values
        assert run_cli(command, "--out", str(tmp_path)) == 0
        config = json.loads(next(tmp_path.glob("*.json")).read_text())["config"]
        _, rows = read_csv(tmp_path / csv)
        ran = [tuple(float(row[col]) for col in grids.values()) for row in rows]
        assert ran == list(itertools.product(*(config[key] for key in grids)))
        for key in grids:
            assert config[key] == list(FLAGS[key]["default"])

    def test_speed_scaling_eigs_records_its_sample_sizes(self, tmp_path):
        # --runs not given takes its default, and both are in the config
        assert run_cli("eigs", "--out", str(tmp_path), "--model", "speed_scaling",
                       "--steps", "300", "--gamma-grid", "0.9", "--delta-grid", "0") == 0
        config = json.loads((tmp_path / "eigs_meta.json").read_text())["config"]
        assert set(COMMAND_FLAGS["eigs"][0].split()) | {"command"} == set(config)
        assert (config["steps"], config["runs"]) == (300, FLAGS["runs"]["default"])
        _, rows = read_csv(tmp_path / "eigs.csv")
        assert [int(float(v)) for v in rows[0][-3:-1]] == [300, FLAGS["runs"]["default"]]


def test_subcommands_import_neither_numpy_ma_nor_scipy(tmp_path):
    # numpy is the only runtime dependency, and numpy.ma, which np.unique
    # imports on its first call, costs set-up time and memory
    argvs = [argv + ["--out", str(tmp_path / str(i))] for i, argv in enumerate(TINY + [
        ["eigs", "--model", "speed_scaling", "--steps", "300", "--runs", "2",
         "--gamma-grid", "0.9", "--delta-grid", "0"],
        ["run", "--model", "speed_scaling", "--alpha0", "1e-6", "--runs", "2", "--steps", "300"],
    ])]
    code = ("import json, sys\n"
            "from rtdlab.cli import main\n"
            "assert all(main(argv) == 0 for argv in json.loads(sys.argv[1]))\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'\n"
            "             or m == 'numpy.ma' or m.startswith('numpy.ma.')))\n")
    src = str(Path(cli.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", code, json.dumps(argvs)], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip().splitlines()[-1] == "[]"


# subcommand -> (flags it reads, values it fixes)
COMMAND_FLAGS = {
    "eigs": ("model basis seed lam gamma_grid delta_grid steps runs", {}),
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


class TestParser:
    @pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
    def test_help_lists_exactly_the_flags(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(command, "--help")
        assert exc.value.code == 0
        listed = set(re.findall(r"--[a-z][a-z0-9-]*", capsys.readouterr().out))
        flags = {"--" + dest.replace("_", "-") for dest in COMMAND_FLAGS[command][0].split()}
        flags |= {"--help", "--config", "--out"}
        assert listed == flags

    def test_tables_name_only_flags_that_are_read(self):
        read = {name: set(flags.split()) for name, (flags, _) in COMMANDS.items()}
        assert set(FLAGS) == set().union(*read.values())
        for name, dest in OVERRIDES:
            assert dest in read[name]

    def test_missing_out_rejected(self, capsys):
        assert run_cli("eigs") == 2
        assert json.loads(capsys.readouterr().out.strip())["error"] == "ConfigError"


class TestModelFileInput:
    def test_file_model_with_explicit_features(self, tmp_path):
        path = tmp_path / "m.json"
        save_model(path, models.finite_mdp(), models.finite_eval_policy(),
                   features=np.eye(6))
        out = tmp_path / "out"
        rc = run_cli("eigs", "--out", str(out), "--model", f"file:{path}",
                     "--basis", "file", "--gamma-grid", "0.9", "--delta-grid", "0")
        assert rc == 0
        header, rows = read_csv(out / "eigs.csv")
        assert len([h for h in header if h.startswith("eig_re_")]) == 6

    def test_natural_run_averages_over_the_file_policy(self, tmp_path):
        policy = RandomizedPolicy(np.array([[0.3, 0.7], [0.9, 0.1], [0.6, 0.4]]))
        path = tmp_path / "m.json"
        save_model(path, models.finite_mdp(), policy)
        out = tmp_path / "out"
        assert run_cli("run", "--out", str(out), "--model", f"file:{path}", "--lam", "0.5",
                       "--eval-mode", "natural", "--runs", "2", "--steps", "3000",
                       "--seed", "4") == 0
        _, rows = read_csv(out / "runs.csv")
        env = FiniteChainEnv(build_chain(models.finite_mdp(), policy), finite_poly_basis(3, 2))
        cfg = LearnerConfig(gamma=0.99, lam=0.5, step=StepSchedule(0.02, 0.65),
                            variant="varpi_relative", delta_r=0.5, eval_mode="natural",
                            seed=4, pr_burn_in_fraction=0.2)
        want = [[r.theta_pr[i], r.theta_final[i]] for r in run_many(env, cfg, 3000, 2)
                for i in range(3)]
        assert np.array_equal(np.array(rows, dtype=float)[:, 2:], want)

    @pytest.mark.parametrize("key, entry", [("kernel", (0, 1, 2)), ("policy", (1, 0))])
    def test_nan_entry_rejected(self, tmp_path, capsys, key, entry):
        # json reads the literal NaN, which every range check must fail
        path = tmp_path / "m.json"
        save_model(path, models.finite_mdp(), models.finite_eval_policy())
        raw = json.loads(path.read_text())
        table = np.array(raw[key])
        table[entry] = np.nan
        raw[key] = table.tolist()
        path.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert run_cli("eigs", "--out", str(out), "--model", f"file:{path}") == 2
        err = json.loads(capsys.readouterr().out.strip())
        assert err["error"] == "ConfigError"
        # the message names the array, not just the path, which holds the test's name
        assert key in err["message"].replace(str(path), "")
        assert not out.exists()

    def test_unknown_model_errors_with_json(self, tmp_path, capsys):
        rc = run_cli("eigs", "--out", str(tmp_path), "--model", "nope")
        assert rc == 2
        err = json.loads(capsys.readouterr().out.strip())
        assert err["error"] == "ConfigError"


class TestConfigFile:
    def test_config_file_fills_defaults(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"gamma": 0.9, "delta_r": 0.25}))
        out = tmp_path / "out"
        rc = run_cli("sensitivity", "--out", str(out), "--config", str(cfg_path))
        assert rc == 0
        meta = json.loads((out / "asymptotics.json").read_text())
        assert meta["config"]["gamma"] == 0.9
        assert meta["config"]["delta_r"] == 0.25
        assert meta["gamma"] == 0.9 and meta["delta_r"] == 0.25

    def test_config_with_equals_sign(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"gamma": 0.9}))
        out = tmp_path / "out"
        assert run_cli("sensitivity", "--out", str(out), f"--config={cfg_path}") == 0
        assert json.loads((out / "asymptotics.json").read_text())["config"]["gamma"] == 0.9

    def test_last_config_is_used(self, tmp_path):
        first, last = tmp_path / "first.json", tmp_path / "last.json"
        first.write_text(json.dumps({"gamma": 0.9}))
        last.write_text(json.dumps({"delta_r": 0.25}))
        out = tmp_path / "out"
        assert run_cli("sensitivity", "--out", str(out), "--config", str(first),
                       "--config", str(last)) == 0
        config = json.loads((out / "asymptotics.json").read_text())["config"]
        assert config["gamma"] == 0.99 and config["delta_r"] == 0.25

    def test_scalar_for_a_grid_is_one_value(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"gamma_grid": 0.9, "delta_grid": [0, 0.5]}))
        out = tmp_path / "out"
        assert run_cli("eigs", "--out", str(out), "--config", str(cfg_path)) == 0
        _, rows = read_csv(out / "eigs.csv")
        assert [(float(r[0]), float(r[2])) for r in rows] == [(0.9, 0.0), (0.9, 0.5)]

    def test_grid_flag_overrides_config(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"gamma_grid": [0.5, 0.6]}))
        out = tmp_path / "out"
        assert run_cli("eigs", "--out", str(out), "--config", str(cfg_path),
                       "--gamma-grid", "0.9", "--delta-grid", "0") == 0
        _, rows = read_csv(out / "eigs.csv")
        assert [float(r[0]) for r in rows] == [0.9]

    def test_flag_overrides_config(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"seed": 5}))
        out = tmp_path / "out"
        run_cli("run", "--out", str(out), "--config", str(cfg_path),
                "--steps", "50", "--runs", "1", "--seed", "9")
        meta = json.loads((out / "run_meta.json").read_text())
        assert meta["config"]["seed"] == 9

    def test_flag_at_its_default_overrides_config(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"seed": 5}))
        out = tmp_path / "out"
        rc = run_cli("run", "--out", str(out), "--seed", "0", "--config", str(cfg_path),
                     "--steps", "50", "--runs", "1")
        assert rc == 0
        meta = json.loads((out / "run_meta.json").read_text())
        assert meta["config"]["seed"] == 0

    def test_badly_typed_value_rejected(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"runs": "many"}))
        rc = run_cli("run", "--out", str(tmp_path / "o"), "--config", str(cfg_path),
                     "--steps", "10")
        assert rc == 2
        err = json.loads(capsys.readouterr().out.strip())
        assert err["error"] == "ConfigError"

    def test_bad_count_rejected(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"runs": 0}))
        out = tmp_path / "o"
        rc = run_cli("run", "--out", str(out), "--config", str(cfg_path), "--steps", "10")
        assert rc == 2
        err = json.loads(capsys.readouterr().out.strip())
        assert err["error"] == "ConfigError"
        assert not out.exists()

    def test_unknown_key_rejected(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"not_a_key": 1}))
        rc = run_cli("run", "--out", str(tmp_path / "o"), "--config", str(cfg_path),
                     "--steps", "10", "--runs", "1")
        assert rc == 2

    @pytest.mark.parametrize("command, key, value", [
        ("hist", "lam", 0.5),      # fixed, not settable
        ("eigs", "gamma", 0.9),    # a key of another subcommand
        ("bias", "runs", 1),       # the flag's own rule
        ("eigs", "lam", 2),        # the flag's own range
        ("eigs", "model", "nope"),  # the flag's own type
        ("bias", "model", "speed_scaling"),
        ("eigs", "gamma_grid", ["--out", "x"]),  # a grid holds numbers only
        ("eigs", "gamma_grid", [0.9, "0.99"]),
        ("eigs", "gamma_grid", [True]),
        ("sensitivity", "delta_r", [0.25]),      # a list for a scalar flag
        ("run", "out", "x"),       # not a flag of the subcommand's own
        ("run", "help", 1),
        ("run", "config", "other.json"),
        ("eigs", "gamma_grid", []),  # an empty grid
        ("eigs", "delta_grid", []),
        ("dirichlet", "beta_grid", []),
        ("eigs", "steps", 1000),   # a finite eigs samples nothing
        ("eigs", "runs", 3),
        ("run", "alpha0", "nan"),  # finite and positive
    ])
    def test_key_the_command_cannot_take_rejected(self, tmp_path, capsys, command, key, value):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({key: value}))
        out = tmp_path / "o"
        assert run_cli(command, "--out", str(out), "--config", str(cfg_path)) == 2
        assert json.loads(capsys.readouterr().out.strip())["error"] == "ConfigError"
        assert not out.exists()

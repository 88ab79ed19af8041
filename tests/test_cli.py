"""Command line interface: subcommands, file outputs, exit codes."""

import json
import re
import sys

import numpy as np
import pytest
from click.testing import CliRunner

from netalloc.cli import COMMAND_OPTIONS, OPTIONS, entry, main


# A complete theta mapping for config tests.
THETA = {f"theta{k}": 0.1 for k in range(7)}


@pytest.fixture
def runner():
    return CliRunner()


def make_toy_files(tmp_path):
    net_path = tmp_path / "net.txt"
    net_path.write_text("# path on three units\n0,1\n1,2\n")
    cov_path = tmp_path / "cov.csv"
    cov_path.write_text("x\n1.0\n1.0\n1.0\n")
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(
        json.dumps(
            {
                "theta": {
                    "theta0": -2.0,
                    "theta1": 0.5,
                    "theta2": 0.1,
                    "theta3": 0.6,
                    "theta4": 0.7,
                    "theta5": 0.8,
                    "theta6": 0.9,
                    "a_n": 0.5,
                },
                "kernel": "constant:1.0",
                "kappa": 1,
                "network_file": str(net_path),
                "covariates_file": str(cov_path),
            }
        )
    )
    return cfg_path


class TestSimulate:
    def test_writes_csv_with_expected_schema(self, runner, tmp_path):
        result = runner.invoke(
            main,
            [
                "simulate", "--n", "5", "--density", "0.3", "--reps", "2",
                "--seed", "7", "--method", "greedy", "--method", "none",
                "--evaluator", "va", "--out", str(tmp_path),
            ],
        )
        assert result.exit_code == 0, result.output
        lines = (tmp_path / "welfare_table.csv").read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header == [
            "param_set", "density", "n", "method", "evaluator",
            "mean", "stderr", "replications", "reason",
        ]
        assert len(lines) == 3
        for line in lines[1:]:
            fields = line.split(",")
            assert fields[3] in ("greedy", "none")
            assert 0.0 < float(fields[5]) < 1.0

    def test_byte_identical_reruns(self, runner, tmp_path):
        args = [
            "simulate", "--n", "6", "--density", "0.4", "--reps", "2",
            "--seed", "3", "--method", "greedy", "--method", "random",
            "--evaluator", "va",
        ]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert runner.invoke(main, args + ["--out", str(out_a)]).exit_code == 0
        assert runner.invoke(main, args + ["--out", str(out_b)]).exit_code == 0
        assert (out_a / "welfare_table.csv").read_bytes() == (
            out_b / "welfare_table.csv"
        ).read_bytes()

    def test_infeasible_exact_cells_get_reason(self, runner, tmp_path):
        result = runner.invoke(
            main,
            [
                "simulate", "--n", "25", "--density", "0.3", "--reps", "1",
                "--seed", "1", "--method", "brute", "--evaluator", "exact",
                "--out", str(tmp_path),
            ],
        )
        assert result.exit_code == 0, result.output
        rows = (tmp_path / "welfare_table.csv").read_text().strip().splitlines()
        fields = rows[1].split(",")
        assert fields[5] == "NA"
        assert fields[8] == "exact_infeasible"

    def test_zero_capacity_collapses_methods(self, runner, tmp_path):
        result = runner.invoke(
            main,
            [
                "simulate", "--n", "5", "--density", "0.3", "--reps", "1",
                "--seed", "2", "--kappa", "0", "--method", "brute",
                "--method", "bfva", "--method", "greedy", "--method", "none",
                "--evaluator", "exact", "--out", str(tmp_path),
            ],
        )
        assert result.exit_code == 0, result.output
        rows = (tmp_path / "welfare_table.csv").read_text().strip().splitlines()[1:]
        means = {row.split(",")[3]: row.split(",")[5] for row in rows}
        assert means["brute"] == means["bfva"] == means["greedy"] == means["none"]

    @pytest.mark.parametrize("method", ["bfva", "greedy"])
    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--kappa", "10"], "kappa must be between 0 and n"),
            (["--kappa", "-1"], "kappa must be nonnegative"),
            (["--kappa-frac", "-0.5"], r"kappa_frac must lie in \[0, 1\]"),
            (["--kappa-frac", "1.5"], r"kappa_frac must lie in \[0, 1\]"),
        ],
    )
    def test_bad_capacity_is_an_error(self, runner, tmp_path, method, flags, message):
        # bfva used to write these cells as enumeration_infeasible and exit 0.
        result = runner.invoke(
            main,
            [
                "simulate", "--n", "6", "--reps", "1", "--method", method,
                "--evaluator", "va", "--out", str(tmp_path), *flags,
            ],
        )
        assert result.exit_code == 1
        assert isinstance(result.exception, ValueError)
        assert re.search(message, str(result.exception))
        assert not (tmp_path / "welfare_table.csv").exists()

    def test_enumeration_cap_gets_reason(self, runner, tmp_path):
        # 30 units at capacity 9 admit far more allocations than bfva lists.
        result = runner.invoke(
            main,
            [
                "simulate", "--n", "30", "--reps", "1", "--method", "bfva",
                "--evaluator", "va", "--out", str(tmp_path),
            ],
        )
        assert result.exit_code == 0, result.output
        rows = (tmp_path / "welfare_table.csv").read_text().strip().splitlines()
        fields = rows[1].split(",")
        assert fields[5] == "NA"
        assert fields[8] == "enumeration_infeasible"


class TestAllocate:
    def test_toy_instance_matches_exhaustive_optimum(self, runner, tmp_path):
        cfg = make_toy_files(tmp_path)
        result = runner.invoke(
            main, ["allocate", "--config", str(cfg), "--out", str(tmp_path)]
        )
        assert result.exit_code == 0, result.output
        record = json.loads((tmp_path / "allocation.json").read_text())
        assert record["n"] == 3
        assert record["kappa"] == 1
        # Middle unit of the path dominates; verified exhaustively below.
        from netalloc import SimilarityKernel, ThetaParams, brute_force_optimal, make_instance
        from netalloc.network import load_covariates, load_network

        net = load_network(tmp_path / "net.txt", n=3)
        x = load_covariates(tmp_path / "cov.csv")
        theta = ThetaParams(-2.0, 0.5, 0.1, 0.6, 0.7, 0.8, 0.9, a_n=0.5)
        inst = make_instance(net, x, theta, kernel=SimilarityKernel.constant(1.0))
        best, _ = brute_force_optimal(inst, 1)
        assert tuple(record["treated"]) == best.treated == (1,)
        assert {"round", "unit", "delta", "nonconverged"} == set(record["trace"][0])
        bounds = json.loads((tmp_path / "bounds_report.json").read_text())
        assert "guarantee_factor" in bounds

    @pytest.mark.parametrize("method", ["none", "greedy", "bfva", "brute"])
    def test_kappa_above_the_network_size_is_an_error(self, runner, tmp_path, method):
        # "none" used to exit 0 and write "kappa": 9 for a 4-unit network.
        cfg = make_toy_files(tmp_path)
        (tmp_path / "net.txt").write_text("0,1\n1,2\n2,3\n")
        (tmp_path / "cov.csv").write_text("x\n1.0\n1.0\n1.0\n1.0\n")
        result = runner.invoke(
            main,
            ["allocate", "--config", str(cfg), "--kappa", "9", "--method", method,
             "--out", str(tmp_path)],
        )
        assert result.exit_code == 1
        assert isinstance(result.exception, ValueError)
        assert str(result.exception) == "kappa must be between 0 and n, got 9 for n = 4"
        assert not (tmp_path / "allocation.json").exists()

    def test_zero_capacity_empty_treated(self, runner, tmp_path):
        cfg = make_toy_files(tmp_path)
        result = runner.invoke(
            main,
            ["allocate", "--config", str(cfg), "--kappa", "0", "--out", str(tmp_path)],
        )
        assert result.exit_code == 0, result.output
        record = json.loads((tmp_path / "allocation.json").read_text())
        assert record["treated"] == []
        assert record["trace"] == []

    def test_byte_identical_reruns(self, runner, tmp_path):
        cfg = make_toy_files(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            result = runner.invoke(
                main,
                ["allocate", "--config", str(cfg), "--mcmc-check", "--out", str(out)],
            )
            assert result.exit_code == 0, result.output
        assert (out_a / "allocation.json").read_bytes() == (
            out_b / "allocation.json"
        ).read_bytes()
        assert (out_a / "bounds_report.json").read_bytes() == (
            out_b / "bounds_report.json"
        ).read_bytes()

    def test_trace_reports_nonconverged_candidates(self, runner, tmp_path):
        cfg = make_toy_files(tmp_path)
        raw = json.loads(cfg.read_text())
        raw["solver"] = {"max_iter": 1}
        cfg.write_text(json.dumps(raw))
        result = runner.invoke(
            main, ["allocate", "--config", str(cfg), "--out", str(tmp_path)]
        )
        assert result.exit_code == 0, result.output
        record = json.loads((tmp_path / "allocation.json").read_text())
        assert record["trace"][0]["nonconverged"]
        assert set(record["trace"][0]["nonconverged"]) <= {0, 1, 2}

    def test_zero_steps_per_sweep_exits_with_error(self, runner, tmp_path):
        cfg = make_toy_files(tmp_path)
        raw = json.loads(cfg.read_text())
        raw["sampler"] = {"steps_per_sweep": 0}
        cfg.write_text(json.dumps(raw))
        result = runner.invoke(
            main,
            ["allocate", "--config", str(cfg), "--mcmc-check", "--out", str(tmp_path)],
        )
        assert result.exit_code == 1
        assert "steps_per_sweep" in str(result.exception)
        assert not (tmp_path / "allocation.json").exists()

    def test_bad_sampler_fails_before_allocating(self, runner, tmp_path, monkeypatch):
        import netalloc.allocate

        def fail(*args, **kwargs):
            raise AssertionError("greedy ran before the config was checked")

        monkeypatch.setattr(netalloc.allocate, "greedy", fail)
        cfg = make_toy_files(tmp_path)
        raw = json.loads(cfg.read_text())
        raw["sampler"] = {"sweeps": 100, "burn_in": 100}
        cfg.write_text(json.dumps(raw))
        result = runner.invoke(
            main,
            ["allocate", "--config", str(cfg), "--mcmc-check", "--out", str(tmp_path)],
        )
        assert result.exit_code == 1
        assert isinstance(result.exception, ValueError)
        assert "sweeps > burn_in" in str(result.exception)
        assert not (tmp_path / "allocation.json").exists()

    def test_bad_solver_setting_names_the_field(self, runner, tmp_path):
        cfg = make_toy_files(tmp_path)
        raw = json.loads(cfg.read_text())
        raw["solver"] = {"clamp": 0.7}
        cfg.write_text(json.dumps(raw))
        result = runner.invoke(
            main, ["allocate", "--config", str(cfg), "--out", str(tmp_path)]
        )
        assert result.exit_code == 1
        assert isinstance(result.exception, ValueError)
        assert "clamp" in str(result.exception)
        assert not (tmp_path / "allocation.json").exists()

    def test_negative_seed_flag_is_named(self, runner, tmp_path):
        out = tmp_path / "out"
        result = runner.invoke(
            main, ["simulate", "--n", "6", "--reps", "1", "--seed", "-1", "--out", str(out)]
        )
        assert result.exit_code == 1
        assert str(result.exception) == "seed must be nonnegative, got -1"
        assert not out.exists()

    @pytest.mark.parametrize("text", ["", "# i,j\n"])
    def test_edge_file_without_edges_is_named(self, runner, tmp_path, text):
        # Read as a 0-unit network, this used to fail on the covariate count.
        cfg = make_toy_files(tmp_path)
        (tmp_path / "net.txt").write_text(text)
        result = runner.invoke(
            main, ["allocate", "--config", str(cfg), "--out", str(tmp_path)]
        )
        assert result.exit_code == 1
        assert isinstance(result.exception, ValueError)
        assert str(result.exception) == f"{tmp_path / 'net.txt'}: no edges"

    def test_covariate_rows_fix_the_number_of_units(self, tmp_path):
        # The last unit has no edge, so the edge list alone would size the
        # network at three units.
        from netalloc.experiments import ExperimentConfig, load_instance

        cfg = make_toy_files(tmp_path)
        (tmp_path / "cov.csv").write_text("x\n1.0\n1.0\n1.0\n1.0\n")
        inst = load_instance(ExperimentConfig.from_dict(json.loads(cfg.read_text())))
        assert inst.n == 4 and inst.net.degree.tolist() == [1, 2, 1, 0]

    def test_edge_beyond_the_covariate_rows_is_out_of_range(self, runner, tmp_path):
        cfg = make_toy_files(tmp_path)
        (tmp_path / "net.txt").write_text("0,1\n1,3\n")
        result = runner.invoke(
            main, ["allocate", "--config", str(cfg), "--out", str(tmp_path)]
        )
        assert result.exit_code == 1
        assert str(result.exception) == f"{tmp_path / 'net.txt'}:2: unit 3 out of range for n=3"

    @pytest.mark.parametrize("command", ["allocate", "bounds"])
    def test_bad_input_file_leaves_no_output_directory(self, runner, tmp_path, command):
        # The files are read after the config; the directory is made only
        # when a result is written.
        cfg = make_toy_files(tmp_path)
        (tmp_path / "net.txt").write_text("0,1\n1,3\n")
        out = tmp_path / "o"
        result = runner.invoke(main, [command, "--config", str(cfg), "--out", str(out)])
        assert result.exit_code == 1
        assert str(result.exception) == f"{tmp_path / 'net.txt'}:2: unit 3 out of range for n=3"
        assert not out.exists()

    def test_malformed_edge_line_is_located(self, runner, tmp_path, monkeypatch, capsys):
        cfg = make_toy_files(tmp_path)
        (tmp_path / "net.txt").write_text("0,1\n1,x\n")
        result = runner.invoke(
            main, ["allocate", "--config", str(cfg), "--out", str(tmp_path)]
        )
        assert result.exit_code == 1
        assert isinstance(result.exception, ValueError)
        message = f"{tmp_path / 'net.txt'}:2: expected 'i,j', got '1,x'"
        assert str(result.exception) == message
        assert not (tmp_path / "allocation.json").exists()
        # The installed command prints it and exits 1.
        monkeypatch.setattr(sys, "argv", ["netalloc", "allocate", "--config", str(cfg),
                                          "--out", str(tmp_path)])
        with pytest.raises(SystemExit) as exit_info:
            entry()
        assert exit_info.value.code == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_missing_files_error(self, runner, tmp_path):
        result = runner.invoke(main, ["allocate", "--out", str(tmp_path)])
        assert result.exit_code == 1
        assert result.exception is not None


class TestValidate:
    def test_passes_on_benchmark_instance(self, runner, tmp_path):
        result = runner.invoke(
            main,
            [
                "validate", "--n", "5", "--density", "0.3", "--reps", "1",
                "--seed", "4", "--out", str(tmp_path),
            ],
        )
        assert result.exit_code == 0, result.output
        report = json.loads((tmp_path / "validation_report.json").read_text())
        assert report["summary"]["passed"] is True
        checks = report["instances"][0]["checks"]
        assert checks["stationarity"]["pass"] is True
        assert checks["kl_bounds_greedy"]["pass"] is True

    def test_impossible_tolerance_fails_with_exit_2(self, runner, tmp_path, monkeypatch):
        from netalloc import experiments

        monkeypatch.setattr(experiments, "VA_MCMC_TOL", 1e-12)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "sizes": [5],
                    "densities": [0.3],
                    "replications": 1,
                    "seed": 4,
                    "evaluators": ["va", "mcmc"],
                    "sampler": {"sweeps": 300, "burn_in": 100},
                }
            )
        )
        result = runner.invoke(
            main, ["validate", "--config", str(cfg_path), "--out", str(tmp_path)]
        )
        assert result.exit_code == 2
        report = json.loads((tmp_path / "validation_report.json").read_text())
        assert report["summary"]["failed"] > 0


class TestBounds:
    def test_report_written(self, runner, tmp_path):
        cfg = make_toy_files(tmp_path)
        result = runner.invoke(
            main, ["bounds", "--config", str(cfg), "--out", str(tmp_path)]
        )
        assert result.exit_code == 0, result.output
        report = json.loads((tmp_path / "bounds_report.json").read_text())
        for key in (
            "margin", "curvature_upper", "submodularity_lower",
            "guarantee_factor", "kl_upper_bound", "regret_upper_bound",
            "asymptotic_constants",
        ):
            assert key in report
        assert report["asymptotic_constants"]["C2"] == pytest.approx(
            2 * np.log(2), rel=1e-4
        )


class TestFlags:
    FLAGS = {
        "simulate": ["--config", "--n", "--density", "--param-set", "--kappa",
                     "--kappa-frac", "--reps", "--seed", "--out", "--evaluator",
                     "--workers", "--method"],
        "validate": ["--config", "--n", "--density", "--param-set", "--kappa",
                     "--kappa-frac", "--reps", "--seed", "--out", "--evaluator"],
        "allocate": ["--config", "--out", "--network", "--covariates", "--kappa",
                     "--kappa-frac", "--seed", "--method", "--mcmc-check"],
        "bounds": ["--config", "--out", "--network", "--covariates"],
    }
    # Flags every command took before each listed only the flags it reads.
    REMOVED = {
        "validate": [["--workers", "4"]],
        "allocate": [["--n", "40"], ["--density", "0.9"], ["--param-set", "2"],
                     ["--reps", "3"], ["--evaluator", "exact"], ["--workers", "4"]],
        "bounds": [["--n", "3"], ["--density", "0.9"], ["--param-set", "2"],
                   ["--kappa", "99"], ["--kappa-frac", "0.5"], ["--reps", "7"],
                   ["--seed", "5"], ["--evaluator", "mcmc"], ["--mode", "jacobi"],
                   ["--workers", "9"]],
    }

    @pytest.mark.parametrize("command", FLAGS)
    def test_each_command_takes_its_table_flags(self, command):
        params = main.commands[command].params
        assert [p.name for p in params] == list(COMMAND_OPTIONS[command])
        assert set(COMMAND_OPTIONS[command]) <= set(OPTIONS)
        assert [opt for p in params for opt in p.opts] == self.FLAGS[command]

    # Then --mode, which no command takes since the Jacobi sweep was deleted.
    @pytest.mark.parametrize(
        "command,flag", [(c, f) for c, flags in REMOVED.items() for f in flags]
        + [(c, ["--mode", "jacobi"]) for c in ("simulate", "validate", "allocate")]
    )
    def test_unread_flags_are_rejected(self, runner, tmp_path, command, flag):
        cfg = make_toy_files(tmp_path)
        out = tmp_path / "out"
        result = runner.invoke(main, [command, "--config", str(cfg), "--out", str(out), *flag])
        assert result.exit_code != 0
        assert "No such option" in result.output and flag[0] in result.output
        assert not out.exists()

    def test_out_is_not_a_config_key(self, runner, tmp_path):
        cfg = make_toy_files(tmp_path)
        raw = json.loads(cfg.read_text())
        raw["out"] = str(tmp_path / "elsewhere")
        cfg.write_text(json.dumps(raw))
        result = runner.invoke(main, ["bounds", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert result.exit_code == 1
        assert str(result.exception) == "unknown config keys: ['out']"
        assert not (tmp_path / "elsewhere").exists() and not (tmp_path / "o").exists()


class TestKernel:
    ARGS = ["simulate", "--n", "6", "--reps", "2", "--seed", "3", "--method", "greedy",
            "--evaluator", "va"]

    def test_simulate_reads_the_kernel(self, runner, tmp_path):
        tables = []
        for kernel in ("absdiff", "invdist"):
            cfg = tmp_path / f"{kernel}.json"
            cfg.write_text(json.dumps({"kernel": kernel}))
            out = tmp_path / kernel
            result = runner.invoke(main, [*self.ARGS, "--config", str(cfg), "--out", str(out)])
            assert result.exit_code == 0, result.output
            tables.append((out / "welfare_table.csv").read_bytes())
        result = runner.invoke(main, [*self.ARGS, "--out", str(tmp_path / "default")])
        assert result.exit_code == 0, result.output
        assert (tmp_path / "default" / "welfare_table.csv").read_bytes() == tables[0]
        assert tables[1] != tables[0]

    @pytest.mark.parametrize("command", ["simulate", "validate"])
    def test_bad_kernel_fails_before_any_output(self, runner, tmp_path, command):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kernel": "gaussian", "sizes": [5], "replications": 1}))
        out = tmp_path / "out"
        result = runner.invoke(main, [command, "--config", str(cfg), "--out", str(out)])
        assert result.exit_code == 1
        assert "unknown kernel kind 'gaussian'" in str(result.exception)
        assert not out.exists()


class TestEntry:
    """The installed command's exit codes (``cli.entry``): 0 success, 2 a
    failed validation, 1 anything else, with the message on stderr."""

    @staticmethod
    def exit_code(monkeypatch, *args):
        monkeypatch.setattr(sys, "argv", ["netalloc", *args])
        with pytest.raises(SystemExit) as exit_info:
            entry()
        return exit_info.value.code

    def test_runtime_error_is_printed_and_exits_1(self, tmp_path, monkeypatch, capsys):
        from netalloc import cli

        def fail(cfg):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "run_bounds", fail)
        cfg = make_toy_files(tmp_path)
        code = self.exit_code(monkeypatch, "bounds", "--config", str(cfg),
                              "--out", str(tmp_path / "o"))
        assert code == 1
        assert capsys.readouterr().err == "error: boom\n"

    def test_usage_error_is_shown_and_exits_1(self, monkeypatch, capsys):
        assert self.exit_code(monkeypatch, "simulate", "--bogus") == 1
        err = capsys.readouterr().err
        assert "Error: No such option" in err and "--bogus" in err

    def test_failed_validation_exits_2(self, tmp_path, monkeypatch):
        from netalloc import cli

        summary = {"checks": 1, "failed": 1, "passed": False}
        monkeypatch.setattr(cli, "run_validate", lambda cfg: ({"summary": summary}, False))
        code = self.exit_code(monkeypatch, "validate", "--n", "5", "--out", str(tmp_path))
        assert code == 2
        assert json.loads((tmp_path / "validation_report.json").read_text()) == {
            "summary": summary}


class TestExperiments:
    def test_numpy_settings_are_written_as_python_values(self, tmp_path):
        # Settings given as numpy scalars used to reach the JSON writers as
        # numpy scalars, which json cannot write.
        from netalloc.experiments import ExperimentConfig, run_allocate, run_validate, write_json

        cfg = ExperimentConfig(sizes=(np.int64(5),), densities=(np.float64(0.3),),
                               replications=np.int64(1), seed=np.int32(4))
        report, _ = run_validate(cfg)
        write_json(tmp_path / "validation_report.json", report)
        entry_ = json.loads((tmp_path / "validation_report.json").read_text())["instances"][0]
        assert (entry_["n"], entry_["density"]) == (5, 0.3)
        assert type(cfg.sizes[0]) is int and type(cfg.densities[0]) is float

        raw = json.loads(make_toy_files(tmp_path).read_text())
        cfg = ExperimentConfig.from_dict({**raw, "kappa": np.int64(1)})
        write_json(tmp_path / "allocation.json", run_allocate(cfg)["allocation"])
        assert json.loads((tmp_path / "allocation.json").read_text())["kappa"] == 1
        assert type(cfg.kappa) is int

    @pytest.mark.parametrize("raw,message", [
        ({"methods": ["greedy", "bogus"]}, r"unknown methods: \['bogus'\]"),
        ({"evaluators": ["va", "sampled"]}, r"unknown evaluators: \['sampled'\]"),
        ({"replications": 0}, "replications must be at least 1"),
    ])
    def test_sweep_settings_are_checked(self, raw, message):
        from netalloc.experiments import ExperimentConfig

        with pytest.raises(ValueError, match=message):
            ExperimentConfig.from_dict(raw)

    def test_top_level_a_n_overrides_the_param_set_and_theta(self):
        from netalloc.experiments import ExperimentConfig

        assert ExperimentConfig(a_n=0.25).resolved_theta(2, 10, generated=True).a_n == 0.25
        cfg = ExperimentConfig(theta={**THETA, "a_n": 0.5})
        assert cfg.resolved_theta(1, 10, generated=True).a_n == 0.5
        cfg = ExperimentConfig(theta={**THETA, "a_n": 0.5}, a_n=0.25)
        assert cfg.resolved_theta(1, 10, generated=False).a_n == 0.25

    def test_reason_re_raises_other_errors(self):
        from netalloc.exact import ExactSizeError
        from netalloc.experiments import _reason

        assert _reason(ExactSizeError("big")) == "exact_infeasible"
        with pytest.raises(ValueError, match="^not a size refusal$"):
            _reason(ValueError("not a size refusal"))

    def test_validate_skips_the_exact_checks_above_exact_cap(self):
        from netalloc.experiments import ExperimentConfig, run_validate

        def checks(exact_cap):
            report, _ = run_validate(ExperimentConfig(sizes=(6,), replications=1,
                                                      exact_cap=exact_cap))
            return set(report["instances"][0]["checks"])

        assert checks(5) == set()
        assert {"kl_bounds_greedy", "va_vs_exact_none", "stationarity"} <= checks(6)

    def test_validate_checks_the_guarantee_only_where_its_premises_hold(self):
        # theta5 = 2000 drives the margin's second slope branch so far into
        # the tail that the margin underflows to 0. The positivity profile
        # and the network-size condition still hold, but the guarantee
        # certifies nothing, so there is no greedy_guarantee check.
        from netalloc.experiments import ExperimentConfig, run_validate

        def checks(theta):
            report, ok = run_validate(ExperimentConfig(sizes=(6,), replications=1, theta=theta))
            assert ok
            return set(report["instances"][0]["checks"])

        theta = {"theta0": -2.0, "theta1": 0.5, "theta2": 0.1, "theta3": 0.6, "theta4": 0.7,
                 "theta5": 0.8, "theta6": 0.9}
        assert {"stationarity", "greedy_guarantee"} <= checks(theta)
        seen = checks({**theta, "theta5": 2000.0})
        assert "stationarity" in seen and "greedy_guarantee" not in seen

    def test_allocate_needs_theta(self, tmp_path):
        from netalloc.experiments import ExperimentConfig, run_allocate

        raw = json.loads(make_toy_files(tmp_path).read_text())
        del raw["theta"]
        with pytest.raises(ValueError, match="^allocate/bounds runs need explicit theta parameters$"):
            run_allocate(ExperimentConfig.from_dict(raw))


class TestConfigParsing:
    @pytest.mark.parametrize("raw", [{"sizs": [5]}, {"sparse": True}], ids=["sizs", "sparse"])
    def test_unknown_keys_rejected(self, raw):
        from netalloc.experiments import ExperimentConfig

        with pytest.raises(ValueError, match="unknown config keys"):
            ExperimentConfig.from_dict(raw)

    def test_readme_config_is_accepted(self):
        # A documented config must not name a deleted or misspelt key.
        from pathlib import Path

        from netalloc.experiments import ExperimentConfig

        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = re.findall(r"```json\n(.*?)```", readme, flags=re.S)
        assert blocks
        for block in blocks:
            ExperimentConfig.from_dict(json.loads(block))

    def test_solver_subconfig(self):
        from netalloc.experiments import ExperimentConfig

        cfg = ExperimentConfig.from_dict(
            {"solver": {"foc_tol": 1e-7}, "sizes": [7]}
        )
        assert cfg.solver.foc_tol == 1e-7
        assert cfg.sizes == (7,)

    @pytest.mark.parametrize(
        "raw",
        [
            {"method": "random"},
            {"method": "exhaustive"},
            {"sampler": {"sweeps": 10, "burn_in": 10}},
            {"sampler": {"sweeps": 10, "burn_in": 20}},
            {"sampler": {"sweeps": 10, "burn_in": -1}},
        ],
    )
    def test_invalid_settings_rejected_at_construction(self, raw):
        from netalloc.experiments import ExperimentConfig

        with pytest.raises(ValueError, match="allocation method|sweeps > burn_in"):
            ExperimentConfig.from_dict(raw)

    @pytest.mark.parametrize(
        "raw,message",
        [
            ({"workers": 0}, "workers must be at least 1, got 0"),
            ({"workers": -3}, "workers must be at least 1, got -3"),
            ({"random_draws": 0}, "random_draws must be at least 1, got 0"),
            ({"exact_cap": -1}, "exact_cap must be nonnegative, got -1"),
            ({"exact_cap": 21}, "exact_cap must be at most 20, got 21"),
            ({"exact_cap": 30}, "exact_cap must be at most 20, got 30"),
            ({"sizes": [5, 1]}, r"sizes must be at least 2, got \[1\]"),
            ({"densities": [0.3, 1.5]}, r"densities must lie in \(0, 1\], got \[1.5\]"),
            ({"densities": [0]}, r"densities must lie in \(0, 1\], got \[0\]"),
            ({"param_sets": [3]}, r"unknown param_sets: \[3\]"),
            ({"seed": "x"}, "seed must be an integer, got 'x'"),
            ({"replications": "3"}, "replications must be an integer, got '3'"),
            ({"workers": 1.5}, "workers must be an integer, got 1.5"),
            ({"exact_cap": True}, "exact_cap must be an integer, got True"),
            ({"kappa_frac": "0.3"}, "kappa_frac must be a number, got '0.3'"),
            ({"kernel": 5}, "kernel must be a string, got 5"),
            ({"kernel": "constant:abc"}, "kernel 'constant:abc': could not convert"),
            ({"mcmc_check": 1}, "mcmc_check must be a boolean, got 1"),
            ({"theta": [1, 2]}, r"theta must be a mapping, got \[1, 2\]"),
            ({"sizes": 15}, "sizes must be a list, got 15"),
            ({"methods": "greedy"}, "methods must be a list, got 'greedy'"),
            ({"sizes": [5, "7"]}, "sizes entries must be an integer, got '7'"),
            ({"densities": [None]}, "densities entries must be a number, got None"),
            ({"solver": {"max_iter": "5"}}, "solver.max_iter must be an integer, got '5'"),
            ({"solver": {"bogus": 1}}, r"unknown solver keys: \['bogus'\]"),
            ({"solver": 5}, "solver must be a mapping, got 5"),
            ({"solver": {"restarts": "3"}}, r"unknown solver keys: \['restarts'\]"),
            ({"sampler": {"sweeps": 60.5, "burn_in": 20}},
             "sampler.sweeps must be an integer, got 60.5"),
            ({"tolerances": {"va_mcmc": "x"}}, r"unknown config keys: \['tolerances'\]"),
            ({"solver": {"foc_tol": True}}, "solver.foc_tol must be a number, got True"),
            ({"theta": {"theta0": -2.0}},
             r"theta keys missing: \['theta1', 'theta2', 'theta3', 'theta4', 'theta5', 'theta6'\]"),
            ({"theta": {**THETA, "bogus": 3}}, r"theta keys missing: \[\], unknown: \['bogus'\]"),
            ({"a_n": -1}, "a_n must be positive and finite, got -1"),
            ({"a_n": float("nan")}, "a_n must be positive and finite, got nan"),
            ({"kernel": "constant:inf"},
             "kernel 'constant:inf': constant kernel value must be positive and finite"),
            ({"kernel": "absdiff:3"}, "kernel 'absdiff:3': kernel 'absdiff' takes no value"),
            ({"theta": {**THETA, "a_n": True}}, "a_n must be a number, got True"),
            ({"theta": {**THETA, "a_n": "0.5"}}, "a_n must be a number, got '0.5'"),
            ({"kappa": 9, "sizes": [12, 5]}, "kappa must be between 0 and n, got 9 for n = 5"),
            ({"solver": {"rho": 1e-9}}, r"unknown solver keys: \['rho'\]"),
            ({"solver": {"clamp": 1e-15}}, r"unknown solver keys: \['clamp'\]"),
            ({"tolerances": {"stationarity": 1e-12}}, r"unknown config keys: \['tolerances'\]"),
            ({"tolerances": {"kl_nonneg": -1e-10}}, r"unknown config keys: \['tolerances'\]"),
            ({"tolerances": {"pinsker_slack": 1e-9}}, r"unknown config keys: \['tolerances'\]"),
            ({"solver": {"foc_tol": float("inf")}},
             "foc_tol must be finite and nonnegative, got inf"),
            ({"solver": {"restarts": -3}}, r"unknown solver keys: \['restarts'\]"),
            ({"solver": {"restarts": 0}}, r"unknown solver keys: \['restarts'\]"),
            ({"tolerances": {"va_mcmc": -1}}, r"unknown config keys: \['tolerances'\]"),
            ({"tolerances": {"va_mcmc": float("nan")}}, r"unknown config keys: \['tolerances'\]"),
            ({"tolerances": {"va_mcmc": float("inf")}}, r"unknown config keys: \['tolerances'\]"),
            ({"solver": {"mode": "jacobi"}}, r"unknown solver keys: \['mode'\]"),
            ({"seed": -1}, "seed must be nonnegative, got -1"),
        ],
    )
    def test_settings_that_would_break_the_run_are_named(self, raw, message):
        from netalloc.experiments import ExperimentConfig

        with pytest.raises(ValueError, match=message):
            ExperimentConfig.from_dict(raw)

    @pytest.mark.parametrize("sweeps,burn_in,message", [
        (100.5, 10, "sweeps must be an integer, got 100.5"),
        (True, 0, "sweeps must be an integer, got True"),
        (100, 10.0, "burn_in must be an integer, got 10.0"),
        (100, False, "burn_in must be an integer, got False"),
    ])
    def test_sampler_counts_must_be_integers(self, sweeps, burn_in, message):
        from netalloc.experiments import SamplerSettings

        with pytest.raises(ValueError, match=f"^{message}$"):
            SamplerSettings(sweeps=sweeps, burn_in=burn_in)
        assert SamplerSettings(sweeps=np.int64(100), burn_in=np.int32(10)).sweeps == 100

    def test_constants_are_not_settings(self):
        # The restart count, the sweep length and validate's tolerances are
        # module constants, not config keys.
        import dataclasses

        from netalloc import experiments, meanfield

        fields = lambda cls: [f.name for f in dataclasses.fields(cls)]
        assert fields(meanfield.SolverSettings) == ["foc_tol", "max_iter"]
        assert fields(experiments.SamplerSettings) == ["sweeps", "burn_in"]
        assert "tolerances" not in fields(experiments.ExperimentConfig)
        assert not hasattr(experiments, "Tolerances")

    def test_accepted_types(self):
        from netalloc.exact import MAX_EXACT_UNITS
        from netalloc.experiments import ExperimentConfig

        cfg = ExperimentConfig.from_dict(
            {"sizes": [2, np.int64(9)], "densities": [1, 0.25], "param_sets": [2],
             "exact_cap": MAX_EXACT_UNITS, "kappa": None, "a_n": 1, "seed": np.int32(4)}
        )
        assert cfg.sizes == (2, 9) and cfg.densities == (1, 0.25)
        assert cfg.exact_cap == MAX_EXACT_UNITS
        assert ExperimentConfig(sizes=[5], methods=["none"]).sizes == (5,)
        cfg = ExperimentConfig.from_dict(
            {"solver": {"max_iter": np.int64(5), "foc_tol": 1}, "theta": {**THETA, "a_n": 2}}
        )
        assert cfg.solver.max_iter == 5 and cfg.solver.foc_tol == 1
        assert type(cfg.theta_params.a_n) is float and cfg.theta_params.a_n == 2.0

    @pytest.mark.parametrize("raw", [{"densities": [0.3, 1.5]}, {"sizes": [1]},
                                     {"param_sets": [3]}, {"seed": "x"},
                                     {"solver": {"restarts": "3"}},
                                     {"sampler": {"sweeps": 60.5, "burn_in": 20}},
                                     {"theta": {"theta0": -2.0}}, {"a_n": -1},
                                     {"kappa": 9, "sizes": [5]}, {"seed": -1}])
    def test_bad_config_file_fails_before_the_output_directory(self, runner, tmp_path, raw):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "out"
        result = runner.invoke(
            main, ["simulate", "--config", str(cfg), "--reps", "1", "--out", str(out)]
        )
        assert result.exit_code == 1
        assert next(iter(raw)) in str(result.exception)
        assert not out.exists()

    @pytest.mark.parametrize("raw, flags, message", [
        ({"solver": 5}, ["--n", "7"], "solver must be a mapping, got 5"),
        ([1], [], "config must be a mapping, got [1]"),
    ])
    def test_config_that_is_not_a_mapping_is_named(self, runner, tmp_path, raw, flags, message):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "out"
        result = runner.invoke(
            main, ["simulate", "--config", str(cfg), "--reps", "1", *flags, "--out", str(out)]
        )
        assert result.exit_code == 1
        assert message in str(result.exception)
        assert not out.exists()

    def test_zero_workers_flag_is_an_error(self, runner, tmp_path):
        result = runner.invoke(
            main, ["simulate", "--n", "5", "--reps", "1", "--workers", "0",
                   "--out", str(tmp_path / "out")]
        )
        assert result.exit_code == 1
        assert "workers must be at least 1" in str(result.exception)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, flags", [
        ("simulate", ["--method", "greedy"]), ("simulate", ["--method", "random"]),
        ("validate", []),
    ])
    def test_kappa_above_a_swept_size_fails_before_the_output_directory(
        self, runner, tmp_path, command, flags
    ):
        out = tmp_path / "out"
        result = runner.invoke(
            main, [command, "--n", "5", "--kappa", "9", "--reps", "1", *flags, "--out", str(out)]
        )
        assert result.exit_code == 1
        assert "kappa must be between 0 and n, got 9 for n = 5" in str(result.exception)
        assert not out.exists()

    def test_kappa_is_not_capped_by_sizes_with_a_network_file(self):
        from netalloc.experiments import ExperimentConfig

        assert ExperimentConfig(kappa=20, network_file="net.txt").kappa == 20

    @pytest.mark.parametrize("steps", [0, -2])
    def test_steps_per_sweep_below_one_rejected(self, steps):
        # A sweep is always N steps, so the key is unknown at any value.
        from netalloc.experiments import ExperimentConfig

        with pytest.raises(ValueError, match=r"unknown sampler keys: \['steps_per_sweep'\]"):
            ExperimentConfig.from_dict({"sampler": {"steps_per_sweep": steps}})

    def test_choices_follow_the_registries(self):
        from netalloc.experiments import ALLOCATORS, EVALUATORS, METHODS

        params = {
            (cmd, p.name): p for cmd in ("simulate", "allocate")
            for p in main.commands[cmd].params
        }
        assert tuple(params["simulate", "methods"].type.choices) == METHODS
        assert tuple(params["allocate", "method"].type.choices) == tuple(ALLOCATORS)
        assert tuple(params["simulate", "evaluators"].type.choices) == tuple(EVALUATORS)

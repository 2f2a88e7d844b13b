"""End-to-end tests for the command-line harness.

Each subcommand runs against a temporary output directory with small sample
sizes; exit codes, printed verdict lines, and the CSV/JSON artifacts are all
checked.  Determinism (byte-identical CSV reruns, stable content hashes) gets
its own section.
"""

from __future__ import annotations

import json
import math
import re
import shlex
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from tropmass import cli
from tropmass.cli import (
    SUITES,
    ConfigError,
    ExperimentConfig,
    build_parser,
    config_from_args,
    main,
    parse_t_schedule,
)
from tropmass.model import ModelSpecError, coordinate_pencil, format_model_spec, parse_model_spec
from tropmass.skeleton import parse_skeleton_spec


def run_cli(args, tmp_path, capsys):
    """Run ``main`` with --out pointed at tmp_path; return (exit, out, err)."""
    code = main([*args, "--out", str(tmp_path)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# t-schedule parsing


class TestTSchedule:
    def test_decade_ladder(self):
        sched = parse_t_schedule("1e-2..1e-6")
        assert sched == pytest.approx((1e-2, 1e-3, 1e-4, 1e-5, 1e-6))

    def test_ladder_with_uneven_endpoint(self):
        sched = parse_t_schedule("1e-2..3e-5")
        assert sched == pytest.approx((1e-2, 1e-3, 1e-4, 3e-5))

    def test_comma_list(self):
        assert parse_t_schedule("0.01,0.005") == pytest.approx((0.01, 0.005))

    def test_single_value(self):
        assert parse_t_schedule("1e-3") == pytest.approx((1e-3,))

    def test_list_and_ladder_mix(self):
        sched = parse_t_schedule("1e-1..1e-2,5e-3")
        assert sched == pytest.approx((1e-1, 1e-2, 5e-3))

    def test_reversed_ladder_rejected(self):
        with pytest.raises(ConfigError):
            parse_t_schedule("1e-6..1e-2")

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            parse_t_schedule(" , ")


# ---------------------------------------------------------------------------
# configuration validation


class TestExperimentConfig:
    @pytest.mark.parametrize(
        "command", ["sample", "pushforward", "fit-mass", "polar-check", "verify"]
    )
    def test_seed_mandatory_for_sampling(self, command):
        with pytest.raises(ConfigError, match="seed"):
            ExperimentConfig(command=command)

    def test_seed_optional_for_exact_commands(self):
        cfg = ExperimentConfig(command="dual-complex", model="annulus")
        assert cfg.seed is None

    @pytest.mark.parametrize("tol", [0.0, -0.5])
    def test_tolerance_must_be_positive(self, tol):
        with pytest.raises(ConfigError, match="tolerance"):
            ExperimentConfig(command="dual-complex", tolerance=tol)

    @pytest.mark.parametrize("t", [0.0, 1.0, 1.5, -0.1])
    def test_t_values_in_open_unit_interval(self, t):
        with pytest.raises(ConfigError, match="t values"):
            ExperimentConfig(command="sample", seed=1, t_schedule=(t,))

    def test_counts_must_be_positive(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(command="sample", seed=1, n_samples=0)
        with pytest.raises(ConfigError):
            ExperimentConfig(command="sample", seed=1, bins=0)
        with pytest.raises(ConfigError):
            ExperimentConfig(command="sample", seed=1, threads=0)

    def test_residues_must_be_finite_nonnegative(self):
        with pytest.raises(ConfigError, match="residue"):
            ExperimentConfig(command="limit-measure", residues=(("E0&E1", -1.0),))
        with pytest.raises(ConfigError, match="residue"):
            ExperimentConfig(command="limit-measure", residues=(("E0&E1", float("nan")),))

    def test_echo_is_json_serializable(self):
        cfg = ExperimentConfig(
            command="sample",
            seed=3,
            b=(1, 2),
            a=(Fraction(0), Fraction(1, 2)),
            t_schedule=(1e-3,),
        )
        echoed = json.loads(json.dumps(cfg.echo()))
        assert echoed["b"] == [1, 2]
        assert echoed["a"] == ["0", "1/2"]


class TestParser:
    def test_sample_args_round_trip(self):
        args = build_parser().parse_args(
            ["sample", "--preset", "annulus", "--t", "1e-3", "--seed", "1"]
        )
        cfg = config_from_args(args)
        assert cfg.command == "sample"
        assert cfg.model == "annulus"
        assert cfg.t_schedule == pytest.approx((1e-3,))
        assert cfg.seed == 1

    def test_chart_lists_parsed(self):
        args = build_parser().parse_args(
            ["pushforward", "--b", "1,2", "--a", "0,1/2", "--t", "1e-4", "--seed", "2"]
        )
        cfg = config_from_args(args)
        assert cfg.b == (1, 2)
        assert cfg.a == (Fraction(0), Fraction(1, 2))

    def test_preset_and_model_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["weights", "--preset", "annulus", "--model", "x.model"]
            )

    def test_outdir_env_default(self, monkeypatch):
        monkeypatch.setenv("TROPMASS_OUTDIR", "/tmp/from-env")
        args = build_parser().parse_args(["weights", "--preset", "annulus"])
        assert config_from_args(args).outdir == "/tmp/from-env"

    def test_out_flag_overrides_env(self, monkeypatch):
        monkeypatch.setenv("TROPMASS_OUTDIR", "/tmp/from-env")
        args = build_parser().parse_args(
            ["weights", "--preset", "annulus", "--out", "/tmp/explicit"]
        )
        assert config_from_args(args).outdir == "/tmp/explicit"


# ---------------------------------------------------------------------------
# skeleton spec files


def cycle_spec_text(anchor_line: str = "residue_anchor=E0&E1 rho=2.0") -> str:
    text = format_model_spec(coordinate_pencil(2))
    return f"{text}\n[skeleton]\n{anchor_line}\n"


class TestSkeletonSpecParsing:
    def test_anchor_and_rho_round_trip(self):
        model, anchor, rho = parse_skeleton_spec(cycle_spec_text())
        assert {c.name for c in model.components} == {"E0", "E1", "E2"}
        assert anchor == "E0&E1"
        assert rho == 2.0

    def test_anchor_without_rho(self):
        model, anchor, rho = parse_skeleton_spec(cycle_spec_text("residue_anchor=E0&E1"))
        assert anchor == "E0&E1"
        assert rho is None

    def test_plain_model_passes_through(self):
        model, anchor, rho = parse_skeleton_spec(format_model_spec(coordinate_pencil(2)))
        assert anchor is None and rho is None
        assert len(model.strata) == 6

    def test_unknown_skeleton_field_rejected_with_line(self):
        text = cycle_spec_text("residue_anchor=E0&E1 colour=blue")
        lineno = text.rstrip("\n").count("\n") + 1  # the anchor line is last
        with pytest.raises(ModelSpecError, match=f"line {lineno}"):
            parse_skeleton_spec(text)

    def test_bad_rho_rejected(self):
        with pytest.raises(ModelSpecError, match="rho"):
            parse_skeleton_spec(cycle_spec_text("residue_anchor=E0&E1 rho=big"))

    def test_duplicate_anchor_rejected(self):
        text = cycle_spec_text("residue_anchor=E0&E1\nresidue_anchor=E1&E2")
        with pytest.raises(ModelSpecError, match="residue_anchor"):
            parse_skeleton_spec(text)

    def test_model_errors_keep_their_line_numbers(self):
        # The [skeleton] section is blanked, not removed, so model-section
        # errors report positions in the original file.
        text = "[skeleton]\nresidue_anchor=E0&E1\n[components]\nE0 b=oops a=0\n[strata]\nE0\n"
        with pytest.raises(ModelSpecError, match="line 4"):
            parse_skeleton_spec(text)


# ---------------------------------------------------------------------------
# exit codes


class TestExitCodes:
    def test_pass_run_exits_zero(self, tmp_path, capsys):
        code, out, _ = run_cli(["dual-complex", "--preset", "annulus"], tmp_path, capsys)
        assert code == 0
        assert "[pass]" in out
        assert (tmp_path / "dual-complex-annulus-report.json").exists()

    def test_failing_check_exits_one(self, tmp_path, capsys):
        spec = tmp_path / "segment.model"
        spec.write_text(
            "[components]\nE0 b=1 a=0\nE1 b=1 a=0\n[strata]\nE0\nE1\nE0 & E1\n"
        )
        code, out, _ = run_cli(["skeleton-check", "--model", str(spec)], tmp_path, capsys)
        assert code == 1
        assert "[FAIL] closed" in out

    def test_missing_seed_exits_two(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["sample", "--preset", "annulus", "--t", "1e-3"], tmp_path, capsys
        )
        assert code == 2
        assert "[error]" in err and "seed" in err

    def test_parse_error_reports_line_number(self, tmp_path, capsys):
        bad = tmp_path / "bad.model"
        bad.write_text("[components]\nE0 b=oops a=0\n[strata]\nE0\n")
        code, _, err = run_cli(["dual-complex", "--model", str(bad)], tmp_path, capsys)
        assert code == 2
        assert "line 2" in err

    def test_unknown_preset_exits_two(self, tmp_path, capsys):
        code, _, err = run_cli(["weights", "--preset", "banana"], tmp_path, capsys)
        assert code == 2
        assert "banana" in err

    def test_unknown_suite_exits_two(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["verify", "--suite", "nope", "--seed", "1"], tmp_path, capsys
        )
        assert code == 2
        assert "nope" in err

    def test_pencil_beyond_plane_curves_exits_two(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["sample", "--preset", "coordinate_pencil", "--n", "3", "--t", "1e-4", "--seed", "1"],
            tmp_path,
            capsys,
        )
        assert code == 2
        assert "[error]" in err and "--n 2" in err
        assert not list(tmp_path.glob("sample-*.csv"))

    def test_suite_list_prints_registry(self, capsys):
        code = main(["verify", "--suite", "list"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.split() == sorted(SUITES)


# ---------------------------------------------------------------------------
# subcommand artifacts


class TestSubcommands:
    def test_weights_artifacts(self, tmp_path, capsys):
        code, _, _ = run_cli(["weights", "--preset", "annulus"], tmp_path, capsys)
        assert code == 0
        csv_text = (tmp_path / "weights-annulus.csv").read_text()
        assert csv_text.splitlines()[0] == "component,b,a,kappa"
        summary = json.loads((tmp_path / "weights-annulus.json").read_text())
        assert summary["d"] == 1
        assert summary["kappa_min"] == "0"
        assert summary["active_top_faces"] == ["E0&E1"]

    def test_limit_measure_with_residues(self, tmp_path, capsys):
        args = ["limit-measure", "--preset", "coordinate_pencil", "--n", "2"]
        for face in ("E0&E1", "E0&E2", "E1&E2"):
            args += ["--residue", f"{face}=2.0"]
        code, _, _ = run_cli(args, tmp_path, capsys)
        assert code == 0
        rows = (tmp_path / "limit-measure-coordinate_pencil.csv").read_text().splitlines()
        assert len(rows) == 4  # header + three edges
        assert rows[1].split(",")[-1] == "2.0"

    def test_limit_measure_partial_residues_error(self, tmp_path, capsys):
        code, _, err = run_cli(
            [
                "limit-measure",
                "--preset",
                "coordinate_pencil",
                "--residue",
                "E0&E1=2.0",
            ],
            tmp_path,
            capsys,
        )
        assert code == 2
        assert "E0&E2" in err or "E1&E2" in err

    def test_base_change_verdicts(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["base-change", "--preset", "coordinate_pencil", "--m", "3"],
            tmp_path,
            capsys,
        )
        assert code == 0
        assert "[pass] splitting-identity" in out
        assert "[pass] pushforward-identity" in out

    def test_sample_annulus_unit_mass(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["sample", "--preset", "annulus", "--t", "1e-3", "--seed", "1", "--n-samples", "1000"],
            tmp_path,
            capsys,
        )
        assert code == 0
        assert "normalized-mass-t0.001" in out

    def test_pushforward_histogram(self, tmp_path, capsys):
        code, out, _ = run_cli(
            [
                "pushforward", "--b", "1,2", "--t", "1e-6",
                "--n-samples", "20000", "--bins", "10", "--seed", "2",
            ],
            tmp_path,
            capsys,
        )
        assert code == 0
        rows = (tmp_path / "pushforward-chart-1-2.csv").read_text().splitlines()
        assert len(rows) == 11  # header + one row per bin
        assert "[pass] pushforward-uniformity-ks" in out

    def test_fit_mass_annulus(self, tmp_path, capsys):
        code, _, _ = run_cli(
            [
                "fit-mass", "--preset", "annulus", "--t", "1e-2..1e-5",
                "--n-samples", "3000", "--seed", "4",
            ],
            tmp_path,
            capsys,
        )
        assert code == 0
        fit = json.loads((tmp_path / "fit-mass-annulus.json").read_text())
        assert fit["fit"]["d_hat"] == 1
        assert fit["fit"]["kappa_min_hat"] == pytest.approx(0.0, abs=1e-9)
        assert fit["fit"]["c_hat"] == pytest.approx(fit["predicted"]["c"], rel=1e-9)

    def test_fit_mass_predicts_the_chart_limit_constant(self, tmp_path, capsys):
        # d = 0 on the twisted chart, so c is the chart limit mass pi, not 1.
        code, _, _ = run_cli(
            ["fit-mass", "--b", "1,1", "--a", "0,1", "--t", "1e-2..1e-6", "--seed", "3"],
            tmp_path,
            capsys,
        )
        assert code == 0
        fit = json.loads((tmp_path / "fit-mass-chart-1-1.json").read_text())
        assert fit["predicted"]["c"] == pytest.approx(math.pi, rel=1e-12)

    def test_fit_mass_needs_four_t_values(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["fit-mass", "--preset", "annulus", "--t", "1e-2..1e-4", "--seed", "4"],
            tmp_path,
            capsys,
        )
        assert code == 2
        assert "4" in err

    def test_fit_mass_needs_three_decades_before_sampling(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["fit-mass", "--preset", "annulus", "--t", "1e-2,5e-3,1e-3,5e-4", "--seed", "4"],
            tmp_path,
            capsys,
        )
        assert code == 2
        assert "3 decades" in err
        assert not list(tmp_path.glob("fit-mass-*.csv"))

    def test_polar_check_small(self, tmp_path, capsys):
        code, out, _ = run_cli(
            [
                "polar-check", "--n-samples", "40000", "--n-polys", "2",
                "--seed", "5", "--tolerance", "0.05",
            ],
            tmp_path,
            capsys,
        )
        assert code == 0
        assert "[pass] point-fiber-b3" in out

    def test_hybrid_check_small(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["hybrid-check", "--n-sequences", "50", "--seed", "3"], tmp_path, capsys
        )
        assert code == 0
        assert "[pass] parameter-seminorm-is-radius" in out

    def test_skeleton_check_preset_anchor(self, tmp_path, capsys):
        code, out, _ = run_cli(
            [
                "skeleton-check", "--preset", "coordinate_pencil", "--n", "2",
                "--anchor", "E0&E1", "--rho", "1.5",
            ],
            tmp_path,
            capsys,
        )
        assert code == 0
        assert "[pass] residue-propagation-constant" in out
        summary = json.loads((tmp_path / "skeleton-coordinate_pencil.json").read_text())
        assert set(summary["residue_magnitudes"].values()) == {1.5}

    def test_skeleton_check_spec_file_anchor(self, tmp_path, capsys):
        spec = tmp_path / "cycle.skel"
        spec.write_text(cycle_spec_text())
        code, out, _ = run_cli(["skeleton-check", "--model", str(spec)], tmp_path, capsys)
        assert code == 0
        assert "magnitude 2 on all 3 cells" in out

    def test_skeleton_check_subdivide_remaps_anchor(self, tmp_path, capsys):
        spec = tmp_path / "cycle.skel"
        spec.write_text(cycle_spec_text())
        code, out, _ = run_cli(
            ["skeleton-check", "--model", str(spec), "--subdivide"], tmp_path, capsys
        )
        assert code == 0
        assert "magnitude 2 on all 6 cells" in out

    def test_verify_lattice_suite(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["verify", "--suite", "lattice", "--seed", "1"], tmp_path, capsys
        )
        assert code == 0
        assert "[pass] simplex-volume-vs-lattice-index" in out


# ---------------------------------------------------------------------------
# determinism


class TestDeterminism:
    @staticmethod
    def _sample_args(outdir):
        return [
            "sample", "--preset", "coordinate_pencil", "--n", "2", "--t", "1e-5",
            "--n-samples", "20000", "--seed", "7", "--out", str(outdir),
        ]

    def test_csv_reruns_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(self._sample_args(a)) == 0
        assert main(self._sample_args(b)) == 0
        capsys.readouterr()
        csvs = sorted(p.name for p in a.glob("*.csv"))
        assert csvs
        for name in csvs:
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_pencil_histogram_csv_has_plain_floats(self, tmp_path, capsys):
        assert main(self._sample_args(tmp_path)) == 0
        capsys.readouterr()
        (hist,) = tmp_path.glob("*-hist.csv")
        assert "np." not in hist.read_text()

    @pytest.mark.parametrize(
        "args",
        [
            ["sample", "--b", "1,2", "--a", "0,1", "--t", "1e-4", "--n-samples", "400000"],
            ["pushforward", "--b", "1,2", "--t", "1e-6", "--n-samples", "1000000", "--bins", "50"],
            ["sample", "--preset", "coordinate_pencil", "--n", "2", "--t", "1e-5", "--n-samples", "20000"],
        ],
        ids=["sample-chart", "pushforward", "sample-pencil"],
    )
    def test_threads_do_not_change_csv_bytes(self, tmp_path, capsys, args):
        for threads in ("1", "2"):
            out = tmp_path / threads
            assert main([*args, "--seed", "3", "--threads", threads, "--out", str(out)]) == 0
        capsys.readouterr()
        csvs = sorted(p.name for p in (tmp_path / "1").glob("*.csv"))
        assert csvs
        for name in csvs:
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()

    def test_content_hash_ignores_outdir(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(self._sample_args(a)) == 0
        assert main(self._sample_args(b)) == 0
        capsys.readouterr()
        ha = json.loads((a / "sample-coordinate_pencil-report.json").read_text())
        hb = json.loads((b / "sample-coordinate_pencil-report.json").read_text())
        assert ha["content_hash"] == hb["content_hash"]

    def test_content_hash_tracks_seed(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        args_b = self._sample_args(b)
        args_b[args_b.index("7")] = "8"
        assert main(self._sample_args(a)) == 0
        assert main(args_b) == 0
        capsys.readouterr()
        ha = json.loads((a / "sample-coordinate_pencil-report.json").read_text())
        hb = json.loads((b / "sample-coordinate_pencil-report.json").read_text())
        assert ha["content_hash"] != hb["content_hash"]

    def test_report_echoes_config_and_verdicts(self, tmp_path, capsys):
        outdir = tmp_path / "a"
        assert main(self._sample_args(outdir)) == 0
        capsys.readouterr()
        report = json.loads((outdir / "sample-coordinate_pencil-report.json").read_text())
        assert report["config"]["seed"] == 7
        assert report["passed"] is True
        assert all("discrepancy" in v for v in report["verdicts"])
        assert report["timings"]


# ---------------------------------------------------------------------------
# suite registry


class TestSuiteRegistry:
    def test_named_suites(self):
        assert sorted(SUITES) == [
            "annulus-mass",
            "base-change",
            "chart-residual",
            "decay",
            "hybrid",
            "lattice",
            "pencil",
            "polar",
            "pushforward",
            "regression",
        ]

    def test_verify_all_calls_the_samplers_through_cli(self, tmp_path, monkeypatch):
        # The benchmark's verify-all workload counts effective samples by
        # wrapping these three names in the cli module; a suite that stops
        # calling them there would silently zero its ess_per_s.
        calls = []
        suite = [None]

        def counting(fn):
            def call(*args, **kwargs):
                calls.append(suite[0])
                return fn(*args, **kwargs)

            return call

        def entering(name, fn):
            def run_suite(**kwargs):
                suite[0] = name
                return fn(**kwargs)

            return run_suite

        for name in ("sample_fiber_measure", "pushforward_histogram", "sample_pencil"):
            monkeypatch.setattr(cli, name, counting(getattr(cli, name)))
        for name, fn in list(SUITES.items()):
            monkeypatch.setitem(SUITES, name, entering(name, fn))
        report = cli.run(
            ExperimentConfig(command="verify", suite="all", quick=True, seed=0, outdir=str(tmp_path))
        )
        assert Counter(calls) == {
            "annulus-mass": 5,
            "chart-residual": 6,
            "pushforward": 1,
            "decay": 5,
            "pencil": 1,
        }
        assert len(report.verdicts) == 51
        assert report.passed


# ---------------------------------------------------------------------------
# README examples


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_blocks(lang: str) -> list[str]:
    return re.findall(rf"```{lang}\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


class TestReadme:
    def test_spec_blocks_parse(self):
        model_block, skeleton_block = readme_blocks("ini")
        model = parse_model_spec(model_block)
        assert [p.name for p in model.pair_divisors] == ["H"]
        _, anchor, rho = parse_skeleton_spec(model_block + skeleton_block)
        assert (anchor, rho) == ("E0&E1", 2.0)

    def test_command_lines_parse(self):
        lines = [
            line
            for block in readme_blocks("sh")
            for line in block.splitlines()
            if line.startswith("tropmass ")
        ]
        assert len(lines) == 13
        parser = build_parser()
        for line in lines:
            args = parser.parse_args(shlex.split(line, comments=True)[1:])
            assert args.command == line.split()[1]

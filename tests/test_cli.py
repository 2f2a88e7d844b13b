"""End-to-end tests for the command-line harness.

Each subcommand runs against a temporary output directory with small sample
sizes; exit codes, printed verdict lines, and the CSV/JSON artifacts are all
checked.  Determinism (byte-identical CSV reruns, stable content hashes) gets
its own section.
"""

from __future__ import annotations

import dataclasses
import doctest
import hashlib
import json
import math
import re
import shlex
import tempfile
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from tropmass import basechange, cli
from tropmass.cli import (
    SUITES,
    CheckVerdict,
    ConfigError,
    ExperimentConfig,
    build_parser,
    config_from_args,
    main,
    parse_t_schedule,
)
from tropmass.model import ModelSpecError, coordinate_pencil, format_model_spec, parse_model_spec
from tropmass.pencil import HypersurfacePencil
from tropmass.skeleton import parse_skeleton_spec


def run_cli(args, tmp_path, capsys):
    """Run ``main`` with --out pointed at tmp_path; return (exit, out, err)."""
    code = main([*args, "--out", str(tmp_path)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# t-schedule parsing


class TestTSchedule:
    # Each rung is the start's decimal text shifted by whole decades, so the
    # ladders hold exactly the floats their decimal names denote.
    def test_decade_ladder(self):
        assert parse_t_schedule("1e-2..1e-7") == (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7)

    def test_ladder_with_uneven_start(self):
        assert parse_t_schedule("3e-2..1e-6") == (3e-2, 3e-3, 3e-4, 3e-5, 3e-6, 1e-6)

    def test_ladder_is_the_suites_ladder(self):
        assert parse_t_schedule("1e-2..1e-6") == cli.LADDER

    def test_ladder_with_uneven_endpoint(self):
        assert parse_t_schedule("1e-2..3e-5") == (1e-2, 1e-3, 1e-4, 3e-5)

    def test_comma_list(self):
        assert parse_t_schedule("0.01,0.005") == (0.01, 0.005)

    def test_single_value(self):
        assert parse_t_schedule("1e-3") == (1e-3,)

    def test_list_and_ladder_mix(self):
        assert parse_t_schedule("1e-1..1e-2,5e-3") == (1e-1, 1e-2, 5e-3)

    def test_reversed_ladder_rejected(self):
        with pytest.raises(ConfigError):
            parse_t_schedule("1e-6..1e-2")

    def test_infinite_ladder_start_rejected(self):
        with pytest.raises(ConfigError):
            parse_t_schedule("inf..1e-6")

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            parse_t_schedule(" , ")


# ---------------------------------------------------------------------------
# configuration validation


class TestExperimentConfig:
    @pytest.mark.parametrize(
        "command", ["sample", "pushforward", "fit-mass", "polar-check", "hybrid-check", "verify"]
    )
    def test_seed_mandatory_for_sampling(self, command):
        with pytest.raises(ConfigError, match="seed"):
            ExperimentConfig(command=command)

    @pytest.mark.parametrize("command", [name for name, row in cli.COMMANDS.items() if "seed" in row.reads])
    def test_negative_seed_refused(self, command):
        with pytest.raises(ConfigError, match="^--seed must be non-negative$"):
            ExperimentConfig(command=command, seed=-1)

    def test_seed_optional_for_exact_commands(self):
        cfg = ExperimentConfig(command="dual-complex", model="annulus")
        assert cfg.seed is None

    @pytest.mark.parametrize("tol", [0.0, -0.5])
    def test_tolerance_must_be_positive(self, tol):
        with pytest.raises(ConfigError, match="tolerance"):
            ExperimentConfig(command="polar-check", seed=1, tolerance=tol)

    @pytest.mark.parametrize("t", [0.0, 1.0, 1.5, -0.1])
    def test_t_values_in_open_unit_interval(self, t):
        with pytest.raises(ConfigError, match="t values"):
            ExperimentConfig(command="sample", seed=1, t_schedule=(t,))

    def test_counts_must_be_positive(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(command="sample", seed=1, n_samples=0)
        with pytest.raises(ConfigError, match="^--bins must be positive$"):
            ExperimentConfig(command="sample-pencil", seed=1, model="coordinate_pencil", bins=0)
        with pytest.raises(ConfigError):
            ExperimentConfig(command="sample", seed=1, threads=0)
        for n_polys in (0, -3):
            with pytest.raises(ConfigError, match="positive"):
                ExperimentConfig(command="hybrid-check", seed=1, n_polys=n_polys)

    @pytest.mark.parametrize("rho", [-1.0, -1e-300, float("nan"), float("inf")])
    def test_rho_must_be_finite_nonnegative(self, rho):
        with pytest.raises(ConfigError, match="^--rho must be finite and >= 0$"):
            ExperimentConfig(command="skeleton-check", model="annulus", anchor="E0&E1", rho=rho)
        assert ExperimentConfig(command="skeleton-check", model="annulus", anchor="E0&E1", rho=0.0).rho == 0.0

    def test_residues_must_be_finite_nonnegative(self):
        with pytest.raises(ConfigError, match="residue"):
            ExperimentConfig(command="limit-measure", residues=(("E0&E1", -1.0),))
        with pytest.raises(ConfigError, match="residue"):
            ExperimentConfig(command="limit-measure", residues=(("E0&E1", float("nan")),))
        with pytest.raises(ConfigError, match="twice"):
            ExperimentConfig(command="limit-measure", residues=(("E0&E1", 1.0), ("E0&E1", 2.0)))

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

    def test_every_parser_dest_is_a_config_field(self):
        fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
        sub = next(a for a in build_parser()._actions if a.dest == "command")
        for name, p in sub.choices.items():
            dests = {a.dest for a in p._actions} - {"help"}
            assert dests <= fields, (name, dests - fields)

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
# the command table


# The 21 (subcommand, flag) pairs that the parent's parser accepted and never
# read, and sample-pencil's --threads, which measured no faster at 2 than at 1.
UNREAD = [
    *(
        (command, flag)
        for command in ("dual-complex", "weights", "limit-measure", "base-change", "skeleton-check")
        for flag in ("--seed", "--threads", "--tolerance")
    ),
    ("polar-check", "--threads"),
    ("hybrid-check", "--threads"),
    ("hybrid-check", "--tolerance"),
    ("verify", "--tolerance"),
    ("pushforward", "--n"),
    ("fit-mass", "--n"),
    ("sample-pencil", "--threads"),
]
# The chart row of sample reads none of the pencil's flags; the pencil row
# takes no chart and no --n (it samples plane curves only).
SAMPLE_UNREAD = [
    ("sample", "--n"),
    ("sample", "--bins"),
    ("sample", "--epsilon"),
    ("sample", "--tolerance"),
    ("sample-pencil", "--n"),
    ("sample-pencil", "--b"),
]
# Both polar identities run on lattice rules of fixed size, so nothing sizes them.
POLAR_UNREAD = [("polar-check", "--n-samples")]
FLAG_FIELDS = {
    "--seed": ("seed", 1),
    "--threads": ("threads", 2),
    "--tolerance": ("tolerance", 0.5),
    "--n": ("n", 3),
    "--bins": ("bins", 5),
    "--epsilon": ("epsilon", 0.2),
    "--b": ("b", (1, 1)),
    "--n-samples": ("n_samples", 100),
}
# A value for each field that some row marks REQUIRED.
REQUIRED_VALUES = {"model": "annulus", "m": 2, "t_schedule": (1e-3,), "seed": 1, "suite": "lattice"}


def subparser(command):
    return next(a for a in build_parser()._actions if a.dest == "command").choices[command]


class TestCommandTable:
    @pytest.mark.parametrize("command, flag", UNREAD + SAMPLE_UNREAD + POLAR_UNREAD)
    def test_unread_flag_exits_two(self, capsys, command, flag):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([command, flag, str(FLAG_FIELDS[flag][1])])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag", UNREAD + SAMPLE_UNREAD + POLAR_UNREAD)
    def test_unread_field_refused(self, command, flag):
        name, value = FLAG_FIELDS[flag]
        with pytest.raises(ConfigError, match=f"{command} does not read {flag}$"):
            ExperimentConfig(command=command, **{name: value})

    @pytest.mark.parametrize(
        "args",
        [
            ["hybrid-check", "--n", "10", "--seed", "1"],
            ["polar-check", "--seed", "5", "--n-p", "2", "--tol", "0.5"],
            ["verify", "--suite", "regression", "--see", "0"],
            ["pushforward", "--preset", "annulus", "--n", "7", "--t", "1e-4", "--seed", "1"],
            ["sample", "--pre", "annulus", "--t", "1e-4", "--seed", "1"],
        ],
    )
    def test_abbreviated_flag_exits_two(self, tmp_path, capsys, args):
        with pytest.raises(SystemExit) as exc:
            main([*args, "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command", cli.COMMANDS)
    def test_help_formats(self, capsys, command):
        # argparse formats help strings only here, so a stray % would fail first for a user.
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: tropmass {command}")

    @pytest.mark.parametrize("command", cli.COMMANDS)
    def test_flags_echo_and_row_agree(self, command):
        row = cli.COMMANDS[command]
        dests = {a.dest for a in subparser(command)._actions} - {"help"}
        required = {name: REQUIRED_VALUES[name] for name, d in row.reads.items() if d is cli.REQUIRED}
        echoed = ExperimentConfig(command=command, **required).echo()
        assert dests == {*row.reads, "outdir"} == set(echoed) - {"command"}

    def test_echo_holds_the_defaults_used(self):
        assert ExperimentConfig(command="polar-check", seed=5, outdir="x").echo() == {
            "command": "polar-check",
            "n_polys": 10,
            "tolerance": 0.01,
            "seed": 5,
            "outdir": "x",
        }

    def test_required_fields_named_together(self):
        with pytest.raises(ConfigError, match="sample: needs --t and --seed$"):
            ExperimentConfig(command="sample")

    def test_empty_t_schedule_refused(self):
        with pytest.raises(ConfigError, match="needs --t"):
            ExperimentConfig(command="sample", seed=1, b=(1, 1), t_schedule=())

    def test_unknown_command_refused(self):
        with pytest.raises(ConfigError, match="unknown command"):
            ExperimentConfig(command="sampel", seed=1)

    @pytest.mark.parametrize(
        "args",
        [
            ["sample", "--preset", "annulus", "--b", "1,2"],
            ["sample", "--preset", "coordinate_pencil", "--b", "5,5"],
            ["fit-mass", "--preset", "annulus", "--a", "0,1"],
        ],
    )
    def test_chart_and_model_together_exit_two(self, tmp_path, capsys, args):
        code, out, err = run_cli([*args, "--t", "1e-4", "--seed", "1"], tmp_path, capsys)
        assert code == 2
        assert "[error]" in err and "not both" in err
        assert not list(tmp_path.glob("*.csv"))


# ---------------------------------------------------------------------------
# skeleton spec files


def cycle_spec_text(anchor_line: str = "residue_anchor=E0&E1 rho=2.0") -> str:
    text = format_model_spec(coordinate_pencil(2))
    return f"{text}\n[skeleton]\n{anchor_line}\n"


# Two components meeting in two points: two edges, the second labelled #1.
TWO_EDGES = (
    "[components]\nE0 b=1\nE1 b=1\n[strata]\nE0\nE1\nE0 & E1 count=2\n"
    "[skeleton]\nresidue_anchor=E0&E1#1 rho=2.0\n"
)


# A closed triangle of components of multiplicity 2: every edge has b_sigma = 2.
TRIANGLE_B2 = "[components]\nE0 b=2\nE1 b=2\nE2 b=2\n[strata]\nE0\nE1\nE2\nE0 & E1\nE0 & E2\nE1 & E2\n"

# Two disjoint closed triangles: closed, but not strongly connected.
TWO_TRIANGLES = (
    "[components]\n" + "".join(f"E{i} b=1\n" for i in range(6)) + "[strata]\n"
    + "".join(f"E{i}\n" for i in range(6))
    + "".join(f"E{i} & E{j}\n" for i, j in ((0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)))
)


class TestSkeletonSpecParsing:
    def test_hash_in_anchor_is_part_of_the_face_id(self):
        model, anchor, rho = parse_skeleton_spec(TWO_EDGES)
        assert (anchor, rho) == ("E0&E1#1", 2.0)
        assert model.stratum_count(("E0", "E1")) == 2

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
        # One reader walks the whole file, [skeleton] first included, so
        # model-section errors report positions in the original file.
        text = "[skeleton]\nresidue_anchor=E0&E1\n[components]\nE0 b=oops a=0\n[strata]\nE0\n"
        with pytest.raises(ModelSpecError, match="line 4"):
            parse_skeleton_spec(text)


# ---------------------------------------------------------------------------
# exit codes


@st.composite
def chart_command_lines(draw) -> list[str]:
    """A chart command line: p <= 3, each b_i <= 3, each a_i in {0, 1/2, 1, 3, 7}, n <= 1000.

    ``--t`` draws from 0.5, 0.999, 1e-3, 1e-30, 1e-300 and 5e-324: one value
    for ``pushforward``, a list for ``sample`` and ``fit-mass``.
    """
    command = draw(st.sampled_from(["sample", "pushforward", "fit-mass"]))
    k = draw(st.integers(1, 4))
    b = draw(st.lists(st.sampled_from("123"), min_size=k, max_size=k))
    a = draw(st.lists(st.sampled_from(["0", "1/2", "1", "3", "7"]), min_size=k, max_size=k))
    t_values = st.sampled_from(["0.5", "0.999", "1e-3", "1e-30", "1e-300", "5e-324"])
    ts = draw(st.lists(t_values, min_size=1, max_size=1 if command == "pushforward" else 6, unique=True))
    args = [command, "--b", ",".join(b), "--a", ",".join(a), "--t", ",".join(ts),
            "--n-samples", str(draw(st.integers(1, 1000))), "--seed", str(draw(st.integers(0, 50)))]
    if command == "pushforward":
        args += ["--bins", str(draw(st.integers(1, 50)))]
    return args


class TestExitCodes:
    @given(args=chart_command_lines())
    @settings(max_examples=200, deadline=None)
    def test_chart_command_lines_never_exit_three(self, args):
        # Under the warnings-as-errors filter of the test configuration, so an
        # overflow or 0/0 warning would exit 3 too.
        with tempfile.TemporaryDirectory() as out:
            assert main([*args, "--out", out]) in (0, 1, 2)

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

    def test_lattice_index_mismatch_is_a_failed_check(self, tmp_path, capsys, monkeypatch):
        # The lattice index disagreeing with the gcd formula fails the verdicts
        # that compare them, and the report is still written.
        index = basechange._splitting_index
        monkeypatch.setattr(basechange, "_splitting_index", lambda b, m: index(b, m) + (m == 6))
        code, out, _ = run_cli(
            ["base-change", "--preset", "coordinate_pencil", "--m", "6"], tmp_path / "bc", capsys
        )
        assert code == 1
        assert "[FAIL] lattice-index-consistency" in out
        assert "[pass] splitting-identity" in out
        report = json.loads((tmp_path / "bc" / "base-change-coordinate_pencil-report.json").read_text())
        assert report["passed"] is False
        code, out, _ = run_cli(["verify", "--suite", "base-change", "--seed", "0"], tmp_path / "v", capsys)
        assert code == 1
        assert "[FAIL] base-change-splitting" in out
        assert "[pass] base-change-pushforward" in out
        assert (tmp_path / "v" / "verify-base-change-report.json").exists()

    def test_wrong_volume_scale_fails_the_pushforward(self, tmp_path, capsys, monkeypatch):
        # Both runners read the volume scale from the face report, so a wrong
        # one fails every pushforward case and leaves the splitting verdicts.
        real = basechange.face_base_change
        monkeypatch.setattr(
            basechange, "face_base_change", lambda b, m: dataclasses.replace(real(b, m), volume_scale=12345)
        )
        split, push = SUITES["base-change"]()
        assert (split.name, split.passed) == ("base-change-splitting", True)
        assert (push.name, push.passed, push.discrepancy) == ("base-change-pushforward", False, 504.0)
        code, out, _ = run_cli(["base-change", "--preset", "coordinate_pencil", "--m", "3"], tmp_path, capsys)
        assert code == 1
        assert "[FAIL] pushforward-identity" in out
        assert "[pass] splitting-identity" in out

    def test_base_change_suite_builds_one_report_per_pair(self, monkeypatch):
        # Counted at the name the pushforward check looks up, and at the
        # report's constructor, which sees every build whoever calls it.
        calls, built = Counter(), []
        real, report = basechange.face_base_change, basechange.FaceBaseChange

        def counted(b, m):
            calls[b, m] += 1
            return real(b, m)

        def build(**fields):
            built.append(fields["b"])
            return report(**fields)

        monkeypatch.setattr(basechange, "face_base_change", counted)
        monkeypatch.setattr(basechange, "FaceBaseChange", build)
        SUITES["base-change"]()
        assert sum(calls.values()) == len(calls) == len(built) == 504

    # Seven non-active coordinates reject every one of these draws.
    NO_ACCEPT = ["--b", "1,1,1,1,1,1,1,1,1", "--a", "0,0,1,1,1,1,1,1,1"]

    def test_pushforward_with_no_accepted_sample_fails(self, tmp_path, capsys):
        args = ["--t", "0.5", "--n-samples", "1000", "--bins", "10", "--seed", "2"]
        code, out, err = run_cli(["pushforward", *self.NO_ACCEPT, *args], tmp_path, capsys)
        assert (code, err) == (1, "")
        report = json.loads((tmp_path / "pushforward-chart-1-1-1-1-1-1-1-1-1-report.json").read_text())
        verdicts = {v["name"]: v for v in report["verdicts"]}
        assert list(verdicts) == ["pushforward-total-mass", "pushforward-uniformity-ks"]
        assert all(not v["passed"] and float(v["discrepancy"]) == math.inf for v in verdicts.values())
        rows = (tmp_path / "pushforward-chart-1-1-1-1-1-1-1-1-1.csv").read_text().splitlines()
        assert len(rows) == 11 and all(row.endswith(",0.0,0.0") for row in rows[1:])

    def test_json_is_strict(self, tmp_path, capsys):
        # Infinite discrepancies are written as "inf", never as the bare
        # Infinity that strict parsers reject.
        def refuse(token):
            raise ValueError(f"non-standard JSON constant {token}")

        lines = [
            ["pushforward", *self.NO_ACCEPT, "--t", "0.5", "--n-samples", "1000", "--bins", "10", "--seed", "2"],
            ["fit-mass", *self.NO_ACCEPT, "--t", "1e-1..1e-4", "--n-samples", "10", "--seed", "1"],
            ["fit-mass", "--preset", "annulus", "--t", "1e-2..1e-7", "--n-samples", "2000", "--seed", "3"],
        ]
        for k, (line, expected) in enumerate(zip(lines, (1, 1, 0))):
            assert run_cli(line, tmp_path / str(k), capsys)[0] == expected
        reports = sorted(tmp_path.glob("*/*.json"))
        assert len(reports) == 5
        for path in reports:
            json.loads(path.read_text(), parse_constant=refuse)
        report = json.loads((tmp_path / "0" / "pushforward-chart-1-1-1-1-1-1-1-1-1-report.json").read_text())
        assert [v["discrepancy"] for v in report["verdicts"]] == ["inf", "inf"]

    def test_fit_mass_with_a_zero_mass_fails(self, tmp_path, capsys):
        args = ["--t", "1e-1..1e-4", "--n-samples", "10", "--seed", "1"]
        code, out, err = run_cli(["fit-mass", *self.NO_ACCEPT, *args], tmp_path, capsys)
        assert (code, err) == (1, "")
        report = json.loads((tmp_path / "fit-mass-chart-1-1-1-1-1-1-1-1-1-report.json").read_text())
        names = ["fit-log-exponent", "fit-decay-exponent", "fit-leading-constant"]
        assert [v["name"] for v in report["verdicts"]] == names
        for v in report["verdicts"]:
            assert not v["passed"] and float(v["discrepancy"]) == math.inf
            assert "mass estimate is 0 at t = 0.1, 0.01, 0.001, 0.0001" in v["detail"]
        assert len((tmp_path / "fit-mass-chart-1-1-1-1-1-1-1-1-1.csv").read_text().splitlines()) == 5
        summary = json.loads((tmp_path / "fit-mass-chart-1-1-1-1-1-1-1-1-1.json").read_text())
        assert summary["fit"] is None

    @pytest.mark.parametrize(
        "args, expected",
        [
            # Every accepted weight underflows to 0: nothing to compare, as with no sample.
            ("pushforward --b 1,1,1 --a 0,0,3 --t 1e-300 --n-samples 1 --bins 1 --seed 2", 1),
            # |t|^(-2 kappa_min) overflows: the raw mass is a subnormal at 1e-160 and 0.0 below.
            ("fit-mass --b 1,1 --a 1,1 --t 1e-2..1e-160 --n-samples 1000 --seed 1", 0),
            ("sample --b 2,1 --a 1,1 --t 1e-310 --n-samples 1000 --seed 1", 0),
            ("pushforward --b 1 --a 3 --t 1e-200 --n-samples 100 --seed 1", 0),
        ],
        ids=["zero-weights", "fit-overflow", "sample-overflow", "pushforward-overflow"],
    )
    def test_extreme_t_exits_by_its_verdicts(self, tmp_path, capsys, args, expected):
        code, out, err = run_cli(args.split(), tmp_path, capsys)
        assert (code, err) == (expected, "")
        assert code == ("[FAIL]" in out)

    @pytest.mark.parametrize(
        "args",
        [
            ["pushforward", "--b", "1,2", "--t", "1e-6", "--seed", "1", "--n-samples", "1000"],
            ["polar-check", "--seed", "1"],
            ["sample-pencil", "--preset", "coordinate_pencil", "--t", "1e-5", "--seed", "1"],
            ["fit-mass", "--preset", "annulus", "--t", "1e-2..1e-7", "--seed", "3"],
        ],
        ids=lambda args: args[0],
    )
    def test_infinite_tolerance_exits_two(self, tmp_path, capsys, args):
        # An infinite tolerance would pass every check it bounds.
        code, out, err = run_cli([*args, "--tolerance", "inf"], tmp_path, capsys)
        assert code == 2
        assert "[error] --tolerance must be finite" in err
        assert not list(tmp_path.iterdir())

    def test_missing_seed_exits_two(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["sample", "--preset", "annulus", "--t", "1e-3"], tmp_path, capsys
        )
        assert code == 2
        assert "[error]" in err and "seed" in err

    def test_hybrid_check_without_seed_exits_two(self, tmp_path, capsys):
        # It draws random sequences, so the seed belongs in the report and its hash.
        code, out, err = run_cli(["hybrid-check", "--n-sequences", "50"], tmp_path, capsys)
        assert code == 2
        assert "[error]" in err and "seed" in err
        assert not list(tmp_path.glob("hybrid-check*"))

    def test_internal_error_exits_three(self, tmp_path, capsys, monkeypatch):
        # An internal error is neither a failed check (1) nor a bad input (2).
        def broken(cfg, loaded):
            raise KeyError("no such column")

        monkeypatch.setitem(cli.COMMANDS, "weights", cli.COMMANDS["weights"]._replace(runner=broken))
        code, out, err = run_cli(["weights", "--preset", "annulus"], tmp_path, capsys)
        assert code == 3
        assert "[FAIL]" not in out
        assert "Traceback" in err and "KeyError: 'no such column'" in err

    def test_internal_value_error_exits_three(self, tmp_path, capsys, monkeypatch):
        # A ValueError that no input check raised is a bug, not a bad flag.
        def broken(cfg, loaded):
            raise ValueError("internal")

        monkeypatch.setitem(cli.COMMANDS, "weights", cli.COMMANDS["weights"]._replace(runner=broken))
        code, out, err = run_cli(["weights", "--preset", "annulus"], tmp_path, capsys)
        assert code == 3
        assert "[error]" not in err
        assert "Traceback" in err and "ValueError: internal" in err

    @pytest.mark.parametrize(
        "args, named",
        [
            (["sample", "--b", "1,1", "--t", "abc", "--seed", "1"], "--t value 'abc' is not a number"),
            (["sample", "--b", "1,1", "--t", "1e-2..x", "--seed", "1"], "--t value 'x' is not a number"),
            (["limit-measure", "--preset", "annulus", "--residue", "E0&E1#x=1"], "face id 'E0&E1#x'"),
            (["sample", "--b", "0,1", "--t", "1e-3", "--seed", "1"], "--b needs multiplicities >= 1, got '0,1'"),
            (["pushforward", "--b", ",", "--t", "1e-3", "--seed", "1"], "--b needs multiplicities >= 1, got ''"),
            (["fit-mass", "--b", "1,1", "--t", "1e-1,1e-2", "--seed", "1"], "--t: need at least 4 distinct |t| values"),
        ],
    )
    def test_bad_input_names_its_flag_or_face(self, tmp_path, capsys, args, named):
        code, out, err = run_cli(args, tmp_path, capsys)
        assert code == 2
        assert f"[error] {named}" in err
        assert "Traceback" not in err and out == ""

    def test_model_spec_that_is_not_utf8_exits_two(self, tmp_path, capsys):
        spec = tmp_path / "binary.model"
        spec.write_bytes(b"\xff\xfe[components]\n")
        code, out, err = run_cli(["weights", "--model", str(spec)], tmp_path, capsys)
        assert code == 2
        assert f"[error] cannot read model spec {str(spec)!r}" in err

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

    def test_zero_denominator_in_a_exits_two(self, tmp_path, capsys):
        code, out, err = run_cli(["sample", "--b", "1,1", "--a", "0,1/0", "--t", "1e-3", "--seed", "1"], tmp_path, capsys)
        assert code == 2
        assert "[error] expected comma-separated rationals, got '0,1/0'" in err
        assert "Traceback" not in err and out == ""

    @pytest.mark.parametrize("item", ["E0&E1=abc", "E0&E1"])
    def test_bad_residue_names_its_flag(self, tmp_path, capsys, item):
        code, out, err = run_cli(["limit-measure", "--preset", "annulus", "--residue", item], tmp_path, capsys)
        assert code == 2
        assert f"[error] --residue {item!r} must look like FACE=VALUE" in err
        assert out == ""

    @pytest.mark.parametrize(
        "args",
        [
            ["hybrid-check", "--n-sequences", "-3", "--seed", "0"],
            ["hybrid-check", "--n-sequences", "0", "--seed", "0"],
            ["polar-check", "--n-polys", "-4", "--seed", "0"],
        ],
    )
    def test_non_positive_counts_exit_two(self, tmp_path, capsys, args):
        code, out, err = run_cli(args, tmp_path, capsys)
        assert code == 2
        assert "[error]" in err and "positive" in err
        assert "pass" not in out

    def test_unknown_suite_exits_two(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["verify", "--suite", "nope", "--seed", "1"], tmp_path, capsys
        )
        assert code == 2
        assert "nope" in err

    def test_pencil_beyond_plane_curves_exits_two(self, tmp_path, capsys):
        # The pencil sampler handles plane curves only, so sample-pencil has no --n.
        with pytest.raises(SystemExit) as exc:
            main(["sample-pencil", "--preset", "coordinate_pencil", "--n", "3", "--t", "1e-4", "--seed", "1",
                  "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --n 3" in capsys.readouterr().err
        assert not list(tmp_path.glob("sample-*.csv"))

    @pytest.mark.parametrize("preset", HypersurfacePencil.PRESETS)
    def test_sample_refuses_a_pencil_preset(self, tmp_path, capsys, preset):
        # The pencil presets belong to sample-pencil; the chart commands run charts only.
        for command, t in (("sample", "1e-4"), ("pushforward", "1e-4"), ("fit-mass", "1e-2..1e-6")):
            code, out, err = run_cli([command, "--preset", preset, "--t", t, "--seed", "1"], tmp_path, capsys)
            assert (code, out) == (2, "")
            assert f"[error] {command} runs charts only: for the pencil, run sample-pencil --preset {preset}" in err
            assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "args",
        [
            ["verify", "--suite", "all", "--seed", "-1"],
            ["sample", "--b", "1,1", "--t", "1e-4", "--seed", "-1"],
            ["polar-check", "--seed", "-1"],
        ],
    )
    def test_negative_seed_exits_two_before_any_work(self, tmp_path, capsys, args):
        code, out, err = run_cli(args, tmp_path, capsys)
        assert code == 2
        assert "[error] --seed must be non-negative" in err
        assert out == ""
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "args",
        [
            ["pushforward", "--b", "1,2", "--t", "1e-6", "--seed", "1",
             "--n-samples", "1000", "--bins", "1000000000"],
            ["sample-pencil", "--preset", "coordinate_pencil", "--t", "1e-5", "--seed", "1", "--n-samples", "19"],
        ],
    )
    def test_bins_above_n_samples_exits_two_before_any_work(self, tmp_path, capsys, args):
        code, out, err = run_cli(args, tmp_path, capsys)
        assert code == 2
        assert "[error] --bins" in err and "exceeds --n-samples" in err
        assert out == ""
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "command, args",
        [
            ("pushforward", ["--b", "1,2", "--t", "1e-6"]),
            ("sample-pencil", ["--preset", "coordinate_pencil", "--t", "1e-5"]),
        ],
    )
    def test_bins_may_not_exceed_n_samples(self, tmp_path, capsys, monkeypatch, command, args):
        # The runs that bin refuse more bins than samples before they sample,
        # with the defaults applied: 10 samples against the default bins too.
        def no_sampling(*_, **__):
            raise AssertionError("sampled before the --bins check")

        for name in ("pushforward_histogram", "sample_pencil"):
            monkeypatch.setattr(cli, name, no_sampling)
        argv = [command, *args, "--seed", "1"]
        for extra, bins in [(["--bins", "11"], 11), ([], cli.COMMANDS[command].reads["bins"])]:
            code, out, err = run_cli([*argv, "--n-samples", "10", *extra], tmp_path, capsys)
            assert (code, out) == (2, "")
            assert err == f"[error] --bins {bins} exceeds --n-samples 10\n"
        assert not list(tmp_path.iterdir())
        monkeypatch.undo()
        # As many bins as samples is allowed (the pencil needs at least 96).
        assert run_cli([*argv, "--n-samples", "100", "--bins", "100"], tmp_path, capsys)[0] in (0, 1)

    @pytest.mark.parametrize(
        "args",
        [
            ["sample-pencil", "--preset", "fermat_smooth", "--t", "1e-5"],
            ["pushforward", "--b", "1,1,1", "--t", "1e-4"],
        ],
        ids=["fermat", "triangle-face"],
    )
    def test_bins_unchecked_where_nothing_is_binned(self, tmp_path, capsys, args):
        code, _, _ = run_cli([*args, "--n-samples", "1000", "--bins", "2000", "--seed", "1"], tmp_path, capsys)
        assert code == 0
        assert not list(tmp_path.glob("*-hist.csv"))

    @pytest.mark.parametrize("args", [["--anchor", "E9&E1"], ["--anchor", "E0&E1", "--rho", "-2"]])
    def test_bad_anchor_or_rho_exits_two(self, tmp_path, capsys, args):
        code, out, err = run_cli(["skeleton-check", "--preset", "annulus", *args], tmp_path, capsys)
        assert code == 2
        assert "[error]" in err
        assert not list(tmp_path.iterdir())

    def test_rho_without_an_anchor_exits_two(self, tmp_path, capsys):
        # Neither --anchor nor the preset names a cell, so --rho would act on nothing.
        code, out, err = run_cli(["skeleton-check", "--preset", "coordinate_pencil", "--rho", "2"], tmp_path, capsys)
        assert (code, out) == (2, "")
        assert err.startswith("[error] --rho 2 needs an anchor cell")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("flag", ["--preset", "--model"])
    def test_n_for_a_model_it_does_not_shape_exits_two(self, tmp_path, capsys, monkeypatch, flag):
        # Only coordinate_pencil has a dimension; for a preset without one or
        # a spec file, --n would act on nothing yet enter the report and hash.
        model = "annulus"
        if flag == "--model":
            model = str(tmp_path / "edge.txt")
            Path(model).write_text("[components]\nE0 b=1\nE1 b=1\n[strata]\nE0\nE1\nE0 & E1\n")
        monkeypatch.setattr(cli, "_load_model", lambda cfg: pytest.fail("loaded a model"))
        code, out, err = run_cli(["weights", flag, model, "--n", "3"], tmp_path / "out", capsys)
        assert (code, out) == (2, "")
        assert err.startswith("[error] --n sets the dimension of coordinate_pencil only")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("n", ["0", "7", "100"])
    def test_n_outside_its_range_exits_two_at_once(self, tmp_path, capsys, monkeypatch, n):
        # The strata grow as 2^(n+1): --n 100 would run for hours, so it is
        # refused before any model is built.
        monkeypatch.setattr(cli, "_load_model", lambda cfg: pytest.fail("loaded a model"))
        code, out, err = run_cli(["weights", "--preset", "coordinate_pencil", "--n", n], tmp_path / "out", capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"[error] --n must lie in 1..6, got {n}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("t", ["1e-180", "1e-200", "1e-250"])
    def test_pencil_below_the_t_floor_exits_two(self, tmp_path, capsys, t):
        code, out, err = run_cli(
            ["sample-pencil", "--preset", "coordinate_pencil", "--t", t, "--n-samples", "6000", "--seed", "0"],
            tmp_path,
            capsys,
        )
        assert code == 2
        assert "[error]" in err and "below" in err
        assert "FAIL" not in out
        assert not list(tmp_path.glob("sample-*.csv"))

    def test_suite_list_prints_registry(self, capsys):
        code = main(["verify", "--suite", "list"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.split() == sorted(SUITES)

    def test_limit_measure_past_the_float_range_exits_zero(self, tmp_path, capsys):
        # The three weights sum past the largest float: the total is inf.
        args = ["limit-measure", "--preset", "coordinate_pencil"]
        for face in ("E0&E1", "E0&E2", "E1&E2"):
            args += ["--residue", f"{face}=1e308"]
        code, out, err = run_cli(args, tmp_path, capsys)
        assert (code, err) == (0, "")
        assert "[pass] positive-total-mass: total mass inf" in out
        payload = json.loads((tmp_path / "limit-measure-coordinate_pencil.json").read_text())
        assert payload["total_mass"] == "inf"


SEGMENT_SPEC = "[components]\nE0 b=1 a=0\nE1 b=1 a=0\n[strata]\nE0\nE1\nE0 & E1\n"


class TestModelArgument:
    """``--preset`` names a preset and ``--model`` reads a file, whatever the working directory holds."""

    @pytest.fixture
    def stray(self, tmp_path, monkeypatch):
        """A working directory with files named like two presets: a segment spec and a garbage line."""
        (tmp_path / "coordinate_pencil").write_text(SEGMENT_SPEC)
        (tmp_path / "fermat_smooth").write_text("garbage\n")
        monkeypatch.chdir(tmp_path)
        return tmp_path

    def test_preset_ignores_a_file_of_its_name(self, stray, capsys):
        code, out, _ = run_cli(["skeleton-check", "--preset", "coordinate_pencil"], stray / "out", capsys)
        assert code == 0
        assert "[pass] closed: 0 boundary facets" in out

    def test_pencil_preset_ignores_a_file_of_its_name(self, stray, capsys):
        args = ["sample-pencil", "--preset", "fermat_smooth", "--t", "1e-2", "--n-samples", "6000", "--seed", "1"]
        code, _, err = run_cli(args, stray / "out", capsys)
        assert (code, err) == (0, "")

    def test_preset_hash_ignores_a_file_of_its_name(self, stray, tmp_path_factory, monkeypatch, capsys):
        args = ["sample-pencil", "--preset", "coordinate_pencil", "--t", "1e-2", "--n-samples", "6000", "--seed", "1"]
        hashes = []
        for directory in (stray, tmp_path_factory.mktemp("clean")):
            monkeypatch.chdir(directory)
            assert run_cli(args, directory / "out", capsys)[0] == 0
            report = json.loads((directory / "out" / "sample-pencil-coordinate_pencil-report.json").read_text())
            hashes.append(report["content_hash"])
        assert hashes[0] == hashes[1]

    def test_model_reads_a_file_named_like_a_preset(self, stray, capsys):
        code, out, _ = run_cli(["skeleton-check", "--model", "coordinate_pencil"], stray / "out", capsys)
        assert code == 1
        assert "[FAIL] closed: 2 boundary facets" in out
        report = json.loads((stray / "out" / "skeleton-check-coordinate_pencil-report.json").read_text())
        assert report["config"]["model"] == "coordinate_pencil"

    def test_spec_without_a_suffix_names_artifacts_by_its_stem(self, stray, capsys):
        (stray / "specs").mkdir()
        (stray / "specs" / "segment").write_text(SEGMENT_SPEC)
        assert run_cli(["dual-complex", "--model", "specs/segment"], stray / "out", capsys)[0] == 0
        assert sorted(p.name for p in (stray / "out").iterdir()) == [
            "dual-complex-segment-report.json", "dual-complex-segment.csv", "dual-complex-segment.json"]

    def test_preset_does_not_read_a_spec_path(self, tmp_path, capsys):
        spec = tmp_path / "cycle.skel"
        spec.write_text(cycle_spec_text())
        code, out, err = run_cli(["skeleton-check", "--preset", str(spec)], tmp_path / "out", capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"[error] unknown preset {str(spec)!r}")
        assert not list((tmp_path / "out").iterdir())


# ---------------------------------------------------------------------------
# subcommand artifacts


class TestSubcommands:
    def test_seven_coordinate_chart_keeps_every_sample(self, tmp_path, capsys):
        # The full simplex face of b = (1,)*7 has volume 1/6! = 1/720.
        code, out, _ = run_cli(
            ["sample", "--b", "1,1,1,1,1,1,1", "--t", "1e-3", "--n-samples", "1000", "--seed", "0"],
            tmp_path,
            capsys,
        )
        assert code == 0, out
        (csv_path,) = tmp_path.glob("sample-*.csv")
        header, row = csv_path.read_text().splitlines()
        fields = dict(zip(header.split(","), row.split(",")))
        assert float(fields["accept_rate"]) == 1.0
        assert float(fields["mass"]) == pytest.approx(1.0 / 720.0, rel=1e-9)
        assert float(fields["stderr"]) == 0.0

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

    @pytest.mark.parametrize(
        "broken, failing",
        [({"g": 2}, "splitting-identity"), ({"e_lattice_check": 0}, "lattice-index-consistency")],
        ids=["splitting", "lattice-index"],
    )
    def test_base_change_verdicts_separate_their_faults(self, tmp_path, monkeypatch, broken, failing):
        # One face with e * f * g != m fails the splitting identity alone; one
        # whose lattice index differs from e fails the lattice-index check alone.
        model_base_change = cli.model_base_change

        def one_face_broken(model, m):
            report = model_base_change(model, m)
            (face, r), *rest = report.entries
            return dataclasses.replace(report, entries=((face, dataclasses.replace(r, **broken)), *rest))

        monkeypatch.setattr(cli, "model_base_change", one_face_broken)
        config = ExperimentConfig(command="base-change", model="coordinate_pencil", m=3, outdir=str(tmp_path))
        report = cli.run(config)
        assert {v.name: v.discrepancy for v in report.verdicts if not v.passed} == {failing: 1.0}

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
                "polar-check", "--n-polys", "2",
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

    def test_skeleton_check_anchor_on_a_labelled_cell(self, tmp_path, capsys):
        spec = tmp_path / "two-edges.skel"
        spec.write_text(TWO_EDGES)
        code, out, _ = run_cli(["skeleton-check", "--model", str(spec)], tmp_path, capsys)
        assert code == 0
        assert "magnitude 2 on all 2 cells" in out
        summary = json.loads((tmp_path / "skeleton-two-edges.json").read_text())
        assert summary["residue_magnitudes"] == {"E0&E1": 2.0, "E0&E1#1": 2.0}

    @pytest.mark.parametrize(
        "command, args",
        [
            ("sample", ["--t", "1e-3,1e-4"]),
            ("pushforward", ["--t", "1e-4", "--bins", "5"]),
            ("fit-mass", ["--t", "1e-2..1e-5"]),
        ],
    )
    def test_chart_commands_read_a_one_face_model(self, tmp_path, capsys, command, args):
        # The chart of a model's single top face is the face's b with its
        # components' a: the same run as the explicit --b/--a chart.
        spec = tmp_path / "twisted.model"
        spec.write_text("[components]\nE0 b=1\nE1 b=2 a=1\n[strata]\nE0\nE1\nE0 & E1\n")
        args = [command, *args, "--n-samples", "2000", "--seed", "3"]
        from_model = run_cli([*args, "--model", str(spec)], tmp_path / "m", capsys)[0]
        from_chart = run_cli([*args, "--b", "1,2", "--a", "0,1"], tmp_path / "c", capsys)[0]
        assert from_model == from_chart
        csvs = sorted((tmp_path / "c").glob("*.csv"))
        assert csvs
        for csv_path in csvs:
            twin = tmp_path / "m" / csv_path.name.replace("chart-1-2", "twisted")
            assert twin.read_bytes() == csv_path.read_bytes()

    def test_chart_commands_need_one_top_face(self, tmp_path, capsys):
        spec = tmp_path / "cycle.skel"
        spec.write_text(cycle_spec_text())
        # A pencil preset is refused before its faces are counted; its spec file is a model.
        pencil = tmp_path / "coordinate_pencil.model"
        pencil.write_text(format_model_spec(coordinate_pencil(2)))
        for model_args in (["--model", str(spec)], ["--model", str(pencil)], []):
            args = ["pushforward", *model_args, "--t", "1e-4", "--seed", "1"]
            code, _, err = run_cli(args, tmp_path, capsys)
            assert code == 2
            assert "one top face" in err

    @pytest.mark.parametrize(
        "model, reason",
        [
            ("annulus", "every facet shared by exactly two"),
            (TRIANGLE_B2, "b_sigma = 2"),
            (TWO_TRIANGLES, "strongly connected"),
        ],
        ids=["not-closed", "b-sigma-2", "two-components"],
    )
    def test_skeleton_check_anchor_that_cannot_propagate_fails(self, tmp_path, capsys, model, reason):
        # A skeleton that cannot carry the residue fails the check and still writes its report.
        if model == "annulus":
            source, stem = ["--preset", "annulus"], "annulus"
        else:
            spec = tmp_path / "spec.model"
            spec.write_text(model)
            source, stem = ["--model", str(spec)], "spec"
        code, out, _ = run_cli(["skeleton-check", *source, "--anchor", "E0&E1"], tmp_path, capsys)
        assert code == 1
        assert "[FAIL] residue-propagation-constant: no propagation:" in out
        report = json.loads((tmp_path / f"skeleton-check-{stem}-report.json").read_text())
        verdict = report["verdicts"][-1]
        assert verdict["name"] == "residue-propagation-constant"
        assert (verdict["passed"], verdict["discrepancy"]) == (False, 1.0)
        assert reason in verdict["detail"]
        assert json.loads((tmp_path / f"skeleton-{stem}.json").read_text())["residue_magnitudes"] == {}

    def test_skeleton_check_subdivide_remaps_anchor(self, tmp_path, capsys):
        spec = tmp_path / "cycle.skel"
        spec.write_text(cycle_spec_text())
        code, out, _ = run_cli(
            ["skeleton-check", "--model", str(spec), "--subdivide"], tmp_path, capsys
        )
        assert code == 0
        assert "magnitude 2 on all 6 cells" in out

    @pytest.mark.parametrize("subdivide", [[], ["--subdivide"]], ids=["cells", "subdivided"])
    @pytest.mark.parametrize(
        "anchor_line, flags, rho",
        [
            ("residue_anchor=E0&E1 rho=2.0", [], 2.0),
            ("residue_anchor=E0&E1 rho=2.0", ["--rho", "1.5"], 1.5),
            ("residue_anchor=E0&E1", [], 1.0),
        ],
        ids=["file-rho", "flag-over-file", "default-one"],
    )
    def test_skeleton_check_magnitude_sources(self, tmp_path, capsys, anchor_line, flags, rho, subdivide):
        # The magnitude is --rho, else the skeleton file's rho, else 1.
        spec = tmp_path / "cycle.skel"
        spec.write_text(cycle_spec_text(anchor_line))
        out_dir = tmp_path / "out"
        code, _, _ = run_cli(["skeleton-check", "--model", str(spec), *flags, *subdivide], out_dir, capsys)
        assert code == 0
        magnitudes = json.loads((out_dir / "skeleton-cycle.json").read_text())["residue_magnitudes"]
        assert len(magnitudes) == (6 if subdivide else 3)
        assert set(magnitudes.values()) == {rho}

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
            "sample-pencil", "--preset", "coordinate_pencil", "--t", "1e-5",
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
            ["verify", "--suite", "all", "--quick"],
        ],
        ids=["sample-chart", "pushforward", "verify-all"],
    )
    def test_threads_do_not_change_csv_bytes(self, tmp_path, capsys, args):
        # The CSVs keep their bytes and each report its verdicts; verify writes no CSV.
        for threads in ("1", "2"):
            out = tmp_path / threads
            assert main([*args, "--seed", "3", "--threads", threads, "--out", str(out)]) == 0
        capsys.readouterr()
        csvs = sorted(p.name for p in (tmp_path / "1").glob("*.csv"))
        assert csvs or args[0] == "verify"
        for name in csvs:
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()
        reports = sorted(p.name for p in (tmp_path / "1").glob("*-report.json"))
        assert reports
        for name in reports:
            one, two = (json.loads((tmp_path / k / name).read_text())["verdicts"] for k in ("1", "2"))
            assert one == two
            assert one or args[0] != "verify"

    def test_content_hash_ignores_outdir(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(self._sample_args(a)) == 0
        assert main(self._sample_args(b)) == 0
        capsys.readouterr()
        ha = json.loads((a / "sample-pencil-coordinate_pencil-report.json").read_text())
        hb = json.loads((b / "sample-pencil-coordinate_pencil-report.json").read_text())
        assert ha["content_hash"] == hb["content_hash"]

    def test_content_hash_ignores_the_spec_directory(self, tmp_path, capsys):
        # A spec file counts by its name and bytes: a copy in another
        # directory hashes the same, a one-byte change does not.
        text = cycle_spec_text()
        hashes = []
        for directory, body in (("a", text), ("b", text), ("c", text + "\n")):
            spec = tmp_path / directory / "cycle.skel"
            spec.parent.mkdir()
            spec.write_text(body)
            assert run_cli(["skeleton-check", "--model", str(spec)], spec.parent, capsys)[0] == 0
            hashes.append(json.loads((spec.parent / "skeleton-check-cycle-report.json").read_text())["content_hash"])
        assert hashes[0] == hashes[1] != hashes[2]

    def test_content_hash_tracks_seed(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        args_b = self._sample_args(b)
        args_b[args_b.index("7")] = "8"
        assert main(self._sample_args(a)) == 0
        assert main(args_b) == 0
        capsys.readouterr()
        ha = json.loads((a / "sample-pencil-coordinate_pencil-report.json").read_text())
        hb = json.loads((b / "sample-pencil-coordinate_pencil-report.json").read_text())
        assert ha["content_hash"] != hb["content_hash"]

    def test_report_echoes_config_and_verdicts(self, tmp_path, capsys):
        outdir = tmp_path / "a"
        assert main(self._sample_args(outdir)) == 0
        capsys.readouterr()
        report = json.loads((outdir / "sample-pencil-coordinate_pencil-report.json").read_text())
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

    # The exact suites' verdicts, every field, as the normal-form oracle and
    # the base-change identities must keep reporting them.
    EXACT_SUITE_VERDICTS = {
        "lattice": [
            CheckVerdict(
                "simplex-volume-vs-lattice-index", "exact", True, 0.0, 0.0,
                "1554 multiplicity vectors (entries <= 6, length <= 4) checked exactly",
            ),
        ],
        "base-change": [
            CheckVerdict(
                "base-change-splitting", "exact", True, 0.0, 0.0,
                "e*f*g = m and lattice scales exact on 504 (b, m) pairs",
            ),
            CheckVerdict(
                "base-change-pushforward", "exact", True, 0.0, 0.0,
                "pushforward of the base-changed measure equals m^d * measure for every case",
            ),
        ],
    }

    @pytest.mark.parametrize("suite", EXACT_SUITE_VERDICTS)
    def test_exact_suite_verdicts_are_pinned(self, suite):
        verdicts = SUITES[suite](seed=0)
        assert [dataclasses.astuple(v) for v in verdicts] == [
            dataclasses.astuple(v) for v in self.EXACT_SUITE_VERDICTS[suite]
        ]

    def test_verify_reports_each_suite_time(self, tmp_path):
        report = cli.run(
            ExperimentConfig(command="verify", suite="all", quick=True, seed=0, outdir=str(tmp_path))
        )
        suites = [f"verify.{name}" for name in SUITES]
        assert [name for name, _ in report.timings] == ["verify", *suites]
        timings = json.loads(report.path.read_text())["timings"]
        assert sorted(timings) == sorted(["verify", *suites])
        assert all(timings[key] >= 0 for key in suites)
        assert sum(timings[key] for key in suites) <= timings["verify"]

    EDGES = ("E1&E2", "E0&E2", "E0&E1")

    @pytest.mark.parametrize(
        "suite, fields",
        [
            ("polar", [({"command": "polar-check", "seed": 4}, None)]),
            ("hybrid", [({"command": "hybrid-check", "seed": 4, "n_polys": 200}, None)]),
            ("pushforward", [(
                {"command": "pushforward", "b": (1, 2), "t_schedule": (1e-6,), "seed": 4},
                {"pushforward-total-mass": "pushforward-total-half",
                 "pushforward-uniformity-ks": "pushforward-uniform-ks"},
            )]),
            ("pencil", [
                (
                    {"command": "sample-pencil", "model": "coordinate_pencil", "t_schedule": (1e-5,), "bins": 25,
                     "seed": 4},
                    {"edge-masses-pairwise-equal": "pencil-edge-masses-equal",
                     **{f"edge-uniformity-ks-{e}": f"pencil-edge-ks-{e}" for e in EDGES}},
                ),
                (
                    {"command": "skeleton-check", "model": "coordinate_pencil", "anchor": "E0&E1"},
                    {"residue-propagation-constant": "pencil-residue-propagation-constant"},
                ),
            ]),
            ("chart-residual", [(
                {"command": "fit-mass", "b": (1, 1), "a": (Fraction(0), Fraction(1)), "t_schedule": cli.LADDER,
                 "n_samples": 10_000, "seed": 4},
                {"fit-log-exponent": "twisted-log-exponent"},
            )]),
        ],
    )
    def test_suite_is_its_subcommand_runner(self, tmp_path, suite, fields):
        # ``fields`` holds each subcommand run the suite repeats at --quick and
        # the runner verdicts it reports under its own names: each equals the
        # run's verdict under that name, the other five fields unchanged.  The
        # polar and hybrid suites report every verdict under the runner's name.
        verdicts = SUITES[suite](seed=4, quick=True)
        reported = []
        for k, (config, names) in enumerate(fields):
            report = cli.run(ExperimentConfig(outdir=str(tmp_path / str(k)), **config))
            if names is None:
                assert verdicts == list(report.verdicts)
                return
            by_name = {v.name: v for v in report.verdicts}
            reported += [dataclasses.replace(by_name[old], name=new) for old, new in names.items()]
        assert [v for v in verdicts if v.name in {r.name for r in reported}] == reported

    @pytest.mark.parametrize("faces", ["one", "all"])
    def test_regression_weights_are_compared_with_exact_values(self, monkeypatch, faces):
        # Doubling the first face's weight keeps the (1, 2, 4) weights
        # non-uniform; doubling every face keeps the reduced weights uniform.
        # Either is wrong, and both verdicts must say so.
        assemble = cli.assemble_limit_measure

        def doubled(model, *args):
            measure = assemble(model, *args)
            entries = [
                dataclasses.replace(e, residual_mass=2 * e.residual_mass) if faces == "all" or i == 0 else e
                for i, e in enumerate(measure.entries)
            ]
            return dataclasses.replace(measure, entries=tuple(entries))

        monkeypatch.setattr(cli, "assemble_limit_measure", doubled)
        verdicts = SUITES["regression"](seed=0)
        assert {v.name: v.discrepancy for v in verdicts if not v.passed} == {
            "non-semistable-weights-non-uniform": 0.5,
            "semistable-weights-uniform": 1.0,
        }

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
        assert tuple(v.name for v in report.verdicts) == (
            "simplex-volume-vs-lattice-index",
            *(f"annulus-unit-mass-t1e-{k}" for k in range(2, 7)),
            "annulus-log-exponent",
            "annulus-decay-exponent",
            "annulus-leading-constant",
            "residual-closed-form-pi",
            "twisted-mass-pi",
            "twisted-log-exponent",
            "pushforward-total-half",
            "pushforward-uniform-ks",
            "decay-rescaled-mass-bounded",
            *(f"polar-{kind}-polydisc-{i}" for i in range(5) for kind in ("rel", "sigma")),
            *(f"polar-{kind}-fiber-{i}" for i in range(5) for kind in ("rel", "sigma")),
            "point-fiber-b3",
            "point-fiber-b3-roots",
            "base-change-splitting",
            "base-change-pushforward",
            "pencil-edge-masses-equal",
            "pencil-edge-ks-E1&E2",
            "pencil-edge-ks-E0&E2",
            "pencil-edge-ks-E0&E1",
            "pencil-residue-propagation-constant",
            "power-sequence-limits",
            "random-sequence-classification",
            "neighborhood-basis-agreement",
            "seminorm-multiplicative",
            "parameter-seminorm-is-radius",
            "non-semistable-weights-non-uniform",
            "semistable-weights-uniform",
        )
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
        _, anchor, rho = parse_skeleton_spec(skeleton_block)
        assert (anchor, rho) == ("E0&E1", 2.0)

    def test_skeleton_block_runs(self, tmp_path, capsys):
        spec = tmp_path / "triangle.skel"
        spec.write_text(readme_blocks("ini")[1])
        code, out, _ = run_cli(["skeleton-check", "--model", str(spec)], tmp_path, capsys)
        assert code == 0
        assert "magnitude 2 on all 3 cells" in out
        summary = json.loads((tmp_path / "skeleton-triangle.json").read_text())
        assert list(summary["residue_magnitudes"].values()) == [2.0, 2.0, 2.0]

    def test_python_blocks_run(self, tmp_path, monkeypatch, capsys):
        # Blocks without a prompt run with exec, each in a fresh namespace
        # inside a temporary directory, so a missing import fails here.
        monkeypatch.chdir(tmp_path)
        blocks = [b for b in readme_blocks("python") if ">>>" not in b]
        assert len(blocks) == 3
        for block in blocks:
            exec(compile(block, str(README), "exec"), {"__name__": "__readme__"})
        assert "->" in capsys.readouterr().out

    def test_doctest_blocks_pass(self, tmp_path, monkeypatch):
        # The same as `python -m doctest README.md`.
        monkeypatch.chdir(tmp_path)
        result = doctest.testfile(str(README), module_relative=False, verbose=False)
        assert result.attempted == 3
        assert result.failed == 0

    @staticmethod
    def command_lines():
        lines = [
            line
            for block in readme_blocks("sh")
            for line in block.splitlines()
            if line.startswith("tropmass ")
        ]
        assert len(lines) == 13
        return lines

    def test_command_lines_parse(self):
        parser = build_parser()
        for line in self.command_lines():
            args = parser.parse_args(shlex.split(line, comments=True)[1:])
            assert args.command == line.split()[1]

    # sha256 of every artifact of the lines that sample nothing; their bytes
    # are the documented output and must not drift.
    EXACT_COMMANDS = {"dual-complex", "weights", "limit-measure", "base-change", "skeleton-check"}
    EXACT_DIGESTS = {
        "dual-complex-coordinate_pencil.csv": "b4b432b9525093dd6c9db0503f255ea36c09dba768587e454b43231fd1a6ec57",
        "dual-complex-coordinate_pencil.json": "55fab1b7af5726be0b7dd39e613a0bc9979b4f10806416ab1183bbbf7e4a915d",
        "weights-annulus.csv": "ba6fc1ff63486d51ec6045d84dd1afee6eca22e8f86264781f76199ed9dfde27",
        "weights-annulus.json": "48ac7fe75e4998a85788c7432f3651f5263dbdfdcec31e52eac4354ba9b62bdf",
        "limit-measure-coordinate_pencil.csv": "58c9a7f38387bf35282df6c9b6b08b56f19f46ca1a3565aaacaf249cbb0da938",
        "limit-measure-coordinate_pencil.json": "701a55147029511939e9a220af67a8393cbb65dd2136b3ef03f4a52209eaedb2",
        "base-change-coordinate_pencil-m6.csv": "994e2f583db90cae3f7c23b0041216c5e783dfd8a6c0bba8d778855294a2874a",
        "skeleton-coordinate_pencil.csv": "4d8cc387c2683883bcdde4a36b31b212391f181bdd0bbe378eee605a0b407fd6",
        "skeleton-coordinate_pencil.json": "e3603d855554499d4e383578096663f70913f6d60c36fb8b884cca8c7a880243",
    }

    def test_command_lines_run(self, tmp_path, capsys, monkeypatch):
        # Each line writes its report and exactly the artifacts the report
        # lists; `verify --suite list` writes nothing.
        monkeypatch.chdir(tmp_path)
        digests = {}
        for i, line in enumerate(self.command_lines()):
            argv = shlex.split(line, comments=True)[1:]
            out = tmp_path / str(i)
            if argv[-2:] != ["--suite", "list"]:
                argv += ["--out", str(out)]
            assert main(argv) == 0, line
            capsys.readouterr()
            if not out.exists():
                assert argv[-2:] == ["--suite", "list"], line
                assert {p.name for p in tmp_path.iterdir()} == {str(k) for k in range(i)}
                continue
            (report,) = out.glob("*-report.json")
            listed = [Path(a) for a in json.loads(report.read_text())["artifacts"]]
            assert all(a.parent == out for a in listed), line
            assert sorted(p.name for p in out.iterdir()) == sorted([report.name, *(a.name for a in listed)])
            if argv[0] in self.EXACT_COMMANDS:
                digests.update({a.name: hashlib.sha256(a.read_bytes()).hexdigest() for a in listed})
        assert digests == self.EXACT_DIGESTS

    # sha256 of `hybrid-check.json` for the README line and for 200 sequences.
    # The verdicts are counts but for the seminorm's relative defect, which
    # passes through libm.  Recorded under numpy 2.4.6 on x86-64; each of the
    # five kernel sets, selected with NPY_DISABLE_CPU_FEATURES, writes the
    # same bytes.
    HYBRID_DIGESTS = {
        (): "8fc2bbdf22727554dcabd627c673d541660d965c4fe0c08ac1f1fd270a974125",
        ("--n-sequences", "200"): "f77947c5b6e61e3999a347e17905ef82455fb2dceda947fc520a093ee449c965",
    }

    @pytest.mark.parametrize("extra", sorted(HYBRID_DIGESTS))
    def test_hybrid_check_bytes_are_pinned(self, tmp_path, capsys, extra, recorded_build):
        (line,) = [line for line in self.command_lines() if line.split()[1] == "hybrid-check"]
        argv = shlex.split(line, comments=True)[1:]
        assert main([*argv, *extra, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        digest = hashlib.sha256((tmp_path / "hybrid-check.json").read_bytes()).hexdigest()
        assert digest == self.HYBRID_DIGESTS[extra]

"""End-to-end tests for the command-line interface."""

import argparse
import json
import os
import subprocess
import sys

import pytest

from morn import cli
from morn.cli import main
from morn.config import RunConfig

FAST = ["--set", "bench.count_k2=4", "--set", "bench.count_k3=2"]


def out_dir(tmp_path, name):
    return str(tmp_path / name)


class TestRun:
    def test_fixture_episode_commits_both_goals(self, tmp_path, capsys):
        code = main(["run", "--fixture", "two_room", "--variant", "MORN_FULL",
                     "--out", out_dir(tmp_path, "a")])
        assert code == 0
        log = capsys.readouterr().out
        assert log.count("COMMIT [EVIDENCE_COMMIT]") == 2
        assert "COMPLETED found=True" in log
        stem = tmp_path / "a" / "episode_0_morn_full"
        assert stem.with_suffix(".jsonl").exists()
        assert stem.with_suffix(".log").exists()

    def test_trace_files_are_reproducible(self, tmp_path):
        for name in ("r1", "r2"):
            assert main(["run", "--fixture", "two_room", "--set", "bench.master_seed=5",
                         "--out", out_dir(tmp_path, name)]) == 0
        a = (tmp_path / "r1" / "episode_0_morn_full.jsonl").read_bytes()
        b = (tmp_path / "r2" / "episode_0_morn_full.jsonl").read_bytes()
        assert a == b

    def test_trace_ascii(self, tmp_path):
        assert main(["run", "--fixture", "trivial", "--trace-ascii",
                     "--out", out_dir(tmp_path, "a")]) == 0
        frames = (tmp_path / "a" / "episode_0_morn_full.ascii").read_text()
        assert "-- goal 1" in frames and "@" in frames

    def test_suite_episode_index(self, tmp_path):
        assert main(["run", "--episode", "0", *FAST,
                     "--out", out_dir(tmp_path, "a")]) == 0

    def test_needs_exactly_one_selector(self, tmp_path):
        assert main(["run", "--out", out_dir(tmp_path, "a")]) == 2
        assert main(["run", "--episode", "0", "--fixture", "trivial",
                     "--out", out_dir(tmp_path, "a")]) == 2

    def test_bad_config_key_is_exit_2(self, tmp_path):
        code = main(["run", "--fixture", "trivial", "--set", "thresholds.nope=1",
                     "--out", out_dir(tmp_path, "a")])
        assert code == 2

    def test_threshold_level_is_not_a_config_key(self, tmp_path, capsys):
        # the levels are derived from thresholds.abort and .switch, not set
        code = main(["run", "--fixture", "trivial", "--set", "thresholds.abort_level=0.5",
                     "--out", out_dir(tmp_path, "a")])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown configuration key: 'thresholds.abort_level'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("setting", ["thresholds.abort=none", "thresholds.commit=nan"])
    def test_non_finite_float_is_exit_2(self, tmp_path, capsys, setting):
        code = main(["run", "--fixture", "trivial", "--set", setting,
                     "--out", out_dir(tmp_path, "a")])
        assert code == 2
        assert setting.split("=")[0] in capsys.readouterr().err
        assert not (tmp_path / "a").exists()

    def test_integral_float_sets_an_int_field(self, tmp_path):
        # `--set` takes 20.0 for an int field, as `sweep --values 20.0` does
        args = cli._build_parser().parse_args(
            ["run", "--fixture", "two_room", "--set", "thresholds.grace=20.0"])
        grace = cli._load(args).thresholds.grace
        assert grace == 20 and type(grace) is int
        for name, value in (("a", "20.0"), ("b", "20")):
            assert main(["run", "--fixture", "two_room", "--set", f"thresholds.grace={value}",
                         "--out", out_dir(tmp_path, name)]) == 0
        log = "episode_0_morn_full.log"
        assert (tmp_path / "a" / log).read_bytes() == (tmp_path / "b" / log).read_bytes()

    @pytest.mark.parametrize("value", ["20.5", "inf", "nan", "twenty"])
    def test_int_field_needs_a_whole_number(self, tmp_path, capsys, value):
        code = main(["run", "--fixture", "trivial", "--set", f"thresholds.grace={value}",
                     "--out", out_dir(tmp_path, "a")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"bad value for 'thresholds.grace': '{value}' (not a whole number)" in err
        assert not (tmp_path / "a").exists()

    def test_negative_commit_warmup_is_exit_2(self, tmp_path, capsys):
        code = main(["run", "--fixture", "trivial", "--set", "thresholds.commit_warmup=-3",
                     "--out", out_dir(tmp_path, "a")])
        assert code == 2
        assert "commit_warmup must be nonnegative" in capsys.readouterr().err
        assert not (tmp_path / "a").exists()

    def test_unknown_fixture_is_exit_2(self, tmp_path, capsys):
        assert main(["run", "--fixture", "nope", "--out", out_dir(tmp_path, "a")]) == 2
        err = capsys.readouterr().err
        assert "unknown fixture 'nope'" in err
        assert "maze, open, sealed, trivial, two_room" in err
        assert "Traceback" not in err

    def test_fixture_path_is_exit_2(self, tmp_path, capsys):
        # a name is looked up among the bundled maps, never joined as a path
        assert main(["run", "--fixture", "../fixtures/trivial",
                     "--out", out_dir(tmp_path, "a")]) == 2
        assert "unknown fixture '../fixtures/trivial'" in capsys.readouterr().err
        assert not (tmp_path / "a").exists()

    def test_episode_outside_suite_is_exit_2(self, tmp_path, capsys):
        assert main(["run", "--episode", "999", *FAST, "--out", out_dir(tmp_path, "a")]) == 2
        assert "episode index 999 outside suite of 6" in capsys.readouterr().err
        assert not (tmp_path / "a").exists()

    @pytest.mark.parametrize("settings,message", [
        (["world.cell_size=0"], "cell_size must be positive"),
        (["world.cell_size=-1"], "cell_size must be positive"),
        (["world.room_min=12"], "room_min <= room_max"),
        (["world.room_min=0"], "1 <= room_min"),
        (["world.extra_door_prob=7"], "extra_door_prob must be in [0, 1]"),
        (["world.rooms_x=1", "world.rooms_y=1"], "at least 2 rooms"),
        (["world.cell_size=0.25"], "signal.step_length (0.5) must equal world.cell_size (0.25)"),
        (["perception.false_positive_rate=1.5"], "false_positive_rate must be in [0, 1]"),
        (["perception.signal_range=0"], "signal_range must be positive"),
        (["perception.noise_std=-0.1"], "noise_std must be nonnegative"),
        (["perception.signal_amplitude=-0.8"], "signal_amplitude must be positive"),
        (["perception.signal_amplitude=0"], "signal_amplitude must be positive"),
        (["perception.spike_amplitude=-5"], "spike_amplitude must be nonnegative"),
        (["perception.base_noise_mean=-0.5"], "base_noise_mean must be nonnegative"),
    ])
    def test_bad_world_is_exit_2(self, tmp_path, capsys, settings, message):
        sets = [arg for kv in settings for arg in ("--set", kv)]
        assert main(["run", "--episode", "0", *FAST, *sets,
                     "--out", out_dir(tmp_path, "a")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "a").exists()


class TestBench:
    def test_csv_schema_and_summary(self, tmp_path):
        assert main(["bench", *FAST, "--workers", "1",
                     "--out", out_dir(tmp_path, "b")]) == 0
        csv_text = (tmp_path / "b" / "bench.csv").read_text()
        lines = csv_text.strip().splitlines()
        assert lines[0].startswith("variant,k2_mgsr,k2_cr,k2_wsf,k3_mgsr")
        assert len(lines) == 6  # header + five variants
        summary = json.loads((tmp_path / "b" / "summary.json").read_text())
        assert set(summary["variants"]) == {
            "FIXED_ORDER", "REACTIVE_ORDER", "MORN_ABORT_ONLY",
            "MORN_SWITCH_ONLY", "MORN_FULL"}

    def test_variant_filter(self, tmp_path):
        assert main(["bench", *FAST, "--variants", "MORN_FULL", "--workers", "1",
                     "--out", out_dir(tmp_path, "b")]) == 0
        lines = (tmp_path / "b" / "bench.csv").read_text().strip().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("MORN_FULL,")

    def test_unknown_variant_is_exit_2(self, tmp_path, capsys):
        assert main(["bench", *FAST, "--variants", "MORN_FULL,WISHFUL",
                     "--out", out_dir(tmp_path, "b")]) == 2
        err = capsys.readouterr().err
        assert ("unknown variant 'WISHFUL'; variants: FIXED_ORDER, REACTIVE_ORDER, "
                "MORN_ABORT_ONLY, MORN_SWITCH_ONLY, MORN_FULL") in err
        assert "Traceback" not in err
        assert not (tmp_path / "b").exists()

    def test_repeated_variant_is_exit_2(self, tmp_path, capsys):
        assert main(["bench", *FAST, "--variants", "MORN_FULL, MORN_FULL",
                     "--out", out_dir(tmp_path, "b")]) == 2
        assert "variant 'MORN_FULL' is listed twice" in capsys.readouterr().err
        assert not (tmp_path / "b" / "bench.csv").exists()

    def test_episodes_flag_scales_suite(self, tmp_path):
        assert main(["bench", "--episodes", "5", "--variants", "MORN_FULL",
                     "--workers", "1", "--out", out_dir(tmp_path, "b")]) == 0
        summary = json.loads((tmp_path / "b" / "summary.json").read_text())
        assert summary["episodes"] == 5

    @pytest.mark.parametrize("raw", ["", " "])
    def test_empty_variant_list_is_exit_2(self, tmp_path, capsys, raw):
        # an omitted --variants runs every variant; an empty one is a mistake
        assert main(["bench", *FAST, "--variants", raw, "--workers", "1",
                     "--out", out_dir(tmp_path, "b")]) == 2
        assert "--variants is empty" in capsys.readouterr().err
        assert not (tmp_path / "b").exists()

    @pytest.mark.parametrize("raw, position", [
        ("MORN_FULL,", 2), ("MORN_FULL,,FIXED_ORDER", 2), (",MORN_FULL", 1),
    ])
    def test_empty_variant_item_is_exit_2(self, tmp_path, capsys, raw, position):
        # the wording of an empty `sweep --values` item
        assert main(["bench", *FAST, f"--variants={raw}", "--workers", "1",
                     "--out", out_dir(tmp_path, "b")]) == 2
        assert f"--variants item {position} of {raw!r} is empty" in capsys.readouterr().err
        assert not (tmp_path / "b").exists()


@pytest.mark.parametrize("command", [
    ["bench", "--variants", "MORN_FULL"],
    ["sweep", "--parameter", "tau_c", "--values", "0.6"],
])
@pytest.mark.parametrize("extra,message", [
    (["--episodes", "0"], "--episodes must be >= 1"),
    (["--episodes", "-4"], "--episodes must be >= 1"),
    (["--workers", "-3"], "--workers must be >= 0"),
    (["--set", "bench.count_k2=0", "--set", "bench.count_k3=0"], "empty benchmark suite"),
    (["--set", "bench.count_k2=-1"], "episode counts must be nonnegative"),
    (["--set", "bench.budget_k2=0"], "budgets must be positive"),
    (["--set", "bench.success_radius=0"], "success_radius must be positive"),
    # FAST gives two --set items before it
    (["--set", "foo"], "--set item 3: expected KEY=VALUE, got 'foo'"),
    (["--set", "bench.count_k2=0", "--set", "bench.count_k3=0", "--episodes", "5"],
     "empty benchmark suite"),
])
def test_bad_suite_or_workers_is_exit_2(tmp_path, capsys, command, extra, message):
    # a --set key may be given once, so FAST gives way on the keys `extra` sets
    keys = {arg.split("=")[0] for arg in extra if "=" in arg}
    fast = [arg for kv in FAST[1::2] if kv.split("=")[0] not in keys for arg in ("--set", kv)]
    assert main([*command, *fast, *extra, "--out", out_dir(tmp_path, "o")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", [["run", "--episode", "0"], ["bench", "--workers", "2"]])
@pytest.mark.parametrize("separation,message", [
    ("-1", "min_separation must be nonnegative"),
    ("1000", "episode 0: could not satisfy goal separation >= 1000.0 m"),
])
def test_bad_min_separation_is_exit_2(tmp_path, capsys, command, separation, message):
    assert main([*command, *FAST, "--set", f"bench.min_separation={separation}",
                 "--out", out_dir(tmp_path, "o")]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


class TestSweep:
    def test_sweep_csv(self, tmp_path):
        assert main(["sweep", "--parameter", "tau_c", "--values", "0.6,0.65",
                     *FAST, "--workers", "1", "--out", out_dir(tmp_path, "s")]) == 0
        lines = (tmp_path / "s" / "sweep_tau_c.csv").read_text().strip().splitlines()
        assert lines[0] == "tau_c,mgsr,ssr,cr,steps,wsf,in_envelope"
        assert len(lines) == 3
        assert lines[1].startswith("0.6000,")

    def test_negative_first_value_takes_the_equals_form(self, tmp_path, capsys):
        # argparse reads "-1.0,0.2" after a space as an option, so a list
        # that starts below zero is given as --values=-1.0,0.2, as the help says
        assert main(["sweep", "--parameter", "tau_s", "--values=-1.0,0.2", *FAST,
                     "--episodes", "1", "--workers", "1", "--out", out_dir(tmp_path, "s")]) == 0
        lines = (tmp_path / "s" / "sweep_tau_s.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["-1.0000", "0.2000"]
        with pytest.raises(SystemExit) as exit_:
            main(["sweep", "--help"])
        assert exit_.value.code == 0
        assert "--values=-1.0,0.2" in " ".join(capsys.readouterr().out.split())

    @pytest.mark.parametrize("parameter, values, written", [
        ("signal.epsilon", "1e-6,2e-6,5e-5", ["1e-06", "2e-06", "5e-05"]),
        ("tau_c", "0.6,0.60001", ["0.6000", "0.60001"]),
    ])
    def test_swept_values_are_written_exactly(self, tmp_path, parameter, values, written):
        # four decimals where they read back as the value, else its repr
        assert main(["sweep", "--parameter", parameter, "--values", values, *FAST,
                     "--episodes", "1", "--workers", "1", "--out", out_dir(tmp_path, "s")]) == 0
        lines = (tmp_path / "s" / f"sweep_{parameter}.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == written

    @pytest.mark.parametrize("parameter, values", [("tau_c", "0.5,0.6"), ("d_commit", "2.8,2.9"),
                                                   ("thresholds.commit", "0.5,0.6")])
    def test_in_envelope_column(self, tmp_path, parameter, values):
        # the commit threshold 0.6 must exceed the calibration floor: 0.5946
        # at d_commit 3.0, 0.6014 at 2.8 and 0.5980 at 2.9
        assert main(["sweep", "--parameter", parameter, "--values", values, *FAST,
                     "--episodes", "1", "--workers", "1", "--out", out_dir(tmp_path, "s")]) == 0
        lines = (tmp_path / "s" / f"sweep_{parameter}.csv").read_text().splitlines()
        assert [line.split(",")[-1] for line in lines] == ["in_envelope", "0", "1"]

    def test_unknown_parameter_is_exit_2(self, tmp_path):
        assert main(["sweep", "--parameter", "tau_q", "--values", "0.5",
                     *FAST, "--out", out_dir(tmp_path, "s")]) == 2

    def test_below_floor_commit_is_exit_2_under_set(self, tmp_path, capsys):
        # the sweep of the same value runs: see test_in_envelope_column
        assert main(["sweep", "--parameter", "tau_c", "--values", "0.6", *FAST,
                     "--set", "thresholds.commit=0.5", "--out", out_dir(tmp_path, "s")]) == 2
        assert "does not exceed the stable-baseline sufficiency floor 0.5946" in \
            capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("parameter", ["world.rooms_x", "bench.master_seed"])
    def test_suite_key_is_exit_2(self, tmp_path, capsys, parameter):
        assert main(["sweep", "--parameter", parameter, "--values", "2,3",
                     *FAST, "--out", out_dir(tmp_path, "s")]) == 2
        assert f"cannot sweep {parameter!r}" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    def test_bad_dotted_value_names_the_key(self, tmp_path, capsys):
        assert main(["sweep", "--parameter", "weights.acc_e", "--values", "0.3,0.9",
                     *FAST, "--out", out_dir(tmp_path, "s")]) == 2
        assert "sweep weights.acc_e=0.9: accumulation weights must sum to 1" in \
            capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    def test_empty_values_is_exit_2(self, tmp_path, capsys):
        assert main(["sweep", "--parameter", "tau_c", "--values", ",",
                     *FAST, "--out", out_dir(tmp_path, "s")]) == 2
        assert "sweep needs a non-empty value list" in capsys.readouterr().err

    @pytest.mark.parametrize("values, position", [
        ("0.6,,0.7", 2), ("0.6,0.7,", 3), (",0.6", 1), ("0.6, ,0.7", 2),
    ])
    def test_empty_value_item_is_exit_2(self, tmp_path, capsys, values, position):
        assert main(["sweep", "--parameter", "tau_c", f"--values={values}",
                     *FAST, "--out", out_dir(tmp_path, "s")]) == 2
        assert f"--values item {position} of {values!r} is empty" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    def test_non_numeric_value_is_exit_2(self, tmp_path, capsys):
        assert main(["sweep", "--parameter", "tau_c", "--values", "abc",
                     *FAST, "--out", out_dir(tmp_path, "s")]) == 2
        assert "bad sweep value: could not convert string to float: 'abc'" in \
            capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    def test_negative_grace_is_exit_2(self, tmp_path, capsys):
        assert main(["sweep", "--parameter", "t_grace", "--values=-5",
                     *FAST, "--out", out_dir(tmp_path, "s")]) == 2
        assert "t_grace=-5" in capsys.readouterr().err
        assert not (tmp_path / "s" / "sweep_t_grace.csv").exists()

    @pytest.mark.parametrize("parameter, bad", [
        ("tau_c", "nan"), ("tau_a", "inf"), ("tau_s", "-inf"), ("d_commit", "nan"),
    ])
    def test_non_finite_value_is_exit_2(self, tmp_path, capsys, parameter, bad):
        assert main(["sweep", "--parameter", parameter, f"--values=0.6,{bad}",
                     *FAST, "--workers", "1", "--out", out_dir(tmp_path, "s")]) == 2
        assert f"{parameter}={bad}: not a finite number" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    def test_repeated_value_is_exit_2(self, tmp_path, capsys):
        assert main(["sweep", "--parameter", "tau_c", "--values", "0.6,0.60,0.6",
                     *FAST, "--workers", "1", "--out", out_dir(tmp_path, "s")]) == 2
        assert "tau_c=0.6 is listed twice" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    def test_each_swept_config_is_validated_once(self, tmp_path, monkeypatch):
        calls = []
        validate = RunConfig.validate

        def counted(config):
            calls.append(config)
            validate(config)

        monkeypatch.setattr(RunConfig, "validate", counted)
        assert main(["sweep", "--parameter", "weights.pot_v", "--values", "0.3,0.4,0.5", *FAST,
                     "--episodes", "1", "--workers", "1", "--out", out_dir(tmp_path, "s")]) == 0
        # load_config's own, then one per value
        assert len(calls) == 1 + 3

    def test_sweep_is_byte_stable(self, tmp_path):
        for name in ("s1", "s2"):
            assert main(["sweep", "--parameter", "t_grace", "--values", "10",
                         *FAST, "--workers", "1",
                         "--out", out_dir(tmp_path, name)]) == 0
        a = (tmp_path / "s1" / "sweep_t_grace.csv").read_bytes()
        b = (tmp_path / "s2" / "sweep_t_grace.csv").read_bytes()
        assert a == b


class TestOut:
    # each command, and the runner it must not reach when --out is bad
    COMMANDS = {
        "run": (["run", "--fixture", "trivial"], "run_episode"),
        "bench": (["bench", *FAST, "--workers", "1"], "run_suite"),
        "sweep": (["sweep", "--parameter", "tau_c", "--values", "0.6", *FAST,
                   "--workers", "1"], "run_sweep"),
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize("under", [False, True])
    def test_out_not_a_directory_is_exit_2_before_the_run(self, tmp_path, capsys, monkeypatch,
                                                          command, under):
        def runner(*args, **kwargs):
            raise AssertionError("the run started")

        argv, name = self.COMMANDS[command]
        monkeypatch.setattr(cli, name, runner)
        afile = tmp_path / "afile"
        afile.write_text("kept\n")
        out = afile / "sub" / "dir" if under else afile
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        where = f" lies under {str(afile)!r}, which" if under else ""
        assert f"--out {str(out)!r}{where} is not a directory" in err
        assert afile.read_text() == "kept\n"

    def test_unsearchable_out_is_exit_2(self, tmp_path, capsys, monkeypatch):
        def denied(path):
            raise PermissionError(13, "Permission denied", str(path))

        monkeypatch.setattr(cli.Path, "exists", denied)
        out = str(tmp_path / "o")
        assert main(["run", "--fixture", "trivial", "--out", out]) == 2
        assert f"--out {out!r}: Permission denied" in capsys.readouterr().err

    def test_missing_out_is_made_after_the_run(self, tmp_path):
        out = tmp_path / "a" / "b"
        assert main(["run", "--fixture", "trivial", "--out", str(out)]) == 0
        assert (out / "episode_0_morn_full.log").exists()

    def test_write_error_is_exit_2_naming_the_path(self, tmp_path, capsys):
        out = tmp_path / "o"
        (out / "bench.csv").mkdir(parents=True)
        assert main(["bench", *FAST, "--episodes", "2", "--workers", "1",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"cannot write --out {str(out / 'bench.csv')!r}" in err
        assert "Traceback" not in err


class TestEnvironment:
    def test_config_file_sets_the_suite(self, tmp_path):
        cfg = tmp_path / "suite.cfg"
        cfg.write_text("bench.count_k2 = 2\nbench.count_k3 = 0\n")
        assert main(["bench", "--config", str(cfg), "--variants", "MORN_FULL",
                     "--workers", "1", "--out", out_dir(tmp_path, "b")]) == 0
        summary = json.loads((tmp_path / "b" / "summary.json").read_text())
        assert summary["episodes"] == 2

    def test_repeated_set_key_is_exit_2(self, tmp_path, capsys):
        # the last value would silently win; a config file rejects a repeat too
        assert main(["run", "--fixture", "trivial", "--set", "thresholds.abort=0.2",
                     "--set", " thresholds.abort = 0.4", "--out", out_dir(tmp_path, "a")]) == 2
        err = capsys.readouterr().err
        assert ("--set item 2: key 'thresholds.abort' is set again "
                "(first set at --set item 1)") in err
        assert "Traceback" not in err
        assert not (tmp_path / "a").exists()

    @pytest.mark.parametrize("text, message", [
        ("bench.count_k2 = 2\n\nbench.count_k3 1  # no '='\n",
         "{cfg}:3: expected KEY=VALUE, got 'bench.count_k3 1'"),
        ("bench.count_k2 = 2\n# a comment\nbench.count_k2=3\n",
         "{cfg}:3: key 'bench.count_k2' is set again (first set at {cfg}:1)"),
    ], ids=["no-equals", "repeat"])
    def test_bad_config_file_line_is_exit_2(self, tmp_path, capsys, text, message):
        # the file's lines go through the reader --set's items do
        cfg = tmp_path / "suite.cfg"
        cfg.write_text(text)
        assert main(["run", "--fixture", "trivial", "--config", str(cfg),
                     "--out", out_dir(tmp_path, "a")]) == 2
        err = capsys.readouterr().err
        assert message.format(cfg=cfg) in err
        assert "Traceback" not in err
        assert not (tmp_path / "a").exists()

    @pytest.mark.parametrize("text, sets, message", [
        ("thresholds.commit = 0.62\nthresholds.abrt = 0.3\n", [],
         "{cfg}:2: unknown configuration key: 'thresholds.abrt'"),
        # the file's value is read first, so the error names the file line
        # although --set gives the key a good value
        ("bench.count_k2 = x\n", ["--set", "bench.count_k2=3"],
         "{cfg}:1: bad value for 'bench.count_k2': 'x' (not a whole number)"),
        ("bench.count_k2 = 3\n", ["--set", "bench.count_k3=2", "--set", "thresholds.abrt=1"],
         "--set item 2: unknown configuration key: 'thresholds.abrt'"),
    ], ids=["file-key", "file-value-beside-set", "set-key"])
    def test_config_error_names_where_the_setting_came_from(self, tmp_path, capsys,
                                                            text, sets, message):
        cfg = tmp_path / "suite.cfg"
        cfg.write_text(text)
        assert main(["run", "--fixture", "trivial", "--config", str(cfg), *sets,
                     "--out", out_dir(tmp_path, "a")]) == 2
        err = capsys.readouterr().err
        assert message.format(cfg=cfg) in err
        assert "Traceback" not in err
        assert not (tmp_path / "a").exists()

    def test_set_overrides_a_config_file_key(self, tmp_path):
        cfg = tmp_path / "suite.cfg"
        cfg.write_text("bench.count_k2 = 2\nbench.count_k3 = 0\n")
        assert main(["bench", "--config", str(cfg), "--set", "bench.count_k2=3",
                     "--variants", "MORN_FULL", "--workers", "1",
                     "--out", out_dir(tmp_path, "b")]) == 0
        summary = json.loads((tmp_path / "b" / "summary.json").read_text())
        assert summary["episodes"] == 3

    @pytest.mark.parametrize("name, message", [
        ("missing.cfg", "No such file or directory"),
        (".", "Is a directory"),
    ])
    def test_unreadable_config_is_exit_2(self, tmp_path, capsys, name, message):
        path = str(tmp_path / name)
        assert main(["bench", "--config", path, "--episodes", "2",
                     "--out", out_dir(tmp_path, "b")]) == 2
        err = capsys.readouterr().err
        assert f"cannot read config file {path!r}: {message}" in err
        assert "Traceback" not in err


class TestWorkers:
    def test_zero_means_the_cpus_this_process_may_use(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert cli._workers(argparse.Namespace(workers=0)) == 1
        assert cli._workers(argparse.Namespace(workers=3)) == 3

    def test_zero_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert cli._workers(argparse.Namespace(workers=0)) == 8


class TestErrors:
    def test_internal_error_prints_traceback(self, tmp_path, capsys, monkeypatch):
        def boom(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "cmd_run", boom)
        assert main(["run", "--fixture", "trivial", "--out", out_dir(tmp_path, "a")]) == 1
        err = capsys.readouterr().err
        assert "Traceback" in err and "RuntimeError: boom" in err
        assert err.rstrip().endswith("internal error: boom")


def test_program_imports_no_numpy():
    # the program has no third-party runtime dependency: importing the CLI
    # and running a suite must not load numpy
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = (
        "import sys\n"
        "import morn.cli\n"
        "from morn.bench import generate, run_suite\n"
        "from morn.config import RunConfig\n"
        "from morn.executive import MethodVariant\n"
        "config = RunConfig()\n"
        "traces = run_suite(generate(1, 0, 3, config), [MethodVariant.MORN_FULL], config)\n"
        "assert traces[MethodVariant.MORN_FULL][0].total_steps > 0\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr

"""Command-line interface: all four verbs, config files, exit codes."""

import argparse
import json
import subprocess
import sys

import pytest

from pes_denoise import harness
from pes_denoise.cli import _OPTIONS, _VERBS, build_parser, main
from pes_denoise.harness import DEFAULT_METHODS


def run(argv):
    return main(argv)


def test_generate_to_stdout(capsys):
    assert run(["generate", "--signal", "blocks", "--n", "64"]) == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 64
    assert float(out.splitlines()[0]) == 0.0


def test_generate_deterministic_files(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(["generate", "--signal", "doppler", "--n", "128", "--out", str(a)]) == 0
    assert run(["generate", "--signal", "doppler", "--n", "128", "--out", str(b)]) == 0
    assert (a / "doppler.csv").read_bytes() == (b / "doppler.csv").read_bytes()


def test_denoise_writes_triplet_and_metrics(tmp_path, capsys):
    rc = run(
        [
            "denoise",
            "--signal", "heavy-sine",
            "--noise", "0.2",
            "--method", "pes-pyramid",
            "--seed", "4",
            "--out", str(tmp_path / "d"),
        ]
    )
    assert rc == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("input_snr_db=") and "output_snr_db=" in line
    for suffix in ("clean", "noisy", "denoised"):
        assert (tmp_path / "d" / f"heavy-sine_{suffix}.csv").exists()
    output_snr = float(line.split("output_snr_db=")[1])
    input_snr = float(line.split("input_snr_db=")[1].split()[0])
    assert output_snr > input_snr


def test_denoise_requires_noise(capsys):
    assert run(["denoise", "--signal", "blocks"]) == 2


def test_unknown_signal_is_usage_error(capsys):
    assert run(["generate", "--signal", "chirp"]) == 2


def test_invalid_parameter_is_config_error(capsys):
    assert run(["denoise", "--signal", "blocks", "--noise", "0.2", "--levels", "0"]) == 2
    assert "levels must be an integer >= 1" in capsys.readouterr().err


def test_out_collision_is_runtime_error(tmp_path, capsys):
    target = tmp_path / "occupied"
    target.write_text("not a directory")
    rc = run(["generate", "--signal", "blocks", "--out", str(target)])
    assert rc == 1


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment line\nseed=9\nbank=haar\nmethod=universal\n")
    base = ["denoise", "--signal", "bumps", "--noise", "0.2", "--levels", "3"]

    run(base + ["--config", str(cfg)])
    from_config = capsys.readouterr().out
    run(base + ["--seed", "9", "--bank", "haar", "--method", "universal"])
    from_flags = capsys.readouterr().out
    assert from_config == from_flags

    # explicit flag beats the file
    run(base + ["--config", str(cfg), "--bank", "farras"])
    overridden = capsys.readouterr().out
    run(base + ["--seed", "9", "--bank", "farras", "--method", "universal"])
    assert overridden == capsys.readouterr().out
    assert overridden != from_config


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("wavelets=db4\n")
    assert run(["generate", "--signal", "blocks", "--config", str(cfg)]) == 2


@pytest.mark.parametrize("line", ["seed=3.5", "levels="])
def test_config_file_bad_value_names_file_and_line(tmp_path, capsys, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"# comment\n{line}\n")
    assert run(["experiment", "--trials", "1", "--n", "64", "--config", str(cfg)]) == 2
    key = line.partition("=")[0]
    assert f"error: {cfg}:2: bad value for {key}: " in capsys.readouterr().err


def test_spectrum_verb(tmp_path, capsys):
    rc = run(["spectrum", "--signal", "piece-regular", "--n", "512", "--noise", "0.2",
              "--out", str(tmp_path / "s")])
    assert rc == 0
    err = capsys.readouterr().err
    assert "omega0=" in err and "levels=3" in err
    lines = (tmp_path / "s" / "piece-regular_spectrum.csv").read_text().splitlines()
    assert lines[0] == "omega,magnitude"
    assert len(lines) == 258  # 512/2 + 1 bins + header


def test_spectrum_verb_reports_the_depth_each_method_runs(capsys):
    # At n=1000 = 8 * 125 the spectrum asks for 5 levels; a db4 DWT allows 3.
    argv = ["spectrum", "--signal", "heavy-sine", "--n", "1000", "--noise", "0.2", "--seed", "8"]
    assert run(argv) == 0
    err = capsys.readouterr().err
    assert " levels=5 " in err
    assert "pes-wavelet=3 pes-pyramid=5 universal=3 three-sigma=3" in err


@pytest.mark.parametrize(
    "flag",
    [
        ["--method", "pes-wavelet"],
        ["--levels", "3"],
        ["--bank", "haar"],
        ["--gamma", "2"],
        ["--taps", "4"],
    ],
    ids=lambda flag: flag[0],
)
def test_spectrum_refuses_flags_it_does_not_read(flag, capsys):
    assert run(["spectrum", "--signal", "blocks", "--n", "256"] + flag) == 2


def test_generate_refuses_seed(capsys):
    assert run(["generate", "--signal", "blocks", "--n", "64", "--seed", "3"]) == 2


def test_one_config_file_serves_every_verb(tmp_path, capsys):
    cfg = tmp_path / "all.cfg"
    cfg.write_text("seed=3\nmethod=universal\nbank=haar\nnoise=0.2\ntrials=2\n")
    for verb in ("generate", "spectrum", "denoise", "experiment"):
        argv = [verb, "--signal", "blocks", "--n", "256", "--config", str(cfg)]
        assert run(argv) == 0, verb


@pytest.mark.parametrize(
    "argv",
    [
        ["denoise", "--noise", "0.2", "--smooth-window", "9", "--levels", "2"],
        ["denoise", "--noise", "0.2", "--alpha", "3", "--levels", "3"],
        ["spectrum", "--alpha", "3"],
        ["spectrum", "--smooth-window", "9"],
    ],
    ids=["denoise-window", "denoise-alpha", "spectrum-alpha", "spectrum-window"],
)
def test_bad_spectrum_options_are_config_errors(argv, capsys):
    # The spectrum rule's constants are not options: a verb refuses them
    # even at the values ALPHA and SMOOTH_WINDOW hold.
    assert run(argv + ["--signal", "blocks", "--n", "256"]) == 2


@pytest.mark.parametrize("option", ["gamma", "taps", "alpha", "smooth-window"])
def test_tuning_options_are_refused(option, tmp_path, capsys):
    # The thresholds, the FIR length and the spectrum rule have no knobs:
    # each verb refuses these as flags, and a config file as keys.
    noisy = ["--signal", "blocks", "--n", "256", "--noise", "0.2"]
    for argv in (["spectrum", *noisy], ["denoise", *noisy], ["experiment", *noisy, "--trials", "1"]):
        assert run(argv + [f"--{option}", "3"]) == 2, argv[0]
        cfg = tmp_path / "knob.cfg"
        cfg.write_text(f"{option}=3\n")
        capsys.readouterr()
        assert run(argv + ["--config", str(cfg)]) == 2, argv[0]
        assert f"unknown config key '{option}'" in capsys.readouterr().err


def test_unset_options_take_the_library_defaults(capsys):
    base = ["denoise", "--signal", "bumps", "--noise", "0.2", "--n", "256"]
    assert run(base) == 0
    implicit = capsys.readouterr().out
    explicit = ["--bank", "db4", "--method", "pes-wavelet"]
    assert run(base + explicit) == 0
    assert capsys.readouterr().out == implicit


def test_experiment_deterministic_and_json(tmp_path, capsys):
    argv = [
        "experiment",
        "--signal", "cusp",
        "--noise", "0.2",
        "--method", "three-sigma",
        "--trials", "2",
        "--n", "512",
    ]
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(argv + ["--out", str(a)]) == 0
    assert run(argv + ["--out", str(b)]) == 0
    assert (a / "report.csv").read_bytes() == (b / "report.csv").read_bytes()
    payload = json.loads((a / "report.json").read_text())
    assert payload["errors"] == []
    assert payload["rows"][0]["signal"] == "cusp"
    assert payload["rows"][0]["trials"] == 2


def test_default_experiment_runs_the_library_methods_in_order(capsys):
    argv = ["experiment", "--signal", "cusp", "--noise", "0.2", "--trials", "1", "--n", "256"]
    assert run(argv) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split(",")[2] for row in rows] == [cfg.method for cfg in DEFAULT_METHODS]


def test_experiment_failure_exit_code(tmp_path, capsys, monkeypatch):
    # A cell that fails at run time is reported, and the exit code is 1.
    def failing_denoise(x, cfg, *, _spectrum_levels=None):
        raise FloatingPointError("overflow in the cell")

    monkeypatch.setattr(harness, "denoise", failing_denoise)
    rc = run(
        [
            "experiment",
            "--signal", "cusp",
            "--noise", "0.2",
            "--method", "pes-wavelet",
            "--trials", "1",
            "--n", "512",
            "--out", str(tmp_path / "x"),
        ]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert "error:" in err and "cusp/0.2: FloatingPointError: overflow in the cell" in err


def test_experiment_rejects_a_depth_the_length_does_not_allow(tmp_path, capsys):
    # Refused when the spec is built, with denoise's message: no header-only report.
    argv = ["experiment", "--signal", "cusp", "--noise", "0.2", "--method", "pes-wavelet", "--trials", "1"]
    assert run(argv + ["--levels", "10", "--n", "512", "--out", str(tmp_path / "x")]) == 2
    assert "error: pes-wavelet runs at most 8 levels at n=512, got levels=10" in capsys.readouterr().err
    assert not (tmp_path / "x" / "report.csv").exists()


def test_experiment_rejects_an_unknown_bank(tmp_path, capsys):
    # Refused when the config is built, not once per cell at run time.
    argv = ["experiment", "--signal", "cusp", "--noise", "0.2", "--trials", "1", "--n", "512"]
    assert run(argv + ["--bank", "nope", "--out", str(tmp_path / "x")]) == 2
    assert "unknown filter bank 'nope'" in capsys.readouterr().err


def test_experiment_rejects_a_negative_seed(capsys):
    # Refused when the spec is built, not once per cell at run time.
    argv = ["experiment", "--signal", "cusp", "--noise", "0.2", "--trials", "1", "--n", "256"]
    assert run(argv + ["--seed", "-1"]) == 2
    assert "base_seed must be an integer >= 0, got -1" in capsys.readouterr().err


def test_experiment_with_nothing_it_can_run_is_refused(tmp_path, capsys):
    # Refused when the spec is built: no header-only report, no lost cells.
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("signal=\n")
    assert run(["experiment", "--trials", "1", "--n", "64", "--config", str(cfg)]) == 2
    assert "signals must not be empty" in capsys.readouterr().err
    assert run(["experiment", "--trials", "1", "--n", "1023"]) == 2
    assert "needs an even signal length, got n=1023" in capsys.readouterr().err


def test_experiment_rejects_repeated_method(capsys):
    rc = run(
        [
            "experiment",
            "--signal", "cusp",
            "--noise", "0.2",
            "--method", "pes-wavelet",
            "--method", "pes-wavelet",
            "--trials", "1",
            "--n", "256",
        ]
    )
    assert rc == 2
    assert "repeated: pes-wavelet" in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["denoise", "experiment"])
def test_strict_mode_is_refused(verb, tmp_path, capsys):
    # The projection has one normalisation, nnz+1; no flag or key picks another.
    argv = [verb, "--signal", "cusp", "--noise", "0.1", "--n", "256"]
    argv += ["--trials", "1"] if verb == "experiment" else []
    assert run(argv) == 0
    assert run(argv + ["--strict-paper"]) == 2
    cfg = tmp_path / "strict.cfg"
    cfg.write_text("strict-paper=1\n")  # a key may be spelt with - or _
    capsys.readouterr()
    assert run(argv + ["--config", str(cfg)]) == 2
    assert "unknown config key 'strict-paper'" in capsys.readouterr().err


def test_config_keys_and_flags_are_one_schema(tmp_path, capsys):
    # Every verb's flags are the options its _VERBS entry names, in that
    # order, each built from its one _OPTIONS entry: a flag has one type,
    # repeatability, choices and help in every verb that takes it.  The
    # config file reads its keys from the same table, all but config.
    parser = build_parser()
    verbs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert list(verbs.choices) == list(_VERBS)
    for name, verb in verbs.choices.items():
        actions = [action for action in verb._actions if action.dest != "help"]
        assert [action.dest for action in actions] == _VERBS[name][2].split(), name
        for action in actions:
            option = _OPTIONS[action.dest]
            repeats = isinstance(action, argparse._AppendAction)
            assert repeats == (option.get("action") == "append"), (name, action.dest)
            assert action.type == option.get("type"), (name, action.dest)
            assert action.choices == option.get("choices"), (name, action.dest)
            assert action.help == option["help"], (name, action.dest)
    cfg = tmp_path / "nested.cfg"
    cfg.write_text(f"config={cfg}\n")
    assert run(["generate", "--signal", "blocks", "--n", "64", "--config", str(cfg)]) == 2
    assert "unknown config key 'config'" in capsys.readouterr().err


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "pes_denoise", "generate", "--signal", "blocks",
         "--n", "32", "--out", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert (tmp_path / "blocks.csv").exists()

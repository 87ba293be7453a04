"""Command-line interface.

Verbs: generate, denoise, spectrum, experiment.  Each option is declared
once, in _OPTIONS, and each verb names the options it reads, in _VERBS.
Options may also come from a key=value config file (--config); explicit
flags win.  An option left unset takes the library's default.  Exit
codes: 0 success, 2 invalid configuration, 1 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, replace

import numpy as np

from .denoise import METHODS, DenoiseConfig, clamp_depth, denoise
from .harness import DEFAULT_METHODS, ExperimentSpec, emit_csv, emit_spectrum_csv, run_experiment
from .signals import (
    SIGNAL_NAMES,
    NoiseSpec,
    add_gaussian_noise,
    generate_test_signal,
    signal_to_csv,
    snr_db,
)
from .spectrum import estimate_bandwidth, magnitude_spectrum
from .transforms import DEFAULT_BANK


# dest -> the add_argument keywords of its flag --dest.  A config file's
# keys are these dests but config: a key's value takes the flag's type,
# split on commas where the flag repeats.
_OPTIONS = {
    "config": dict(help="key=value file; explicit flags win"),
    "out": dict(help="output directory (default: CSV to stdout)"),
    "n": dict(type=int, help=f"signal length (default {ExperimentSpec.n})"),
    "signal": dict(action="append", choices=SIGNAL_NAMES, help="signal name"),
    "noise": dict(action="append", type=float, help="noise fraction of peak"),
    "seed": dict(type=int, help=f"RNG seed (default {NoiseSpec.seed})"),
    "method": dict(action="append", choices=METHODS, help="denoising method"),
    "levels": dict(type=int, help="decomposition depth (default: from spectrum)"),
    "bank": dict(help=f"wavelet filter bank (default {DenoiseConfig.bank})"),
    "trials": dict(type=int, help=f"trials per cell (default {ExperimentSpec.trials})"),
}


def _load_config_file(path: str) -> dict:
    values: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, _, value = line.partition("=")
            dest = key.strip().lower().replace("-", "_")
            if dest not in _OPTIONS or dest == "config":
                raise ValueError(f"{path}:{lineno}: unknown config key {key.strip()!r}")
            option = _OPTIONS[dest]
            caster = option.get("type", str)
            try:
                if option.get("action") == "append":
                    values[dest] = [caster(part.strip()) for part in value.split(",") if part.strip()]
                else:
                    values[dest] = caster(value.strip())
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad value for {key.strip()}: {exc}") from None
    return values


def _merge(ns: argparse.Namespace) -> argparse.Namespace:
    """Fill unset flags from the config file.

    Options still unset stay None, so the library's defaults apply, but
    for the length: generate_test_signal has no default, so every verb
    takes the experiment's.
    """
    file_values = _load_config_file(ns.config) if ns.config else {}
    for dest, value in file_values.items():
        if getattr(ns, dest, None) is None:
            setattr(ns, dest, value)
    if ns.n is None:
        ns.n = ExperimentSpec.n
    return ns


def _given(ns: argparse.Namespace, *dests: str) -> dict:
    """The values of dests that a flag or the config file set."""
    return {dest: getattr(ns, dest) for dest in dests if getattr(ns, dest, None) is not None}


def _single(ns: argparse.Namespace, dest: str):
    """The one value of the repeatable option dest, which this verb needs."""
    values = getattr(ns, dest)
    if values is None:
        raise ValueError(f"missing required option --{dest}")
    if len(values) != 1:
        raise ValueError(f"--{dest} takes a single value here, got {values}")
    return values[0]


def _write_or_print(out_dir: str | None, filename: str, content: str) -> None:
    if out_dir is None:
        sys.stdout.write(content)
        return
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, filename), "w", encoding="utf-8", newline="") as fh:
        fh.write(content)


def _cmd_generate(ns: argparse.Namespace) -> int:
    name = _single(ns, "signal")
    clean = generate_test_signal(name, ns.n)
    _write_or_print(ns.out, f"{name}.csv", signal_to_csv(clean))
    return 0


def _cmd_denoise(ns: argparse.Namespace) -> int:
    name = _single(ns, "signal")
    fraction = _single(ns, "noise")
    tuning = _given(ns, "bank", "levels")
    if ns.method is not None:
        tuning["method"] = _single(ns, "method")
    clean = generate_test_signal(name, ns.n)
    noisy = add_gaussian_noise(clean, NoiseSpec(fraction, **_given(ns, "seed")))
    denoised = denoise(noisy, DenoiseConfig(**tuning))
    if ns.out is None:
        sys.stdout.write(signal_to_csv(denoised))
    else:
        _write_or_print(ns.out, f"{name}_clean.csv", signal_to_csv(clean))
        _write_or_print(ns.out, f"{name}_noisy.csv", signal_to_csv(noisy))
        _write_or_print(ns.out, f"{name}_denoised.csv", signal_to_csv(denoised))
        sys.stdout.write(
            f"input_snr_db={snr_db(clean, noisy):.4f} "
            f"output_snr_db={snr_db(clean, denoised):.4f}\n"
        )
    return 0


def _cmd_spectrum(ns: argparse.Namespace) -> int:
    name = _single(ns, "signal")
    x = generate_test_signal(name, ns.n)
    if ns.noise is not None:
        x = add_gaussian_noise(x, NoiseSpec(_single(ns, "noise"), **_given(ns, "seed")))
    mag = magnitude_spectrum(x)
    estimate = estimate_bandwidth(mag)
    omegas = np.arange(mag.shape[0]) * (2 * math.pi / ns.n)
    _write_or_print(ns.out, f"{name}_spectrum.csv", emit_spectrum_csv(omegas, mag))
    depths = " ".join(f"{m}={clamp_depth(estimate.levels, DenoiseConfig(m), ns.n)}" for m in METHODS)
    sys.stderr.write(
        f"omega0={estimate.omega0:.6f} levels={estimate.levels} "
        f"noise_floor={estimate.noise_floor:.6f} degenerate={estimate.degenerate}\n"
        f"depth by method (DWT bank {DEFAULT_BANK}): {depths}\n"
    )
    return 0


# option -> the ExperimentSpec field it sets, when given
_SPEC_FIELDS = {
    "signal": "signals",
    "noise": "noise_fractions",
    "trials": "trials",
    "seed": "base_seed",
    "n": "n",
}


def _cmd_experiment(ns: argparse.Namespace) -> int:
    configs = DEFAULT_METHODS if ns.method is None else map(DenoiseConfig, ns.method)
    given = _given(ns, *_SPEC_FIELDS).items()
    spec = ExperimentSpec(
        methods=tuple(replace(cfg, **_given(ns, "bank", "levels")) for cfg in configs),
        **{_SPEC_FIELDS[dest]: tuple(v) if isinstance(v, list) else v for dest, v in given},
    )
    report = run_experiment(spec)
    _write_or_print(ns.out, "report.csv", emit_csv(report))
    if ns.out is not None:
        payload = {
            "rows": [asdict(row) for row in report.rows],
            "errors": list(report.errors),
        }
        _write_or_print(ns.out, "report.json", json.dumps(payload, indent=2, sort_keys=True) + "\n")
    for err in report.errors:
        sys.stderr.write(f"error: {err}\n")
    return 0 if not report.errors else 1


# verb -> (its help, its command, the options it reads in --help order).
# Each verb takes only the flags it reads; the config-file keys are the
# same for every verb, so one file can serve them all.
_VERBS = {
    "generate": ("emit a clean test signal as CSV", _cmd_generate, "config out n signal"),
    "denoise": (
        "denoise one noisy instance",
        _cmd_denoise,
        "config out n signal noise seed method levels bank",
    ),
    "spectrum": (
        "emit the magnitude spectrum and level choice",
        _cmd_spectrum,
        "config out n signal noise seed",
    ),
    "experiment": (
        "run the Monte-Carlo SNR table",
        _cmd_experiment,
        "config out n signal noise seed method levels bank trials",
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pes-denoise",
        description="1-D denoising with thresholds derived from epigraph projections",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for verb, (help_text, _, dests) in _VERBS.items():
        verb_parser = sub.add_parser(verb, help=help_text)
        for dest in dests.split():
            verb_parser.add_argument(f"--{dest}", **_OPTIONS[dest])
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        return int(exc.code or 0)
    try:
        ns = _merge(ns)
        return _VERBS[ns.command][1](ns)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except Exception as exc:  # noqa: BLE001 - surface as runtime failure
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface.

Verbs: generate, denoise, spectrum, experiment.  Options may also come
from a key=value config file (--config); explicit flags win.  Exit
codes: 0 success, 2 invalid configuration, 1 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from .denoise import METHODS, DenoiseConfig, clamp_depth, denoise
from .harness import (
    DEFAULT_FRACTIONS,
    DEFAULT_METHODS,
    DEFAULT_SIGNALS,
    ExperimentSpec,
    emit_csv,
    emit_spectrum_csv,
    run_experiment,
)
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


# dest -> (caster, splits on commas)
_CONFIG_KEYS = {
    "signal": (str, True),
    "noise": (float, True),
    "method": (str, True),
    "trials": (int, False),
    "seed": (int, False),
    "levels": (int, False),
    "bank": (str, False),
    "n": (int, False),
    "out": (str, False),
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
            if dest not in _CONFIG_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown config key {key.strip()!r}")
            caster, is_list = _CONFIG_KEYS[dest]
            try:
                if is_list:
                    values[dest] = [caster(part.strip()) for part in value.split(",") if part.strip()]
                else:
                    values[dest] = caster(value.strip())
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad value for {key.strip()}: {exc}") from None
    return values


def _merge(ns: argparse.Namespace) -> argparse.Namespace:
    """Fill unset flags from the config file, then the CLI's own defaults.

    Library options left unset stay None, so the library's defaults apply.
    """
    file_values = _load_config_file(ns.config) if ns.config else {}
    for dest, value in file_values.items():
        if getattr(ns, dest, None) is None:
            setattr(ns, dest, value)
    for dest, value in (("seed", 0), ("n", 1024), ("trials", 300)):
        if getattr(ns, dest, None) is None:
            setattr(ns, dest, value)
    return ns


def _given(ns: argparse.Namespace, *dests: str) -> dict:
    """The values of dests that a flag or the config file set."""
    return {dest: getattr(ns, dest) for dest in dests if getattr(ns, dest, None) is not None}


def _require(ns: argparse.Namespace, *dests: str) -> None:
    for dest in dests:
        if getattr(ns, dest, None) is None:
            raise ValueError(f"missing required option --{dest.replace('_', '-')}")


def _single(value, dest: str):
    if isinstance(value, list):
        if len(value) != 1:
            raise ValueError(f"--{dest} takes a single value here, got {value}")
        return value[0]
    return value


def _write_or_print(out_dir: str | None, filename: str, content: str) -> None:
    if out_dir is None:
        sys.stdout.write(content)
        return
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, filename), "w", encoding="utf-8", newline="") as fh:
        fh.write(content)


def _denoise_config(ns: argparse.Namespace, method: str) -> DenoiseConfig:
    return DenoiseConfig(method=method, **_given(ns, "bank", "levels"))


def _cmd_generate(ns: argparse.Namespace) -> int:
    _require(ns, "signal")
    name = _single(ns.signal, "signal")
    clean = generate_test_signal(name, ns.n)
    _write_or_print(ns.out, f"{name}.csv", signal_to_csv(clean))
    return 0


def _cmd_denoise(ns: argparse.Namespace) -> int:
    _require(ns, "signal", "noise")
    name = _single(ns.signal, "signal")
    fraction = _single(ns.noise, "noise")
    method = _single(ns.method, "method") if ns.method is not None else "pes-wavelet"
    clean = generate_test_signal(name, ns.n)
    noisy = add_gaussian_noise(clean, NoiseSpec(fraction, ns.seed))
    denoised = denoise(noisy, _denoise_config(ns, method))
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
    _require(ns, "signal")
    name = _single(ns.signal, "signal")
    x = generate_test_signal(name, ns.n)
    if ns.noise is not None:
        x = add_gaussian_noise(x, NoiseSpec(_single(ns.noise, "noise"), ns.seed))
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


def _cmd_experiment(ns: argparse.Namespace) -> int:
    signals = tuple(ns.signal) if ns.signal is not None else DEFAULT_SIGNALS
    fractions = tuple(ns.noise) if ns.noise is not None else DEFAULT_FRACTIONS
    method_names = ns.method if ns.method is not None else [cfg.method for cfg in DEFAULT_METHODS]
    methods = tuple(_denoise_config(ns, m) for m in method_names)
    spec = ExperimentSpec(
        signals=signals,
        noise_fractions=fractions,
        trials=ns.trials,
        methods=methods,
        base_seed=ns.seed,
        n=ns.n,
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


_COMMANDS = {
    "generate": _cmd_generate,
    "denoise": _cmd_denoise,
    "spectrum": _cmd_spectrum,
    "experiment": _cmd_experiment,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pes-denoise",
        description="1-D denoising with thresholds derived from epigraph projections",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Each verb takes only the flags it reads.  Config-file keys are the
    # same for every verb, so one file can serve them all.
    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="key=value file; explicit flags win")
        p.add_argument("--out", help="output directory (default: CSV to stdout)")
        p.add_argument("--n", type=int, help="signal length (default 1024)")
        p.add_argument("--signal", action="append", choices=SIGNAL_NAMES, help="signal name")

    def add_noise_opts(p: argparse.ArgumentParser) -> None:
        p.add_argument("--noise", action="append", type=float, help="noise fraction of peak")
        p.add_argument("--seed", type=int, help="RNG seed (default 0)")

    def add_method_opts(p: argparse.ArgumentParser) -> None:
        add_noise_opts(p)
        p.add_argument("--method", action="append", choices=METHODS, help="denoising method")
        p.add_argument("--levels", type=int, help="decomposition depth (default: from spectrum)")
        p.add_argument("--bank", help="wavelet filter bank (default db4)")

    p_gen = sub.add_parser("generate", help="emit a clean test signal as CSV")
    add_common(p_gen)

    p_den = sub.add_parser("denoise", help="denoise one noisy instance")
    add_common(p_den)
    add_method_opts(p_den)

    p_spec = sub.add_parser("spectrum", help="emit the magnitude spectrum and level choice")
    add_common(p_spec)
    add_noise_opts(p_spec)

    p_exp = sub.add_parser("experiment", help="run the Monte-Carlo SNR table")
    add_common(p_exp)
    add_method_opts(p_exp)
    p_exp.add_argument("--trials", type=int, help="trials per cell (default 300)")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        return int(exc.code or 0)
    try:
        ns = _merge(ns)
        return _COMMANDS[ns.command](ns)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except Exception as exc:  # noqa: BLE001 - surface as runtime failure
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())

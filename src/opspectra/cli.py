"""Config-driven command line front end.

A run is described by one JSON config document and nothing else, so the
document alone reproduces the run:

    opspectra --config run.json

The config selects the command (simulate, autocov, fit-grid, filter,
compose, invert, ckl, hfpca, verify), names its input files and carries
numeric parameters.  Values are checked, never converted: counts
(``realizations``, ``period``, ``max_lag``) are positive integers of at
most ``2**31 - 1``, ``seed`` is a non-negative integer, ``real`` and
``strict_injectivity`` are booleans, ``rank_tol`` is a finite non-negative
number (for ``invert`` only the injectivity threshold), ``q`` is an
integer or a list of integers and paths are strings.
All file formats are the JSON encodings of :mod:`opspectra.serialization`.
The special input value ``"bundled"`` refers to the built-in example
measure.

Exit status: 0 on success, 1 on a domain error (message on stderr), 2 on
unusable configuration, a run whose arrays cannot be allocated included.
A failing run prints its one-line message and nothing else on stderr;
numpy's floating-point warnings are printed only by a run that does not
fail.  Outputs are written in place as they are encoded, so a run cut
short while writing leaves a truncated, unreadable output file.
The environment variable ``OPSPECTRA_VERBOSITY`` (0 quiet, 1 default)
controls informational output.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings

import numpy as np

from .bochner import autocov_from_povm, povm_from_autocov_grid
from .decomposition import ckl_decompose, hfpca_report
from .errors import FormatError, OpSpectraError
from .filtering import (
    apply_fir_time,
    compose_transfer,
    invert_transfer,
    pushforward_povm,
)
from .random_measure import (
    sample_gaussian_measure,
    sample_real_gaussian_measure,
    synthesize_process,
)
from .serialization import (
    decode_autocov,
    decode_fir,
    decode_povm,
    decode_series,
    decode_transfer,
    encode_autocov,
    encode_pairs,
    encode_povm,
    encode_series,
    encode_transfer,
    read_json,
    write_json,
)
from .synthetic import bundled_example_povm
from .verify import emit_report, human_summary, run_battery


class ConfigError(Exception):
    """Unusable run configuration (maps to exit status 2)."""


def _verbosity() -> int:
    try:
        return int(os.environ.get("OPSPECTRA_VERBOSITY", "1"))
    except ValueError:
        return 1


def _info(message: str) -> None:
    if _verbosity() >= 1:
        print(message)


def _is_int(value) -> bool:
    # the rule of serialization._integer: a boolean is not an integer
    return type(value) is int


# Largest count a config may set: any larger count asks for an array of at
# least 2**31 complex entries (32 GiB).
_MAX_COUNT = 2**31 - 1

# One type rule per kind of config value: a check and what it demands.
_RULES = {
    "count": (
        lambda v: _is_int(v) and 0 < v <= _MAX_COUNT,
        f"a positive integer of at most {_MAX_COUNT}",
    ),
    "seed": (lambda v: _is_int(v) and v >= 0, "a non-negative integer"),
    "flag": (lambda v: type(v) is bool, "true or false"),
    "tolerance": (
        lambda v: type(v) in (int, float) and 0 <= v <= sys.float_info.max,
        "a finite non-negative number",
    ),
    "ranks": (
        lambda v: _is_int(v) or (type(v) is list and all(map(_is_int, v))),
        "an integer or a list of integers",
    ),
    "path": (lambda v: type(v) is str, "a path string"),
}


def _read(config: dict, key: str, kind: str, default=None):
    """``config[key]`` checked against the rule for ``kind``; a missing key
    without a default, or a value of another type, is unusable
    configuration.  Values are checked, never converted."""
    if key not in config:
        if default is None:
            raise ConfigError(f"config is missing the required key {key!r}")
        return default
    value = config[key]
    check, demand = _RULES[kind]
    if not check(value):
        raise ConfigError(f"config key {key!r} must be {demand}, got {value!r}")
    return value


def _load(config: dict, key: str, decode):
    """Read the JSON file named by ``config[key]`` and decode it.

    Unreadable files, documents the decoder cannot parse and arrays that
    do not match their declared counts are unusable configuration; domain
    errors raised while building the value pass through.
    """
    path = _read(config, key, "path")
    try:
        obj = read_json(path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read input {path!r}: {exc}") from exc
    try:
        return decode(obj)
    except FormatError as exc:
        raise ConfigError(f"input {path!r} is malformed: {exc}") from exc
    except OpSpectraError:
        raise
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"input {path!r} is malformed: {exc!r}") from exc


def _load_povm(config: dict):
    if config.get("povm") == "bundled":
        return bundled_example_povm()
    return _load(config, "povm", decode_povm)


def _write(config: dict, obj) -> None:
    path = _read(config, "out", "path")
    try:
        write_json(obj, path)
    except OSError as exc:
        raise ConfigError(f"cannot write output {path!r}: {exc}") from exc


def _cmd_simulate(config: dict) -> int:
    nu = _load_povm(config)
    n_real = _read(config, "realizations", "count")
    period = _read(config, "period", "count")
    seed = _read(config, "seed", "seed", 0)
    if _read(config, "real", "flag", False):
        w = sample_real_gaussian_measure(nu, n_real, seed)
    else:
        w = sample_gaussian_measure(nu, n_real, seed)
    series = synthesize_process(w, period)
    del nu, w  # the samples are not held while the series is encoded
    _write(config, encode_series(series))
    _info(f"simulated {n_real} realizations over period {period}")
    return 0


def _cmd_autocov(config: dict) -> int:
    nu = _load_povm(config)
    max_lag = _read(config, "max_lag", "count")
    _write(config, encode_autocov(autocov_from_povm(nu, max_lag)))
    _info(f"wrote autocovariance up to lag {max_lag}")
    return 0


def _cmd_fit_grid(config: dict) -> int:
    gamma = _load(config, "autocov", decode_autocov)
    m = _read(config, "period", "count")
    _write(config, encode_povm(povm_from_autocov_grid(gamma, m)))
    _info(f"recovered {m} grid atoms")
    return 0


def _cmd_filter(config: dict) -> int:
    if "fir" in config and "series" in config:
        fir = _load(config, "fir", decode_fir)
        series = _load(config, "series", decode_series)
        filtered = apply_fir_time(fir, series)
        del series  # the input is not held while the output is encoded
        _write(config, encode_series(filtered))
        _info("applied FIR filter in the time domain")
        return 0
    if "transfer" in config and "povm" in config:
        phi = _load(config, "transfer", decode_transfer)
        nu = _load_povm(config)
        _write(config, encode_povm(pushforward_povm(phi, nu)))
        _info("wrote the pushforward spectral measure")
        return 0
    raise ConfigError(
        "filter needs either {'transfer', 'povm'} or {'fir', 'series'} inputs"
    )


def _cmd_compose(config: dict) -> int:
    outer_tf = _load(config, "outer", decode_transfer)
    inner_tf = _load(config, "inner", decode_transfer)
    rank_tol = _read(config, "rank_tol", "tolerance", 1e-12)
    composed = compose_transfer(outer_tf, inner_tf, rank_tol=rank_tol)
    _write(config, encode_transfer(composed))
    _info("wrote the composed transfer function")
    return 0


def _cmd_invert(config: dict) -> int:
    phi = _load(config, "transfer", decode_transfer)
    nu = _load_povm(config)
    rank_tol = _read(config, "rank_tol", "tolerance", 1e-10)
    strict = _read(config, "strict_injectivity", "flag", False)
    inverse = invert_transfer(phi, nu, rank_tol=rank_tol, strict=strict)
    _write(config, encode_transfer(inverse))
    _info("wrote the inverse transfer function")
    return 0


def _cmd_ckl(config: dict) -> int:
    nu = _load_povm(config)
    sys_ = ckl_decompose(nu)
    # vectors[j][n] is the n-th eigenvector (column) of atom j
    vectors = encode_pairs(np.swapaxes(sys_.eigenvectors, 1, 2))
    atoms = [
        {"freq": f, "sigmas": s, "vectors": v, "rank": r, "base_weight": w}
        for f, s, v, r, w in zip(
            sys_.povm.freqs.tolist(), sys_.eigenvalues.tolist(), vectors,
            sys_.ranks.tolist(), sys_.base_weights.tolist(),
        )
    ]
    _write(config, {"dim": sys_.dim, "atoms": atoms})
    _info(f"wrote eigendecompositions of {sys_.n_atoms} atoms")
    return 0


def _cmd_hfpca(config: dict) -> int:
    nu = _load_povm(config)
    q = _read(config, "q", "ranks")
    report = hfpca_report(nu, q)
    _write(config, report)
    _info(
        f"optimal error {report['optimal_error']:.6e},"
        f" achieved {report['achieved_error']:.6e}"
    )
    return 0


def _cmd_verify(config: dict) -> int:
    seed = _read(config, "seed", "seed", 20260809)
    povm = _load_povm(config) if "povm" in config else None
    results = run_battery(seed=seed, povm=povm)
    if "out" in config:
        _write(config, emit_report(results))
    _info(human_summary(results))
    return 0 if all(r.passed for r in results) else 1


_DISPATCH = {
    "simulate": _cmd_simulate,
    "autocov": _cmd_autocov,
    "fit-grid": _cmd_fit_grid,
    "filter": _cmd_filter,
    "compose": _cmd_compose,
    "invert": _cmd_invert,
    "ckl": _cmd_ckl,
    "hfpca": _cmd_hfpca,
    "verify": _cmd_verify,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opspectra",
        description="Spectral calculus for vector-valued stationary time"
        " series on atomic frequency measures.",
    )
    parser.add_argument("--config", required=True, help="JSON run configuration")
    return parser


def load_config(path) -> dict:
    try:
        config = read_json(path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    command = config.get("command")
    if type(command) is not str or command not in _DISPATCH:
        raise ConfigError(
            f"config key 'command' must be one of {', '.join(_DISPATCH)}"
        )
    return config


def _fail(message, status: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return status


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # warnings wait for the outcome: a run that fails prints its one-line
    # error alone (numpy warns of an overflow whose non-finite result the
    # library then rejects), any other run prints them after it
    with warnings.catch_warnings(record=True) as held:
        try:
            config = load_config(args.config)
            status = _DISPATCH[config["command"]](config)
        except ConfigError as exc:
            return _fail(exc, 2)
        except OpSpectraError as exc:
            return _fail(exc, 1)
        except MemoryError as exc:
            return _fail(f"out of memory: {exc}", 2)
    for w in held:
        warnings.showwarning(w.message, w.category, w.filename, w.lineno)
    return status


if __name__ == "__main__":
    sys.exit(main())

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opspectra import (
    AtomicTracePovm,
    ProcessSample,
    TransferFunction,
    autocov_from_povm,
)
from opspectra.cli import build_parser, main
from opspectra.serialization import (
    decode_povm,
    decode_series,
    decode_transfer,
    encode_autocov,
    encode_fir,
    encode_operator,
    encode_povm,
    encode_series,
    encode_transfer,
    read_json,
    write_json,
)
from opspectra.synthetic import (
    bundled_example_povm,
    make_rng,
    random_complex,
    random_fir,
    random_povm,
    random_psd,
    random_transfer,
)
from opspectra.verify import CheckResult


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("OPSPECTRA_VERBOSITY", "0")
    return tmp_path


def _source_root() -> str:
    """The directory that holds the imported ``opspectra`` package, for the
    ``PYTHONPATH`` of a CLI child."""
    import opspectra

    return str(Path(opspectra.__file__).resolve().parents[1])


def run_config(workdir, name, config):
    path = workdir / name
    write_json(config, path)
    return main(["--config", str(path)])


class TestSimulate:
    def test_deterministic_bytes(self, workdir):
        write_json(encode_povm(bundled_example_povm()), workdir / "povm.json")
        config = {
            "command": "simulate", "povm": "povm.json", "realizations": 2,
            "period": 8, "seed": 5, "out": "a.json",
        }
        assert run_config(workdir, "run.json", config) == 0
        assert run_config(workdir, "run2.json", config | {"out": "b.json"}) == 0
        assert (workdir / "a.json").read_bytes() == (workdir / "b.json").read_bytes()

    def test_seed_flag_changes_output(self, workdir):
        write_json(encode_povm(bundled_example_povm()), workdir / "povm.json")
        config = {
            "command": "simulate", "povm": "povm.json", "realizations": 2,
            "period": 8, "seed": 5, "out": "a.json",
        }
        assert run_config(workdir, "run.json", config) == 0
        assert run_config(
            workdir, "run2.json", config | {"out": "b.json", "seed": 6}
        ) == 0
        assert (workdir / "a.json").read_bytes() != (workdir / "b.json").read_bytes()

    def test_real_flag_gives_real_series(self, workdir):
        rng = make_rng(801)
        lam = 1.1
        w_pos = random_psd(rng, 2)
        w_zero = random_psd(rng, 2).real.astype(complex)
        w_pi = random_psd(rng, 2).real.astype(complex)
        nu = AtomicTracePovm(
            2,
            [-lam, 0.0, lam, np.pi],
            np.stack([w_pos.T, w_zero, w_pos, w_pi]),
        )
        write_json(encode_povm(nu), workdir / "povm.json")
        config = {
            "command": "simulate", "povm": "povm.json", "realizations": 4,
            "period": 6, "seed": 3, "out": "series.json",
        }
        assert run_config(workdir, "run.json", config | {"real": True}) == 0
        series = decode_series(read_json(workdir / "series.json"))
        assert np.abs(series.values.imag).max() <= 1e-12


class TestAutocovFitGrid:
    def test_round_trip(self, workdir):
        nu = bundled_example_povm()
        write_json(encode_povm(nu), workdir / "povm.json")
        assert run_config(workdir, "ac.json", {
            "command": "autocov", "povm": "povm.json", "max_lag": 15,
            "out": "gamma.json",
        }) == 0
        assert run_config(workdir, "fit.json", {
            "command": "fit-grid", "autocov": "gamma.json", "period": 16,
            "out": "back.json",
        }) == 0
        back = decode_povm(read_json(workdir / "back.json"))
        assert np.abs(back.weights - nu.weights).max() <= 1e-10

    def test_frequency_that_is_not_a_number_exits_2(self, workdir, capsys):
        doc = encode_povm(bundled_example_povm())
        doc["atoms"][3]["freq"] = str(doc["atoms"][3]["freq"])
        write_json(doc, workdir / "povm.json")
        assert run_config(workdir, "ac.json", {
            "command": "autocov", "povm": "povm.json", "max_lag": 3,
            "out": "gamma.json",
        }) == 2
        assert "'freq'" in capsys.readouterr().err
        assert not (workdir / "gamma.json").exists()

    def test_entry_that_is_not_a_number_exits_2(self, workdir, capsys):
        doc = encode_povm(bundled_example_povm())
        doc["atoms"][0]["weight"]["entries"][0] = ["1", False]
        write_json(doc, workdir / "povm.json")
        assert run_config(workdir, "ac.json", {
            "command": "autocov", "povm": "povm.json", "max_lag": 3,
            "out": "gamma.json",
        }) == 2
        assert "JSON numbers" in capsys.readouterr().err

    def test_frequency_beyond_the_float_range_exits_2(self, workdir, capsys):
        doc = encode_povm(bundled_example_povm())
        doc["atoms"][3]["freq"] = 10**400
        write_json(doc, workdir / "povm.json")
        assert run_config(workdir, "ac.json", {
            "command": "autocov", "povm": "povm.json", "max_lag": 3,
            "out": "gamma.json",
        }) == 2
        assert "float range" in capsys.readouterr().err
        assert not (workdir / "gamma.json").exists()

    def test_bundled_input_alias(self, workdir):
        assert run_config(workdir, "ac.json", {
            "command": "autocov", "povm": "bundled", "max_lag": 3,
            "out": "gamma.json",
        }) == 0

    def test_rejects_non_positive_type(self, workdir, capsys):
        values = np.stack([np.eye(2) + 0j] + [2.0 * np.eye(2) + 0j] * 3)
        from opspectra import AutocovarianceSequence

        gamma = AutocovarianceSequence(2, 3, values)
        write_json(encode_autocov(gamma), workdir / "gamma.json")
        status = run_config(workdir, "fit.json", {
            "command": "fit-grid", "autocov": "gamma.json", "period": 4,
            "out": "back.json",
        })
        assert status == 1
        assert "not of positive type" in capsys.readouterr().err


class TestFilterCommands:
    def test_pushforward_route(self, workdir):
        rng = make_rng(802)
        nu = random_povm(rng, 3, 4)
        phi = random_transfer(rng, 3, 2, nu.freqs)
        write_json(encode_povm(nu), workdir / "povm.json")
        write_json(encode_transfer(phi), workdir / "phi.json")
        assert run_config(workdir, "f.json", {
            "command": "filter", "transfer": "phi.json", "povm": "povm.json",
            "out": "pushed.json",
        }) == 0
        pushed = decode_povm(read_json(workdir / "pushed.json"))
        assert pushed.dim == 2

    def test_fir_series_route(self, workdir):
        rng = make_rng(803)
        x = ProcessSample(2, 6, np.zeros((2, 6, 2), dtype=complex))
        fir = random_fir(rng, 2, 2, 3)
        write_json(encode_series(x), workdir / "x.json")
        write_json(encode_fir(fir), workdir / "fir.json")
        assert run_config(workdir, "f.json", {
            "command": "filter", "fir": "fir.json", "series": "x.json",
            "out": "y.json",
        }) == 0
        y = decode_series(read_json(workdir / "y.json"))
        assert not y.values.any()

    def test_fir_with_a_repeated_lag_exits_2(self, workdir, capsys):
        x = ProcessSample(2, 6, np.zeros((2, 6, 2), dtype=complex))
        write_json(encode_series(x), workdir / "x.json")
        taps = [{"s": 0, "op": encode_operator(k * np.eye(2))} for k in (1, 2)]
        write_json({"taps": taps}, workdir / "fir.json")
        assert run_config(workdir, "f.json", {
            "command": "filter", "fir": "fir.json", "series": "x.json",
            "out": "y.json",
        }) == 2
        assert "lag 0 is given more than once" in capsys.readouterr().err
        assert not (workdir / "y.json").exists()

    def test_nested_transfer_frequencies_exit_2(self, workdir, capsys):
        nu = bundled_example_povm()
        doc = encode_transfer(random_transfer(make_rng(805), 3, 3, nu.freqs))
        doc["freqs"] = [doc["freqs"][:8], doc["freqs"][8:]]
        write_json(doc, workdir / "phi.json")
        assert run_config(workdir, "f.json", {
            "command": "filter", "transfer": "phi.json", "povm": "bundled",
            "out": "pushed.json",
        }) == 2
        assert "'freqs'" in capsys.readouterr().err

    def test_transfer_frequency_beyond_the_float_range_exits_2(self, workdir, capsys):
        nu = bundled_example_povm()
        doc = encode_transfer(random_transfer(make_rng(805), 3, 3, nu.freqs))
        write_json(doc, workdir / "phi.json")
        doc["freqs"][0] = 10**400
        write_json(doc, workdir / "psi.json")
        assert run_config(workdir, "c.json", {
            "command": "compose", "outer": "psi.json", "inner": "phi.json",
            "out": "composed.json",
        }) == 2
        assert "float range" in capsys.readouterr().err
        assert not (workdir / "composed.json").exists()

    def test_ambiguous_inputs_rejected(self, workdir, capsys):
        status = run_config(workdir, "f.json", {
            "command": "filter", "out": "y.json",
        })
        assert status == 2

    def test_compose_and_invert(self, workdir):
        rng = make_rng(804)
        nu = random_povm(rng, 3, 4)
        phi = random_transfer(rng, 3, 3, nu.freqs)
        psi = random_transfer(rng, 3, 2, nu.freqs)
        write_json(encode_povm(nu), workdir / "povm.json")
        write_json(encode_transfer(phi), workdir / "phi.json")
        write_json(encode_transfer(psi), workdir / "psi.json")
        assert run_config(workdir, "c.json", {
            "command": "compose", "outer": "psi.json", "inner": "phi.json",
            "out": "composed.json",
        }) == 0
        composed = decode_transfer(read_json(workdir / "composed.json"))
        expected = np.einsum("jab,jbc->jac", psi.ops, phi.ops)
        np.testing.assert_array_equal(composed.ops, expected)
        assert run_config(workdir, "i.json", {
            "command": "invert", "transfer": "phi.json", "povm": "povm.json",
            "out": "inv.json",
        }) == 0
        inv = decode_transfer(read_json(workdir / "inv.json"))
        assert inv.domains is not None

    def test_strict_injectivity_flag(self, workdir, capsys):
        rng = make_rng(805)
        nu = random_povm(rng, 3, 2)
        ops = random_transfer(rng, 3, 3, nu.freqs).ops.copy()
        ops[0] = np.diag([1.0, 1.0, 0.0])
        phi = TransferFunction(3, 3, nu.freqs, ops)
        write_json(encode_povm(nu), workdir / "povm.json")
        write_json(encode_transfer(phi), workdir / "phi.json")
        config = {
            "command": "invert", "transfer": "phi.json", "povm": "povm.json",
            "out": "inv.json",
        }
        status = run_config(
            workdir, "i.json", config | {"strict_injectivity": True}
        )
        assert status == 1
        assert "not injective" in capsys.readouterr().err


class TestReports:
    def test_ckl_report_schema(self, workdir):
        write_json(encode_povm(bundled_example_povm()), workdir / "povm.json")
        assert run_config(workdir, "c.json", {
            "command": "ckl", "povm": "povm.json", "out": "report.json",
        }) == 0
        report = read_json(workdir / "report.json")
        assert report["dim"] == 3
        atom = report["atoms"][0]
        assert set(atom) == {"freq", "sigmas", "vectors", "rank", "base_weight"}
        assert len(atom["sigmas"]) == 3
        assert len(atom["vectors"]) == 3
        assert len(atom["vectors"][0]) == 3

    def test_hfpca_report_schema(self, workdir):
        write_json(encode_povm(bundled_example_povm()), workdir / "povm.json")
        assert run_config(workdir, "h.json", {
            "command": "hfpca", "povm": "povm.json", "q": 2,
            "out": "report.json",
        }) == 0
        report = read_json(workdir / "report.json")
        assert set(report) == {"q", "optimal_error", "achieved_error", "tie_warnings"}
        assert report["achieved_error"] == pytest.approx(
            report["optimal_error"], abs=1e-10 * max(1.0, report["optimal_error"])
        )

    def test_hfpca_rank_beyond_int64_means_dim(self, workdir):
        config = {"command": "hfpca", "povm": "bundled", "q": 3, "out": "dim.json"}
        assert run_config(workdir, "d.json", config) == 0
        assert run_config(
            workdir, "h.json", config | {"q": 10**23, "out": "huge.json"}
        ) == 0
        dim_report = (workdir / "dim.json").read_bytes()
        assert (workdir / "huge.json").read_bytes() == dim_report


class TestVerifyDispatch:
    def test_report_and_exit_status(self, workdir, monkeypatch):
        canned = [
            CheckResult("a", "prop a", "pass", 0.0, 1.0),
            CheckResult("b", "prop b", "pass", 0.5, 1.0),
        ]
        monkeypatch.setattr("opspectra.cli.run_battery", lambda **kw: canned)
        assert run_config(workdir, "v.json", {
            "command": "verify", "out": "report.json",
        }) == 0
        report = read_json(workdir / "report.json")
        assert [row["check_id"] for row in report] == ["a", "b"]
        assert set(report[0]) == {
            "check_id", "property", "status", "metric", "tolerance", "details",
        }

    def test_measure_with_an_eigenvalue_above_the_rank_cut_passes(self, workdir):
        nu = AtomicTracePovm(3, [0.0, 1.0], [np.diag([1.0, 1e-13, 0.5]), np.eye(3)])
        write_json(encode_povm(nu), workdir / "povm.json")
        config = {"command": "verify", "povm": "povm.json", "out": "report.json"}
        assert run_config(workdir, "v.json", config) == 0
        report = read_json(workdir / "report.json")
        assert [row["status"] for row in report] == ["pass"] * 10

    def test_failing_check_exits_one(self, workdir, monkeypatch):
        canned = [CheckResult("a", "prop a", "fail", 2.0, 1.0)]
        monkeypatch.setattr("opspectra.cli.run_battery", lambda **kw: canned)
        assert run_config(workdir, "v.json", {"command": "verify"}) == 1


SIMULATE = {"command": "simulate", "povm": "bundled", "realizations": 2,
            "period": 8, "out": "s.json"}
INVERT = {"command": "invert", "transfer": "phi.json", "povm": "bundled",
          "out": "inv.json"}
BUNDLED_PHI = random_transfer(make_rng(806), 3, 3, bundled_example_povm().freqs)


class TestConfigErrors:
    def test_unknown_command(self, workdir):
        assert run_config(workdir, "bad.json", {"command": "nope"}) == 2

    def test_missing_key(self, workdir):
        assert run_config(workdir, "bad.json", {"command": "autocov"}) == 2

    def test_unreadable_config(self, workdir):
        (workdir / "broken.json").write_text("{not json")
        assert main(["--config", str(workdir / "broken.json")]) == 2

    def test_missing_input_file(self, workdir):
        assert run_config(workdir, "run.json", {
            "command": "autocov", "povm": "nope.json", "max_lag": 2,
            "out": "g.json",
        }) == 2

    @pytest.mark.parametrize(
        "config",
        [
            {"command": "autocov", "povm": "no_atoms.json", "max_lag": 2,
             "out": "g.json"},
            {"command": "simulate", "povm": "bundled", "realizations": "abc",
             "period": 4, "out": "s.json"},
            {"command": "hfpca", "povm": "bundled", "q": "x", "out": "h.json"},
            {"command": "autocov", "povm": "bundled", "max_lag": 2,
             "out": "no_such_dir/g.json"},
            {"command": "filter", "fir": "fir.json",
             "series": "unpaired_value.json", "out": "y.json"},
            {"command": "filter", "fir": "fir.json",
             "series": "missing_realization.json", "out": "y.json"},
            {"command": "filter", "fir": "fir.json",
             "series": "missing_time_step.json", "out": "y.json"},
            {"command": "filter", "fir": "fir_extra_entry.json",
             "series": "series.json", "out": "y.json"},
            {"command": "filter", "fir": "fir.json",
             "series": "fractional_dim.json", "out": "y.json"},
            SIMULATE | {"period": 8.9},
            SIMULATE | {"realizations": True},
            SIMULATE | {"seed": -1},
            SIMULATE | {"period": float("inf")},
            SIMULATE | {"real": "false"},
            INVERT | {"strict_injectivity": "no"},
            INVERT | {"rank_tol": float("nan")},
            {"command": "hfpca", "povm": "bundled", "q": [1.9] + [1] * 15,
             "out": "h.json"},
            SIMULATE | {"command": ["simulate"]},
            {"command": "autocov", "povm": "bundled", "max_lag": 10**30,
             "out": "g.json"},
            SIMULATE | {"realizations": 10**14},
            SIMULATE | {"period": 10**14},
        ],
        ids=["measure-without-atoms", "text-realizations", "text-q",
             "unwritable-out", "series-value-not-a-pair",
             "series-missing-realization", "series-missing-time-step",
             "operator-entry-count", "series-fractional-dim",
             "fractional-period", "boolean-realizations", "negative-seed",
             "infinite-period", "text-real", "text-strict-injectivity",
             "nan-rank-tol", "fractional-q", "command-list", "huge-max-lag",
             "huge-realizations", "huge-period"],
    )
    def test_malformed_input_exits_two(self, workdir, capsys, config):
        write_json(encode_transfer(BUNDLED_PHI), workdir / "phi.json")
        write_json({"dim": 3}, workdir / "no_atoms.json")
        one = {"rows": 1, "cols": 1, "entries": [[1.0, 0.0]]}
        write_json({"taps": [{"s": 0, "op": one}]}, workdir / "fir.json")
        write_json(
            {"taps": [{"s": 0, "op": one | {"entries": [[1.0, 0.0]] * 2}}]},
            workdir / "fir_extra_entry.json",
        )
        series = {"dim": 1, "period": 2, "realizations": 1,
                  "values": [[[[1.0, 0.0]], [[2.0, 0.0]]]]}
        for name, doc in {
            "series.json": series,
            "unpaired_value.json": series | {"values": [[[1.0], [[2.0, 0.0]]]]},
            "missing_realization.json": series | {"realizations": 2},
            "missing_time_step.json": series | {"values": [[[[1.0, 0.0]]]]},
            "fractional_dim.json": series | {"dim": 1.9},
        }.items():
            write_json(doc, workdir / name)
        assert run_config(workdir, "run.json", config) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "config",
        [{"command": "ckl", "povm": "nan_povm.json", "out": "o.json"},
         INVERT | {"transfer": "nan_phi.json", "povm": "povm.json"}],
        ids=["ckl-nan-freq", "invert-nan-freqs"],
    )
    def test_nan_frequency_exits_one(self, workdir, capsys, config):
        # one atom, so the NaN support has the size of the measure's
        nu = AtomicTracePovm(1, [0.0], [np.eye(1)])
        measure = encode_povm(nu)
        write_json(measure, workdir / "povm.json")
        measure["atoms"][0]["freq"] = float("nan")
        write_json(measure, workdir / "nan_povm.json")
        transfer = encode_transfer(TransferFunction(1, 1, nu.freqs, [np.eye(1)]))
        write_json(transfer | {"freqs": [float("nan")]}, workdir / "nan_phi.json")
        assert run_config(workdir, "run.json", config) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "finite" in err
        assert not (workdir / config["out"]).exists()

    def test_overflow_exits_one_with_one_line(self, workdir):
        # the sum overflows inside numpy, which warns on stderr; the run
        # still fails on the non-finite result, with its message alone
        nu = AtomicTracePovm(1, [0.0, 1.0], np.full((2, 1, 1), 1e308))
        write_json(encode_povm(nu), workdir / "povm.json")
        write_json({"command": "autocov", "povm": "povm.json", "max_lag": 3,
                    "out": "g.json"}, workdir / "run.json")
        proc = subprocess.run(
            [sys.executable, "-m", "opspectra.cli", "--config", "run.json"],
            cwd=workdir, capture_output=True, text=True,
            env=os.environ | {"PYTHONPATH": _source_root()},
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert "finite" in proc.stderr

    @pytest.mark.parametrize("command", ["ckl", "hfpca"])
    def test_huge_weights_decompose_or_exit_one(self, workdir, command):
        # 1e308 is finite and so is its Hermitian part; three of them on a
        # diagonal overflow the trace, which the measure refuses
        def run(measure, n_atoms):
            write_json(measure, workdir / "povm.json")
            write_json({"command": command, "povm": "povm.json", "out": "o.json",
                        "q": [1] * n_atoms}, workdir / "run.json")
            return subprocess.run(
                [sys.executable, "-m", "opspectra.cli", "--config", "run.json"],
                cwd=workdir, capture_output=True, text=True,
                env=os.environ | {"PYTHONPATH": _source_root()},
            )

        def refuse(name):
            raise ValueError(f"{name} in the output")

        nu = AtomicTracePovm(1, [0.0, 1.0], np.full((2, 1, 1), 1e308))
        proc = run(encode_povm(nu), 2)
        assert proc.returncode == 0, proc.stderr
        json.loads((workdir / "o.json").read_text(), parse_constant=refuse)
        (workdir / "o.json").unlink()
        measure = encode_povm(AtomicTracePovm(3, [0.0], [np.eye(3)]))
        weight = measure["atoms"][0]["weight"]
        weight["entries"] = [[1e308 * re, im] for re, im in weight["entries"]]
        proc = run(measure, 1)
        assert proc.returncode == 1
        assert proc.stderr == "error: atom traces must be finite\n"
        assert not (workdir / "o.json").exists()

    def test_out_of_memory_exits_two(self, workdir, capsys, monkeypatch):
        def allocate(nu, max_lag):
            raise MemoryError("Unable to allocate 8.00 EiB for an array")

        monkeypatch.setattr("opspectra.cli.autocov_from_povm", allocate)
        assert run_config(workdir, "run.json", {
            "command": "autocov", "povm": "bundled", "max_lag": 2**31 - 1,
            "out": "g.json",
        }) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_empty_result_report(self, workdir):
        from opspectra.verify import emit_report

        rows = emit_report([])
        write_json(rows, workdir / "empty.json")
        assert rows == []
        assert json.loads((workdir / "empty.json").read_text()) == []


class TestConfigOnly:
    def test_parser_has_no_override_options(self):
        options = {
            opt for action in build_parser()._actions for opt in action.option_strings
        }
        assert options == {"--config", "-h", "--help"}

    def test_override_flag_is_rejected_by_argparse(self, workdir):
        write_json(SIMULATE, workdir / "run.json")
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(workdir / "run.json"), "--seed", "6"])
        assert exc.value.code == 2

    def test_import_loads_no_process_or_thread_pools(self):
        # the battery's determinism rerun imports subprocess only when it
        # runs, so CLI start-up, paid once per command, does not pay for
        # it; sampling draws every atom on the calling thread, even when
        # one atom's draw has R * dim = 2**14 entries
        src = _source_root()
        pools = ("subprocess", "multiprocessing", "concurrent.futures")
        probe = "\n".join([
            "import sys, threading, numpy as np, opspectra.cli",
            "from opspectra import AtomicTracePovm, sample_gaussian_measure",
            f"print([m for m in {pools} if m in sys.modules])",
            "nu = AtomicTracePovm(2, [0.0, 1.0], [np.eye(2)] * 2)",
            "sample_gaussian_measure(nu, 2**13, seed=1)",
            "print('concurrent.futures' in sys.modules, threading.active_count())",
        ])
        out = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True,
            check=True, env=os.environ | {"PYTHONPATH": src},
        ).stdout
        assert out.splitlines() == ["[]", "False 1"]


def _fuzz_inputs() -> dict:
    """Small valid input documents for every command of :data:`VALID`."""
    rng = make_rng(807)
    nu = bundled_example_povm()
    series = ProcessSample(3, 4, random_complex(rng, (2, 4, 3)))
    return {
        "povm.json": encode_povm(nu),
        "phi.json": encode_transfer(BUNDLED_PHI),
        "gamma.json": encode_autocov(autocov_from_povm(nu, 15)),
        "fir.json": encode_fir(random_fir(rng, 3, 3, 2)),
        "series.json": encode_series(series),
    }


FUZZ_INPUTS = _fuzz_inputs()
VALID = [
    SIMULATE | {"povm": "povm.json", "seed": 1, "real": False},
    {"command": "autocov", "povm": "bundled", "max_lag": 3, "out": "o.json"},
    {"command": "fit-grid", "autocov": "gamma.json", "period": 16, "out": "o.json"},
    {"command": "filter", "transfer": "phi.json", "povm": "bundled", "out": "o.json"},
    {"command": "filter", "fir": "fir.json", "series": "series.json", "out": "o.json"},
    {"command": "compose", "outer": "phi.json", "inner": "phi.json",
     "rank_tol": 1e-12, "out": "o.json"},
    INVERT | {"rank_tol": 1e-10, "strict_injectivity": False},
    {"command": "ckl", "povm": "povm.json", "out": "o.json"},
    {"command": "hfpca", "povm": "bundled", "q": [2] * 16, "out": "o.json"},
    {"command": "verify", "seed": 3, "povm": "bundled", "out": "o.json"},
]
VALID_IDS = ["simulate", "autocov", "fit-grid", "filter-transfer", "filter-fir",
             "compose", "invert", "ckl", "hfpca", "verify"]


class TestWrittenDocuments:
    """Every command writes one compact ``json.dumps`` of its document, and
    a write cut short leaves a file that no command reads."""

    @pytest.mark.parametrize("config", VALID, ids=VALID_IDS)
    def test_file_is_one_compact_dump(self, workdir, monkeypatch, config):
        for name, doc in FUZZ_INPUTS.items():
            write_json(doc, workdir / name)
        canned = [CheckResult("a", "prop a", "pass", 5e-324, 1.0,
                              {"edges": [-0.0, 1.7976931348623157e308], "none": []})]
        monkeypatch.setattr("opspectra.cli.run_battery", lambda **kw: canned)
        written = []

        def keep(doc, path):
            written.append(doc)
            write_json(doc, path)

        monkeypatch.setattr("opspectra.cli.write_json", keep)
        assert run_config(workdir, "run.json", config) == 0
        [doc] = written
        expected = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
        assert (workdir / config["out"]).read_text() == expected

    def test_interrupted_write_is_never_read(self, workdir, monkeypatch, capsys):
        dumps, calls = json.dumps, []

        def failing(*args, **kwargs):
            calls.append(None)
            if len(calls) == 3:
                raise OSError(28, "No space left on device")
            return dumps(*args, **kwargs)

        write_json(SIMULATE, workdir / "simulate.json")
        with monkeypatch.context() as patched:
            patched.setattr(json, "dumps", failing)
            assert main(["--config", str(workdir / "simulate.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write output") and err.count("\n") == 1
        with pytest.raises(ValueError):
            read_json(workdir / SIMULATE["out"])
        write_json(FUZZ_INPUTS["fir.json"], workdir / "fir.json")
        assert run_config(workdir, "filter.json", {
            "command": "filter", "fir": "fir.json", "series": SIMULATE["out"],
            "out": "y.json",
        }) == 2
        assert "cannot read input" in capsys.readouterr().err


CONFIG_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 40),
    st.floats(),
    st.sampled_from(
        sorted(FUZZ_INPUTS) + ["bundled", "false", "", "missing.json",
                                "no_dir/o.json", "simulate", "verify"]
    ),
    st.lists(st.integers(-3, 40), max_size=20),
    st.just({}),
    st.just([[1, 2]]),
)


def _fuzzed(config: dict):
    """``config`` with up to 4 of its keys given drawn values and up to 2
    of its keys dropped."""
    keys = st.sampled_from(sorted(config))
    return st.builds(
        lambda replaced, dropped: {
            k: v for k, v in (config | replaced).items() if k not in dropped
        },
        st.dictionaries(keys, CONFIG_VALUES, max_size=4),
        st.lists(keys, max_size=2),
    )


class TestFuzzedConfigs:
    @settings(max_examples=300)
    @given(config=st.sampled_from(VALID).flatmap(_fuzzed))
    def test_main_exits_with_a_documented_status(self, config):
        canned = [CheckResult("a", "prop a", "pass", 0.0, 1.0)]
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            mp.chdir(tmp)
            mp.setenv("OPSPECTRA_VERBOSITY", "0")
            mp.setattr("opspectra.cli.run_battery", lambda **kw: canned)
            for name, doc in FUZZ_INPUTS.items():
                write_json(doc, name)
            write_json(config, "run.json")
            assert main(["--config", "run.json"]) in (0, 1, 2)


# One command per input document kind: the valid document a case mutates,
# and a config that reads the mutated copy from "doc.json".
DOCUMENT_CASES = [
    ("povm.json",
     {"command": "autocov", "povm": "doc.json", "max_lag": 3, "out": "o.json"}),
    ("gamma.json",
     {"command": "fit-grid", "autocov": "doc.json", "period": 16, "out": "o.json"}),
    ("phi.json",
     {"command": "filter", "transfer": "doc.json", "povm": "bundled", "out": "o.json"}),
    ("fir.json",
     {"command": "filter", "fir": "doc.json", "series": "series.json", "out": "o.json"}),
    ("series.json",
     {"command": "filter", "fir": "fir.json", "series": "doc.json", "out": "o.json"}),
]
JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 40), st.floats(),
    st.sampled_from([10**30, 2**63, -(2**63)]), st.text(max_size=2),
)
JSON_VALUES = JSON_LEAVES | st.lists(JSON_LEAVES, max_size=3) | st.just({})


def _paths(node, prefix=()):
    """The key path of every node of a JSON document, leaves first."""
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _paths(child, prefix + (key,))
    yield prefix


def _mutated(data, doc):
    """A copy of ``doc`` with one to three drawn nodes each replaced by a
    drawn JSON value or removed."""
    doc = json.loads(json.dumps(doc))
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(list(_paths(doc))))
        if not path:
            doc = data.draw(JSON_VALUES)
            continue
        holder = doc
        for key in path[:-1]:
            holder = holder[key]
        if data.draw(st.booleans()):
            del holder[path[-1]]
        else:
            holder[path[-1]] = data.draw(JSON_VALUES)
    return doc


@pytest.fixture(scope="module")
def inputs_dir(tmp_path_factory):
    """A directory holding the valid documents of :data:`FUZZ_INPUTS`."""
    path = tmp_path_factory.mktemp("documents")
    for name, doc in FUZZ_INPUTS.items():
        write_json(doc, path / name)
    return path


class TestFuzzedDocuments:
    @settings(max_examples=150)
    @given(case=st.sampled_from(DOCUMENT_CASES), data=st.data())
    def test_main_exits_with_a_documented_status(self, inputs_dir, case, data):
        valid, config = case
        doc = _mutated(data, FUZZ_INPUTS[valid])
        with pytest.MonkeyPatch.context() as mp:
            mp.chdir(inputs_dir)
            mp.setenv("OPSPECTRA_VERBOSITY", "0")
            write_json(doc, "doc.json")
            write_json(config, "run.json")
            assert main(["--config", "run.json"]) in (0, 1, 2)

    @pytest.mark.parametrize(
        "doc",
        [{"dim": 1.5, "atoms": []}, {"dim": -1, "atoms": []},
         {"dim": 10**30, "atoms": []}, [], None, {"dim": None, "atoms": None}, {}],
        ids=["float-dim", "negative-dim", "huge-dim", "list", "null",
             "null-fields", "empty-object"],
    )
    def test_malformed_measure_document_exits_two(self, workdir, capsys, doc):
        write_json(doc, workdir / "doc.json")
        assert run_config(workdir, "run.json", DOCUMENT_CASES[0][1]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

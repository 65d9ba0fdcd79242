"""Self-test of the benchmark: ``python3 benchmarks/selftest.py``.

Checks that every printed metric name matches ``BENCHMARK.json``, that a
deliberately perturbed output counts as a failed operation, that a
tiny-size pass of every workload reports no failure, and that the
benchmark refuses to run without the library source.  The file name
keeps it out of the repository's pytest collection.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import opspectra as osp  # noqa: E402
import opspectra.verify  # noqa: E402,F401
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

OUT = BENCH / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace, cwd=ROOT):
    argv = [sys.executable, "benchmarks/run.py", "--workload", workload,
            "--seed", "3", "--seconds", "0", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(argv, cwd=cwd, stdout=subprocess.PIPE, text=True)


def test_tiny_passes_and_metric_names():
    for workload in [w["name"] for w in SPEC["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(workload, trace)
            assert proc.returncode == 0, (workload, trace)
            out = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(out) == {"correct", "attempted", "failed", "metrics"}
            assert out["attempted"] >= 1 and out["failed"] == 0 and out["correct"], out
            expected = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {k: v["unit"] for k, v in out["metrics"].items()}
            assert got == expected, (workload, trace, set(got) ^ set(expected))


def test_tracer_reports_every_layer_metric():
    assert tracing.metric_names() == [m["name"] for m in SPEC["per_layer"]]


def _perturbed(nu):
    weights = nu.weights.copy()
    weights[0, 0, 0] += 1e-6
    return osp.AtomicTracePovm(nu.dim, nu.freqs, weights)


def test_perturbed_grid_output_fails():
    inp = wl.grid_large_inputs(3, "tiny")
    clean = wl.Pass()
    wl.grid_large_pass(osp, inp, clean)
    assert clean.failed == 0, clean.messages
    original = osp.pushforward_povm
    osp.pushforward_povm = lambda phi, nu: _perturbed(original(phi, nu))
    try:
        p = wl.Pass()
        wl.grid_large_pass(osp, inp, p)
    finally:
        osp.pushforward_povm = original
    assert (p.attempted, p.failed) == (clean.attempted, 1), p.messages
    assert p.messages[0].startswith("filter:"), p.messages


def test_perturbed_cli_outputs_fail():
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        inp = wl.cli_offgrid_inputs(3, "tiny", tmp)
    for name, freqs, weights in (
        ("fit-grid", inp["bundled_freqs"], inp["bundled"]),
        ("filter-transfer", inp["freqs"], wl.pushforward_ref(inp["phi"], inp["weights"])),
    ):
        doc = json.loads(json.dumps(wl.measure_json(freqs, weights)))
        assert wl.cli_check(inp, name, doc), name
        bad = weights.copy()
        bad[-1, 0, 0] += 1e-6
        assert not wl.cli_check(inp, name, wl.measure_json(freqs, bad)), name


def test_failed_battery_check_counts():
    results = [
        osp.verify.CheckResult(c, "", "fail" if c == "ckl" else "pass", 1.0, 0.5)
        for c in ("herglotz-round-trip", "positive-type", "gramian-isometry",
                  "filter-composition", "filter-inversion", "fir-fubini", "ckl",
                  "hfpca", "increment-process", "determinism")
    ]
    original = osp.verify.run_battery
    osp.verify.run_battery = lambda seed, povm=None: results
    try:
        p = wl.Pass()
        wl.battery_pass(osp, wl.battery_inputs(3, "tiny"), p)
    finally:
        osp.verify.run_battery = original
    assert (p.attempted, p.failed) == (10, 1), p.messages


def test_refuses_without_library():
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(BENCH, Path(tmp) / "benchmarks",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run("grid-large", 0, cwd=tmp)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout


def main() -> int:
    OUT.mkdir(exist_ok=True)
    tests = [v for k, v in globals().items() if k.startswith("test_")]
    for test in tests:
        test()
        print(f"ok {test.__name__}")
    print(f"{len(tests)} self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

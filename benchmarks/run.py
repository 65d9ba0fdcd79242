"""Benchmark of the opspectra library and CLI.

Run from the repository root:

    python3 benchmarks/run.py --workload {battery,grid-large,cli-offgrid,all}
                              --seed N --seconds S --trace {0,1}

Each workload is a closed loop: one client runs passes back to back while
the next one fits in ``--seconds`` (at least one pass).  Every pass runs
in fresh processes: a ``--pass-only`` child for ``battery`` and
``grid-large``, one CLI child per command for ``cli-offgrid``; so no
library object or cache outlives its pass.  ``--trace 0`` prints the
end-to-end metrics (``wall_s``, ``setup_s``, ``peak_rss_mb``); ``--trace
1`` runs untraced passes for half the time, then traced passes, and prints
the per-layer metrics.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  A result file
with the environment record goes to ``benchmarks/out/``.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("battery", "grid-large", "cli-offgrid")
SETUP_REPEATS = 3
# one BLAS thread: the operators are at most 16 x 16, too small for a
# second thread to help
BLAS_THREADS = 1


def _use_source_tree() -> None:
    """Point this process and its children at ``src`` and fix BLAS threads.

    Must run before numpy is imported.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    paths = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    os.environ["PYTHONPATH"] = os.pathsep.join([str(SRC)] + paths)
    sys.path.insert(0, str(SRC))


def _import_library():
    import opspectra

    if Path(opspectra.__file__).resolve().parent != SRC / "opspectra":
        raise ImportError(f"opspectra imported from {opspectra.__file__}, not {SRC}")
    import opspectra.cli  # noqa: F401  (loads every layer module)
    import opspectra.verify  # noqa: F401

    return opspectra


def make_inputs(workload, seed, size, workdir):
    import workloads as wl

    if workload == "battery":
        return wl.battery_inputs(seed, size)
    if workload == "grid-large":
        return wl.grid_large_inputs(seed, size)
    return wl.cli_offgrid_inputs(seed, size, workdir)


def _child_args(args, *extra) -> list:
    return [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--size", args.size, *extra]


def measure_setup(args) -> list:
    """Wall time of fresh set-ups: interpreter, import, inputs and files."""
    times = []
    for i in range(SETUP_REPEATS):
        workdir = OUT / f"setup-{os.getpid()}-{i}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            t0 = time.perf_counter()
            subprocess.run(_child_args(args, "--setup-only", "--workdir", str(workdir)),
                           check=True, stdout=subprocess.DEVNULL)
            times.append(time.perf_counter() - t0)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    return times


def pass_only(args) -> None:
    """Child side of one battery or grid-large pass."""
    import tracing
    import workloads as wl

    osp = _import_library()
    inp = make_inputs(args.workload, args.seed, args.size, None)
    tracer = None
    if args.spans:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    p = wl.Pass(tracer)
    if args.workload == "battery":
        wl.battery_pass(osp, inp, p)
    else:
        wl.grid_large_pass(osp, inp, p)
    if tracer is not None:
        tracer.dump(args.spans)
    Path(args.result).write_text(json.dumps(
        {"wall": p.wall, "cpu": p.cpu, "attempted": p.attempted, "failed": p.failed,
         "messages": p.messages}))


def run_passes(run_one, budget: float) -> list:
    """Closed loop: passes back to back while the next one fits the budget."""
    passes, took = [], []
    t0 = time.perf_counter()
    while not passes or time.perf_counter() - t0 + statistics.median(took) <= budget:
        start = time.perf_counter()
        passes.append(run_one(len(passes)))
        took.append(time.perf_counter() - start)
    return passes


def make_pass_runner(args, workdir, traced: bool):
    """Return ``run(i) -> Pass``; traced passes list their span files."""
    import workloads as wl

    env = dict(os.environ)
    tag = "traced" if traced else "plain"
    if args.workload == "cli-offgrid":
        inp = make_inputs(args.workload, args.seed, args.size, workdir)

        def run(i):
            spans = (lambda name: workdir / f"spans-{tag}{i}-{name}.json.gz") if traced else None
            p = wl.Pass()
            wl.cli_pass(inp, p, wl.cli_argv(BENCH, spans), env)
            if traced:
                p.span_files = [(name, spans(name)) for name, _ in p.commands]
            return p

        return run

    def run(i):
        result = workdir / f"pass-{tag}{i}.json"
        spans = workdir / f"spans-{tag}{i}.json.gz"
        extra = ["--pass-only", "--result", str(result)]
        if traced:
            extra += ["--spans", str(spans)]
        status, err, _, usage = wl.run_child(_child_args(args, *extra), ROOT, env)
        p = wl.Pass()
        p.peak_child_kb = usage.ru_maxrss
        if traced:
            p.span_files = [("pass", spans)]
        if status == 0:
            done = json.loads(result.read_text())
            p.wall, p.cpu, p.messages = done["wall"], done["cpu"], done["messages"]
            p.attempted, p.failed = done["attempted"], done["failed"]
        else:  # the whole pass is lost
            p.attempted = p.failed = len(wl.OPERATIONS[args.workload])
            p.messages.append(f"pass exited with {status}: {err.strip()[-300:]}")
        return p

    return run


def layer_metrics(args, passes) -> tuple:
    """Per-layer metrics of every traced pass; writes the span file."""
    import tracing

    per_pass, docs = [], []
    for i, p in enumerate(passes):
        parts, extras, startup = [], [], []
        walls = dict(p.commands)
        for process, path in p.span_files:
            doc = tracing.load(path)
            docs.append({"pass": i, "process": process, **doc})
            summary = tracing.summarize(doc)
            parts.append(summary)
            extras.append(doc["extra"])
            if process in walls:
                startup.append(walls[process] - summary.get("cli.main#root_s", 0.0))
        metrics = tracing.finish(parts, extras)
        metrics["cli.startup_s"] = statistics.median(startup) if startup else 0.0
        per_pass.append(metrics)
    path = OUT / f"{args.workload}-seed{args.seed}-spans.json.gz"
    with gzip.open(path, "wt") as fh:
        json.dump({"processes": docs}, fh)
    return per_pass, path


def environment(args, n_passes) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": platform.python_version(),
        "seed": args.seed,
        "passes": n_passes,
        "size": args.size,
        "seconds": args.seconds,
    }


def run_workload(args, spec) -> dict:
    setup = measure_setup(args)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        budget = args.seconds / 2 if args.trace else args.seconds
        plain = run_passes(make_pass_runner(args, workdir, False), budget)
        traced, per_layer, spans_path = [], [], None
        if args.trace:
            traced = run_passes(make_pass_runner(args, workdir, True), budget)
            per_layer, spans_path = layer_metrics(args, traced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    walls = [p.wall for p in plain]
    if args.trace:
        values = {
            m["name"]: statistics.median(pp.get(m["name"], 0) for pp in per_layer)
            for m in spec["per_layer"]
        }
        values["trace.overhead_frac"] = (
            statistics.median(p.wall for p in traced) / statistics.median(walls) - 1.0
        )
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(p.peak_child_kb for p in plain) / 1024.0,
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    everything = plain + traced
    attempted = sum(p.attempted for p in everything)
    failed = sum(p.failed for p in everything)
    messages = [m for p in everything for m in p.messages]
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": environment(args, len(plain)),
        "pass_wall_s": walls,
        "pass_cpu_s": [p.cpu for p in plain],
        "pass_peak_rss_mb": [p.peak_child_kb / 1024.0 for p in plain],
        "traced_pass_wall_s": [p.wall for p in traced],
        "setup_s": setup,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "messages": messages[:50],
        "metrics": metrics,
    }
    if spans_path is not None:
        record["spans_file"] = str(spans_path.relative_to(ROOT))
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    for msg in messages[:20]:
        print(f"FAILED {msg}")
    print(f"workload {args.workload}: {len(plain)} passes, seed {args.seed},"
          f" {BLAS_THREADS} BLAS thread(s)")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  failed_frac = {failed}/{attempted} = {failed / attempted:.6g}")
    print(f"  result file: {path.relative_to(ROOT)}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run_all(args) -> dict:
    """Every workload in its own process; metrics are prefixed by workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"workload {workload} exited with {proc.returncode}")
        print("\n".join(lines[:-1]))
        one = json.loads(lines[-1])
        total["correct"] &= one["correct"]
        total["attempted"] += one["attempted"]
        total["failed"] += one["failed"]
        for k, v in one["metrics"].items():
            total["metrics"][f"{workload}.{k}"] = v
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs for the self-test")
    # internal: the set-up and pass children
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    parser.add_argument("--pass-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--result", help=argparse.SUPPRESS)
    parser.add_argument("--spans", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "opspectra" / "__init__.py").is_file():
        print(f"error: the library source {SRC / 'opspectra'} is missing", file=sys.stderr)
        return 2
    _use_source_tree()
    if args.setup_only:
        _import_library()
        make_inputs(args.workload, args.seed, args.size, args.workdir)
        return 0
    if args.pass_only:
        pass_only(args)
        return 0
    OUT.mkdir(parents=True, exist_ok=True)
    if args.workload == "all":
        out = run_all(args)
    else:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        out = run_workload(args, spec)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

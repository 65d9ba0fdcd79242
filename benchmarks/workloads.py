"""Workload inputs, passes and output checks.

Inputs come from ``numpy.random.default_rng`` seeded with the workload
seed, so the same seed gives the same arrays and files; the library only
ever receives those arrays and files.  Every output is checked against a
reference computed here with plain numpy, never by calling the function
under test.  A pass times only the calls into the library (the checks
run between them, untimed).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

# workload sizes, operations and the layer map live in spec.json
SPEC = json.loads((Path(__file__).resolve().parent / "spec.json").read_text())
SIZES, OPERATIONS = SPEC["sizes"], SPEC["operations"]

RTOL = 1e-10  # explicit sums, pushforward, fit-grid round trip, hfpca
ROUND_TRIP_TOL = 1e-8  # filter inversion


class Pass:
    """Operations of one pass: attempted/failed counts and library time."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.wall = 0.0
        self.cpu = 0.0
        self.attempted = 0
        self.failed = 0
        self.messages: list = []
        self.peak_child_kb = 0
        self.commands: list = []  # (CLI command, wall time) per child
        self.span_files: list = []  # (process, span file) of a traced pass

    def call(self, fn, *args):
        """Run one library call inside the timed (and traced) region."""
        if self.tracer is not None:
            self.tracer.enabled = True
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            return fn(*args)
        finally:
            self.wall += time.perf_counter() - t0
            self.cpu += time.process_time() - c0
            if self.tracer is not None:
                self.tracer.enabled = False

    def op(self, name, check, fn, *args):
        """One operation: a timed call plus its untimed output check."""
        self.attempted += 1
        try:
            out = self.call(fn, *args)
            ok = bool(check(out))
            if not ok:
                self.messages.append(f"{name}: output check failed")
        except Exception as exc:  # any library error fails the operation
            out, ok = None, False
            self.messages.append(f"{name}: {type(exc).__name__}: {exc}")
        self.failed += not ok
        return out

    def spawn(self, argv, cwd, env):
        """Run a child as one timed call; returns (exit status, stderr text)."""
        status, err, wall, usage = run_child(argv, cwd, env)
        self.wall += wall
        self.cpu += usage.ru_utime + usage.ru_stime
        self.peak_child_kb = max(self.peak_child_kb, usage.ru_maxrss)
        return status, err


def run_child(argv, cwd, env):
    """Run a child to completion: (exit status, stderr, wall time, rusage)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE
    )
    with proc.stderr:
        err = proc.stderr.read().decode(errors="replace")
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, err, wall, usage


# ---------------------------------------------------------------- inputs


def _complex(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * np.sqrt(0.5)


def psd_stack(rng, d, ranks):
    """Atom weights ``A A^H`` with ``A`` of the given per-atom rank."""
    out = np.empty((len(ranks), d, d), dtype=np.complex128)
    for j, r in enumerate(ranks):
        a = _complex(rng, (d, int(r)))
        w = a @ a.conj().T
        w = (w + w.conj().T) / 2.0
        out[j] = w * (rng.uniform(0.5, 1.5) * r / np.trace(w).real)
    return out


def grid(m):
    """The uniform M-point grid ``-pi + 2 pi k / M``, wrapped into (-pi, pi]."""
    return np.sort(np.where(np.arange(m) == 0, np.pi, -np.pi + 2.0 * np.pi * np.arange(m) / m))


def offgrid(rng, m):
    while True:
        f = np.sort(rng.uniform(-np.pi + 1e-6, np.pi, m))
        if np.diff(f).min() > 1e-6:
            return f


def unitaries(rng, m, d):
    q, r = np.linalg.qr(_complex(rng, (m, d, d)))
    diag = np.diagonal(r, axis1=1, axis2=2)
    return q * (diag / np.abs(diag))[:, None, :]


def conditioned_ops(rng, m, d, cond=100.0):
    """Square per-atom operators ``U diag(s) V^H`` with condition <= cond."""
    u, v = unitaries(rng, m, d), unitaries(rng, m, d)
    s = np.exp(rng.uniform(-np.log(cond), 0.0, (m, d)))
    return np.einsum("jab,jb,jcb->jac", u, s, v.conj())


def grid_large_inputs(seed, size):
    p = SIZES[size]["grid-large"]
    m, d = p["m"], p["d"]
    rng = np.random.default_rng([seed % 2**64, 1])
    ranks = rng.integers(1, d + 1, m)
    return {
        "m": m,
        "d": d,
        "r": p["r"],
        "freqs": grid(m),
        "ranks": ranks,
        "weights": psd_stack(rng, d, ranks),
        "phi": conditioned_ops(rng, m, d),
        "q": rng.integers(1, d + 1, m),
        "sample_seed": int(rng.integers(2**31)),
        "lags": np.unique(np.r_[0, 1, m // 2, m - 1, rng.integers(0, m, 4)]),
        "times": np.unique(np.r_[0, 1, m - 1, rng.integers(0, m, 3)]),
    }


def battery_inputs(seed, size):
    """The bundled measure, with the battery at the acceptance-gate seed.

    The battery's instance pools are drawn from its own seed, so another
    seed is another amount of work (15-19 s and 194-236 MB per pass across
    seeds 11-14); the workload seed therefore does not reach the battery.
    """
    from opspectra.synthetic import bundled_example_povm

    nu = bundled_example_povm()
    # the seed of the CLI ``verify`` default and of the acceptance tests
    return {"seed": SIZES[size]["battery"]["seed"], "dim": nu.dim, "freqs": nu.freqs.copy(),
            "weights": nu.weights.copy()}


# ------------------------------------------------------------ references


def close(out, ref, rtol=RTOL) -> bool:
    out, ref = np.asarray(out), np.asarray(ref)
    if out.shape != ref.shape or not np.isfinite(out).all():
        return False
    scale = max(float(np.abs(ref).max(initial=0.0)), 1e-300)
    return float(np.abs(out - ref).max(initial=0.0)) <= rtol * scale


def lag_sums(freqs, weights, lags):
    """Explicit ``Gamma(h) = sum_j exp(i lambda_j h) W_j`` at the given lags."""
    return np.einsum("hj,jab->hab", np.exp(1j * np.outer(lags, freqs)), weights)


def pushforward_ref(ops, weights):
    return np.einsum("jab,jbc,jdc->jad", ops, weights, ops.conj())


def range_projectors(weights, ranks):
    _, vecs = np.linalg.eigh(weights)
    out = np.empty_like(weights)
    for j, r in enumerate(ranks):
        v = vecs[j][:, weights.shape[1] - int(r):]
        out[j] = v @ v.conj().T
    return out


def hfpca_optimal_ref(weights, q):
    vals = np.linalg.eigvalsh(weights)[:, ::-1]
    keep = np.arange(weights.shape[1])[None, :] >= np.asarray(q)[:, None]
    return float(np.clip(vals, 0.0, None)[keep].sum())


def hfpca_matches(report, optimal, weights) -> bool:
    """Achieved = optimal = reference error, relative to the total trace."""
    tol = RTOL * float(np.trace(weights, axis1=1, axis2=2).real.sum())
    return (abs(report["achieved_error"] - report["optimal_error"]) <= tol
            and abs(report["optimal_error"] - optimal) <= tol)


def ckl_matches(weights, base_weights, sigmas, vectors) -> bool:
    """``base_weight_j V_j diag(sigma_j) V_j^H`` rebuilds every atom weight."""
    rebuilt = np.einsum("j,jan,jn,jbn->jab", base_weights, vectors, sigmas, vectors.conj())
    return close(rebuilt, weights)


def _refs(inp):
    if "_refs" not in inp:
        inp["_refs"] = {
            "proj": range_projectors(inp["weights"], inp["ranks"]),
            "eig": np.linalg.eigh(inp["weights"]),
            "push": pushforward_ref(inp["phi"], inp["weights"]),
            "hfpca": hfpca_optimal_ref(inp["weights"], inp["q"]),
        }
    return inp["_refs"]


def samples_match(inp, samples) -> bool:
    """Samples lie in each atom's range and whiten to unit variance.

    The pooled second moment of the whitened coordinates is checked
    against 1 within five standard errors.
    """
    m, d, r = inp["m"], inp["d"], inp["r"]
    if samples.shape != (m, r, d) or not np.isfinite(samples).all():
        return False
    refs = _refs(inp)
    off_range = samples - np.einsum("jab,jrb->jra", refs["proj"], samples)
    if np.abs(off_range).max() > ROUND_TRIP_TOL * np.abs(samples).max():
        return False
    vals, vecs = refs["eig"]
    white = np.einsum("jan,jra->jrn", vecs.conj(), samples) / np.sqrt(
        np.where(vals > 0, vals, np.inf)
    )[:, None, :]
    in_range = np.arange(d)[None, :] >= d - inp["ranks"][:, None]
    power = (np.abs(white) ** 2).transpose(0, 2, 1)[in_range]
    return abs(power.mean() - 1.0) <= 5.0 / np.sqrt(power.size)


# -------------------------------------------------------------- workloads


def battery_pass(osp, inp, p: Pass) -> None:
    """The verification battery on the bundled measure, one op per check."""

    def battery():
        nu = osp.AtomicTracePovm(inp["dim"], inp["freqs"].copy(), inp["weights"].copy())
        return osp.verify.run_battery(inp["seed"], povm=nu)

    p.attempted += len(OPERATIONS["battery"])
    try:
        results = p.call(battery)
    except Exception as exc:  # the whole battery is lost
        p.failed += len(OPERATIONS["battery"])
        p.messages.append(f"battery: {type(exc).__name__}: {exc}")
        return
    for r in results:
        if not r.passed:
            p.failed += 1
            p.messages.append(f"battery {r.check_id}: metric {r.metric:.3e} > {r.tolerance:.3e}")


def grid_large_pass(osp, inp, p: Pass) -> None:
    """The in-process pipeline on a grid-supported measure, one op per stage."""
    m, d = inp["m"], inp["d"]
    freqs, weights = inp["freqs"].copy(), inp["weights"].copy()
    phi_ops = inp["phi"].copy()
    lags, times = inp["lags"], inp["times"]

    nu = p.op(
        "construct",
        lambda nu: nu.n_atoms == m and np.array_equal(nu.weights, inp["weights"]),
        osp.AtomicTracePovm, d, freqs, weights,
    )
    gamma = p.op(
        "autocov",
        lambda g: g.values.shape == (m, d, d)
        and close(g.values[lags], lag_sums(inp["freqs"], inp["weights"], lags)),
        osp.autocov_from_povm, nu, m - 1,
    )
    p.op(
        "fit-grid",
        lambda fit: close(fit.weights, inp["weights"]),
        osp.povm_from_autocov_grid, gamma, m,
    )
    w = p.op(
        "sample",
        lambda w: samples_match(inp, w.samples),
        osp.sample_gaussian_measure, nu, inp["r"], inp["sample_seed"],
    )
    p.op(
        "synthesize",
        lambda x: x.values.shape == (inp["r"], m, d)
        and close(
            x.values[:, times].transpose(1, 0, 2),
            np.einsum("tj,jra->tra", np.exp(1j * np.outer(times, inp["freqs"])), w.samples),
        ),
        osp.synthesize_process, w, m,
    )

    def filtered(phi_ops):
        phi = osp.TransferFunction(d, d, freqs, phi_ops)
        return osp.pushforward_povm(phi, nu), osp.apply_filter(phi, w)

    out = p.op(
        "filter",
        lambda out: close(out[0].weights, _refs(inp)["push"])
        and close(out[1].samples, np.einsum("jab,jrb->jra", inp["phi"], w.samples)),
        filtered, phi_ops,
    )

    def round_trip(phi_ops):
        phi = osp.TransferFunction(d, d, freqs, phi_ops)
        return osp.apply_filter(osp.invert_transfer(phi, nu), out[1])

    p.op(
        "invert",
        lambda back: close(back.samples, w.samples, ROUND_TRIP_TOL),
        round_trip, phi_ops,
    )
    p.op(
        "ckl",
        lambda s: ckl_matches(inp["weights"], s.base_weights, s.eigenvalues, s.eigenvectors)
        and np.array_equal(s.ranks, inp["ranks"]),
        osp.ckl_decompose, nu,
    )
    p.op(
        "hfpca",
        lambda rep: hfpca_matches(rep, _refs(inp)["hfpca"], inp["weights"]),
        osp.hfpca_report, nu, inp["q"].copy(),
    )


# ------------------------------------------------------------ CLI workload


def _op_json(a):
    a = np.asarray(a, dtype=np.complex128)
    return {"rows": a.shape[0], "cols": a.shape[1],
            "entries": np.stack([a.real.ravel(), a.imag.ravel()], 1).tolist()}


def measure_json(freqs, weights):
    return {"dim": int(weights.shape[1]),
            "atoms": [{"freq": float(f), "weight": _op_json(w)} for f, w in zip(freqs, weights)]}


def _transfer_json(freqs, ops):
    return {"in_dim": int(ops.shape[2]), "out_dim": int(ops.shape[1]),
            "freqs": [float(f) for f in freqs], "ops": [_op_json(o) for o in ops]}


def _pairs(values, shape):
    arr = np.asarray(values, dtype=np.float64)
    return (arr[..., 0] + 1j * arr[..., 1]).reshape(shape)


def _ops(objs):
    return np.stack([_pairs(o["entries"], (o["rows"], o["cols"])) for o in objs])


def read_measure(doc):
    return (np.array([a["freq"] for a in doc["atoms"]]),
            _ops([a["weight"] for a in doc["atoms"]]))


def read_series(doc):
    return _pairs(doc["values"], (doc["realizations"], doc["period"], doc["dim"]))


def cli_offgrid_inputs(seed, size, workdir):
    """Arrays, input files and one config file per command."""
    from opspectra.synthetic import bundled_example_povm

    p = SIZES[size]["cli-offgrid"]
    m, d = p["m"], p["d"]
    rng = np.random.default_rng([seed % 2**64, 2])
    freqs = offgrid(rng, m)
    ranks = rng.integers(1, d + 1, m)
    weights = psd_stack(rng, d, ranks)
    phi, psi = conditioned_ops(rng, m, d), _complex(rng, (m, d, d))
    lags = rng.choice(np.arange(-3, 4), size=p["fir_taps"], replace=False)
    taps = {int(s): _complex(rng, (d, d)) for s in lags}
    q = rng.integers(1, d + 1, m)
    bundled = bundled_example_povm()
    inp = {
        "m": m, "d": d, "r": p["r"], "period": p["period"], "freqs": freqs,
        "moment_tol": p["moment_tol"],
        "ranks": ranks, "weights": weights, "phi": phi, "psi": psi, "taps": taps,
        "q": q, "lags": np.unique(np.r_[0, 1, m - 1, rng.integers(0, m, 4)]),
        "bundled_freqs": bundled.freqs.copy(), "bundled": bundled.weights.copy(),
        "workdir": Path(workdir),
    }
    files = {
        "measure.json": measure_json(freqs, weights),
        "phi.json": _transfer_json(freqs, phi),
        "psi.json": _transfer_json(freqs, psi),
        "fir.json": {"taps": [{"s": s, "op": _op_json(op)} for s, op in sorted(taps.items())]},
    }
    configs = {
        "simulate": {"command": "simulate", "povm": "measure.json", "realizations": p["r"],
                     "period": p["period"], "seed": int(rng.integers(2**31)),
                     "out": "series.json"},
        "filter-fir": {"command": "filter", "fir": "fir.json", "series": "series.json",
                       "out": "series_fir.json"},
        "autocov": {"command": "autocov", "povm": "measure.json", "max_lag": m - 1,
                    "out": "autocov.json"},
        "filter-transfer": {"command": "filter", "transfer": "phi.json",
                            "povm": "measure.json", "out": "pushforward.json"},
        "compose": {"command": "compose", "outer": "psi.json", "inner": "phi.json",
                    "out": "composed.json"},
        "invert": {"command": "invert", "transfer": "phi.json", "povm": "measure.json",
                   "out": "inverse.json"},
        "ckl": {"command": "ckl", "povm": "measure.json", "out": "ckl.json"},
        "hfpca": {"command": "hfpca", "povm": "measure.json", "q": q.tolist(),
                  "out": "hfpca.json"},
        "autocov-bundled": {"command": "autocov", "povm": "bundled", "max_lag": 15,
                            "out": "autocov16.json"},
        "fit-grid": {"command": "fit-grid", "autocov": "autocov16.json", "period": 16,
                     "out": "fit16.json"},
    }
    for name, cfg in configs.items():
        files[f"{name}.config.json"] = cfg
    for name, doc in files.items():
        (inp["workdir"] / name).write_text(json.dumps(doc))
    assert list(configs) == OPERATIONS["cli-offgrid"]
    return inp


def _series_moments_ok(inp, x) -> bool:
    """Lag-0 and lag-1 sample covariances match the measure.

    The tolerance is relative to the total mass; at the full size the
    observed error is below 3%, against a band of 10%.
    """
    w = inp["weights"]
    total = w.sum(axis=0)
    c0 = np.einsum("rta,rtb->ab", x, x.conj()) / (x.shape[0] * x.shape[1])
    c1 = np.einsum("rta,rtb->ab", x[:, 1:], x[:, :-1].conj()) / (x.shape[0] * (x.shape[1] - 1))
    g1 = np.einsum("j,jab->ab", np.exp(1j * inp["freqs"]), w)
    tol = inp["moment_tol"] * np.linalg.norm(total)
    return np.linalg.norm(c0 - total) <= tol and np.linalg.norm(c1 - g1) <= tol


def cli_check(inp, name, doc) -> bool:
    """Check the parsed output file of one CLI command."""
    w = inp["weights"]
    if name == "simulate":
        x = read_series(doc)
        inp["_series"] = x
        return x.shape == (inp["r"], inp["period"], inp["d"]) and _series_moments_ok(inp, x)
    if name == "filter-fir":
        x = inp.pop("_series")
        ref = sum(np.roll(x, s, axis=1) @ op.T for s, op in inp["taps"].items())
        return close(read_series(doc), ref)
    if name == "autocov":
        vals = _ops(doc["values"])
        return vals.shape == (inp["m"],) + w.shape[1:] and close(
            vals[inp["lags"]], lag_sums(inp["freqs"], w, inp["lags"]))
    if name == "filter-transfer":
        freqs, out = read_measure(doc)
        return np.array_equal(freqs, inp["freqs"]) and close(out, pushforward_ref(inp["phi"], w))
    if name == "compose":
        return "domains" not in doc and close(
            _ops(doc["ops"]), np.einsum("jab,jbc->jac", inp["psi"], inp["phi"]))
    if name == "invert":
        inv, dom = _ops(doc["ops"]), _ops(doc["domains"])
        proj = range_projectors(w, inp["ranks"])
        fwd = np.einsum("jab,jbc->jac", inp["phi"], proj)
        back = np.einsum("jab,jbc->jac", inv, fwd)
        return (close(back, proj, ROUND_TRIP_TOL)
                and close(np.einsum("jab,jbc->jac", dom, fwd), fwd, ROUND_TRIP_TOL))
    if name == "ckl":
        atoms = doc["atoms"]
        vectors = np.stack([_pairs(a["vectors"], (inp["d"], inp["d"])).T for a in atoms])
        return ckl_matches(
            w, np.array([a["base_weight"] for a in atoms]),
            np.array([a["sigmas"] for a in atoms]), vectors,
        ) and [a["rank"] for a in atoms] == inp["ranks"].tolist()
    if name == "hfpca":
        return hfpca_matches(doc, hfpca_optimal_ref(w, inp["q"]), w)
    if name == "autocov-bundled":
        return close(_ops(doc["values"]), lag_sums(inp["bundled_freqs"], inp["bundled"], np.arange(16)))
    if name == "fit-grid":
        return close(read_measure(doc)[1], inp["bundled"])
    raise KeyError(name)


def cli_pass(inp, p: Pass, argv_for, env) -> None:
    """One ``opspectra --config`` child per command.

    Records ``(command, wall time)`` of every child in ``p.commands``.
    """
    workdir = inp["workdir"]
    for name in OPERATIONS["cli-offgrid"]:
        cfg = json.loads((workdir / f"{name}.config.json").read_text())
        p.attempted += 1
        before = p.wall
        status, err = p.spawn(argv_for(name), workdir, env)
        p.commands.append((name, p.wall - before))
        if status != 0:
            p.failed += 1
            p.messages.append(f"{name}: exit {status}: {err.strip()[-300:]}")
            continue
        try:
            ok = cli_check(inp, name, json.loads((workdir / cfg["out"]).read_text()))
        except (OSError, ValueError, KeyError, IndexError) as exc:
            ok = False
            p.messages.append(f"{name}: unreadable output: {exc!r}")
        if not ok:
            p.failed += 1
            p.messages.append(f"{name}: output check failed")


def cli_argv(bench_dir: Path, traced_to=None):
    """Argument vector of one command child, traced or not."""
    def argv_for(name):
        cfg = ["--config", f"{name}.config.json"]
        if traced_to is None:
            return [sys.executable, "-m", "opspectra.cli"] + cfg
        return [sys.executable, str(bench_dir / "cli_child.py"),
                str(traced_to(name))] + cfg
    return argv_for

"""Verification battery: the library's end-to-end correctness checks.

Every check ties a numerical experiment to an identity of the operator
calculus and reports the worst observed residual against a fixed
tolerance; a NaN residual or z-score counts as inf and fails, and so
does a z against an overflowed standard deviation.  The battery is
deterministic given its seed; Monte Carlo checks use 5 standard-error
bands at :data:`MC_ENSEMBLE` realizations.
No check holds anything of length ``R``: the three Monte Carlo checks are
one estimator, :func:`_mc_mean`, the mean of a per-row uncentred second
moment summed block by block over the row-block measures of the
sampler's one stream, and score at one site, with one band count.
The same functions back the CLI ``verify`` command and the test suite.
"""

from __future__ import annotations

import math
import os
import pickle
import sys
from dataclasses import asdict, dataclass, field

import numpy as np

from .bochner import (
    AutocovarianceSequence,
    autocov_from_povm,
    on_grid,
    positive_type_check,
    povm_from_autocov_grid,
)
from .decomposition import (
    ckl_completeness_residual,
    ckl_decompose,
    component_transfer,
    hfpca_error,
    hfpca_optimal_error,
    hfpca_projector,
    scalar_component_transfer,
)
from .errors import NonInvertibleError, require_seed
from .filtering import (
    apply_filter,
    apply_fir_time,
    compose_transfer,
    fir_to_transfer,
    invert_transfer,
    modulate_transfer,
    pushforward_povm,
)
from .povm import AtomicTracePovm, gramian_inner, radon_nikodym
from .random_measure import (
    RandomMeasure,
    _sample_blocks,
    from_increment_path,
    sample_gaussian_measure,
    spectral_integral,
    synthesize_process,
    to_increment_path,
)
from .synthetic import (
    make_rng,
    random_conditioned_transfer,
    random_fir,
    random_grid_povm,
    random_povm,
    random_transfer,
)
from .transfer import TransferFunction

__all__ = ["CheckResult", "emit_report", "human_summary", "run_battery"]

MC_ENSEMBLE = 50_000
MC_TIMES = (0, 3, 6)
MC_BLOCK = 2000  # rows per cache-sized block of the Monte Carlo stream


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one verification check."""

    check_id: str
    property: str
    status: str
    metric: float
    tolerance: float
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def _result(check_id, prop, metric, tolerance, *conditions, **details) -> CheckResult:
    return CheckResult(
        check_id=check_id,
        property=prop,
        status="pass" if metric <= tolerance and all(conditions) else "fail",
        metric=float(metric),
        tolerance=float(tolerance),
        details=details,
    )


def _gap(a, b=0.0) -> float:
    """The largest ``|a - b|`` over the entries; a NaN is inf, so it
    survives ``max`` and fails every bound."""
    gap = float(np.abs(np.subtract(a, b)).max())
    return math.inf if math.isnan(gap) else gap


def _random_povm_normalized(rng, dim, n_atoms, allow_deficient=True):
    ranks = None
    if allow_deficient:
        ranks = [int(rng.integers(1, dim + 1)) for _ in range(n_atoms)]
    nu = random_povm(rng, dim, n_atoms, ranks=ranks)
    scale = np.trace(nu.total_mass()).real
    return AtomicTracePovm(dim, nu.freqs, nu.weights * (n_atoms / scale))


def _pool(rng, count, max_dim, max_atoms, extra):
    """``count`` normalized measures of dimension ``2..max_dim`` with
    ``2..max_atoms`` atoms, rank-deficient atoms allowed, then ``extra``."""
    pool = []
    for _ in range(count):
        dim = int(rng.integers(2, max_dim + 1))
        n_atoms = int(rng.integers(2, max_atoms + 1))
        pool.append(_random_povm_normalized(rng, dim, n_atoms))
    return pool + list(extra)


def _grid_pool(rng, dim, extra):
    """50 random measures of dimension ``dim`` on the 16-point grid, then the
    grid-supported measures of ``extra``."""
    pool = [random_grid_povm(rng, dim, 16) for _ in range(50)]
    return pool + [nu for nu in extra if on_grid(nu.freqs)]


def check_herglotz_round_trip(seed, extra_povms=()) -> CheckResult:
    rng = make_rng((seed, 1))
    instances = _grid_pool(rng, 4, extra_povms)
    worst = 0.0
    for nu in instances:
        m = nu.n_atoms
        gamma = autocov_from_povm(nu, m - 1)
        recovered = povm_from_autocov_grid(gamma, m)
        worst = max(worst, _gap(recovered.weights, nu.weights))
    return _result(
        "herglotz-round-trip",
        "autocovariance of a grid-supported measure inverts back to its atoms",
        worst,
        1e-10,
        instances=len(instances),
    )


def check_positive_type(seed, extra_povms=()) -> CheckResult:
    rng = make_rng((seed, 2))
    instances = _grid_pool(rng, 4, ()) + list(extra_povms)
    failures = 0
    total = 0
    for nu in instances:
        max_lag = 15 if nu.n_atoms >= 2 else 1
        gamma = autocov_from_povm(nu, max_lag)
        for _ in range(20):
            n = int(rng.integers(1, 9))
            times = rng.choice(max_lag + 1, size=min(n, max_lag + 1), replace=False)
            total += 1
            if not positive_type_check(gamma, times):
                failures += 1
    # constructed non-example: lag-1 value dominating lag 0
    bad = AutocovarianceSequence(
        2, 1, np.stack([np.eye(2) + 0j, 1.5 * np.eye(2) + 0j])
    )
    rejected = not positive_type_check(bad, [0, 1])
    return _result(
        "positive-type",
        "finite block matrices of a valid autocovariance are PSD and a"
        " non-example is rejected",
        float(failures + (0 if rejected else 1)),
        0.0,
        certificates=total,
        non_example_rejected=rejected,
    )


def check_gramian_isometry(seed, extra_povms=()) -> CheckResult:
    rng = make_rng((seed, 3))
    worst = 0.0
    for nu in _pool(rng, 100, 4, 6, extra_povms):
        phi = random_transfer(rng, nu.dim, 3, nu.freqs)
        psi = random_transfer(rng, nu.dim, 3, nu.freqs)
        model = sum(
            phi.ops[j] @ nu.weights[j] @ psi.ops[j].conj().T
            for j in range(nu.n_atoms)
        )
        worst = max(worst, _gap(model, gramian_inner(phi, psi, nu)))
    zs = []
    n_mc = 40
    for _ in range(n_mc):
        nu = _random_povm_normalized(rng, 3, 4, allow_deficient=False)
        phi = random_transfer(rng, 3, 2, nu.freqs)
        psi = random_transfer(rng, 3, 2, nu.freqs)

        def product(w):  # one block's sum of the rows' u conj(v)^T
            return spectral_integral(phi, w).T @ spectral_integral(psi, w).conj()

        gram = _mc_mean(nu, int(rng.integers(2**31)), product)
        sd = _product_sd(gramian_inner(phi, phi, nu), gramian_inner(psi, psi, nu))
        zs.append(_z_score(gram - gramian_inner(phi, psi, nu), sd, nu.traces().sum()))
    inside, worst_z, in_band = _band_count(zs)
    return _result(
        "gramian-isometry",
        "the stochastic integral is a Gramian isometry: model covariance"
        " equals the measure Gramian, corroborated by Monte Carlo",
        worst,
        1e-12,
        in_band,
        mc_within_band=inside,
        mc_instances=n_mc,
        worst_z_score=worst_z,
    )


def check_filter_composition(seed, extra_povms=()) -> CheckResult:
    rng = make_rng((seed, 4))
    worst = 0.0
    pool = _pool(rng, 100, 4, 6, extra_povms)
    for nu in pool:
        phi = random_transfer(rng, nu.dim, 2, nu.freqs)
        psi = random_transfer(rng, 2, 3, nu.freqs)
        direct = pushforward_povm(compose_transfer(psi, phi), nu)
        staged = pushforward_povm(psi, pushforward_povm(phi, nu))
        worst = max(worst, _gap(direct.weights, staged.weights))
        w = sample_gaussian_measure(nu, 8, seed=int(rng.integers(2**31)))
        two_step = apply_filter(psi, apply_filter(phi, w))
        one_step = apply_filter(compose_transfer(psi, phi), w)
        worst = max(worst, _gap(two_step.samples, one_step.samples))
    return _result(
        "filter-composition",
        "composing filters matches the pushforward of measures and the"
        " two-path filtered samples",
        worst,
        1e-12,
        instances=len(pool),
    )


def check_filter_inversion(seed, extra_povms=()) -> CheckResult:
    rng = make_rng((seed, 5))
    worst = 0.0
    for _ in range(50):
        dim = int(rng.integers(2, 5))
        nu = _random_povm_normalized(rng, dim, int(rng.integers(2, 6)))
        cond = float(rng.uniform(10.0, 1000.0))
        phi = random_conditioned_transfer(rng, dim, nu.freqs, cond=cond)
        inv = invert_transfer(phi, nu)
        w = sample_gaussian_measure(nu, 64, seed=int(rng.integers(2**31)))
        back = apply_filter(inv, apply_filter(phi, w))
        worst = max(worst, _gap(back.samples, w.samples))
        back_nu = pushforward_povm(inv, pushforward_povm(phi, nu))
        worst = max(worst, _gap(back_nu.weights, nu.weights))
    # a rank-deficient atom operator must be rejected in strict mode
    nu = _random_povm_normalized(rng, 3, 2, allow_deficient=False)
    ops = random_transfer(rng, 3, 3, nu.freqs).ops.copy()
    ops[1] = np.diag([1.0, 1.0, 0.0])
    try:
        invert_transfer(TransferFunction(3, 3, nu.freqs, ops), nu, strict=True)
        rejected = False
    except NonInvertibleError:
        rejected = True
    return _result(
        "filter-inversion",
        "inverting an injective-on-support filter undoes it on samples and"
        " measures; strict mode rejects rank-deficient atoms",
        worst,
        1e-8,
        rejected,
        strict_rejection=rejected,
    )


def check_fir_fubini(seed, extra_povms=()) -> CheckResult:
    rng = make_rng((seed, 6))
    worst = 0.0
    instances = _grid_pool(rng, 3, extra_povms)
    for nu in instances:
        m = nu.n_atoms
        fir = random_fir(rng, nu.dim, 2, n_taps=int(rng.integers(1, 6)))
        w = sample_gaussian_measure(nu, 8, seed=int(rng.integers(2**31)))
        time_route = apply_fir_time(fir, synthesize_process(w, m))
        spec_route = synthesize_process(
            apply_filter(fir_to_transfer(fir, nu.freqs), w), m
        )
        worst = max(worst, _gap(time_route.values, spec_route.values))
    return _result(
        "fir-fubini",
        "time-domain circular convolution equals spectral-domain filtering"
        " on grid-supported measures",
        worst,
        1e-10,
        instances=len(instances),
    )


def check_ckl(seed, extra_povms=()) -> CheckResult:
    rng = make_rng((seed, 7))
    pool = _pool(rng, 50, 5, 8, extra_povms)
    worst_recon, worst_cross, worst_complete, worst_diag = 0.0, 0.0, 0.0, 0.0
    for nu in pool:
        sys = ckl_decompose(nu)
        density = radon_nikodym(nu)
        for j in range(nu.n_atoms):
            v = sys.eigenvectors[j]
            g = (v * sys.eigenvalues[j]) @ v.conj().T
            worst_recon = max(worst_recon, _gap(g, density.densities[j]))
        transfers = [component_transfer(sys, n) for n in range(nu.dim)]
        scalars = [scalar_component_transfer(sys, n) for n in range(nu.dim)]
        for n in range(nu.dim):
            for p in range(n + 1, nu.dim):
                cross = gramian_inner(transfers[n], transfers[p], nu)
                worst_cross = max(worst_cross, _gap(cross))
                scross = gramian_inner(scalars[n], scalars[p], nu)
                worst_diag = max(worst_diag, _gap(scross))
        worst_complete = max(worst_complete, _gap(ckl_completeness_residual(sys)))
    return _result(
        "ckl",
        "per-frequency eigendecompositions reconstruct the measure, the"
        " components are mutually orthogonal, and the component sum is the"
        " identity in measure norm",
        max(worst_recon, worst_complete),
        1e-10,
        worst_cross <= 1e-12,
        worst_diag <= 1e-12,
        cross_gramian=worst_cross,
        scalar_off_diagonal=worst_diag,
        instances=len(pool),
    )


def check_hfpca(seed, extra_povms=()) -> CheckResult:
    rng = make_rng((seed, 8))
    pool = _pool(rng, 30, 6, 8, extra_povms)
    worst_closed = 0.0
    worst_beat = 0.0
    zs = []
    n_competitors = 1000
    for nu in pool:
        dim = nu.dim
        sys = ckl_decompose(nu)
        q = rng.integers(1, dim + 1, size=nu.n_atoms)
        theta = hfpca_projector(sys, q)
        achieved = hfpca_error(nu, theta)
        optimal = hfpca_optimal_error(sys, q)
        worst_closed = max(worst_closed, _gap(achieved, optimal))
        factors = nu.gram_factors()
        # vectorised competitor sweep: random rank-q frames per atom, with
        # || (I - P) S ||^2 = ||S||^2 - ||Q^H S||^2 for the projector QQ^H
        errors = np.zeros(n_competitors)
        for j in range(nu.n_atoms):
            g = (
                rng.standard_normal((n_competitors, dim, int(q[j])))
                + 1j * rng.standard_normal((n_competitors, dim, int(q[j])))
            )
            qmat = np.linalg.qr(g)[0]
            total_sq = float(np.linalg.norm(factors[j]) ** 2)
            qhs = np.einsum("cak,au->cku", qmat.conj(), factors[j])
            errors += total_sq - np.linalg.norm(qhs, axis=(1, 2)) ** 2
        worst_beat = max(worst_beat, _gap(np.maximum(optimal - errors.min(), 0.0)))
        # Monte Carlo corroboration of the error formula at three times
        complement = np.eye(dim) - theta.ops
        mses = _hfpca_mc_errors(nu, complement, int(rng.integers(2**31)))
        # one draw's ||r||^2, r ~ CN(0, C), has variance ||C||_F^2
        g = complement @ factors
        sd = np.linalg.norm(np.einsum("jak,jbk->ab", g, g.conj()))
        zs += [_z_score(mse - achieved, sd, nu.traces().sum()) for mse in mses]
    mc_inside, worst_z, in_band = _band_count(zs)
    return _result(
        "hfpca",
        "top eigenprojectors achieve the closed-form minimal reconstruction"
        " error; random rank-feasible competitors never beat it",
        worst_closed,
        1e-10,
        worst_beat <= 1e-12,
        in_band,
        best_competitor_margin=worst_beat,
        mc_within_band=mc_inside,
        mc_checks=len(zs),
        worst_z_score=worst_z,
        instances=len(pool),
    )


def _z_score(err, sd, mass) -> float:
    """The largest ``|err|``, entry by entry, in standard errors of a mean
    of :data:`MC_ENSEMBLE` draws whose standard deviation is ``sd``, exact
    by the complex Isserlis theorem (Reed, IRE Trans. Inf. Theory 8(3),
    1962) and floored at ``8 eps`` times the measure's trace ``mass``; a
    zero measure scores 0 for an exact ``err``, else inf, and a standard
    deviation that is not finite (one that overflowed) scores inf."""
    sd = np.maximum(sd, 8.0 * np.finfo(np.float64).eps * mass)
    err = np.abs(err)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(err == 0.0, 0.0, err * np.sqrt(MC_ENSEMBLE) / sd)
    return _gap(np.where(np.isfinite(sd), z, np.inf))


def _band_count(zs) -> tuple:
    """How many z-scores ``zs`` lie in the 5-standard-error band, the worst
    of them (0 for none, inf for a NaN), and whether the worst is finite and
    at least 95% of them lie inside."""
    inside = sum(z <= 5.0 for z in zs)
    worst = _gap([0.0, *zs])
    return inside, worst, worst < math.inf and inside >= int(np.ceil(0.95 * len(zs)))


def _product_sd(g_u, g_v):
    """The standard deviation of each entry of one draw's ``u conj(v)^T``
    for ``u``, ``v`` of Gramians ``g_u``, ``g_v``: ``sqrt(G_u,aa G_v,bb)``."""
    return np.sqrt(np.outer(np.diag(g_u).real, np.diag(g_v).real))


def _mc_mean(nu, seed, statistic):
    """The mean of a per-row statistic over the rows ``sample_gaussian_measure(nu,
    MC_ENSEMBLE, seed)`` draws: ``statistic`` maps each :data:`MC_BLOCK`-row
    read-only block measure to the statistic's sum over the block's rows."""

    def measure(block):  # read-only, so the measure keeps the block uncopied
        block.flags.writeable = False
        return RandomMeasure(block, nu)

    blocks = map(measure, _sample_blocks(nu, MC_ENSEMBLE, seed, MC_BLOCK))
    return sum(map(statistic, blocks)) / MC_ENSEMBLE


def _hfpca_mc_errors(nu, complement, seed) -> list:
    """Monte Carlo ``E ||X_t - [Theta X]_t||^2`` at each of :data:`MC_TIMES`:
    the error at ``t`` is the integral of ``I - Theta`` (``complement``
    stacks the ``I - Theta_j``) modulated by the character ``e^{i lambda t}``,
    the mean of its squared norm by :func:`_mc_mean`, one per time."""
    residual = TransferFunction(nu.dim, nu.dim, nu.freqs, complement)
    shifted = [modulate_transfer(residual, t) for t in MC_TIMES]

    def squared_norms(w):
        return np.array(
            [np.sum(np.abs(spectral_integral(phi, w)) ** 2) for phi in shifted]
        )

    return [float(t) for t in _mc_mean(nu, seed, squared_norms)]


def check_increment_process(seed, extra_povms=()) -> CheckResult:
    rng = make_rng((seed, 9))
    nu = _random_povm_normalized(rng, 3, 6, allow_deficient=False)
    freqs = nu.freqs
    mid = float(freqs[2] + (freqs[3] - freqs[2]) / 2.0)
    exact = True

    def disjoint_product(w):
        nonlocal exact
        path = to_increment_path(w)
        back = from_increment_path(path, nu)
        # the path's value at each breakpoint is the running sum of the atoms
        running = np.cumsum(w.samples, axis=0)
        exact = (
            exact
            and np.array_equal(back.samples, w.samples)
            and np.array_equal(to_increment_path(back).increments, path.increments)
            and all(map(np.array_equal, map(path.value_at, freqs), running))
        )
        left = path.value_at(mid)
        return left.T @ (path.value_at(np.pi) - left).conj()

    cross = _mc_mean(nu, int(rng.integers(2**31)), disjoint_product)
    # the increments left and right of the cut have the summed weights as Gramians
    sd = _product_sd(nu.weights[:3].sum(axis=0), nu.weights[3:].sum(axis=0))
    z = _z_score(cross, sd, nu.traces().sum())
    return _result(
        "increment-process",
        "a sampled measure and its orthogonal-increment path convert back"
        " and forth exactly; disjoint increments are uncorrelated",
        z,
        5.0,
        exact,
        exact_round_trip=exact,
    )


STOCHASTIC_CHECKS = [
    check_herglotz_round_trip,
    check_positive_type,
    check_gramian_isometry,
    check_filter_composition,
    check_filter_inversion,
    check_fir_fubini,
    check_ckl,
    check_hfpca,
    check_increment_process,
]


def check_determinism(seed, extra_povms, baseline, reruns) -> CheckResult:
    """Compare ``reruns``, the stochastic checks run again on ``seed`` and
    ``extra_povms`` in another process, with ``baseline``, the first pass,
    on metric, status and details; also draw one sample three times, once
    atom by atom in a shuffled order, and require the draws to be identical."""
    rng = make_rng((seed, 10))
    nu = _random_povm_normalized(rng, 3, 5, allow_deficient=False)
    first = sample_gaussian_measure(nu, 4096, seed=seed)
    second = sample_gaussian_measure(nu, 4096, seed=seed)
    shuffled = next(_sample_blocks(nu, 4096, seed, 4096, [4, 0, 3, 1, 2]))
    mismatches = [
        again.check_id
        for before, again in zip(baseline, reruns)
        if not (
            again.metric == before.metric
            and again.status == before.status
            and again.details == before.details
        )
    ]
    return _result(
        "determinism",
        "every stochastic check is bitwise reproducible under a fixed seed,"
        " independently of the atom processing schedule",
        float(len(mismatches)),
        0.0,
        np.array_equal(first.samples, second.samples),
        np.array_equal(first.samples, shuffled),
        reruns=len(STOCHASTIC_CHECKS),
        mismatched=mismatches,
    )


def _start_rerun(seed, povm):
    """Start the interpreter that reruns :data:`STOCHASTIC_CHECKS` on
    ``seed`` and ``povm`` (or ``None``), pickled as they are; it imports
    this package from the caller's ``sys.path``, with one BLAS thread."""
    import subprocess

    request = pickle.dumps((seed, povm))  # before a worker exists to reap
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    worker = subprocess.Popen(
        [sys.executable, "-c", "from opspectra.verify import _rerun; _rerun()"],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        env=env,
    )
    try:
        with worker.stdin:
            worker.stdin.write(request)
    except BrokenPipeError:  # the worker died; _rerun_results names its status
        pass
    return worker


def _rerun():
    """Worker side of :func:`_start_rerun`: read ``(seed, povm)`` from
    stdin and write ``(True, results)`` or ``(False, exception)`` to
    stdout, pickled; from unpickling the request on, fd 1 is stderr, so
    nothing but the payload reaches stdout, and errors reach the caller."""
    import signal

    # the caller owns this process and kills it on an interrupt
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    out = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)
    try:
        seed, povm = pickle.load(sys.stdin.buffer)
        extra = () if povm is None else (povm,)
        payload = (True, [fn(seed, extra) for fn in STOCHASTIC_CHECKS])
    except Exception as exc:
        import traceback

        # the caller raises it again; the note keeps where the worker raised it
        if hasattr(exc, "add_note"):  # Python 3.11+
            exc.add_note("in the determinism rerun:\n" + traceback.format_exc())
        payload = (False, exc)
    with out:
        pickle.dump(payload, out)


def _rerun_results(worker) -> list:
    """The worker's results; its exception is raised again here, and a
    worker that exits without a payload raises :class:`RuntimeError`."""
    with worker.stdout:
        payload = worker.stdout.read()
    status = worker.wait()
    if status != 0 or not payload:
        raise RuntimeError(
            f"the determinism rerun exited with status {status} and no results"
        )
    ok, value = pickle.loads(payload)
    if not ok:
        raise value
    return value


def run_battery(seed: int = 20260809, povm: AtomicTracePovm | None = None) -> list:
    """Run every check; an optional measure joins the instance pools.

    The determinism rerun of the nine stochastic checks runs on ``povm``
    pickled as it is, in a fresh interpreter with one BLAS thread, beside
    the first pass in this one, so it also covers the process, and the
    BLAS thread count when this one runs BLAS with more.  The worker is
    killed and reaped if anything here raises, an interrupt included.
    """
    require_seed(seed)  # the samplers' rule, before a worker exists to reap
    extra = (povm,) if povm is not None else ()
    worker = _start_rerun(seed, povm)
    try:
        results = [fn(seed, extra) for fn in STOCHASTIC_CHECKS]
        reruns = _rerun_results(worker)
    finally:
        worker.kill()
        worker.wait()
        worker.stdout.close()
    results.append(check_determinism(seed, extra, results, reruns))
    return results


def emit_report(results) -> list:
    """Render results as the stable report schema (list of dicts)."""
    return [asdict(r) for r in results]


def human_summary(results) -> str:
    lines = []
    width = max((len(r.check_id) for r in results), default=0)
    for r in results:
        lines.append(
            f"{r.check_id.ljust(width)}  {r.status.upper():4}  "
            f"metric={r.metric:.3e}  tol={r.tolerance:.3e}"
        )
    n_pass = sum(r.passed for r in results)
    lines.append(f"{n_pass}/{len(results)} checks passed")
    return "\n".join(lines)

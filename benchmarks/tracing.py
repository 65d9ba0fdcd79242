"""Layer spans recorded from outside the library.

``install`` replaces every public function of the package's modules, the
names sibling modules imported them under, the dataclass ``__post_init__``
validators and the ``numpy.linalg`` entry points with thin wrappers that
append a span ``[name, start_ns, end_ns, parent, error]`` to an in-memory
list.  Every pass runs in its own processes, so the pass id is recorded
once per process document in the run's span file.  Spans are only recorded while ``Tracer.enabled`` is set,
so the benchmark's own input generation and output checks stay out of
the layer figures.  ``summarize`` turns one span list into the per-layer
metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

import gzip
import hashlib
import importlib
import inspect
import json
import os
import sys
import time
from pathlib import Path

LAYERS = (
    "operators",
    "povm",
    "transfer",
    "bochner",
    "random_measure",
    "filtering",
    "decomposition",
    "serialization",
    "verify",
    "cli",
    "linalg",
)

LINALG = ("eigh", "eigvalsh", "svd", "qr")

# the battery's check ids, one verify.<id>_s metric each
CHECK_IDS = json.loads((Path(__file__).resolve().parent / "spec.json").read_text())[
    "operations"
]["battery"]

# Inclusive-time metrics: spans of these names, counted only where no
# ancestor span belongs to the same metric, so recursion is not doubled.
TIMED = {
    "povm.ctor_s": ("povm.AtomicTracePovm.__post_init__",),
    "bochner.autocov_s": ("bochner.autocov_from_povm",),
    "bochner.fit_grid_s": ("bochner.povm_from_autocov_grid",),
    "random_measure.sample_s": (
        "random_measure.sample_gaussian_measure",
        "random_measure.sample_real_gaussian_measure",
    ),
    "random_measure.synth_s": ("random_measure.synthesize_process",),
    "filtering.pushforward_s": ("filtering.pushforward_povm",),
    "filtering.apply_s": ("filtering.apply_filter", "filtering.apply_fir_time"),
    "filtering.invert_s": ("filtering.invert_transfer",),
    "decomposition.ckl_s": ("decomposition.ckl_decompose",),
    "decomposition.hfpca_s": (
        "decomposition.hfpca_report",
        "decomposition.hfpca_error",
        "decomposition.hfpca_optimal_error",
        "decomposition.hfpca_projector",
        "decomposition.hfpca_tie_warnings",
    ),
    "serialization.encode_s": "serialization.encode_",
    "serialization.decode_s": "serialization.decode_",
    "serialization.json_s": ("serialization.read_json", "serialization.write_json"),
}

COUNTED = {
    "operators.psd_sqrt.calls": "operators.psd_sqrt",
    "operators.psd_check.calls": "operators.psd_check",
    "operators.hermitian_eig.calls": "operators.hermitian_eig",
    "linalg.eigh.calls": "linalg.eigh",
    "linalg.eigvalsh.calls": "linalg.eigvalsh",
    "linalg.svd.calls": "linalg.svd",
    "linalg.qr.calls": "linalg.qr",
    "linalg.norm2.calls": "linalg.norm2",
}


def metric_names() -> list:
    """Every per-layer metric, in the order they are printed."""
    names = []
    for layer in LAYERS:
        names += [f"{layer}.calls", f"{layer}.self_s", f"{layer}.errors"]
    names += list(COUNTED)
    names.append("operators.psd_sqrt.per_distinct")
    names += list(TIMED)
    names += [
        "random_measure.draws_per_s",
        "serialization.bytes_read",
        "serialization.bytes_written",
        "cli.startup_s",
    ]
    names += [f"verify.{c}_s" for c in CHECK_IDS]
    names.append("trace.overhead_frac")
    return names


class Tracer:
    """Span store shared by every wrapper of one process."""

    def __init__(self):
        self.enabled = False
        self.names: list = []
        self._name_ids: dict = {}
        self.spans: list = []
        self.stack: list = []
        # psd_sqrt argument digests, normal draws, file bytes
        self.extra = {"psd_sqrt_args": set(), "draws": 0, "bytes_read": 0,
                      "bytes_written": 0}

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, name, before=None, after=None):
        nid = self.name_id(name)
        tracer = self
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if before is not None:
                before(tracer, args, kwargs)
            stack = tracer.stack
            rec = [nid, 0, 0, stack[-1] if stack else -1, 0]
            stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                rec[4] = 1
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(tracer, args, kwargs)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def dump(self, path) -> None:
        """Write every span, gzip-compressed JSON, when the run ends."""
        extra = {**self.extra, "psd_sqrt_args": sorted(self.extra["psd_sqrt_args"])}
        doc = {
            "fields": ["name", "start_ns", "end_ns", "parent", "error"],
            "names": self.names,
            "spans": self.spans,
            "extra": extra,
        }
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh)


def _hash_psd_arg(tracer, args, kwargs):
    import numpy as np

    p = args[0] if args else kwargs["p"]
    digest = hashlib.blake2b(
        np.ascontiguousarray(np.asarray(p, dtype=np.complex128)).tobytes(),
        digest_size=12,
    ).hexdigest()
    tracer.extra["psd_sqrt_args"].add(digest)


def _count_draws(tracer, args, kwargs):
    nu = args[0] if args else kwargs["nu"]
    n = args[1] if len(args) > 1 else kwargs["n_realizations"]
    tracer.extra["draws"] += 2 * nu.n_atoms * int(n) * nu.dim


def _bytes_read(tracer, args, kwargs):
    tracer.extra["bytes_read"] += os.path.getsize(args[0])


def _bytes_written(tracer, args, kwargs):
    tracer.extra["bytes_written"] += os.path.getsize(args[1])


HOOKS = {
    "operators.psd_sqrt": (_hash_psd_arg, None),
    "random_measure.sample_gaussian_measure": (_count_draws, None),
    "random_measure.sample_real_gaussian_measure": (_count_draws, None),
    "serialization.read_json": (None, _bytes_read),
    "serialization.write_json": (None, _bytes_written),
}


def install(tracer: Tracer) -> None:
    """Wrap the package's layer entry points and the numpy.linalg calls."""
    import numpy as np

    replaced = {}
    for layer in LAYERS[:-1]:
        mod = importlib.import_module(f"opspectra.{layer}")
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                name = f"{layer}.{attr}"
                before, after = HOOKS.get(name, (None, None))
                replaced[id(obj)] = tracer.wrap(obj, name, before, after)
            elif inspect.isclass(obj) and "__post_init__" in vars(obj):
                name = f"{layer}.{attr}.__post_init__"
                obj.__post_init__ = tracer.wrap(obj.__post_init__, name)
    # rebind the module globals, sibling imports and function tables
    for modname, mod in list(sys.modules.items()):
        if modname != "opspectra" and not modname.startswith("opspectra."):
            continue
        for attr, obj in list(vars(mod).items()):
            if id(obj) in replaced:
                setattr(mod, attr, replaced[id(obj)])
            elif isinstance(obj, (list, tuple)) and any(
                id(o) in replaced for o in obj
            ):
                swapped = [replaced.get(id(o), o) for o in obj]
                if isinstance(obj, list):
                    obj[:] = swapped
                else:
                    setattr(mod, attr, type(obj)(swapped))
    for attr in LINALG:
        setattr(np.linalg, attr, tracer.wrap(getattr(np.linalg, attr), f"linalg.{attr}"))
    norm = np.linalg.norm
    norm2 = tracer.wrap(norm, "linalg.norm2")

    def traced_norm(x, ord=None, axis=None, keepdims=False):
        if isinstance(ord, int) and ord == 2:
            return norm2(x, ord, axis, keepdims)
        return norm(x, ord, axis, keepdims)

    np.linalg.norm = traced_norm


def load(path) -> dict:
    with gzip.open(path, "rt") as fh:
        return json.load(fh)


def _metric_of(name: str):
    for metric, names in TIMED.items():
        if name in names if isinstance(names, tuple) else name.startswith(names):
            return metric
    if name.startswith("verify.check_"):
        return "verify." + name[len("verify.check_"):].replace("_", "-") + "_s"
    return None


def summarize(doc: dict) -> dict:
    """Per-layer totals of one process's span document.

    Returns ``{metric: value}`` with counts, self times and inclusive
    times; ``finish`` adds the ratios that need every process of a pass.
    """
    names = doc["names"]
    layer_of = [n.split(".", 1)[0] for n in names]
    metric_of = [_metric_of(n) for n in names]
    # verify checks share one group, so reruns inside determinism are not
    # counted again under their own check
    group_of = [
        ("verify.checks" if m and m.startswith("verify.") else m) for m in metric_of
    ]
    groups = sorted({g for g in group_of if g})
    bit = [1 << groups.index(g) if g else 0 for g in group_of]
    spans = doc["spans"]
    child_ns = [0] * len(spans)
    mask = [0] * len(spans)
    for i, (nid, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            child_ns[parent] += end - start
            mask[i] = mask[parent] | bit[spans[parent][0]]
    m: dict = {}
    for i, (nid, start, end, parent, err) in enumerate(spans):
        layer = layer_of[nid]
        name = names[nid]
        dur = end - start
        m[f"{layer}.calls"] = m.get(f"{layer}.calls", 0) + 1
        m[f"{layer}.self_s"] = m.get(f"{layer}.self_s", 0.0) + (dur - child_ns[i]) * 1e-9
        m[f"{layer}.errors"] = m.get(f"{layer}.errors", 0) + err
        m[name + "#calls"] = m.get(name + "#calls", 0) + 1
        if parent < 0:
            m[name + "#root_s"] = m.get(name + "#root_s", 0.0) + dur * 1e-9
        metric = metric_of[nid]
        if metric and not mask[i] & bit[nid]:
            m[metric] = m.get(metric, 0.0) + dur * 1e-9
    return m


def finish(per_pass: list, extra: list) -> dict:
    """Turn one pass's summed span totals and extras into named metrics."""
    total: dict = {}
    for part in per_pass:
        for k, v in part.items():
            total[k] = total.get(k, 0) + v
    args: set = set()
    draws = read = written = 0
    for e in extra:
        args |= set(e.get("psd_sqrt_args", ()))
        draws += e.get("draws", 0)
        read += e.get("bytes_read", 0)
        written += e.get("bytes_written", 0)
    out = {}
    for metric, span_name in COUNTED.items():
        out[metric] = total.get(span_name + "#calls", 0)
    for k, v in total.items():
        if "#" not in k:
            out[k] = v
    sqrt_calls = out["operators.psd_sqrt.calls"]
    out["operators.psd_sqrt.per_distinct"] = sqrt_calls / len(args) if args else 0.0
    sample_s = out.get("random_measure.sample_s", 0.0)
    out["random_measure.draws_per_s"] = draws / sample_s if sample_s > 0 else 0.0
    out["serialization.bytes_read"] = read
    out["serialization.bytes_written"] = written
    return out

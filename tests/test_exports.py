import ast
import copy
import dataclasses
import importlib
import inspect
import json
import pickle
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

import opspectra
from opspectra import (
    AtomicTracePovm,
    AutocovarianceSequence,
    CklSystem,
    DimensionError,
    FirFilter,
    IncrementPath,
    PovmDensity,
    ProcessSample,
    RandomMeasure,
    TransferFunction,
    apply_filter,
    autocov_from_povm,
    ckl_decompose,
    errors,
    invert_transfer,
    povm_from_autocov_grid,
    pushforward_povm,
    radon_nikodym,
    sample_gaussian_measure,
    synthesize_process,
    to_increment_path,
)
from opspectra.serialization import (
    decode_autocov,
    decode_fir,
    decode_povm,
    decode_series,
    decode_transfer,
    encode_autocov,
    encode_fir,
    encode_povm,
    encode_series,
    encode_transfer,
    read_json,
    write_json,
)
from opspectra.synthetic import bundled_example_povm, make_rng, random_transfer
from opspectra.verify import CheckResult

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(opspectra.__path__)
    if not info.name.startswith("_")
)


@pytest.mark.parametrize("name", ["opspectra"] + [f"opspectra.{m}" for m in MODULES])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names undefined attributes {missing}"
    assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"


# Only these exported callables take a tolerance: each has callers that pass
# more than one value (the CLI config, or PSD tests at 1e-8 and 1e-10).
SETTABLE_TOLERANCES = {"psd_check", "psd_mask", "invert_transfer", "compose_transfer"}
TOLERANCE_NAMES = {"tol", "rank_tol", "rel_tol"}


def _exported_callables():
    for name in ["opspectra"] + [f"opspectra.{m}" for m in MODULES]:
        module = importlib.import_module(name)
        for attr in getattr(module, "__all__", []):
            obj = getattr(module, attr)
            if inspect.isfunction(obj):
                yield f"{name}.{attr}", attr, obj
            elif inspect.isclass(obj):
                # the constructor and public methods the class defines itself
                for meth, fn in vars(obj).items():
                    fn = getattr(fn, "__func__", fn)
                    public = meth == "__init__" or not meth.startswith("_")
                    if public and inspect.isfunction(fn):
                        yield f"{name}.{attr}.{meth}", meth, fn


def test_no_tolerance_parameter_outside_the_allowlist():
    offenders = sorted(
        qualified
        for qualified, short, fn in _exported_callables()
        if short not in SETTABLE_TOLERANCES
        and TOLERANCE_NAMES & set(inspect.signature(fn).parameters)
    )
    assert not offenders, f"fixed tolerances exposed as parameters: {offenders}"


# Code that counts as a caller; tests do not.
CALLER_DIRS = ("src", "demos", "benchmarks")
# Operator methods are public surface although their names start with "_".
OPERATOR_METHODS = {
    f"__{r}{op}__"
    for op in ("add", "sub", "mul", "matmul", "truediv", "pow", "and", "or", "xor")
    for r in ("", "r", "i")
} | {"__neg__", "__pos__", "__abs__", "__invert__"}
# Public names that nothing in CALLER_DIRS calls, each kept for its place in
# the paper's calculus or its documented input format.
PAPER_NAMES = {
    "gramian_norm": "the Gramian norm ||Phi||_nu of a transfer function",
    "scalar_integral": "the integral of a scalar function against the measure",
    "ckl_component": "the n-th Cramer-Karhunen-Loeve component of W",
    "ckl_scalar_component": "the n-th scalar (univariate) CKL component of W",
    "RandomMeasure.restrict": "the random measure W on a union of atoms",
    "AtomicTracePovm.from_atoms": "the measure builder README Conventions documents",
    "encode_fir": "writes the FIR input format the command line reads",
    "outer": "the rank-one operator x (x) y behind the CKL components",
}


def _referenced_identifiers() -> set:
    """Every name and attribute read anywhere in ``CALLER_DIRS``; import
    statements, definitions and attributes of numpy do not count."""
    root = Path(__file__).resolve().parents[1]
    names = set()
    for folder in CALLER_DIRS:
        for path in sorted((root / folder).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute) and not (
                    # np.outer reads numpy's name, not the library's
                    isinstance(node.value, ast.Name)
                    and node.value.id in ("np", "numpy")
                ):
                    names.add(node.attr)
    return names


def _public_surface():
    """``(qualified, identifier)`` for every exported function and class and
    every public method, property or operator of an exported class."""
    for name in ["opspectra"] + [f"opspectra.{m}" for m in MODULES]:
        module = importlib.import_module(name)
        for attr in getattr(module, "__all__", []):
            obj = getattr(module, attr)
            if inspect.isfunction(obj):
                yield attr, attr
            elif inspect.isclass(obj):
                yield attr, attr
                for meth, member in vars(obj).items():
                    if meth.startswith("_") and meth not in OPERATOR_METHODS:
                        continue
                    member = getattr(member, "__func__", member)
                    if inspect.isfunction(member) or isinstance(member, property):
                        yield f"{attr}.{meth}", meth


def test_every_public_name_has_a_caller_or_a_reason():
    used = _referenced_identifiers()
    surface = dict(_public_surface())
    orphans = sorted(
        q for q, ident in surface.items() if ident not in used and q not in PAPER_NAMES
    )
    assert not orphans, f"public names only tests call: {orphans}"
    # an allowlisted name that gains a caller or leaves the surface leaves
    # the list
    stale = sorted(
        q for q in PAPER_NAMES if q not in surface or surface[q] in used
    )
    assert not stale, f"PAPER_NAMES entries without need: {stale}"


# What only the sampler knows: an atom's generator, kernel and draw.
DRAW_INTERNALS = {"_atom_rng", "_draw_atom", "_kernel"}


def _verify_tree():
    path = Path(importlib.import_module("opspectra.verify").__file__)
    return ast.parse(path.read_text(), str(path))


def test_the_battery_reads_no_draw_internals():
    """``random_measure`` owns the one stream of sampled rows: the battery
    reads its block measures and neither imports nor reads the names that
    draw an atom's rows."""
    read = set()
    for node in ast.walk(_verify_tree()):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            read.update(alias.name for alias in node.names)
    assert not read & DRAW_INTERNALS, sorted(read & DRAW_INTERNALS)


def test_the_battery_reduces_and_decides_at_one_site_each():
    """``verify._gap``, which reads a NaN as inf, is the one reduction of a
    residual, and ``verify._result`` the one pass rule: no other code calls
    an array's ``.max()``, and no call passes its own ``ok=``."""
    tree = _verify_tree()
    gap = next(n for n in tree.body if getattr(n, "name", None) == "_gap")
    in_gap = set(map(id, ast.walk(gap)))
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
    reductions = [
        call
        for call in calls
        if isinstance(call.func, ast.Attribute) and call.func.attr == "max"
    ]
    assert reductions
    assert [c.lineno for c in reductions if id(c) not in in_gap] == []
    assert [c.lineno for c in calls if any(k.arg == "ok" for k in c.keywords)] == []


def test_every_record_is_set_and_pickled_at_one_site():
    """``errors._Record`` holds the record contract once: every record is
    one, only ``errors`` calls ``object.__setattr__``, and only the records
    that rebuild otherwise than from their fields override ``__reduce__``."""
    assert all(isinstance(r, errors._Record) for r in _array_dataclass_instances())
    setters, reducers, defs = set(), [], 0
    for path in sorted(Path(opspectra.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Attribute) and node.attr == "__setattr__"
                    and isinstance(node.value, ast.Name) and node.value.id == "object"):
                setters.add(path.stem)
            elif isinstance(node, ast.FunctionDef) and node.name == "__reduce__":
                defs += 1
            elif isinstance(node, ast.ClassDef):
                reducers += [node.name for f in node.body
                             if getattr(f, "name", None) == "__reduce__"]
    assert setters == {"errors"}
    assert len(reducers) == defs  # every __reduce__ is a method of a class
    assert sorted(reducers) == ["AtomicTracePovm", "CklSystem", "FirFilter", "_Record"]


def _array_dataclass_instances():
    nu = bundled_example_povm()
    w = sample_gaussian_measure(nu, 4, seed=1)
    s = ckl_decompose(nu)
    return [
        nu,
        radon_nikodym(nu),
        TransferFunction(3, 3, nu.freqs, nu.weights),
        FirFilter({0: np.eye(2)}),
        autocov_from_povm(nu, 2),
        w,
        synthesize_process(w, 4),
        to_increment_path(w),
        s,
        pushforward_povm(random_transfer(make_rng(7), 3, 3, nu.freqs), nu),
        # built directly, from writable copies of its arrays
        CklSystem(nu, *(np.array(getattr(s, name)) for name in
                        ("base_weights", "eigenvalues", "eigenvectors", "ranks"))),
    ]


RECORDS = range(len(_array_dataclass_instances()))


@pytest.mark.parametrize("index", RECORDS)
def test_array_dataclasses_compare_by_identity(index):
    a = _array_dataclass_instances()[index]
    b = _array_dataclass_instances()[index]
    assert a == a and a != b
    assert a in [b, a] and b not in [a]
    assert len({a, b, a}) == 2


COPIES = {
    "pickle": lambda x: pickle.loads(pickle.dumps(x)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}
CACHES = ("_eigensystem", "_gram_factors")


@pytest.mark.parametrize("how", sorted(COPIES))
@pytest.mark.parametrize("index", RECORDS)
def test_array_dataclasses_rebuild_faithfully(index, how):
    a = _array_dataclass_instances()[index]
    b = COPIES[how](a)
    assert type(b) is type(a)
    assert not set(CACHES) & set(vars(b))
    if "_factors" in vars(a):
        assert b.gram_factors().tobytes() == a.gram_factors().tobytes()
    for name, value in vars(a).items():
        if isinstance(value, np.ndarray) and name not in CACHES:
            assert np.array_equal(vars(b)[name], value), name
            if not value.flags.writeable:
                assert not vars(b)[name].flags.writeable, name


def _held_arrays(record) -> dict:
    """Every array field of a record, and each FIR tap under its lag."""
    if isinstance(record, FirFilter):
        return dict(record.taps)
    return {
        f.name: getattr(record, f.name) for f in dataclasses.fields(record)
        if isinstance(getattr(record, f.name), np.ndarray)
    }


def _read_only_view(a: np.ndarray) -> np.ndarray:
    view = a.view()
    view.flags.writeable = False
    return view


def _rebuilt_from(record, inputs) -> object:
    """``record`` built again by its constructor from ``inputs``, arrays in
    the place of those :func:`_held_arrays` finds."""
    if isinstance(record, FirFilter):
        return FirFilter(inputs)
    return dataclasses.replace(record, **inputs)


@pytest.mark.parametrize("index", RECORDS)
def test_array_dataclasses_record_no_array_a_caller_can_change(index):
    record = _array_dataclass_instances()[index]
    held = _held_arrays(record)
    assert held
    for value in held.values():
        assert not value.flags.writeable
    if isinstance(record, FirFilter):
        with pytest.raises(TypeError):
            record.taps[1] = np.eye(3)
    # the caller's own writable arrays, then read-only views of them
    for wrap in (lambda a: a, _read_only_view):
        owned = {key: np.array(value) for key, value in held.items()}
        rebuilt = _rebuilt_from(record, {key: wrap(a) for key, a in owned.items()})
        for a in owned.values():
            a += 1
        for key, value in _held_arrays(rebuilt).items():
            assert not value.flags.writeable, key
            assert np.array_equal(value, held[key]), key
    for how, copier in COPIES.items():
        for key, value in _held_arrays(copier(record)).items():
            assert not value.flags.writeable, (how, key)


def test_every_array_dataclass_is_listed():
    """A new record that holds arrays must join the list above, so that the
    tests over it cover it."""
    listed = {type(record) for record in _array_dataclass_instances()}
    holders = {
        cls
        for name in MODULES
        for cls in vars(importlib.import_module(f"opspectra.{name}")).values()
        if dataclasses.is_dataclass(cls) and isinstance(cls, type)
        and any("ndarray" in str(f.type) or f.name == "taps"
                for f in dataclasses.fields(cls))
    }
    assert {AtomicTracePovm, CklSystem, FirFilter} <= holders
    assert not holders - listed, f"unlisted array dataclasses: {holders - listed}"


def test_no_record_copies_a_library_built_array(monkeypatch):
    """From read-only inputs through every stage of the pipeline, each array
    a record receives is kept: the library marks what it builds."""
    source = bundled_example_povm()
    weights = np.array(source.weights)
    ops = np.array(random_transfer(make_rng(5), 3, 3, source.freqs).ops)
    off_grid = source.freqs - 0.01
    for a in (weights, ops, off_grid):
        a.flags.writeable = False
    copied = []
    keep = errors._frozen

    def spy(value, dtype):
        frozen = keep(value, dtype)
        if not np.shares_memory(frozen, value):
            copied.append((np.shape(value), dtype))
        return frozen

    for name in MODULES:
        module = importlib.import_module(f"opspectra.{name}")
        if getattr(module, "_frozen", None) is keep:
            monkeypatch.setattr(module, "_frozen", spy)
    nu = AtomicTracePovm(3, source.freqs, weights)
    fit = povm_from_autocov_grid(autocov_from_povm(nu, 15), 16)
    w = sample_gaussian_measure(fit, 8, seed=3)
    synthesize_process(w, 16)
    phi = TransferFunction(3, 3, fit.freqs, ops)
    filtered = apply_filter(phi, w)
    apply_filter(invert_transfer(phi, fit), filtered)
    ckl_decompose(filtered.intensity)
    # the dense route of the Fourier sums, off the grid
    w = sample_gaussian_measure(AtomicTracePovm(3, off_grid, weights), 8, seed=3)
    autocov_from_povm(w.intensity, 4)
    synthesize_process(w, 16)
    assert nu.weights is weights and phi.ops is ops
    assert copied == []


@pytest.mark.parametrize(
    "build",
    [
        lambda: AtomicTracePovm(True, [0.0], np.ones((1, 1, 1))),
        lambda: AtomicTracePovm(1.0, [0.0], np.ones((1, 1, 1))),
        lambda: TransferFunction(1.0, 1.0, [0.0], np.ones((1, 1, 1))),
        lambda: TransferFunction(1, True, [0.0], np.ones((1, 1, 1))),
        lambda: AutocovarianceSequence(1, 0.0, np.ones((1, 1, 1))),
        lambda: IncrementPath(3.0, [0.0], np.ones((1, 2, 3))),
        lambda: ProcessSample(3, 3.0, np.ones((2, 3, 3))),
        lambda: ProcessSample(True, 3, np.ones((2, 3, 1))),
    ],
)
def test_record_counts_follow_the_integer_rule(build):
    with pytest.raises(DimensionError, match="must be integers"):
        build()


FREQS = np.linspace(-3.0, 3.0, 4)
ZEROS = np.zeros((4, 3, 3))
NU = AtomicTracePovm(3, FREQS, ZEROS)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: RandomMeasure(np.zeros((3, 5, 3)), NU),
         "samples must have shape (4, R, 3), got (3, 5, 3)"),
        (lambda: ProcessSample(3, 4, np.zeros((5, 3))),
         "values must have shape (R, 4, 3), got (5, 3)"),
        (lambda: IncrementPath(3, FREQS, np.zeros((4, 5, 2))),
         "increments must have shape (4, R, 3), got (4, 5, 2)"),
        (lambda: AutocovarianceSequence(3, 2, ZEROS[:2]),
         "values must have shape (3, 3, 3), got (2, 3, 3)"),
        (lambda: TransferFunction(3, 2, FREQS, ZEROS),
         "ops must have shape (4, 2, 3), got (4, 3, 3)"),
        (lambda: TransferFunction(3, 3, FREQS, ZEROS, np.zeros((4, 2, 2))),
         "domains must have shape (4, 3, 3), got (4, 2, 2)"),
        (lambda: AtomicTracePovm(3, FREQS, np.zeros((4, 3, 3, 1))),
         "weights must have shape (4, 3, 3), got (4, 3, 3, 1)"),
    ],
    ids=["samples", "process-values", "increments", "autocov-values", "ops",
         "domains", "weights"],
)
def test_a_wrong_shape_names_the_field_the_extents_and_the_shape(build, message):
    with pytest.raises(DimensionError, match=f"^{re.escape(message)}$"):
        build()


@pytest.mark.parametrize("build", [ckl_decompose, radon_nikodym])
def test_ckl_and_density_arrays_are_read_only(build):
    record = build(bundled_example_povm())
    fields = [v for v in vars(record).values() if isinstance(v, np.ndarray)]
    assert len(fields) == (4 if build is ckl_decompose else 2)
    for value in fields:
        with pytest.raises(ValueError, match="read-only"):
            value[0] = 0


def test_read_only_ranks_keep_the_range_projectors():
    s = ckl_decompose(bundled_example_povm())
    before = s.range_projectors()
    with pytest.raises(ValueError):
        s.ranks[0] = 0
    assert np.array_equal(s.range_projectors(), before)


def test_density_keeps_no_writable_caller_array():
    nu = bundled_example_povm()
    mu = np.full(nu.n_atoms, 2.0)
    density = radon_nikodym(nu, mu)
    assert mu.flags.writeable  # the caller's array is left as it was
    mu[0] = 7.0
    assert density.base_weights[0] == 2.0
    direct = type(density)(mu, np.array(density.densities))
    mu[0] = 9.0
    assert direct.base_weights[0] == 7.0
    assert not direct.base_weights.flags.writeable
    assert not direct.densities.flags.writeable


def test_reports_keep_value_equality():
    assert CheckResult("id", "p", "pass", 0.0, 1.0) == CheckResult(
        "id", "p", "pass", 0.0, 1.0
    )


def test_numpy_integer_counts_reach_json():
    json.dumps(encode_povm(AtomicTracePovm(np.int64(1), [0.0], np.ones((1, 1, 1)))))
    nu = bundled_example_povm()
    json.dumps(encode_autocov(autocov_from_povm(nu, np.int32(2))))


# the document of every record that has one, and the records without one
DOCUMENTS = {
    AtomicTracePovm: (encode_povm, decode_povm),
    TransferFunction: (encode_transfer, decode_transfer),
    FirFilter: (encode_fir, decode_fir),
    AutocovarianceSequence: (encode_autocov, decode_autocov),
    ProcessSample: (encode_series, decode_series),
}
NO_DOCUMENT = {PovmDensity, RandomMeasure, IncrementPath, CklSystem}
DOCUMENTED = [
    i for i, r in enumerate(_array_dataclass_instances()) if type(r) in DOCUMENTS
]


def test_every_record_has_a_document_or_is_listed_without_one():
    kinds = {type(r) for r in _array_dataclass_instances()}
    assert kinds == set(DOCUMENTS) | NO_DOCUMENT
    assert not set(DOCUMENTS) & NO_DOCUMENT


def _with_counts(record, kind):
    """``record`` built again with each integer count given as ``kind``."""
    if isinstance(record, FirFilter):
        return FirFilter({kind(s): op for s, op in record.taps.items()})
    counts = {
        f.name: kind(getattr(record, f.name)) for f in dataclasses.fields(record)
        if type(getattr(record, f.name)) is int
    }
    assert counts
    return dataclasses.replace(record, **counts)


def _fields(record) -> dict:
    """Every field of a record; a FIR filter's lags and taps."""
    if isinstance(record, FirFilter):
        return {**{f"lag {s}": s for s in record.taps},
                **{f"tap {s}": op for s, op in record.taps.items()}}
    return {f.name: getattr(record, f.name) for f in dataclasses.fields(record)}


def _json_native(value) -> bool:
    if isinstance(value, dict):
        return all(type(k) is str and _json_native(v) for k, v in value.items())
    if isinstance(value, list):
        return all(map(_json_native, value))
    return type(value) in (str, int, float, bool, type(None))


@pytest.mark.parametrize("kind", [int, np.int32, np.int64, np.uint8],
                         ids=lambda k: k.__name__)
@pytest.mark.parametrize("index", DOCUMENTED)
def test_records_round_trip_through_json_files(index, kind, tmp_path):
    record = _with_counts(_array_dataclass_instances()[index], kind)
    encode, decode = DOCUMENTS[type(record)]
    doc = encode(record)
    assert _json_native(doc)
    write_json(doc, tmp_path / "record.json")
    back = decode(read_json(tmp_path / "record.json"))
    assert type(back) is type(record)
    fields, got = _fields(record), _fields(back)
    assert set(got) == set(fields)
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            assert got[name].dtype == value.dtype and got[name].shape == value.shape
            assert got[name].tobytes() == value.tobytes(), name
            assert not got[name].flags.writeable, name
        elif value is None:
            assert got[name] is None, name
        else:  # a count, held as a Python int
            assert type(value) is int and type(got[name]) is int, name
            assert got[name] == value, name

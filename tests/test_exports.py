import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import opspectra
from opspectra import (
    FirFilter,
    TransferFunction,
    autocov_from_povm,
    ckl_decompose,
    radon_nikodym,
    sample_gaussian_measure,
    synthesize_process,
    to_increment_path,
)
from opspectra.povm import CheckReport
from opspectra.synthetic import bundled_example_povm
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


def _array_dataclass_instances():
    nu = bundled_example_povm()
    w = sample_gaussian_measure(nu, 4, seed=1)
    return [
        nu,
        radon_nikodym(nu),
        TransferFunction.identity(3, nu.freqs),
        FirFilter({0: np.eye(2)}),
        autocov_from_povm(nu, 2),
        w,
        synthesize_process(w, 4),
        to_increment_path(w),
        ckl_decompose(nu),
    ]


@pytest.mark.parametrize("index", range(9))
def test_array_dataclasses_compare_by_identity(index):
    a = _array_dataclass_instances()[index]
    b = _array_dataclass_instances()[index]
    assert a == a and a != b
    assert a in [b, a] and b not in [a]
    assert len({a, b, a}) == 2


def test_reports_keep_value_equality():
    assert CheckReport(True, [{"atom": 0}]) == CheckReport(True, [{"atom": 0}])
    assert CheckResult("id", "p", "pass", 0.0, 1.0) == CheckResult(
        "id", "p", "pass", 0.0, 1.0
    )

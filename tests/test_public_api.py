"""The package namespace is exactly what the library submodules declare public."""

import types

import bvconc
from bvconc import bounds, coefficients, empirical, errors, kstests, montecarlo

MODULES = (bounds, coefficients, empirical, kstests, montecarlo)

# errors.py declares no ``__all__``; its public names are these classes
EXCEPTIONS = (
    "BvconcError",
    "ConvergenceError",
    "DataFormatError",
    "DomainError",
    "LipschitzConsistencyError",
    "VacuousBoundError",
)


def test_public_names_are_the_submodules_all_plus_the_exceptions():
    public = {
        name
        for name, value in vars(bvconc).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(EXCEPTIONS).union(*(module.__all__ for module in MODULES))


def test_each_name_is_the_submodule_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(bvconc, name) is getattr(module, name), (module.__name__, name)
    for name in EXCEPTIONS:
        assert getattr(bvconc, name) is getattr(errors, name)

import importlib

import pytest

import markovbin

SUBMODULES = ("core", "fit", "bounds", "stein", "coupling", "cli")


@pytest.mark.parametrize("name", ("markovbin", *(f"markovbin.{sub}" for sub in SUBMODULES)))
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [export for export in module.__all__ if not hasattr(module, export)]
    assert missing == []


def test_package_exports_are_unique():
    assert len(markovbin.__all__) == len(set(markovbin.__all__))


def test_each_package_export_comes_from_one_submodule():
    owners = {}
    for sub in SUBMODULES:
        module = importlib.import_module(f"markovbin.{sub}")
        for export in module.__all__:
            owners.setdefault(export, []).append(module)
    for export in markovbin.__all__:
        if export == "__version__":
            continue
        assert len(owners.get(export, [])) == 1, export
        assert getattr(markovbin, export) is getattr(owners[export][0], export)

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


def test_package_exports_are_pinned():
    # every layer module's __all__ is package API: a name added there must
    # also be added here
    assert set(markovbin.__all__) == {
        "MAX_EXACT_N", "ChainParams", "StationaryLaw", "Pmf", "MomentSummary", "stationary_law",
        "exact_pmf", "exact_conditional_pmf", "moments_closed_form", "moments_from_pmf",
        "tv_distance", "shift_tv",
        "Regime", "RegimeError", "DegenerateFitError", "ConsistencyError", "NbFit", "BinFit",
        "classify_regime", "fit_negative_binomial", "fit_binomial", "nb_pmf", "binomial_pmf",
        "poisson_pmf",
        "BoundConstants", "BoundReport", "bound_constants", "gamma_fn", "bound_nb",
        "bound_binomial",
        "Lemma24Report", "verify_lemma24",
        "CoupledState", "MeetingSamples", "sample_sums", "empirical_pmf",
        "coupled_transition_law", "sample_meeting_times",
        "__version__",
    }

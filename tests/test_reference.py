"""Literature values shipped with the library: dataset names and lookups."""

import pytest

from sinecast.reference import canonical_dataset_key, reported_mae


@pytest.mark.parametrize("name", ["Milan T", "milan-temperature", "milan_temperature"])
def test_free_form_names_resolve_to_one_key(name):
    assert canonical_dataset_key(name) == "milan_temperature"


@pytest.mark.parametrize("name", ["toy", "sine", "multi_sine_trend", "tidal", "", "--"])
def test_other_names_resolve_to_none(name):
    assert canonical_dataset_key(name) is None


def test_benchmark_horizon_reads_the_main_table():
    assert reported_mae("ETTh1", 96, "FEDformer") == 0.419
    assert reported_mae("ETTh1", 97, "FEDformer") is None
    assert reported_mae("toy", 96, "SLP") is None


def test_extreme_horizon_reads_its_own_table():
    # Venice@1440 is not in the main table, only in the extreme-horizon one,
    # which holds no literature-only model
    assert reported_mae("Venice", 1440, "SLP") == 0.395
    assert reported_mae("venice", 1440, "Persistence") == 0.68
    assert reported_mae("Venice", 1440, "FEDformer") is None

import os
import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir
import pytest

from latticelab import nerve, presets, smallness

# Property tests draw the same examples on every run and keep no example
# database, so a run neither depends on nor writes earlier runs' state.
# Hypothesis still caches the literals it scans from the source; that cache
# goes to the temp directory instead of the checkout.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
set_hypothesis_home_dir(os.path.join(tempfile.gettempdir(), "latticelab-hypothesis"))


@pytest.fixture(scope="session")
def sl2z():
    return presets.sl2z()


@pytest.fixture(scope="session")
def a5_group():
    return smallness.icosahedral_rotation_group()


@pytest.fixture(scope="session")
def octagon_surface():
    """(group, metric) for the genus-2 octagon quotient; the deck-set BFS is
    the expensive part, so build it once per session."""
    group = presets.octagon_genus2()
    metric = nerve.SurfaceMetric(
        group,
        presets.octagon_center(),
        region_radius=presets.octagon_circumradius(),
        interaction_radius=1.25,
        slack=5.0,
    )
    return group, metric

import pytest

from ehsense import BeliefGrid, SystemParams


def two_point_pmf(q: float, top: int):
    """Harvest pmf with mass q at `top` units and 1-q at zero."""
    pmf = [0.0] * (top + 1)
    pmf[0] = 1.0 - q
    pmf[top] += q
    return tuple(pmf)


@pytest.fixture
def tiny_params():
    """Small single-rate instance that the exact recursion can handle."""
    return SystemParams(lambda0=0.3, lambda1=0.8, energy_pmf=(0.5, 0.5),
                        b_max=4, e_tx=2, e_sense=1, r_low=0.0, r_high=1.0,
                        beta=0.9)


@pytest.fixture
def tiny_two_rate():
    """Small two-rate instance exercising all five actions."""
    return SystemParams(lambda0=0.3, lambda1=0.8, energy_pmf=(0.5, 0.5),
                        b_max=6, e_tx=2, e_sense=1, r_low=1.0, r_high=3.0,
                        beta=0.9)


@pytest.fixture
def region_params():
    """The main region-plot instance (single rate, slow harvesting)."""
    return SystemParams(lambda0=0.6, lambda1=0.9, energy_pmf=two_point_pmf(0.1, 10),
                        b_max=50, e_tx=10, e_sense=2, r_low=0.0, r_high=3.0,
                        beta=0.98)


@pytest.fixture
def search_params():
    """Single-rate instance small enough for fast search evaluations."""
    return SystemParams(lambda0=0.2, lambda1=0.8, energy_pmf=two_point_pmf(0.4, 5),
                        b_max=10, e_tx=5, e_sense=1, r_low=0.0, r_high=2.0,
                        beta=0.95)


@pytest.fixture
def coarse_grid():
    return BeliefGrid.from_resolution(101)


@pytest.fixture
def fine_grid():
    return BeliefGrid.from_resolution(1001)

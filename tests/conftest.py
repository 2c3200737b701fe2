import math

import pytest

from ddmemory import HARD, NoiseSpectrum, integrals, load_preset

TWO_PI = 2.0 * math.pi


@pytest.fixture(autouse=True)
def cold_crossover_check():
    """Start and leave every test with no memoised crossover check, so a
    patched evaluation cannot leak into another test's check."""
    integrals._crossover_agreement.cache_clear()
    yield
    integrals._crossover_agreement.cache_clear()


@pytest.fixture(scope="session")
def gaas() -> NoiseSpectrum:
    return load_preset("gaas")


@pytest.fixture(scope="session")
def gaas_hard(gaas) -> NoiseSpectrum:
    from dataclasses import replace

    return replace(gaas, rolloff=HARD)


@pytest.fixture(scope="session")
def yb() -> NoiseSpectrum:
    return load_preset("yb")

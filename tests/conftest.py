import os

import numpy as np
import pytest

from metastab import quartic_double_well, sde
from metastab.fields import mode_wavenumbers


@pytest.fixture
def quartic():
    return quartic_double_well()


@pytest.fixture
def no_noise(monkeypatch):
    """Makes any draw of the engine's noise fail the test."""
    def draw(*args, **kwargs):
        raise AssertionError("the engine drew noise")

    monkeypatch.setattr(sde, "_draw_noise", draw)


@pytest.fixture
def one_worker(monkeypatch):
    """Runs every replica range in this process, where recorders of engine
    calls can see them: a forked range's calls stay in its child."""
    monkeypatch.setattr(sde, "_usable_cpus", lambda: 1)


@pytest.fixture
def forks(monkeypatch):
    """Three usable CPUs, and the pids of the children forked here."""
    monkeypatch.setattr(sde, "_usable_cpus", lambda: 3)
    pids, fork = [], os.fork

    def recording():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording)
    return pids


@pytest.fixture
def rng():
    return np.random.default_rng(20200115)


class ComplexReference:
    """Band<->grid transform by complex FFTs of the whole band (M^d embedding).

    The oracle for fields.BandGrid, batched over leading axes like it.  grid()
    keeps the imaginary part, which vanishes for conjugate-symmetric bands.
    """

    @staticmethod
    def _rows(N, M, d):
        idx = mode_wavenumbers(N) % M
        return (idx,) if d == 1 else (idx[:, None], idx[None, :])

    @classmethod
    def grid(cls, coeffs, d, L, N, M):
        big = np.zeros(coeffs.shape[:-d] + (M,) * d, dtype=complex)
        big[(Ellipsis,) + cls._rows(N, M, d)] = coeffs
        axes = tuple(range(-d, 0))
        return np.fft.ifftn(big, axes=axes) * (M**d) * L ** (-d / 2)

    @classmethod
    def project(cls, values, d, L, N):
        M = values.shape[-1]
        spec = np.fft.fftn(values, axes=tuple(range(-d, 0))) / (M**d) * L ** (d / 2)
        return spec[(Ellipsis,) + cls._rows(N, M, d)]


@pytest.fixture
def complex_reference():
    return ComplexReference

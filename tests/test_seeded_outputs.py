"""Seeded outputs as a contract: sha256 digests of hitting arrays, endpoints,
paths, field trajectories, snapshot files and CLI results.csv bytes, the
oracles' (1D solver, determinants, rate laws) included, and the summary.json
bytes of the two hitting experiments, which pin their batches' statistics.

A refactor that claims bit-identical outputs must pass these unchanged.  The
SDE, field, snapshot and CLI entries also run under tiny noise blocks and
expect the same digests, since a replica's stream does not depend on how its
steps are split into blocks.  The
field entries run numpy FFTs, whose last bits may differ between numpy
releases, so they skip on a numpy other than the one the digests were taken
with; the SDE entries use only numpy's Generator streams and arithmetic and
always run.

PYTHONPATH=src python tests/test_seeded_outputs.py prints each entry's
current digest beside its recorded one and names the entries that moved
(exit status 1 if any did), so a change that must re-record can list them.
"""

import hashlib
import warnings

import numpy as np
import pytest

from metastab import (SdeRun, constant_field, double_well_2d, galerkin_potential_1d,
                      quartic_double_well, random_field, sde)
from metastab.cli import main
from metastab.sde import hitting_times_raw, integrate_path, sample_endpoints
from metastab.spde import (
    SpdeRun,
    integrate_deterministic,
    noise_coefficient_check,
    record_snapshots,
    spatial_mean_trajectory,
    spde_hitting_times_raw,
)

FFT_NUMPY = "2.4.6"
needs_fft = pytest.mark.skipif(
    np.__version__ != FFT_NUMPY,
    reason=f"field digests were taken with numpy {FFT_NUMPY}; "
           f"this is numpy {np.__version__}")


def _digest(*parts) -> str:
    """sha256 over each part's dtype, shape and bytes (raw bytes as they are)."""
    h = hashlib.sha256()
    for p in parts:
        if not isinstance(p, bytes):
            a = np.ascontiguousarray(p)
            h.update(f"{a.dtype.str}{a.shape}".encode())
            p = a.tobytes()
        h.update(p)
    return h.hexdigest()


def _sde(pot, x0, seed, **kw):
    return SdeRun(pot, epsilon=kw.pop("epsilon", 0.3), dt=1e-3, x0=x0, seed=seed, **kw)


def _field(d, L, N, start, eps, dt, seed, t_max=1.0, f0=None):
    f0 = constant_field(d, L, N, start) if f0 is None else f0
    return SpdeRun(field0=f0, epsilon=eps, dt=dt, t_max=t_max, seed=seed)


def _noise_check():
    rep = noise_coefficient_check(_field(1, 2.0, 4, 0.0, 0.2, 0.02, 6),
                                  T_values=(0.5, 1.0), n=200)
    return rep.empirical_var, rep.pair_correlation


SDE_ENTRIES = {
    "hitting_quartic": lambda: hitting_times_raw(
        _sde(quartic_double_well(), [-1.0], 7, t_max=12.0), [1.0], 0.2, 16),
    "hitting_double_well_2d": lambda: hitting_times_raw(
        _sde(double_well_2d(), [-1.0, 0.0], 8, t_max=12.0), [1.0, 0.0], 0.3, 8),
    "hitting_start_inside": lambda: hitting_times_raw(
        _sde(quartic_double_well(), [1.05], 9), [1.0], 0.2, 8),
    # 2100 replicas run as two of sample_endpoints' ranges
    "endpoints_n2100": lambda: sample_endpoints(
        _sde(quartic_double_well(), [0.5], 10), 0.05, 2100),
    # 2100 steps run past two 1024-step noise blocks
    "path_final": lambda: integrate_path(
        _sde(quartic_double_well(), [-1.0], 11), 2.1),
    "path_record": lambda: integrate_path(
        _sde(double_well_2d(), [-1.0, 0.2], 12), 2.1, record=True),
}

FIELD_ENTRIES = {
    "hitting_d1_linf": lambda: spde_hitting_times_raw(
        _field(1, 2.0, 8, 0.0, 0.5, 2e-3, 21, t_max=2.0), 1.0, 0.4, n=16),
    "hitting_d2_hs": lambda: spde_hitting_times_raw(
        _field(2, 1.5, 4, 0.0, 0.6, 2e-3, 22, t_max=1.0), 1.0, 1.0,
        norm="hs", n=8),
    "hitting_d1_linf_inside": lambda: spde_hitting_times_raw(
        _field(1, 2.0, 8, 1.0, 0.5, 2e-3, 23), 1.0, 0.3, n=8),
    "hitting_d2_hs_inside": lambda: spde_hitting_times_raw(
        _field(2, 1.5, 4, 1.0, 0.6, 2e-3, 24), 1.0, 0.5, norm="hs", n=8),
    "mean_trajectory_d1": lambda: spatial_mean_trajectory(
        _field(1, 2.0, 8, -1.0, 0.2, 1e-3, 3), 0.5),
    "mean_trajectory_d2_N8": lambda: spatial_mean_trajectory(
        _field(2, 1.5, 8, -1.0, 0.3, 2e-3, 4), 0.2),
    "mean_trajectory_d2_N16": lambda: spatial_mean_trajectory(
        _field(2, 1.5, 16, -1.0, 0.3, 2e-3, 5), 0.1),
    "deterministic_d1": lambda: integrate_deterministic(
        _field(1, 2.0, 6, 0, 0.0, 1e-3, 0,
               f0=random_field(1, 2.0, 6, np.random.default_rng(3), 0.5)),
        0.2, record_every=7),
    "deterministic_d2": lambda: integrate_deterministic(
        _field(2, 1.5, 4, 0, 0.0, 2e-3, 0,
               f0=random_field(2, 1.5, 4, np.random.default_rng(4), 0.5)),
        0.1, record_every=5),
    "noise_check": _noise_check,
    # the truncated field (N = 2, L = 2) as a 5-dimensional SDE in its
    # orthonormal coordinates, from -1 to +1: Euler-Maruyama on the Galerkin
    # potential is the field's own truncated dynamics
    "hitting_galerkin_N2": lambda: hitting_times_raw(
        SdeRun(galerkin_potential_1d(2.0, 2), epsilon=0.4, dt=2e-3,
               x0=[-np.sqrt(2), 0, 0, 0, 0], seed=7, t_max=3.0),
        [np.sqrt(2), 0, 0, 0, 0], 0.3 * np.sqrt(2), 50),
}

SNAPSHOT_FILES = ("snap_0000.csv", "snap_0001.csv", "snap_0002.csv",
                  "trajectory.jsonl")

CLI_ENTRIES = {
    "sde-hitting": ["sde-hitting", "--epsilon", "0.3", "--dt", "1e-3",
                    "--x0", "-1", "--target", "1", "--delta", "0.2",
                    "--n", "12", "--t_max", "12", "--seed", "5"],
    "spde-hitting-d2-hs": ["spde-hitting", "--d", "2", "--L", "1.5", "--N", "4",
                           "--epsilon", "0.6", "--dt", "2e-3", "--t_max", "1",
                           "--start", "0", "--delta", "1.0", "--norm", "hs",
                           "--n", "8", "--seed", "3"],
    # the oracles: 1D solver, determinants and rate laws
    "potential-theory": ["potential-theory", "--epsilon", "0.25"],
    "determinant-d2": ["determinant", "--d", "2", "--L", "2", "--N", "32"],
    "kramers-quartic": ["kramers-predict", "--system", "quartic",
                        "--epsilon", "0.25"],
    "kramers-ac1d": ["kramers-predict", "--system", "ac1d", "--L", "2",
                     "--N", "64", "--epsilon", "0.4"],
    "kramers-ac2d": ["kramers-predict", "--system", "ac2d", "--L", "2",
                     "--N", "32", "--epsilon", "0.4"],
    "kramers-ac1d-galerkin": ["kramers-predict", "--system", "ac1d-galerkin",
                              "--L", "2", "--N", "4", "--epsilon", "0.4"],
    # censoring in every row: the batch's mean, stderr and n_censored
    "arrhenius-sweep-sde": ["arrhenius-sweep", "--system", "sde",
                            "--epsilon-list", "0.5,0.6,0.7", "--n", "8",
                            "--t_max", "6", "--seed", "5"],
}

RECORDED = {
    "hitting_quartic":
        "2f22202d79f4efd5cb4c0a24711986807aca45fda072cc81362c62c6fc1c7559",
    "hitting_double_well_2d":
        "6c2d4e2b32f40e47842e26ee2b4c14962b6314b4b23df7a061c484a5fc0b5053",
    "hitting_start_inside":
        "3aea3633e9223131c2a617279a316fd03b25c0d91a83d46838491ceed891a394",
    "endpoints_n2100":
        "eb7f2c77e826cb2eafd68d9a41a6c69f3c470bc7b6599780742660ed14bf0419",
    "path_final":
        "662a0209c7a53705d03a306ac0dec8b1f7db212fa345bbb3e302274df2c41adc",
    "path_record":
        "6c57759af5150d292c7bbcb09daabfb33a719cba4ce6548f7bffbe611245c0c6",
    "hitting_d1_linf":
        "b343c8a63c357660a6a1b948b7b1bc8c9ec8b45a6137f824bdb4d92f25475652",
    "hitting_d2_hs":
        "12177a062c802adc11e3e7f4498a97e4745fbaf26a1e3ea8d0e906f84761ce8a",
    "hitting_d1_linf_inside":
        "3aea3633e9223131c2a617279a316fd03b25c0d91a83d46838491ceed891a394",
    "hitting_d2_hs_inside":
        "3aea3633e9223131c2a617279a316fd03b25c0d91a83d46838491ceed891a394",
    "mean_trajectory_d1":
        "2b4076c31ee6bb92bb115811a8a1b21e76672849990a8fd62a33b536b2c72b11",
    "mean_trajectory_d2_N8":
        "349b86ce7e91867240c90590399946a31db7987755fb3ef2bbce7c99c572ba8a",
    "mean_trajectory_d2_N16":
        "ca981415ecca40e412c8a1dd45468d07987fa736a6fd96c52b9c3dd3999d12bb",
    "deterministic_d1":
        "2df501a61cb338c658825339046ecff42257837f7d1c1816721006889c70e98b",
    "deterministic_d2":
        "246ee239e293a96326f41d3788c59ef1aefbb714efbea1a139e43195f6c2a66b",
    "noise_check":
        "6012b754581907ee47d381cf2cea3e6ea1242a9a61f11447527a038b8a3f02aa",
    "hitting_galerkin_N2":
        "56c6f7469981675f06fb3a435c6558dabe2dc32f8530955bf42b028b29d20f39",
    "snap_0000.csv":
        "ee8a7b021ea6bdfbb5693af907dbb3f3e26b1c120f781acf9068ea4babb50079",
    "snap_0001.csv":
        "545fe55851698ed38d05959694a73045c73d0d902385bc7d6d4343589d1206eb",
    "snap_0002.csv":
        "da252f87be8d177893fffd5d24a761b3b5bf4ba86b2d0f6e808a8599ac984fc3",
    "trajectory.jsonl":
        "42fe8e143b5c030d9fa01da2ba429db04195b4bc4f6fbc454c8d51c9e48d4065",
    "sde-hitting":
        "7c906e3f2f6b582f3334da664f3b529105647c0ba57d88ea5773e5232da42a7a",
    "spde-hitting-d2-hs":
        "b80169d21eeacbee11de17a1ee9f756daea4badad74088eee629d0bc99139ff6",
    "potential-theory":
        "b53dbede9c5ec333b6cd5485ef716390135c3c835a231b734f58600f7e19e444",
    "determinant-d2":
        "fe0207b8dbdbfd4adbbfd47a1fc2b06017203de23d6c633b5f94b30218daa196",
    "kramers-quartic":
        "19ad8b9923ac2f61edf9892840bf8fbc0b92a1158d487c5746f1db9849f3f22f",
    "kramers-ac1d":
        "2d83f1acbd066d178bb498d0b6430f0bab9ce57e85eb4fa6c750806ca3f46f6b",
    "kramers-ac2d":
        "d0fa8eef964f8a0baa4f6dafc66a7b0a73910b5b89fca441da7bd7a0b574eb29",
    "kramers-ac1d-galerkin":
        "c11fdffaff32efa0a801b60afcabbf2709d16b2716afe2c903bf47c4bd225aba",
    "arrhenius-sweep-sde":
        "ff3fabd6a55eee94296af181dbcb9fc3d1d66254e708e0bb2678758593b70cb3",
    "sde-hitting:summary.json":
        "7c80fb3f33e2e452947b8aa835e89051186d10172ce01302c11e54cff46371c7",
    "spde-hitting-d2-hs:summary.json":
        "0d92291610508f4ddc4816f47da3691f2eadebb0adf59f32eb26b51d86add64b",
}


def _parts(out):
    return out if isinstance(out, tuple) else (out,)


@pytest.fixture
def tiny_blocks(monkeypatch):
    """Blocks of at most 13 steps and 128 values, with a floor of 8 values a
    replica: runs split into many short blocks whose lengths follow the live
    count, and sample_endpoints into ranges of at most 16 replicas."""
    monkeypatch.setattr(sde, "_MAX_STEPS", 13)
    monkeypatch.setattr(sde, "_MIN_DRAW", 8)
    monkeypatch.setattr(sde, "_BLOCK_NORMALS", 128)


def _sde_digest(name):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        out = SDE_ENTRIES[name]()
    return _digest(*_parts(out))


def _write_snapshots(out):
    record_snapshots(_field(2, 1.5, 4, -1.0, 0.3, 2e-3, 31), [0.05, 0.0, 0.014],
                     str(out), replica_index=2)


def _cli_digest(name, out, file="results.csv"):
    assert main(CLI_ENTRIES[name] + ["--out", str(out)]) == 0
    return _digest((out / file).read_bytes())


def _fft_marked(names):
    """names, those whose runs take BandGrid's FFTs (the field runs and the
    Galerkin energy) marked needs_fft."""
    fft = {"spde-hitting-d2-hs", "kramers-ac1d-galerkin"}
    return [pytest.param(name, marks=needs_fft) if name in fft else name
            for name in names]


CLI_NAMES = _fft_marked(CLI_ENTRIES)
# the hitting batches' mean, stderr, n_attempted and n_censored, recorded as
# "<entry>:summary.json"
SUMMARY_NAMES = _fft_marked(["sde-hitting", "spde-hitting-d2-hs"])


@pytest.mark.parametrize("name", SDE_ENTRIES)
def test_sde_output(name):
    assert _sde_digest(name) == RECORDED[name]


@needs_fft
@pytest.mark.parametrize("name", FIELD_ENTRIES)
def test_field_output(name):
    assert _digest(*_parts(FIELD_ENTRIES[name]())) == RECORDED[name]


@pytest.fixture(scope="module")
def snapshot_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("snapshots")
    _write_snapshots(out)
    return out


@needs_fft
@pytest.mark.parametrize("name", SNAPSHOT_FILES)
def test_snapshot_file(name, snapshot_dir):
    assert _digest((snapshot_dir / name).read_bytes()) == RECORDED[name]


@pytest.mark.parametrize("name", CLI_NAMES)
def test_cli_results_csv(name, tmp_path):
    assert _cli_digest(name, tmp_path) == RECORDED[name]


@pytest.mark.parametrize("name", SUMMARY_NAMES)
def test_cli_summary_json(name, tmp_path):
    assert (_cli_digest(name, tmp_path, "summary.json")
            == RECORDED[f"{name}:summary.json"])


class TestTinyBlocks:
    """Every recorded output again, with its steps split into tiny blocks."""

    @pytest.mark.parametrize("name", SDE_ENTRIES)
    def test_sde_output(self, name, tiny_blocks):
        assert _sde_digest(name) == RECORDED[name]

    @needs_fft
    @pytest.mark.parametrize("name", FIELD_ENTRIES)
    def test_field_output(self, name, tiny_blocks):
        assert _digest(*_parts(FIELD_ENTRIES[name]())) == RECORDED[name]

    @needs_fft
    def test_snapshot_files(self, tiny_blocks, tmp_path):
        _write_snapshots(tmp_path)
        for name in SNAPSHOT_FILES:
            assert _digest((tmp_path / name).read_bytes()) == RECORDED[name]

    @pytest.mark.parametrize("name", CLI_NAMES)
    def test_cli_results_csv(self, name, tiny_blocks, tmp_path):
        assert _cli_digest(name, tmp_path) == RECORDED[name]

    @pytest.mark.parametrize("name", SUMMARY_NAMES)
    def test_cli_summary_json(self, name, tiny_blocks, tmp_path):
        assert (_cli_digest(name, tmp_path, "summary.json")
                == RECORDED[f"{name}:summary.json"])


def current_digests(out) -> dict:
    """Every RECORDED entry's digest as the code now computes it, plainly
    (no tiny blocks), with snapshot and CLI files written under out."""
    digests = {name: _sde_digest(name) for name in SDE_ENTRIES}
    digests.update((name, _digest(*_parts(FIELD_ENTRIES[name]())))
                   for name in FIELD_ENTRIES)
    _write_snapshots(out / "snapshots")
    digests.update((name, _digest((out / "snapshots" / name).read_bytes()))
                   for name in SNAPSHOT_FILES)
    for name in RECORDED.keys() - digests.keys():  # "<entry>" or "<entry>:<file>"
        entry, _, file = name.partition(":")
        digests[name] = _cli_digest(entry, out / name.replace(":", "-"),
                                    file or "results.csv")
    return {name: digests[name] for name in RECORDED}


if __name__ == "__main__":  # see the module docstring
    import sys
    import tempfile
    from pathlib import Path

    if np.__version__ != FFT_NUMPY:
        print(f"numpy {np.__version__}: the field digests were taken with "
              f"numpy {FFT_NUMPY}")
    with tempfile.TemporaryDirectory() as tmp:
        digests = current_digests(Path(tmp))
    moved = [name for name, digest in digests.items() if digest != RECORDED[name]]
    for name, digest in digests.items():
        print(f"{name:32} {digest}  {'MOVED' if name in moved else 'same'}\n"
              f"{'':32} {RECORDED[name] or '(not recorded)'}")
    print(f"moved: {', '.join(moved)}" if moved else "no entry moved")
    sys.exit(1 if moved else 0)

"""Classical link: the noiseless bypass, the rng draws it skips, and odd frames."""
import math

import numpy as np
import pytest

import qtsim.sweeps as sweeps_mod
import qtsim.teleport as teleport_mod
from qtsim.cchannel import RicianParams
from qtsim.link import send_bits
from qtsim.sweeps import SweepSpec, render_csv, run_sweep
from qtsim.turbo import TurboConfig


@pytest.mark.parametrize("turbo_cfg", [TurboConfig(), None])
def test_noiseless_link_draws_nothing(turbo_cfg):
    bits = np.random.default_rng(80).integers(0, 2, size=999, dtype=np.int8)
    rng = np.random.default_rng(81)
    before = rng.bit_generator.state
    out = send_bits(bits, rng, snr_db=math.inf, rician=RicianParams(), turbo_cfg=turbo_cfg)
    assert out.dtype == np.int8 and np.array_equal(out, bits) and out is not bits
    assert rng.bit_generator.state == before


def test_noiseless_link_still_applies_bypass_flips():
    bits = np.zeros(4000, dtype=np.int8)
    out = send_bits(bits, np.random.default_rng(82), snr_db=math.inf, rician=RicianParams(),
                    turbo_cfg=TurboConfig(), bypass_ber=0.25)
    assert 800 < np.count_nonzero(out) < 1200


def test_odd_block_length_runs_coded_points_and_sessions():
    # K = 41 makes a block 3 * 41 + 6 = 129 coded bits, so an odd number of
    # blocks is an odd frame, which QPSK carries with one pad bit as it does
    # an odd uncoded frame
    turbo = TurboConfig(block_length=41)
    ber_rows = run_sweep(SweepSpec("classical_ber", snr_grid_db=(0.0, 4.0),
                                   trials_per_point=1025, seed=1, turbo=turbo))
    rows = ber_rows + run_sweep(SweepSpec(
        "qber_vs_snr", snr_grid_db=(0.0,), p_eq_list=(0.01,), trials_per_point=1000, seed=1,
        turbo=turbo,
    )) + run_sweep(SweepSpec(
        "qsdc_batch", snr_grid_db=(0.0,), p_eq_list=(0.005,), trials_per_point=2, seed=1,
        turbo=turbo, use_shor=True, payload_per_session=16,
    ))
    assert [row["error"] for row in rows] == [""] * len(rows)
    ber = {row["variant"]: row["ber"] for row in ber_rows if row["snr_db"] == 4.0}
    assert ber["turbo"] <= ber["uncoded"]


def _draw_after_send_bits(monkeypatch, *modules):
    """Make every ``send_bits`` call of ``modules`` move its rng on afterwards."""
    def send_then_draw(bits, rng, **link):
        out = send_bits(bits, rng, **link)
        rng.random(3)
        return out

    for module in modules:
        monkeypatch.setattr(module, "send_bits", send_then_draw)


_FINITE_SNR_SPECS = [
    # teleport_frames, with the turbo link (2 blocks), bit flips and the uncoded link
    SweepSpec("qber_vs_snr", snr_grid_db=(0.0,), p_eq_list=(0.05,), trials_per_point=1000,
              seed=3),
    SweepSpec("qber_vs_snr", p_eq_list=(0.05,), trials_per_point=2000, seed=5,
              classical_bypass_ber=0.1),
    SweepSpec("qber_vs_snr", snr_grid_db=(2.0,), p_eq_list=(0.05,), trials_per_point=3000,
              seed=4, use_turbo=False),
    # _ber_chunk, uncoded and coded
    SweepSpec("classical_ber", snr_grid_db=(-1.0,), trials_per_point=1500, seed=6),
]


@pytest.mark.parametrize("spec", _FINITE_SNR_SPECS, ids=lambda s: s.sweep_kind)
def test_no_sweep_kernel_reads_the_rng_after_send_bits(monkeypatch, spec):
    # So the draws the noiseless bypass skips cannot change any output.
    expected = render_csv(spec, run_sweep(spec))
    _draw_after_send_bits(monkeypatch, sweeps_mod, teleport_mod)
    assert render_csv(spec, run_sweep(spec)) == expected


def test_teleport_payload_reads_no_rng_after_send_bits(monkeypatch, tmp_path):
    spec = SweepSpec("qsdc_batch", snr_grid_db=(0.0,), p_eq_list=(0.02,), trials_per_point=6,
                     seed=7, n_pairs=8, m_virtual=20, payload_per_session=4, use_shor=True)
    expected = render_csv(spec, run_sweep(spec, trace_path=str(tmp_path / "a.txt")))
    _draw_after_send_bits(monkeypatch, teleport_mod)
    assert render_csv(spec, run_sweep(spec, trace_path=str(tmp_path / "b.txt"))) == expected
    assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()

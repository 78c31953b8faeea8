"""Classical link: the noiseless bypass and the rng draws it skips."""
import math

import numpy as np
import pytest

import qtsim.qsdc as qsdc_mod
import qtsim.sweeps as sweeps_mod
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


def _draw_after_send_bits(monkeypatch, module):
    """Make every ``send_bits`` call of ``module`` move its rng on afterwards."""
    real = module.send_bits

    def send_then_draw(bits, rng, **link):
        out = real(bits, rng, **link)
        rng.random(3)
        return out

    monkeypatch.setattr(module, "send_bits", send_then_draw)


_FINITE_SNR_SPECS = [
    # _teleport_batch, with the turbo link (2 blocks), the uncoded link and bit flips
    SweepSpec("qber_vs_snr", snr_grid_db=(0.0,), p_eq_list=(0.05,), trials_per_point=1000,
              seed=3),
    SweepSpec("teleport_demo", snr_grid_db=(2.0,), p_eq_list=(0.05,), trials_per_point=3000,
              seed=4, use_turbo=False),
    SweepSpec("qber_vs_snr", p_eq_list=(0.05,), trials_per_point=2000, seed=5,
              classical_bypass_ber=0.1),
    # _coded_chunk and _uncoded_chunk
    SweepSpec("classical_ber", snr_grid_db=(-1.0,), trials_per_point=1500, seed=6),
]


@pytest.mark.parametrize("spec", _FINITE_SNR_SPECS, ids=lambda s: s.sweep_kind)
def test_no_sweep_kernel_reads_the_rng_after_send_bits(monkeypatch, spec):
    # So the draws the noiseless bypass skips cannot change any output.
    expected = render_csv(spec, run_sweep(spec))
    _draw_after_send_bits(monkeypatch, sweeps_mod)
    assert render_csv(spec, run_sweep(spec)) == expected


def test_teleport_payload_reads_no_rng_after_send_bits(monkeypatch, tmp_path):
    spec = SweepSpec("qsdc_batch", snr_grid_db=(0.0,), p_eq_list=(0.02,), trials_per_point=6,
                     seed=7, n_pairs=8, m_virtual=20, payload_per_session=4, use_shor=True)
    expected = render_csv(spec, run_sweep(spec, trace_path=str(tmp_path / "a.txt")))
    _draw_after_send_bits(monkeypatch, qsdc_mod)
    assert render_csv(spec, run_sweep(spec, trace_path=str(tmp_path / "b.txt"))) == expected
    assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()

"""Property tests over the SystemConfig space (hypothesis)."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mcpreamble import (
    SystemConfig,
    antenna_energy,
    design_prototype,
    make_sparse_equal,
    truncate_prototype,
)


@st.composite
def oqam_systems(draw):
    """(config, pulse, truncated): M = 2^4..2^10, every valid L_h, K = 1..5."""
    M = 2 ** draw(st.integers(4, 10))
    L_h = 2 ** draw(st.integers(1, int(np.log2(M)) - 1))
    K = draw(st.integers(1, 5))
    truncated = draw(st.booleans())
    # a K = 1 pulse is M samples long, shorter than the M + L_h - 1 window
    assume(not truncated or K > 1)
    cfg = SystemConfig(M=M, L_h=L_h, K=K, E=float(M))
    proto = design_prototype(M, K)
    if truncated:
        proto = truncate_prototype(proto, M + L_h - 1)
    return cfg, proto, truncated


@settings(max_examples=40, deadline=None)
@given(oqam_systems())
def test_sparse_preamble_keeps_its_pulse(system):
    cfg, proto, truncated = system
    # unit energy: the zero-offset inner product of the pulse with itself
    assert proto.kernel(0)[cfg.M - 1] == pytest.approx(1.0, abs=1e-12)
    p = make_sparse_equal("oqam", cfg.L_h, 0, cfg.E, cfg, proto=proto)
    assert p.proto is proto
    assert p.window == proto.L_g
    if not truncated:
        # isolated pilots of a frequency-sampling pulse add their energies
        assert antenna_energy(p, cfg) == pytest.approx(cfg.E, rel=1e-9)

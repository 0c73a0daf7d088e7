"""Multicarrier preamble design and least-squares channel estimation.

Baseband models for CP-OFDM and staggered offset-QAM filter banks, a
catalog of training preambles with equal-transmit-power accounting,
closed-form and simulated estimation error, and a numerical suite for
the optimality claims behind the designs.
"""

from .analysis import (
    OptimalityReport,
    afb_noise_cov,
    antenna_energy,
    closed_form_mse,
    error_floor,
    expected_error_floor,
    floor_map,
    genie_mse,
    papr,
    tpr,
    verify_optimality,
)
from .channel import (
    TapProfile,
    awgn,
    cfr_from_cir,
    ebn0_to_sigma2,
    gen_veh_a,
    propagate,
    sample_profile,
)
from .config import SystemConfig
from .cpofdm import cp_energy, demodulate, modulate
from .estimation import estimate_from_pilots
from .fourier import cfr_samples_to_cir, cp_gram, dft_submatrix, equispaced_set
from .harness import (
    CurveSpec,
    ExperimentConfig,
    MseCurve,
    preset,
    preset_names,
    run_experiment,
    write_csv,
)
from .oqam import (
    PrototypeFilter,
    afb,
    afb_column,
    data_phase,
    design_prototype,
    first_order_neighbours,
    pseudo_pilot,
    sfb,
    truncate_prototype,
)
from .preambles import (
    Preamble,
    draw_sparse_data,
    load_preamble_values,
    make_equal_comb,
    make_full_equipower_qam,
    make_sparse_data,
    save_preamble,
    sparse_data_layout,
)

__version__ = "0.1.0"

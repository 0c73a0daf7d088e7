"""Multicarrier preamble design and least-squares channel estimation.

Baseband models for CP-OFDM and staggered offset-QAM filter banks, a
catalog of training preambles with equal-transmit-power accounting,
closed-form and simulated estimation error, and a numerical suite for
the optimality claims behind the designs.
"""

from .analysis import (
    OptimalityReport,
    TprReport,
    afb_noise_cov,
    antenna_energy,
    closed_form_mse,
    error_floor,
    expected_error_floor,
    genie_mse,
    papr,
    tpr,
    verify_optimality,
)
from .channel import (
    ChannelRealization,
    TapProfile,
    cfr_from_cir,
    ebn0_to_sigma2,
    gen_veh_a,
    propagate,
    sample_profile,
)
from .config import SystemConfig
from .cpofdm import CpOfdmFrame, cp_energy, demodulate, ls_cfr, modulate
from .estimation import EstimationResult, estimate_from_pilots
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
    AmbiguityTable,
    OqamGrid,
    PrototypeFilter,
    afb,
    afb_column,
    ambiguity,
    data_phase,
    design_prototype,
    help_pilot,
    load_prototype,
    pseudo_pilot,
    save_prototype,
    sfb,
    truncate_prototype,
)
from .preambles import (
    Preamble,
    expected_helper_ratio,
    load_preamble_values,
    make_full_equal,
    make_full_equipower_qam,
    make_sparse_data,
    make_sparse_equal,
    save_preamble,
)

__version__ = "0.1.0"

"""Simulation library for data-aided channel estimation in decoupled HetNets.

Modules
-------
scenario     cell geometry, path loss, modified-MARP association
phy          fading channels, orthogonal pilots, noisy observations
estimators   pilot-only LS/MMSE estimation, SNR-like term and NMSE map
detectors    modulation, MRC/ZF/MMSE combining, symbol decisions
ber_analytic Gamma-matched SINR law and closed-form BER
data_aided   BER-aware data-aided MMSE estimation and its SNR-like term
downlink     ZF beamforming and the average-rate metric
experiments  seeded parallel sweep harness, CSV output
cli          command-line front end
"""

from .scenario import (
    Association,
    Link,
    PathLossModel,
    SystemConfig,
    Topology,
    associate,
    build_topology,
    desk_config,
    path_loss,
    topology_from_positions,
    ue_classes,
)
from .phy import (
    ChannelSet,
    Observation,
    Phase,
    PilotMatrix,
    awgn,
    draw_channels,
    make_pilots,
    observe,
    stream,
)
from .estimators import (
    EstimateStats,
    EstMethod,
    analytic_nmse,
    mmse_error_stats,
    pilot_snr,
)
from .detectors import (
    Combiner,
    CombinerKind,
    DataBlock,
    Modulation,
    build_combiner,
    detect,
    mmse_sinr,
    modulate,
    random_bits,
)
from .ber_analytic import (
    SinrGammaModel,
    analytic_ber,
    ber_lower_bound,
    effective_rho,
    sinr_gamma_params,
    stieltjes_moments,
)
from .data_aided import (
    BerSource,
    DecodedSideInfo,
    da_power_floor,
    rho_data_aided,
)
from .downlink import DownlinkRates, Precoder, dl_rate, zf_precode
from .experiments import (
    ExperimentSpec,
    Metric,
    ResultRow,
    ResultTable,
    run_sweep,
    write_csv,
)

__version__ = "0.1.0"

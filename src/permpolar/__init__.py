"""Polar coding for arbitrarily-permuted parallel binary-input symmetric
channels: channel analysis, code construction, the three parallel schemes,
and a reproducible Monte Carlo harness."""

from .channel import (
    DiscreteChannel,
    ResourceLimitError,
    bec,
    bhattacharyya,
    bhattacharyya_qary,
    bsc,
    capacity_uniform,
    channel_from_text,
    channel_to_text,
    check_symmetry,
    is_degraded,
    merge_outputs,
    product_power,
    q_ary_symmetric,
)
from .compound import (
    capacity_ascending,
    compound_lower_bound,
    parallel_rate_lower,
    parallel_rate_upper,
)
from .gf import FieldSpec, bits_to_symbols, symbols_to_bits
from .mds import GrsCode, MdsCode, MdsFamily
from .parallel import (
    ConstructionError,
    DegradedScheme,
    InterleavedScheme,
    NonBinaryScheme,
    scheme_from_manifest,
    scheme_rate,
    scheme_to_manifest,
)
from .polar import (
    InformationSet,
    ScDecoder,
    bec_split_bhattacharyya,
    build_info_set,
    error_event_probability,
    list_decode,
    monotone_info_sets,
    polar_encode,
    split_channel_exact,
    split_channels,
)
from .simrunner import (
    PermutedParallelChannel,
    TrialReport,
    evaluate,
    reports_to_csv,
    transmit,
)

__version__ = "0.1.0"

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
    TreeChannel,
    capacity_ascending,
    compound_lower_bound,
    erasure_surrogate_sets,
    parallel_rate_lower,
    parallel_rate_upper,
    tree_channel,
)
from .gf import FieldElement, FieldSpec, bits_to_symbols, symbols_to_bits
from .mds import GrsCode, MdsFamily, mds_family
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
    CosetCode,
    InformationSet,
    PolarTransform,
    ScDecoder,
    bec_split_bhattacharyya,
    build_info_set,
    error_event_probability,
    list_decode,
    monotone_info_sets,
    polar_encode,
    sc_decode,
    split_channel_exact,
)
from .simrunner import (
    PermutedParallelChannel,
    TrialReport,
    evaluate,
    reports_to_csv,
    transmit,
)

__version__ = "0.1.0"

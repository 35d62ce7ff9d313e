"""Multi-access coded caching over subset-indexed caches.

Users are r-subsets of C caches; files split into binom(C, t) subfiles; one
XOR multicast per (t+r)-subset serves binom(t+r, r) users at once. The
package provides the constructive scheme (placement, delivery, decoding,
byte-level simulation), its exact closed-form metrics, analytic formulas of
seven comparison schemes, and a CLI (`macc`) for sweeps and verification.
"""

from .baselines import (
    Scheme,
    Undefined,
    clwzc_rate,
    clwzc_subpacketization,
    crd_affine,
    hkd_rate,
    is_prime_power,
    rk_lower_bound,
    rk_rate,
    spe_special_rate,
    spe_subpacketization,
    sr1_rate,
    sr1_rate_value,
    sr2_rate,
)
from .combinatorics import binom, enumerate_subsets, rank_subset, unrank_subset, validate_subset
from .harness import (
    ComparisonRow,
    SplitMix64,
    SweepRows,
    SweepSpec,
    evaluate_scheme,
    parse_fraction,
    render_decimal,
    render_fraction,
    run_sweep,
    scheme_dump,
)
from .metrics import SchemeReport, analyze, delivery_rate, rate_memory_curve
from .scheme import (
    CacheContent,
    DecodingError,
    DemandAssignment,
    DemandError,
    SchemeParams,
    SubfileId,
    Transmission,
    accessible_fraction,
    build_placement,
    decode_user,
    generate_transmissions,
    simulate_end_to_end,
)

__version__ = "0.1.0"

__all__ = [
    "CacheContent",
    "ComparisonRow",
    "DecodingError",
    "DemandAssignment",
    "DemandError",
    "Scheme",
    "SchemeParams",
    "SchemeReport",
    "SplitMix64",
    "SubfileId",
    "SweepRows",
    "SweepSpec",
    "Transmission",
    "Undefined",
    "accessible_fraction",
    "analyze",
    "binom",
    "build_placement",
    "clwzc_rate",
    "clwzc_subpacketization",
    "crd_affine",
    "decode_user",
    "delivery_rate",
    "enumerate_subsets",
    "evaluate_scheme",
    "generate_transmissions",
    "hkd_rate",
    "is_prime_power",
    "parse_fraction",
    "rank_subset",
    "rate_memory_curve",
    "render_decimal",
    "render_fraction",
    "rk_lower_bound",
    "rk_rate",
    "run_sweep",
    "scheme_dump",
    "simulate_end_to_end",
    "spe_special_rate",
    "spe_subpacketization",
    "sr1_rate",
    "sr1_rate_value",
    "sr2_rate",
    "unrank_subset",
    "validate_subset",
    "__version__",
]

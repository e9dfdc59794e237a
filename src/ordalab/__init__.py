"""ordalab: exact-arithmetic laboratory for ordered algebraic structures.

Order and density witnesses, metric and norm verification, convergence and
Cauchy certificates with explicit moduli, series tests, finite-dimensional
algebra pseudonorms, and a CLI workbench over a registry of stock
structures.  Everything is exact: no floating point anywhere.
"""

from .algebra import (
    FinDimAlgebra,
    PseudonormedRing,
    albert_pseudonorm,
    coefficient_pseudonorm,
    element_handle,
    load_algebra_table,
    padic_norm,
    padic_valuation,
    shipped_algebras,
    structure_bound,
    verify_pseudonorm,
)
from .instances import lookup, registry
from .metric import (
    MetricSpace,
    NormedGroup,
    absolute_value,
    absolute_value_metric,
    absolute_value_norm,
    induced_metric,
    product_metric,
    sample_triples,
    verify_metric,
    verify_norm,
)
from .order import (
    CapabilityError,
    OrderResult,
    StructureFlags,
    StructureHandle,
    Violation,
    betweenness,
    checked_split,
    demarr_density_witness,
    density_from_unit_interval,
    fold_op,
    make_flags,
    n_split,
    nat_mul,
    nat_pow,
    split_witness,
    total_compare,
    verify_archimedean,
    verify_compatibility,
    verify_density,
    verify_group,
    verify_hemiring,
    verify_monoid,
    verify_shrink,
)
from .report import CheckRecord, exit_code, render_json_lines, render_text
from .sequences import (
    ApartFromZeroWitness,
    CauchyCert,
    ConvCert,
    Seq,
    SubseqMap,
    add_certs,
    apart_tail,
    bounded_from_cert,
    cauchy_sum,
    constant_cert,
    conv_to_cauchy,
    limit_hom_report,
    prod_certs,
    refute_distinct_limits,
    scan_cauchy_window_start,
    scan_window_start,
    scanned_cauchy_cert,
    scanned_conv_cert,
    shift_cert,
    subseq_rescue,
    unshift_cert,
    validate_apart_witness,
    verify_cauchy_cert,
    verify_conv_cert,
    zero_times_bounded,
)
from .series import (
    MonotoneEvidence,
    MonotoneKind,
    Series,
    abs_conv_cauchy,
    alternating_cauchy,
    archimedean_power_modulus,
    bernoulli_check,
    check_monotone,
    condensation_inequalities,
    condense,
    condensed_terms,
    geometric_cert,
    power_limit_is_zero,
    ratio_cauchy,
    squeeze_cauchy,
    tail_bound,
    terms_vanish,
)
from .suites import RunConfig, SUITE_NAMES, run_suite
from .termexpr import (
    EvalError,
    TermError,
    eval_term,
    parse_term_expr,
    pretty,
    seq_from_expr,
)

__version__ = "0.1.0"

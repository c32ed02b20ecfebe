"""Ingham summation sums, Dirichlet series and Euler products for
arithmetic coefficient sequences, with finite-scale verification
harnesses for the associated Tauberian conditions.

``import inghamsum`` loads no submodule (and so not numpy): each public
name is read from its submodule, which is imported on the first use of
one of its names. Nothing is cached here, so ``inghamsum.build_sieve``
is always the current binding of ``inghamsum.sieve.build_sieve``."""

import importlib

__version__ = "0.1.0"

# Each public name and the submodule that defines it.
_EXPORTS = {
    "CapacityError": "errors",
    "QuadratureError": "errors",
    "SingularFactorError": "errors",
    "SpecFormatError": "errors",
    "SieveTable": "sieve",
    "build_sieve": "sieve",
    "BUILTIN_SEQUENCES": "sequences",
    "CoefficientSequence": "sequences",
    "MultiplicativeSpec": "sequences",
    "a_from_f": "sequences",
    "extend_completely_multiplicative": "sequences",
    "f_from_a": "sequences",
    "named_sequence": "sequences",
    "sum_over_divisors": "sequences",
    "SummationValue": "summation",
    "WeightSequence": "summation",
    "abel_lambda_sum": "summation",
    "abel_power_sum": "summation",
    "batch_sums": "summation",
    "cumulative_sums": "summation",
    "ingham_A": "summation",
    "ingham_S": "summation",
    "ingham_series_partial": "summation",
    "tauber_weighted": "summation",
    "FtEvaluation": "dirichlet",
    "euler_product": "dirichlet",
    "f_t_table": "dirichlet",
    "ft_partial_sum": "dirichlet",
    "g_eval": "dirichlet",
    "l_t": "dirichlet",
    "mu_n_alpha": "dirichlet",
    "zeta_real": "dirichlet",
    "zeta_tail": "dirichlet",
    "QuadResult": "quadrature",
    "adaptive_simpson": "quadrature",
    "integral_sigma_to_inf": "quadrature",
    "integral_zero_to_inf": "quadrature",
    "ReportRow": "report",
    "VerificationReport": "report",
    "DifferenceIdentityResult": "verify",
    "Theorem3Result": "verify",
    "WintnerResult": "verify",
    "check_axer": "verify",
    "check_wintner": "verify",
    "cond1_ratio": "verify",
    "cond2_ratio": "verify",
    "difference_identity_check": "verify",
    "lemma_ratio_suite": "verify",
    "s_decomposition_identity": "verify",
    "s_difference_identity": "verify",
    "s_multiplicative_identity": "verify",
    "theorem1_residual": "verify",
    "theorem2_conditions": "verify",
    "theorem3_check": "verify",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module("." + module, __name__), name)


def __dir__():
    return sorted({*globals(), *_EXPORTS})

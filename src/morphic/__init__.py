"""Morphic sequences over integer alphabets and their complexity functions."""

from .complexity import (
    ComplexityRow,
    ComplexityTable,
    FactorScanner,
    build_complexity_table,
    distinct_substring_profile,
    sorted_suffixes,
)
from .ivp import check_ivp, predicted_coded_ds_set, predicted_parikh_set, sigma3_stream
from .morphisms import (
    FixedPointStream,
    Morphism,
    MorphismParseError,
    MorphismSpec,
    automatic_prefix,
    load_morphism_file,
    parse_morphism_spec,
    preset,
)
from .regularity import additive_complexity_closed_form
from .reports import VerifyReport
from .suite import ALL_CHECK_NAMES, run_all, run_check
from .witnesses import is_factor, ternary_stream, witness
from .words import (
    Alphabet,
    Coding,
    ResourceLimitError,
    Word,
    WordDomainError,
    code,
    tau,
    ternary_alphabet,
)

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "Coding",
    "ComplexityRow",
    "ComplexityTable",
    "FactorScanner",
    "FixedPointStream",
    "Morphism",
    "MorphismParseError",
    "MorphismSpec",
    "ResourceLimitError",
    "VerifyReport",
    "Word",
    "WordDomainError",
    "ALL_CHECK_NAMES",
    "additive_complexity_closed_form",
    "automatic_prefix",
    "build_complexity_table",
    "check_ivp",
    "code",
    "distinct_substring_profile",
    "is_factor",
    "load_morphism_file",
    "parse_morphism_spec",
    "predicted_coded_ds_set",
    "predicted_parikh_set",
    "preset",
    "run_all",
    "run_check",
    "sigma3_stream",
    "sorted_suffixes",
    "tau",
    "ternary_alphabet",
    "ternary_stream",
    "witness",
]

"""Named registry of all verification checks with their default ranges.

The names here are the stable command-line tokens.  The registry is the
one place that knows each check's default range and which scanner it
runs on; the check functions themselves take every argument
explicitly.  Defaults are the ranges the test suite certifies; passing
a larger n_max extends a sweep, a smaller one shortens it.  For checks
whose natural knob is not a factor length, n_max maps onto that knob
(power height for dc-counts, sample length for kernel); tech-lemma has
a fixed exhaustive domain and rejects n_max.
"""

from __future__ import annotations

from functools import cached_property

from . import checks, ivp, regularity
from .complexity import FactorScanner
from .ivp import sigma3_stream
from .reports import VerifyReport
from .witnesses import ternary_stream
from .words import WordDomainError


class SuiteContext:
    """Shared scanners for one batch of checks, each built on first use."""

    @cached_property
    def tml(self) -> FactorScanner:
        return FactorScanner(ternary_stream())

    @cached_property
    def sigma3(self) -> FactorScanner:
        return FactorScanner(sigma3_stream())


# name -> (default range, runner).  A runner looks its check up on the
# check's module at call time, so a patched module attribute is the one
# that runs.
_REGISTRY = {
    "theorem1": (4096, lambda ctx, n: checks.verify_additive_formula(n, ctx.tml)),
    "ds-bounds": (4096, lambda ctx, n: checks.verify_ds_bounds(n, ctx.tml)),
    "witness": (4096, lambda ctx, n: checks.verify_witnesses(n)),
    "sigma-tau": (10, lambda ctx, n: checks.verify_swap_reverse_commutation(n, ctx.tml)),
    "mirror-closure": (10, lambda ctx, n: checks.verify_mirror_closure(n, ctx.tml)),
    "dc-counts": (24, lambda ctx, n: checks.verify_surplus_balance_counts(n)),
    "prefix-suffix": (4096, lambda ctx, n: checks.verify_witness_affixes(n)),
    "tech-lemma": (None, lambda ctx, n: checks.verify_shift_gain_exhaustive(ctx.tml)),
    "ivp-small": (128, lambda ctx, n: checks.verify_interior_sums_small(n, ctx.tml)),
    "additive-recurrence": (256, lambda ctx, n: regularity.verify_additive_recurrence(n, ctx.tml)),
    "kernel": (256, lambda ctx, n: regularity.verify_kernel_affine(n, ctx.tml)),
    "prop4": (300, lambda ctx, n: ivp.verify_parikh_prediction(n, ctx.sigma3)),
    "subword-recurrence": (256, lambda ctx, n: checks.verify_subword_recurrence(n, ctx.tml)),
}

ALL_CHECK_NAMES = tuple(_REGISTRY)


def run_check(name: str, n_max: int | None = None, context: SuiteContext | None = None) -> VerifyReport:
    """Run one registered check, at its default range unless n_max is given."""
    if name not in _REGISTRY:
        raise WordDomainError(
            f"unknown check {name!r}; available: {', '.join(ALL_CHECK_NAMES)}"
        )
    default_n, runner = _REGISTRY[name]
    if n_max is not None:
        if default_n is None:
            raise WordDomainError(f"check {name!r} has a fixed domain and takes no n_max")
        if n_max < 1:
            raise WordDomainError(f"n_max must be at least 1, got {n_max}")
    if context is None:
        context = SuiteContext()
    return runner(context, n_max if n_max is not None else default_n)


def run_all() -> list[VerifyReport]:
    """Every registered check at its default range, sharing one context."""
    context = SuiteContext()
    return [run_check(name, context=context) for name in ALL_CHECK_NAMES]

"""Exception hierarchy shared across the package.

Three branches matter to callers (and to the CLI's exit codes):
input/validation problems, violated mathematical preconditions, and
exhausted computation budgets.  The budgets themselves live here too: one
``Budget`` holds every limit, and the ``budget`` context manager sets it for
the computations run inside its block.
"""

from __future__ import annotations

import contextlib
import contextvars
import dataclasses


class MatroidworksError(Exception):
    """Base class for every error raised by this package."""


class InputError(MatroidworksError):
    """Malformed or axiom-violating input data."""


class PreconditionError(MatroidworksError):
    """A documented mathematical precondition does not hold."""


class BudgetError(MatroidworksError):
    """A configured computation budget was exhausted before completion."""


@dataclasses.dataclass(frozen=True)
class Budget:
    """Limits on capped work; past one, the computation raises BudgetError.

    pair_reductions caps the S-pair reductions of one Buchberger run,
    search_nodes the values tried by one GF(q) point search, isomorphism
    test or automorphism group, and ingleton_quadruples the quadruples one
    Ingleton search checks in full.  Each computation reads its limit when it starts.
    """

    pair_reductions: int = 1_000_000
    search_nodes: int = 2_000_000
    ingleton_quadruples: int = 5_000_000

    def __post_init__(self):
        for f in dataclasses.fields(self):
            v = getattr(self, f.name)
            if type(v) is not int or v < 0:
                raise InputError(f"budget {f.name} must be an int >= 0, not {v!r}")


_BUDGET = contextvars.ContextVar("matroidworks_budget", default=Budget())


def current_budget() -> Budget:
    return _BUDGET.get()


@contextlib.contextmanager
def budget(**limits):
    """Run the block under the current budget with the given limits replaced:
    ``with budget(search_nodes=10_000): automorphism_group(m)``."""
    token = _BUDGET.set(dataclasses.replace(_BUDGET.get(), **limits))
    try:
        yield _BUDGET.get()
    finally:
        _BUDGET.reset(token)


class EmptyFamily(InputError):
    pass


class UnequalBasisSizes(InputError):
    pass


class ExchangeAxiomViolation(InputError):
    """Carries a witness: bases A, B and x in A \\ B with no valid exchange."""

    def __init__(self, a, b, x):
        self.witness = (a, b, x)
        super().__init__(
            f"no y in B with (A - {{{x}}}) + {{y}} a basis for A={sorted(a)}, B={sorted(b)}"
        )


class LoopPresent(PreconditionError):
    pass


class NonPrimeCharacteristic(PreconditionError):
    pass


class RingMismatch(PreconditionError):
    pass


class NotSymmetric(PreconditionError):
    pass


class NonzeroRemainder(PreconditionError):
    pass


class WrongDegree(PreconditionError):
    pass


class DegreeBudgetExceeded(BudgetError):
    pass


class SearchBudgetExceeded(BudgetError):
    pass

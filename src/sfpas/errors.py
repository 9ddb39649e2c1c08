"""Exception hierarchy shared by all modules.

The CLI maps these onto exit codes: InputError -> 2, LimitError -> 3,
InternalError and anything else -> 4.
"""


class SfpasError(Exception):
    pass


class InputError(SfpasError):
    """Malformed or inconsistent input data."""


class LimitError(SfpasError):
    """Non-convergence, infeasibility, or a resource limit was hit."""


class InternalError(SfpasError):
    """An internal invariant failed: a defect in sfpas, not in its input."""

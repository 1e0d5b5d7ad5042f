"""The package's error types, in a leaf module that imports nothing.

The CLI maps InputError to exit code 1, and InfeasibleError and
CapExceededError to exit code 2.  Any other exception is an internal
failure and propagates.
"""


class InputError(ValueError):
    """Malformed or out-of-range input that the caller can correct."""


class InfeasibleError(ValueError):
    """No word of the requested length can reach the requested weighted sum."""


class CapExceededError(RuntimeError):
    """A requested size exceeds its cap: the target sum S, the word count
    |M(n, S)| of an exhaustive search, the Farey order of a
    `geval.sample_farey` table, the depth 1/eps of a kappa2 bracket, the
    precision that a kappa2 descent step would need, the length of a
    kappa2 witness word, the quotient sum of a `dtu classify` period, or the
    number or sum of the partial quotients of a `dtu eval` point."""

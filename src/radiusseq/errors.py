"""Exception types shared across the toolkit."""


class RadiusSeqError(Exception):
    """Base class for all toolkit errors."""


class AlphabetViolation(RadiusSeqError):
    """A sequence contains a symbol outside its declared alphabet."""


class NotVerified(RadiusSeqError):
    """An operation required a verified k-radius sequence but got one that fails."""


class CoverIncomplete(RadiusSeqError):
    """A cover plan does not cover all nonzero residues."""


class NotKRadiusPrime(RadiusSeqError):
    """A prime fails the k-radius prime conditions."""


class NotBijective(RadiusSeqError):
    """A map expected to be a bijection onto Z_k is not."""


class BadPrime(RadiusSeqError):
    """A prime fails the quadratic-character preconditions of the subgroup cover."""


class OutOfRange(RadiusSeqError, ValueError):
    """An argument lies outside the domain of the requested operation; the
    CLI exits 2 on it."""


class BudgetExceeded(OutOfRange):
    """A parameter exceeds the configured computational budget."""


class CountingError(RadiusSeqError):
    """Internal consistency check of the equivalence-aware counter failed."""

"""Exception types shared across the package."""


class MartlabError(Exception):
    """Base class for all package errors."""


class HorizonExceeded(MartlabError):
    """A language was queried past its declared horizon."""


class CapExceeded(MartlabError):
    """An enumeration would exceed the configured feasibility cap."""


class UniquenessViolation(MartlabError):
    """A relation claimed to have unique witnesses produced more than one."""


class RowSumViolation(MartlabError):
    """An acceptance table row does not sum to its declared power of two."""


class NegativeValue(MartlabError):
    """A betting value that must be nonnegative came out negative."""


class ModulusViolation(MartlabError):
    """A convergence modulus failed its tail bound on an audited instance."""


class DegenerateFamily(MartlabError):
    """A family aggregate is identically zero up to the audit horizon."""


class CapitalBoundViolation(MartlabError):
    """A family member's initial capital exceeds its declared bound."""


class ApproximatorOutOfBand(MartlabError):
    """A multiplicative approximator left its declared relative-error band."""


class DegenerateParameter(MartlabError):
    """A parameter value for which the requested formulas degenerate."""


class CensusUnavailable(MartlabError):
    """A circuit census covering the requested (inputs, size) is missing."""


class IndeterminateComparison(MartlabError):
    """An exact log2 bracket refinement hit its precision cap undecided."""


class ConfigError(MartlabError):
    """An experiment configuration failed to parse or validate."""

    def __init__(self, message: str, field: str | None = None):
        self.field = field
        super().__init__(f"{field}: {message}" if field else message)

"""Exception types shared across the toolkit."""


class FusionError(Exception):
    """Base class for every error raised by this package."""


class FrameMismatchError(FusionError):
    """Elements or mass functions from different frames were combined."""


class ParseError(FusionError, ValueError):
    """Malformed expression or problem-file text."""


class UnknownLabelError(ParseError):
    """An expression referenced a hypothesis the frame does not declare."""


class FrameTooLargeError(FusionError):
    """Exhaustive enumeration was requested past the size guard."""


class UndefinedDegreeError(FusionError):
    """A degree ratio was requested for two empty elements."""


class NotASubsetError(FusionError):
    """Inclusion degree requested for a pair that is not nested."""


class UnknownRuleError(FusionError, ValueError):
    """A selector names no registered rule."""


class RuleError(FusionError):
    """A combination rule could not produce a result for these inputs."""


class ParameterError(RuleError, ValueError):
    """A rule parameter does not fit the rule or its sources."""


class TotalConflictError(RuleError):
    """All mass is conflicting; the rule's normalization is undefined."""


class DegenerateConsensusError(RuleError):
    """A dogmatic opinion pair with no defined consensus."""

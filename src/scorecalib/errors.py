"""Exception hierarchy.

Two families matter to callers: ``InputError`` (bad files, bad values,
missing labels) and ``AlgorithmError`` (valid input on which the
computation cannot proceed).  The CLI maps the families to distinct
exit codes.
"""


class ScoreCalibError(Exception):
    """Base class for all errors raised by this package."""


class InputError(ScoreCalibError):
    """Invalid input data or parameters."""


class AlgorithmError(ScoreCalibError):
    """A computation could not proceed on otherwise valid input."""


class MalformedRowError(InputError):
    """A CSV row failed to parse (wrong column count, bad number, bad label)."""


class ScoreOutOfRangeError(InputError, ValueError):
    """A score lies outside [0, 1]."""


class UnknownGroupError(InputError):
    """A group token is not in the declared vocabulary."""


class EmptyInputError(InputError):
    """An operation received an empty score list."""


class EmptyGroupError(InputError):
    """A dataset is missing one of the two groups."""


class UnlabeledDatasetError(InputError):
    """A label-dependent operation was applied to an unlabeled dataset."""


class EmptyStratumError(InputError):
    """A (group, label) stratum contains no pairs."""


class SingleClassError(InputError):
    """AUC requires both label classes to be present."""


class LengthMismatchError(InputError):
    """Paired score lists differ in length."""


class ThetaOutOfRangeError(InputError):
    """A threshold lies outside [0, 1]."""


class InvalidSpecError(InputError):
    """A synthetic-data specification is invalid."""


class InvalidParameterError(InputError, ValueError):
    """A parameter (argument, flag or config value) is invalid."""


class MalformedCurveError(InputError):
    """A step-curve CSV failed to parse."""


class MalformedModelError(InputError):
    """A model file failed to parse or holds an invalid model."""


class SingleModeError(AlgorithmError):
    """Mode finding produced fewer than two modes; supply gamma explicitly."""


class EmptyGroupInPartitionError(AlgorithmError):
    """A gamma-partition is missing one of the two groups."""

"""Exception hierarchy shared across the package."""


class DynpanError(Exception):
    """Base class for all package errors."""


class ValidationError(DynpanError):
    """Invalid specification, configuration, or operation precondition.

    Carries the offending field name when one can be singled out.
    """

    def __init__(self, message, field=None):
        self.field = field
        if field is not None:
            message = f"{field}: {message}"
        super().__init__(message)


class RankDeficiencyError(DynpanError):
    """Instrument/regressor cross-product matrix is numerically singular."""

    def __init__(self, message, smallest_pivot=None):
        self.smallest_pivot = smallest_pivot
        super().__init__(message)


class DegenerateReducedFormError(DynpanError):
    """The reduced form does not invert into two stationary branches.

    A non-positive discriminant signals an equal-persistence configuration
    (the two AR parameters coincide, so the inversion collapses) or an
    inconsistent input; a branch can also be non-stationary.
    """


class NoEndogeneityError(DegenerateReducedFormError):
    """The y-lag coefficient in the x equation is zero.

    Without feedback from lagged output into the input there is no
    information on the endogeneity direction and the inversion has no
    usable branches.
    """


class InternalConsistencyError(DynpanError):
    """A guarded internal invariant failed; indicates a bug, not bad input."""

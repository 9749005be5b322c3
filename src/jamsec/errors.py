"""Exception types shared across the package."""


class ParameterError(ValueError):
    """A parameter violates its documented domain (shape, sign, range)."""


class ConvergenceError(ArithmeticError):
    """A truncated series failed its stopping rule.  Nothing in the package
    raises it any more (each series stops by a bound on what it leaves
    out); it stays exported for code that catches it."""


class AccuracyError(ArithmeticError):
    """A quadrature or contour integral exhausted refinement above tolerance.

    ``best`` holds the last (most refined) estimate, ``error_estimate`` the
    disagreement between the final two refinement levels.  ``cell``, set
    by a scenario run, names the output cell being evaluated: a dict of
    its variant, metric, threshold_db (None for a capacity), axis,
    axis_value and method.
    """

    def __init__(self, message, best=None, error_estimate=None):
        super().__init__(message)
        self.best = best
        self.error_estimate = error_estimate
        self.cell = None

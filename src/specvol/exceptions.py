"""Error types shared across the solver."""


class InadmissibleStateError(ValueError):
    """A state left the admissible set (e.g. nonpositive density or pressure).

    ``where`` identifies the offending location, typically an (sv, cv) index
    pair or an interface index.
    """

    def __init__(self, message, where=None):
        super().__init__(message)
        self.where = where


class StepFailureError(RuntimeError):
    """A time step produced an inadmissible field; carries the first bad cell."""

    def __init__(self, message, sv=None, cv=None, time=None):
        super().__init__(message)
        self.sv = sv
        self.cv = cv
        self.time = time


class DegenerateSpeedError(ValueError):
    """Global signal speed too small (zero or subnormal) for a finite CFL time step."""

"""Error types shared across the solver."""


class InadmissibleStateError(ValueError):
    """An input state is not admissible (e.g. nonpositive density or pressure).

    ``where`` identifies the offending location, typically an (sv, cv) index
    pair or an interface index.
    """

    def __init__(self, message, where=None):
        super().__init__(message)
        self.where = where


class StepFailureError(RuntimeError):
    """A stage left the admissible set at ``where`` = (sv, j): the boundary
    trace at node j (node k the right end) when ``part`` is ``"trace"``, the
    new average of CV j when it is ``"cv"``; ``time`` is the step's t_n + dt."""

    def __init__(self, message, where, part, time):
        super().__init__(message)
        self.where = where
        self.part = part
        self.time = time


class DegenerateSpeedError(ValueError):
    """No usable CFL time step: a global signal speed of zero or subnormal, a
    CFL number so small that the step underflows, or a step count to t_end of
    2**53 or more, past which a float no longer counts steps exactly."""

"""Exception types shared across the package."""


class DomainError(ValueError):
    """State or argument outside the admissible region of the actuator model."""


class ScenarioError(ValueError):
    """Malformed or invalid scenario description."""


class SolverError(RuntimeError):
    """The integrator could not continue (its adaptive step collapsed)."""


class WorkerError(RuntimeError):
    """A forked worker process ended before it sent its result."""

"""Exception types raised by the simulator."""


class ConfigurationError(ValueError):
    """Raised when a cache, network, or core configuration is invalid.

    Examples include non power-of-two sizes, a block size larger than the
    cache, or an L-NUCA with fewer than two levels.
    """


class SimulationError(RuntimeError):
    """Raised when the simulator reaches an inconsistent internal state.

    This always indicates a bug in the model (for example a block found in
    two tiles at once despite content exclusion), never a user error.
    """


class ExecutionError(RuntimeError):
    """Raised by the supervised sweep executor in strict mode.

    A job was quarantined — it kept crashing or hanging its worker,
    returning garbage, or raised a deterministic simulation error — and
    the caller asked for an exception instead of a structured
    :class:`~repro.sim.plan.JobFailure` record.  Results committed before
    the abort remain in the result cache, so a re-run resumes from them.
    """

"""Stand-ins for the removed on-disk schedule store.

The store persisted the core's analytic span schedules; both the engines
and the store are gone (DESIGN.md §5).  These three names remain only so
the benchmark tracer can still wrap them; nothing in the package calls
them, and each returns 0.
"""


# Kept for e2ebench/e2e_trace.py, its only reader.
def restore_schedules(*args, **kwargs) -> int:
    return 0


# Kept for e2ebench/e2e_trace.py, its only reader.
def publish_schedules(*args, **kwargs) -> int:
    return 0


# Kept for e2ebench/e2e_trace.py, its only reader.
def publish_pending(*args, **kwargs) -> int:
    return 0

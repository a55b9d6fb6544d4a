"""The usable-core count that denoising bands and training workers share."""

import os


def usable_cores() -> int:
    """The cores this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1

"""SPLASH-2-like workload generators (the paper's application suite).

Ten applications, trace-generated from their real data layouts and
sharing patterns — see :mod:`repro.apps.base` for the substitution
rationale and the event model.  Each generator's module is imported
when :func:`make_generator` first asks for it (see
:mod:`repro.apps.registry`).
"""

from repro.apps.base import (
    ACQUIRE,
    BARRIER,
    COMPUTE,
    READ,
    RELEASE,
    TOUCH,
    WRITE,
    AddressSpace,
    AppGenerator,
    AppTrace,
    GenParams,
)
from repro.apps.registry import (
    APP_ORDER,
    IRREGULAR_APPS,
    REGULAR_APPS,
    app_names,
    get_app,
    make_generator,
)

__all__ = [
    "ACQUIRE",
    "APP_ORDER",
    "AddressSpace",
    "AppGenerator",
    "AppTrace",
    "BARRIER",
    "COMPUTE",
    "GenParams",
    "IRREGULAR_APPS",
    "READ",
    "REGULAR_APPS",
    "RELEASE",
    "TOUCH",
    "WRITE",
    "app_names",
    "get_app",
    "make_generator",
]

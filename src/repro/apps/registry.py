"""Application registry: name -> generator, plus the paper's canonical
display order and grouping."""

from __future__ import annotations

import importlib
from typing import List, Optional

from repro.apps.base import AppGenerator, AppTrace, GenParams

#: the paper's ten applications, in Figure 1 display order
APP_ORDER = (
    "fft",
    "lu",
    "ocean",
    "water-nsq",
    "water-sp",
    "radix",
    "raytrace",
    "volrend",
    "barnes-rebuild",
    "barnes-space",
)

#: regular vs irregular, per the paper's Section 4 classification
REGULAR_APPS = ("fft", "lu", "ocean")
IRREGULAR_APPS = tuple(a for a in APP_ORDER if a not in REGULAR_APPS)

#: registry name -> (module in ``repro.apps``, generator class).  A
#: generator's module is imported when its name is first asked for, so
#: a process that never generates a trace never imports numpy.
_GENERATORS = {
    "fft": ("fft", "FFTGenerator"),
    "lu": ("lu", "LUGenerator"),
    "ocean": ("ocean", "OceanGenerator"),
    "water-nsq": ("water", "WaterNsquaredGenerator"),
    "water-sp": ("water", "WaterSpatialGenerator"),
    "radix": ("radix", "RadixGenerator"),
    "raytrace": ("raytrace", "RaytraceGenerator"),
    "volrend": ("volrend", "VolrendGenerator"),
    "barnes-rebuild": ("barnes", "BarnesRebuildGenerator"),
    "barnes-space": ("barnes", "BarnesSpaceGenerator"),
}


def app_names() -> List[str]:
    return list(APP_ORDER)


def make_generator(name: str, **kwargs) -> AppGenerator:
    """Instantiate a generator by registry name."""
    try:
        module, cls_name = _GENERATORS[name]
    except KeyError:
        raise ValueError(
            f"unknown application {name!r}; available: {sorted(_GENERATORS)}"
        ) from None
    cls = getattr(importlib.import_module(f"repro.apps.{module}"), cls_name)
    return cls(**kwargs)


def get_app(
    name: str,
    n_procs: int = 16,
    page_size: int = 4096,
    scale: float = 1.0,
    seed: int = 42,
    params: Optional[GenParams] = None,
    **generator_kwargs,
) -> AppTrace:
    """One-call workload construction (the main user entry point)."""
    gen = make_generator(name, **generator_kwargs)
    if params is None:
        params = GenParams(
            n_procs=n_procs, page_size=page_size, scale=scale, seed=seed
        )
    return gen.generate(params)

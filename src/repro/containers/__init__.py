"""Container build pipeline: recipes, compatibility solving, registry.

The study built 220 containers across 12 environments (§3.1).  The
differences came down to drivers and networking software: AWS needed
OpenMPI compiled with libfabric for EFA, Azure needed UCX for
InfiniBand, Google needed nothing special.  This package models that
pipeline, including the dependency-conflict failure that prevented the
Laghos GPU container from ever building (two dependencies requiring
different CUDA versions).
"""

from repro.containers.builder import BuildResult, ContainerBuilder
from repro.containers.image import ContainerImage
from repro.containers.recipe import (
    FLUX_STACK,
    Package,
    Recipe,
    recipe_for,
)
from repro.containers.registry import Registry

__all__ = [
    "BuildResult",
    "ContainerBuilder",
    "ContainerImage",
    "FLUX_STACK",
    "Package",
    "Recipe",
    "Registry",
    "recipe_for",
]

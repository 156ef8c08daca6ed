"""Hookup-time model: job start to application start.

§3.2 defines *hookup time* as the gap between workload-manager job start
and application start (measured via LAMMPS wall time subtracted from the
wrapper time).  The paper's numbers, which this module reproduces:

* **Azure GPU** (sizes 4/8/16/32 nodes): ≈43/30/20/10 s — *decreasing*
  with node count, an inverted pattern.
* **Azure CPU** (sizes 32/64/128/256): ≈50/100/200/400+ s — roughly
  linear in node count (≈1.56 s/node).  At 256 nodes AKS hookup reached
  8.82 minutes for LAMMPS, which is why only one iteration was run.
* **Other clouds**: 3–4 s (GPU) and 10–15 s (CPU) across sizes — scale
  was not a factor.

The Azure anomaly is tied to its InfiniBand bring-up inside the job
wrapper; the paper flags studying it as future work, so we model the
observed functional forms rather than a mechanism.
"""

from __future__ import annotations

import numpy as np

from repro.rng import lognormal_jitter, lognormal_jitter_block, stream, stream_block

#: Azure CPU hookup slope: ~50s at 32 nodes -> 1.5625 s/node.
_AZURE_CPU_SLOPE_S_PER_NODE = 1.5625
#: Azure GPU hookup: fits 43/30/20/10 at 4/8/16/32 ≈ 86.0 * n**-0.5 with
#: an extra drop at 32; we use c * (4/n)**0.7 anchored at 43 s.
_AZURE_GPU_ANCHOR_S = 43.0
_AZURE_GPU_EXPONENT = 0.7


def hookup_time(
    cloud: str,
    is_gpu: bool,
    nodes: int,
    *,
    environment_kind: str = "k8s",
    seed: int = 0,
    iteration: int = 0,
) -> float:
    """Expected hookup time in seconds with run-to-run jitter.

    Parameters mirror an environment: cloud short name, accelerator
    flag, and node count.  On-premises schedulers launch essentially
    immediately once the allocation starts (2–5 s of MPI wire-up).
    """
    if nodes < 1:
        raise ValueError("nodes must be >= 1")
    rng = stream(seed, "hookup", cloud, is_gpu, nodes, environment_kind, iteration)
    base, sigma = _hookup_base(cloud, is_gpu, nodes)
    return base * lognormal_jitter(rng, sigma)


def _hookup_base(cloud: str, is_gpu: bool, nodes: int) -> tuple[float, float]:
    """(expected seconds, jitter sigma) — iteration-independent."""
    if cloud == "az":
        if is_gpu:
            return _AZURE_GPU_ANCHOR_S * (4.0 / nodes) ** _AZURE_GPU_EXPONENT, 0.10
        return _AZURE_CPU_SLOPE_S_PER_NODE * nodes, 0.10
    if cloud == "p":
        return 3.0, 0.15
    # AWS and Google: flat across sizes.
    return (3.5 if is_gpu else 12.0), 0.12


def hookup_stream_block(
    cloud: str,
    is_gpu: bool,
    nodes: int,
    *,
    environment_kind: str = "k8s",
    seed: int = 0,
    iterations=None,
):
    """The keyed per-iteration jitter streams behind :func:`hookup_block`.

    Exposed so a caller can co-seed them with its other blocks
    (:func:`repro.rng.co_seed`) before gathering.
    """
    return stream_block(
        seed, "hookup", cloud, is_gpu, nodes, environment_kind, iterations=iterations
    )


def hookup_block(
    cloud: str,
    is_gpu: bool,
    nodes: int,
    *,
    environment_kind: str = "k8s",
    seed: int = 0,
    iterations=None,
    rng_block=None,
) -> np.ndarray:
    """Hookup times for a whole block group's iterations at once.

    ``iterations`` is a count or a sequence of iteration numbers; entry
    ``j`` is bit-identical to ``hookup_time(..., iteration=iterations[j])``
    (the jitter comes from the same keyed per-iteration streams, gathered
    through one :func:`~repro.rng.stream_block`).  ``rng_block`` passes a
    pre-built (possibly co-seeded) :func:`hookup_stream_block` instead of
    constructing one here.
    """
    if nodes < 1:
        raise ValueError("nodes must be >= 1")
    block = rng_block
    if block is None:
        block = hookup_stream_block(
            cloud, is_gpu, nodes,
            environment_kind=environment_kind, seed=seed, iterations=iterations,
        )
    base, sigma = _hookup_base(cloud, is_gpu, nodes)
    return base * lognormal_jitter_block(block, sigma)

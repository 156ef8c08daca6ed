"""Monte Carlo particle transport: Quicksilver's numerical core.

Quicksilver tracks particles through segments between collision,
facet-crossing, and census events; its FOM is segments per second of
cycle tracking time (§2.8, Figure 8).  This kernel implements a
vectorised 1-group slab-geometry analogue: particles stream through a
1-D mesh with absorption/scattering, and we count segments exactly the
way Quicksilver tallies them (every event ends a segment).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class MCTransportResult:
    """Tallies from one tracking cycle."""

    segments: int
    absorbed: int
    escaped: int
    scattered: int
    census: int

    @property
    def total_terminated(self) -> int:
        return self.absorbed + self.escaped + self.census


def mc_transport(
    n_particles: int = 10_000,
    *,
    slab_length: float = 10.0,
    n_cells: int = 100,
    sigma_t: float = 1.0,
    scatter_ratio: float = 0.7,
    time_boundary: float = 8.0,
    seed: int = 0,
    max_events: int = 10_000,
) -> MCTransportResult:
    """Track ``n_particles`` through one cycle; returns tallies.

    Particle state is held in flat arrays and every event type is
    processed with boolean masks — the vectorisation idiom from the
    optimisation guide applied to a branchy transport loop.
    """
    if n_particles < 1:
        raise ValueError("need at least one particle")
    if not 0.0 <= scatter_ratio <= 1.0:
        raise ValueError("scatter_ratio must be in [0, 1]")
    rng = np.random.default_rng(seed)

    x = rng.uniform(0.0, slab_length, n_particles)
    mu = rng.uniform(-1.0, 1.0, n_particles)  # direction cosine
    t = np.zeros(n_particles)  # particle clock
    alive = np.ones(n_particles, dtype=bool)

    segments = 0
    absorbed = escaped = scattered = census = 0
    speed = 1.0
    cell_width = slab_length / n_cells

    for _ in range(max_events):
        if not alive.any():
            break
        idx = np.flatnonzero(alive)
        n = idx.size
        # Distance to collision (exponential), to cell facet, to census.
        d_coll = rng.exponential(1.0 / sigma_t, n)
        cell_edge = np.where(
            mu[idx] > 0,
            (np.floor(x[idx] / cell_width) + 1) * cell_width,
            np.floor(x[idx] / cell_width) * cell_width,
        )
        with np.errstate(divide="ignore"):
            d_facet = np.where(
                mu[idx] != 0.0,
                np.abs((cell_edge - x[idx]) / np.where(mu[idx] == 0, 1.0, mu[idx])),
                np.inf,
            )
        d_facet = np.maximum(d_facet, 1e-12)  # avoid zero-length hops
        d_census = (time_boundary - t[idx]) * speed

        d = np.minimum(np.minimum(d_coll, d_facet), d_census)
        event = np.where(
            d == d_census, 2, np.where(d == d_coll, 0, 1)
        )  # 0 collide, 1 facet, 2 census

        x[idx] += mu[idx] * d
        t[idx] += d / speed
        segments += n

        # Census: particle survives to next cycle.
        cen = idx[event == 2]
        census += cen.size
        alive[cen] = False

        # Escape through either slab face.
        esc = idx[(x[idx] < 0.0) | (x[idx] > slab_length)]
        esc = np.setdiff1d(esc, cen, assume_unique=False)
        escaped += esc.size
        alive[esc] = False

        # Collisions among still-alive particles.
        coll = idx[event == 0]
        coll = coll[alive[coll]]
        u = rng.random(coll.size)
        absorbed_mask = u >= scatter_ratio
        abs_idx = coll[absorbed_mask]
        absorbed += abs_idx.size
        alive[abs_idx] = False
        scat_idx = coll[~absorbed_mask]
        scattered += scat_idx.size
        mu[scat_idx] = rng.uniform(-1.0, 1.0, scat_idx.size)
        # Facet crossings just continue in the next loop iteration.

    return MCTransportResult(
        segments=segments,
        absorbed=absorbed,
        escaped=escaped,
        scattered=scattered,
        census=census,
    )


def mc_transport_block(
    n_particles: int = 10_000,
    *,
    replicas: int = 1,
    slab_length: float = 10.0,
    n_cells: int = 100,
    sigma_t: float = 1.0,
    scatter_ratio: float = 0.7,
    time_boundary: float = 8.0,
    seed: int = 0,
    max_events: int = 10_000,
) -> list[MCTransportResult]:
    """Track ``replicas`` independent cycles through one flat state set.

    All ``replicas × n_particles`` particles stream through the same
    masked event loop — one array program instead of ``replicas`` —
    with per-replica tallies recovered by ``bincount`` over a replica
    label column.  One shared stream drives the whole block, so
    ``replicas=1`` reproduces ``mc_transport(seed=seed)`` exactly;
    larger blocks are their own (equally valid) vectorized experiment, not
    a draw-for-draw replay of looped single-replica calls.
    """
    if n_particles < 1:
        raise ValueError("need at least one particle")
    if replicas < 1:
        raise ValueError("need at least one replica")
    if not 0.0 <= scatter_ratio <= 1.0:
        raise ValueError("scatter_ratio must be in [0, 1]")
    rng = np.random.default_rng(seed)

    total = replicas * n_particles
    replica = np.repeat(np.arange(replicas), n_particles)
    x = rng.uniform(0.0, slab_length, total)
    mu = rng.uniform(-1.0, 1.0, total)
    t = np.zeros(total)
    alive = np.ones(total, dtype=bool)

    segments = np.zeros(replicas, dtype=np.int64)
    absorbed = np.zeros(replicas, dtype=np.int64)
    escaped = np.zeros(replicas, dtype=np.int64)
    scattered = np.zeros(replicas, dtype=np.int64)
    census = np.zeros(replicas, dtype=np.int64)

    def _tally(counter: np.ndarray, indices: np.ndarray) -> None:
        counter += np.bincount(replica[indices], minlength=replicas)

    speed = 1.0
    cell_width = slab_length / n_cells
    for _ in range(max_events):
        if not alive.any():
            break
        idx = np.flatnonzero(alive)
        n = idx.size
        d_coll = rng.exponential(1.0 / sigma_t, n)
        cell_edge = np.where(
            mu[idx] > 0,
            (np.floor(x[idx] / cell_width) + 1) * cell_width,
            np.floor(x[idx] / cell_width) * cell_width,
        )
        with np.errstate(divide="ignore"):
            d_facet = np.where(
                mu[idx] != 0.0,
                np.abs((cell_edge - x[idx]) / np.where(mu[idx] == 0, 1.0, mu[idx])),
                np.inf,
            )
        d_facet = np.maximum(d_facet, 1e-12)
        d_census = (time_boundary - t[idx]) * speed

        d = np.minimum(np.minimum(d_coll, d_facet), d_census)
        event = np.where(d == d_census, 2, np.where(d == d_coll, 0, 1))

        x[idx] += mu[idx] * d
        t[idx] += d / speed
        _tally(segments, idx)

        cen = idx[event == 2]
        _tally(census, cen)
        alive[cen] = False

        esc = idx[(x[idx] < 0.0) | (x[idx] > slab_length)]
        esc = np.setdiff1d(esc, cen, assume_unique=False)
        _tally(escaped, esc)
        alive[esc] = False

        coll = idx[event == 0]
        coll = coll[alive[coll]]
        u = rng.random(coll.size)
        absorbed_mask = u >= scatter_ratio
        abs_idx = coll[absorbed_mask]
        _tally(absorbed, abs_idx)
        alive[abs_idx] = False
        scat_idx = coll[~absorbed_mask]
        _tally(scattered, scat_idx)
        mu[scat_idx] = rng.uniform(-1.0, 1.0, scat_idx.size)

    return [
        MCTransportResult(
            segments=int(segments[r]),
            absorbed=int(absorbed[r]),
            escaped=int(escaped[r]),
            scattered=int(scattered[r]),
            census=int(census[r]),
        )
        for r in range(replicas)
    ]

"""Ocean (contiguous) — regular-grid iterative ocean simulation (SPLASH-2).

Several ``n x n`` grids of doubles, row-block partitioned with the
contiguous (4-D array) layout so each processor's sub-grid occupies its
own pages.  Per solver phase every processor sweeps its own rows
(compute + heavy *local* cache traffic) and reads only the boundary rows
of its two neighbours — largely nearest-neighbour, iterative
communication.

Two Ocean-specific effects from the paper are embedded:

* its per-processor working set fits in cache in the parallel run but
  not serially, so the serial stall factor is large (speedups look
  artificially high — the paper's caveat on Table 4);
* the sweeps miss hard in L2, generating lots of memory-bus traffic:
  with more than ~4 processors per node the node bus saturates, giving
  Ocean its clustering optimum at 4 (Figure 13).
"""

from __future__ import annotations

from repro.apps.base import (
    BARRIER,
    AddressSpace,
    AppGenerator,
    AppTrace,
    GenParams,
)
from repro.arch.cache import CacheModel

ELEM_BYTES = 8
#: cycles of work per grid point per sweep
POINT_CYCLES = 30.0
#: number of grid arrays alive per phase
ARRAYS = 4
#: solver phases per iteration and iterations to run
PHASES = 5
ITERATIONS = 4


class OceanGenerator(AppGenerator):
    name = "ocean"
    description = "regular grids, nearest-neighbour; bus-hungry locally"

    def __init__(self, n: int = 258):
        self.n = n

    def generate(self, params: GenParams) -> AppTrace:
        P = params.n_procs
        # floor the grid so reduced scales don't degenerate into a
        # communication-only workload (boundary rows must stay small
        # relative to each processor's interior)
        n = max(8 * P, int(self.n * params.scale))
        rows_per_proc = max(1, n // P)
        n = rows_per_proc * P
        row_bytes = n * ELEM_BYTES
        cache = CacheModel(params.arch)
        space = AddressSpace(params.page_size)

        # each grid: processors' row blocks are contiguous regions
        grids = []
        for g in range(ARRAYS):
            base = space.alloc(n * row_bytes, f"grid{g}")
            grids.append(base)

        part_bytes = rows_per_proc * row_bytes
        # per-processor working set: its row blocks of all arrays
        ws = ARRAYS * part_bytes
        l1_mr, l2_mr = cache.miss_rates_for_working_set(ws)
        # Ocean sweeps stream through the grids: force substantial L2
        # missing even when the heuristic says the set fits.
        l2_mr = max(l2_mr, 0.30)
        points = rows_per_proc * n
        words_per_page = params.page_size // params.arch.word_bytes

        events = [[] for _ in range(P)]
        for p in range(P):
            for base in grids:
                events[p].extend(
                    self.touch_events(space, base + p * part_bytes, part_bytes)
                )
            events[p].append((BARRIER, 0))

        def boundary_reads(grid_base: int, p: int, side: int):
            """READ events for the neighbour row adjacent to partition ``p``."""
            if side < 0:  # last row of the previous partition
                addr = grid_base + p * part_bytes - row_bytes
            else:  # first row of the next partition
                addr = grid_base + (p + 1) * part_bytes
            return self.read_region(space, addr, row_bytes)

        bar = 1
        for _it in range(ITERATIONS):
            for phase in range(PHASES):
                g_read = grids[phase % ARRAYS]
                g_write = grids[(phase + 1) % ARRAYS]
                for p in range(P):
                    evs = events[p]
                    if p > 0:
                        evs.extend(boundary_reads(g_read, p, -1))
                    if p < P - 1:
                        evs.extend(boundary_reads(g_read, p, +1))
                    evs.append(
                        self.compute_block(
                            cache,
                            int(points * POINT_CYCLES),
                            reads=5 * points,
                            writes=points,
                            l1_mr=l1_mr,
                            l2_mr=l2_mr,
                        )
                    )
                    # only boundary rows are consumed remotely: emit writes
                    # for the first and last row's pages of the written grid
                    own = g_write + p * part_bytes
                    evs.extend(self.write_region(space, own, row_bytes, words_per_page))
                    last_row = own + part_bytes - row_bytes
                    evs.extend(
                        self.write_region(space, last_row, row_bytes, words_per_page)
                    )
                    evs.append((BARRIER, bar))
                bar += 1

        # serial working set = the full grids: misses hard (paper caveat)
        serial = AppGenerator.serial_from_blocks(events, serial_stall_factor=2.4)
        return AppTrace(
            name=self.name,
            n_procs=P,
            events=events,
            serial_cycles=serial,
            shared_bytes=space.used_bytes,
            problem=f"{n}x{n} grid, {ARRAYS} arrays",
        )

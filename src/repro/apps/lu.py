"""LU (contiguous) — blocked dense LU factorization (SPLASH-2 kernel).

An ``n x n`` matrix of doubles, factored in ``b x b`` blocks.  The
*contiguous* version allocates each block contiguously so a block's data
touches only pages assigned to its owner — given large enough pages the
application is single-writer at page granularity and writes are almost
all local (the paper's motivating example of a restructured application).

Blocks are owner-assigned in a 2D scatter over a sqrt(P) x sqrt(P)
processor grid.  Communication per outer step ``k``: owners of perimeter
blocks read the diagonal block; owners of interior blocks read the
corresponding perimeter blocks.  The communication-to-computation ratio
is inherently low, but the computation is *imbalanced*: as the
factorization shrinks, fewer blocks remain active — which is why LU's
ideal speedup sits well below P and its achievable speedup almost equals
its best (Table 4: communication is not LU's problem).
"""

from __future__ import annotations

import math

from repro.apps.base import (
    BARRIER,
    AddressSpace,
    AppGenerator,
    AppTrace,
    GenParams,
)
from repro.arch.cache import CacheModel

ELEM_BYTES = 8
#: cycles per multiply-add in the blocked kernels
FLOP_CYCLES = 2.0


class LUGenerator(AppGenerator):
    name = "lu"
    description = "blocked contiguous LU; low communication, imbalanced"

    def __init__(self, n: int = 1024, block: int = 64):
        self.n = n
        self.block = block

    def generate(self, params: GenParams) -> AppTrace:
        P = params.n_procs
        n = max(self.block * int(math.isqrt(P)) * 2, int(self.n * params.scale))
        b = self.block
        n -= n % b
        nb = n // b  # blocks per dimension
        grid = max(1, int(math.isqrt(P)))
        cache = CacheModel(params.arch)
        space = AddressSpace(params.page_size)

        block_bytes = b * b * ELEM_BYTES

        def owner(bi: int, bj: int) -> int:
            # 2D scatter over a sqrt(P) x sqrt(P) grid (modulo for odd P)
            return ((bi % grid) * grid + (bj % grid)) % P

        # contiguous allocation: all blocks of one owner are adjacent
        block_addr = {}
        by_owner: dict[int, list] = {p: [] for p in range(P)}
        for bi in range(nb):
            for bj in range(nb):
                by_owner[owner(bi, bj)].append((bi, bj))
        for p in range(P):
            for bi, bj in by_owner[p]:
                block_addr[(bi, bj)] = space.alloc(block_bytes, f"blk{bi},{bj}")

        words_per_block = block_bytes // params.arch.word_bytes
        l1_mr, l2_mr = cache.miss_rates_for_working_set(
            len(by_owner[0]) * block_bytes
        )

        events = [[] for _ in range(P)]
        for p in range(P):
            for bi, bj in by_owner[p]:
                addr = block_addr[(bi, bj)]
                events[p].extend(self.touch_events(space, addr, block_bytes))
            events[p].append((BARRIER, 0))

        def read_block(p: int, bi: int, bj: int) -> None:
            if owner(bi, bj) == p:
                return
            addr = block_addr[(bi, bj)]
            events[p].extend(self.read_region(space, addr, block_bytes))

        def write_block(p: int, bi: int, bj: int, words: int) -> None:
            addr = block_addr[(bi, bj)]
            events[p].extend(self.write_region(space, addr, block_bytes, words))

        bar = 1
        for k in range(nb):
            # 1) factor the diagonal block, then perimeter updates (the
            # SPLASH-2 code separates these with a barrier; we fold them
            # into one phase — a documented timing approximation that
            # halves barrier count without changing traffic)
            p = owner(k, k)
            events[p].append(
                self.compute_block(
                    cache,
                    int(b * b * b * FLOP_CYCLES / 3),
                    reads=b * b,
                    writes=b * b,
                    l1_mr=l1_mr,
                    l2_mr=l2_mr,
                )
            )
            write_block(p, k, k, words_per_block)
            for idx in range(k + 1, nb):
                for bi, bj in ((k, idx), (idx, k)):
                    q = owner(bi, bj)
                    read_block(q, k, k)
                    events[q].append(
                        self.compute_block(
                            cache,
                            int(b * b * b * FLOP_CYCLES / 2),
                            reads=2 * b * b,
                            writes=b * b,
                            l1_mr=l1_mr,
                            l2_mr=l2_mr,
                        )
                    )
                    write_block(q, bi, bj, words_per_block)
            for q in range(P):
                events[q].append((BARRIER, bar))
            bar += 1

            # 2) interior updates read their perimeter row/column blocks
            for bi in range(k + 1, nb):
                for bj in range(k + 1, nb):
                    q = owner(bi, bj)
                    read_block(q, bi, k)
                    read_block(q, k, bj)
                    events[q].append(
                        self.compute_block(
                            cache,
                            int(2 * b * b * b * FLOP_CYCLES),
                            reads=3 * b * b,
                            writes=b * b,
                            l1_mr=l1_mr,
                            l2_mr=l2_mr,
                        )
                    )
                    write_block(q, bi, bj, words_per_block)
            for q in range(P):
                events[q].append((BARRIER, bar))
            bar += 1

        serial = AppGenerator.serial_from_blocks(events, serial_stall_factor=1.3)
        return AppTrace(
            name=self.name,
            n_procs=P,
            events=events,
            serial_cycles=serial,
            shared_bytes=space.used_bytes,
            problem=f"{n}x{n} matrix, {b}x{b} blocks",
        )

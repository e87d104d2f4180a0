"""FFT — radix-sqrt(n) six-step FFT (SPLASH-2 kernel).

The data set is an array of ``n`` complex doubles (16 B each) viewed as a
sqrt(n) x sqrt(n) matrix, row-block partitioned, plus an equally sized
target matrix and a read-only roots-of-unity array.

Communication is the paper's canonical *all-to-all, read-based* pattern:
each of the three transpose steps makes every processor read an
(n/P x n/P) sub-block from every other processor's partition and write it
into its own (local, first-touch-placed) partition.  Writes are local, so
HLRC computes no diffs; the written pages generate write notices at the
phase barrier, invalidating the copies other processors cached during the
previous transpose — which is what makes every transpose fetch fresh
pages and gives FFT its high inherent communication-to-computation ratio
(bandwidth- and interrupt-sensitive, Figures 7 and 9).
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

#: complex double
ELEM_BYTES = 16
#: cycles per element in a 1D FFT butterfly stage
FFT_CYCLES_PER_ELEM = 14.0
#: cycles per element copied during a transpose
COPY_CYCLES_PER_ELEM = 6.0


class FFTGenerator(AppGenerator):
    name = "fft"
    description = "radix-sqrt(n) FFT; all-to-all read-based transposes"

    def __init__(self, n_points: int = 1 << 16):
        self.n_points = n_points

    def generate(self, params: GenParams) -> AppTrace:
        n = max(params.n_procs * params.n_procs, int(self.n_points * params.scale))
        # keep n a power of two with an integer square root
        n = 1 << (max(4, n.bit_length() - 1) & ~1)
        P = params.n_procs
        per_proc = n // P
        cache = CacheModel(params.arch)
        space = AddressSpace(params.page_size)

        src = space.alloc(n * ELEM_BYTES, "src")
        dst = space.alloc(n * ELEM_BYTES, "dst")
        roots = space.alloc(n * ELEM_BYTES, "roots")

        part_bytes = per_proc * ELEM_BYTES
        chunk_bytes = max(ELEM_BYTES, part_bytes // P)  # n/P^2 elements

        log_n = max(1, int(math.log2(n)))
        l1_mr, l2_mr = cache.miss_rates_for_working_set(2 * part_bytes)

        events = [[] for _ in range(P)]
        for p in range(P):
            evs = events[p]
            # placement: each processor owns its slices of all arrays
            for base in (src, dst, roots):
                evs.extend(
                    self.touch_events(space, base + p * part_bytes, part_bytes)
                )
            evs.append((BARRIER, 0))

        def transpose(bar_id: int, read_base: int, write_base: int) -> None:
            copy_chunk = self.compute_block(
                cache,
                max(1, int(per_proc * COPY_CYCLES_PER_ELEM / P)),
                reads=per_proc // P,
                writes=per_proc // P,
                l1_mr=l1_mr,
                l2_mr=l2_mr,
            )
            for p in range(P):
                evs = events[p]
                # read an n/P^2-element sub-block from every other
                # partition, *staggered* starting at p+1 (as the SPLASH-2
                # code does, to avoid hot-spotting one home), interleaved
                # with the per-chunk copy work
                for step in range(1, P):
                    q = (p + step) % P
                    off = read_base + q * part_bytes + p * chunk_bytes
                    evs.extend(self.read_region(space, off, chunk_bytes))
                    evs.append(copy_chunk)
                # write own partition of the destination (local pages)
                words_per_page = params.page_size // params.arch.word_bytes
                evs.extend(
                    self.write_region(
                        space, write_base + p * part_bytes, part_bytes, words_per_page
                    )
                )
                evs.append((BARRIER, bar_id))

        def fft_phase(bar_id: int) -> None:
            for p in range(P):
                events[p].append(
                    self.compute_block(
                        cache,
                        int(per_proc * log_n * FFT_CYCLES_PER_ELEM),
                        reads=per_proc * log_n // 2,
                        writes=per_proc,
                        l1_mr=l1_mr,
                        l2_mr=l2_mr,
                    )
                )
                events[p].append((BARRIER, bar_id))

        # six-step algorithm: transpose, FFT, transpose, FFT, transpose
        transpose(1, src, dst)
        fft_phase(2)
        transpose(3, dst, src)
        fft_phase(4)
        transpose(5, src, dst)

        # serial run: working set 2n*16 bytes far exceeds the caches
        serial = AppGenerator.serial_from_blocks(events, serial_stall_factor=1.15)
        return AppTrace(
            name=self.name,
            n_procs=P,
            events=events,
            serial_cycles=serial,
            shared_bytes=space.used_bytes,
            problem=f"{n} complex points",
        )

"""The paper's qualitative claims, as one table checked against the
committed full-scale tables.

Each :class:`Claim` names the experiments it reads, states the claim in
words, and carries a ``check`` that is handed those experiments' JSON
tables (``results/<id>.json``, one positional argument per id in
``reads``) and returns ``(holds, measured)``.  ``measured`` is the number
the threshold is compared with, so its distance from the threshold is
the claim's margin.

A claim the committed tables contradict keeps its row, with ``diverges``
saying why; :func:`evaluate` reports its verdict like any other, and
``tests/experiments/test_claims.py`` requires every verdict to match:
a claim that starts holding fails the test as surely as one that stops.

Claims are checked at paper scale (1.0) only.  Reduced scales compress
compute faster than communication and move several of them across their
thresholds, so they are no proxy for the paper's shapes.

The thresholds and counts are those of the shape asserts this table
replaced; none was tuned to the committed numbers.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Sequence, Tuple, Union

from repro.experiments.correlations import rank_correlation

Table = Dict[str, Any]
Outcome = Tuple[bool, Any]


class Claim(NamedTuple):
    id: str
    #: experiment ids whose committed JSON tables ``check`` receives, in order
    reads: Tuple[str, ...]
    #: the claim, in the paper's terms (or the extension's, for studies
    #: beyond the paper)
    statement: str
    check: Callable[..., Outcome]
    #: why the committed tables contradict the claim; empty if they bear it out
    diverges: str = ""

    @property
    def expected(self) -> bool:
        return not self.diverges


class Verdict(NamedTuple):
    claim: Claim
    holds: bool
    measured: Any

    @property
    def ok(self) -> bool:
        """The verdict is the one the ledger expects."""
        return self.holds == self.claim.expected


def _series(entry: Union[Dict[str, float], Sequence[float]]) -> List[float]:
    return list(entry.values()) if isinstance(entry, dict) else list(entry)


def _slow(entry, upto: int = -1) -> float:
    """Fractional speedup lost from a sweep's first point to point ``upto``."""
    s = _series(entry)
    return (s[0] - s[upto]) / s[0]


def _gt(measured: float, bound: float) -> Outcome:
    return measured > bound, measured


def _lt(measured: float, bound: float) -> Outcome:
    return measured < bound, measured


def _ge(measured: float, bound: float) -> Outcome:
    return measured >= bound, measured


def _le(measured: float, bound: float) -> Outcome:
    return measured <= bound, measured


def _both(first: Outcome, second: Outcome) -> Outcome:
    return first[0] and second[0], (first[1], second[1])


def _exceeds(a: float, factor: float, b: float) -> Outcome:
    """``a > factor * b``, measured as the pair ``(a, b)``: ``b`` is a
    slowdown or gain that may be zero or negative, so no ratio."""
    return a > factor * b, (a, b)


def _least_ratio(table: Table, hi: str, lo: str, names: Iterable[str] = ()) -> float:
    """The smallest ``hi/lo`` over ``names`` (default: every application)."""
    return min(table[n][hi] / table[n][lo] for n in (names or table))


def _most_ratio(table: Table, hi: str, lo: str, names: Iterable[str] = ()) -> float:
    return max(table[n][hi] / table[n][lo] for n in (names or table))


def _locks_localize(per_ppn: Table) -> Outcome:
    """From 1 to 8 procs/node remote lock acquires fall and local ones
    rise (measured as ``((remote@1, remote@8), (local@8, local@1))``)."""
    one, eight = per_ppn["1"], per_ppn["8"]
    return _both(
        _exceeds(one["remote_lock_acquires"], 1, eight["remote_lock_acquires"]),
        _exceeds(eight["local_lock_acquires"], 1, one["local_lock_acquires"]),
    )


def _rho(table: Table, names: Sequence[str]) -> float:
    """The slowdown-vs-traffic rank correlation over ``names`` only."""
    return rank_correlation(
        {n: table["slowdown"][n] for n in names}, {n: table["metric"][n] for n in names}
    )


def _figure04_top4(table: Table) -> Outcome:
    top4 = sorted(table, key=lambda n: table[n]["1"], reverse=True)[:4]
    return "fft" in top4, top4


def _figure07_gains(table: Table) -> Tuple[float, float]:
    """Gain from bandwidth beyond the achievable 0.5 MB/MHz: the least of
    the heavy group (Radix, FFT), the most of the light (Water-sp,
    Barnes-space)."""

    def gain(name: str) -> float:
        s = _series(table[name])
        return (s[0] - s[2]) / s[2]

    return min(map(gain, ("radix", "fft"))), max(map(gain, ("water-sp", "barnes-space")))


def _median_host_slowdown(table: Table) -> float:
    slows = sorted(_slow(series) for series in table.values())
    return slows[len(slows) // 2]


def _flat_under_interrupts(table: Table) -> float:
    """The largest drift of a polling or offload speedup over the sweep."""
    return max(
        abs(_slow(entry[mode]))
        for entry in table.values()
        for mode in ("polling-dedicated", "ni-offload")
    )


def _largest_over_smallest(table: Table, column: str) -> List[float]:
    """Per application, ``column`` at the largest problem size over the smallest."""
    ratios = []
    for sizes in table.values():
        ordered = sorted(sizes, key=float)
        ratios.append(sizes[ordered[-1]][column] / sizes[ordered[0]][column])
    return ratios


#: one heavy, one middle and two light communicators (Figure 3's classes)
MIXED_FOUR = ("lu", "raytrace", "barnes-rebuild", "water-sp")

CLAIMS: Tuple[Claim, ...] = (
    # --- Figure 1 / Table 4: achievable vs best vs ideal
    Claim("fig01-gap-most-apps", ("figure01",),
          "Achievable speedup sits more than 1.0 below ideal for most applications (>= 7)",
          lambda t: _ge(sum(d["ideal"] - d["achievable"] > 1.0 for d in t.values()), 7)),
    Claim("fig01-gap-fft-lu-barnes", ("figure01",),
          "FFT, LU and Barnes-rebuild fall short of their ideal speedup",
          lambda t: _lt(_most_ratio(t, "achievable", "ideal", ("fft", "lu", "barnes-rebuild")), 1)),
    Claim("tab04-achievable-within-best", ("table04",),
          "Achievable is at most 5 % above best, best at most 10 % above ideal, everywhere",
          lambda t: _both(_le(_most_ratio(t, "achievable", "best"), 1.05),
                          _le(_most_ratio(t, "best", "ideal"), 1.10))),
    Claim("tab04-ordering-water-nsq-lu", ("table04",),
          "Water-nsq and LU: achievable <= 1.02 x best, best <= 1.05 x ideal",
          lambda t: _both(_le(_most_ratio(t, "achievable", "best", ("water-nsq", "lu")), 1.02),
                          _le(_most_ratio(t, "best", "ideal", ("water-nsq", "lu")), 1.05))),
    Claim("tab04-light-achievable-near-best", ("table04",),
          "Achievable ~ best for the light-communication group (LU, Water-sp: > 0.75 x best)",
          lambda t: _gt(_least_ratio(t, "achievable", "best", ("lu", "water-sp")), 0.75)),
    # --- Table 2 / Figures 3-4: protocol events and traffic
    Claim("tab02-fetch-coalescing", ("table02",),
          "SMP nodes coalesce page fetches: fetches <= faults (+1e-9) at 4/node",
          lambda t: _le(max(d["4"]["page_fetches"] - d["4"]["page_faults"] for d in t.values()),
                        1e-9)),
    Claim("tab02-fetch-coalescing-water-nsq", ("table02",),
          "Water-nsq at 4/node: page fetches <= page faults",
          lambda t: _le(t["water-nsq"]["4"]["page_fetches"] / t["water-nsq"]["4"]["page_faults"],
                        1)),
    Claim("tab02-clustering-localizes-locks", ("table02",),
          "Water-nsq at 8/node vs 1/node: fewer remote lock acquires, more local ones",
          lambda t: _locks_localize(t["water-nsq"])),
    Claim("fig03-barnes-rebuild-over-space", ("figure03",),
          "Barnes-rebuild sends more messages than Barnes-space at 4/node",
          lambda t: _gt(t["barnes-rebuild"]["4"] / t["barnes-space"]["4"], 1)),
    Claim("fig03-radix-over-lu", ("figure03",),
          "Radix sends more messages than LU at 4/node",
          lambda t: _gt(t["radix"]["4"] / t["lu"]["4"], 1)),
    Claim("fig03-barnes-rebuild-over-lu", ("figure03",),
          "Barnes-rebuild sends more messages than LU at 4/node",
          lambda t: _gt(t["barnes-rebuild"]["4"] / t["lu"]["4"], 1)),
    Claim("fig04-radix-most-bytes", ("figure04",),
          "Radix moves the most data at 1, 4 and 8 procs/node",
          lambda t: _ge(sum(max(t, key=lambda n: t[n][ppn]) == "radix"
                            for ppn in ("1", "4", "8")), 3)),
    Claim("fig04-radix-over-water-sp", ("figure04",),
          "Radix moves more data than Water-sp at 4/node",
          lambda t: _gt(t["radix"]["4"] / t["water-sp"]["4"], 1)),
    Claim("fig04-fft-top4-at-1", ("figure04",),
          "FFT is in the top 4 byte senders with uniprocessor nodes",
          _figure04_top4,
          diverges="FFT ranks sixth at 1/node (0.100 MB/proc/Mcycle), just behind "
          "Raytrace and Volrend (0.103, 0.102)"),
    # --- Figures 5/5b: host overhead
    Claim("fig05-host-overhead-minor", ("figure05",),
          "Host overhead is not a major factor: median 0->6000 slowdown < 35 %",
          lambda t: _lt(_median_host_slowdown(t), 0.35)),
    Claim("fig05-host-overhead-lu-volrend", ("figure05",),
          "LU and Volrend lose < 30 % over the host-overhead range",
          lambda t: _lt(max(_slow(t["lu"]), _slow(t["volrend"])), 0.30)),
    Claim("fig05b-tracks-messages", ("figure05b",),
          "Host-overhead slowdown tracks messages sent (rank correlation > 0.3)",
          lambda t: _gt(t["rank_correlation"], 0.3)),
    Claim("fig05b-tracks-messages-subset", ("figure05b",),
          "Host-overhead slowdown tracks messages sent within LU, Raytrace, "
          "Barnes-rebuild and Water-sp alone (> 0.3)",
          lambda t: _gt(_rho(t, MIXED_FOUR), 0.3)),
    # --- Figure 6: NI occupancy (HLRC)
    Claim("fig06-occupancy-insensitive", ("figure06",),
          "Most applications (>= 7) lose < 10 % up to the achievable 500-cycle occupancy",
          lambda t: _ge(sum(_slow(s, 2) < 0.10 for s in t.values()), 7)),
    Claim("fig06-occupancy-below-interrupts-lu", ("figure06", "figure09"),
          "LU: NI occupancy costs less over its range than interrupt cost over its",
          lambda occ, intr: _exceeds(_slow(intr["lu"]), 1, _slow(occ["lu"]))),
    # --- Figures 7/8: I/O bandwidth
    Claim("fig07-heavy-gain-beyond-achievable", ("figure07",),
          "FFT and Radix gain > 20 % from bandwidth beyond the achievable 0.5 MB/MHz",
          lambda t: _gt(_figure07_gains(t)[0], 0.2)),
    Claim("fig07-heavy-vs-light-gain", ("figure07",),
          "FFT and Radix gain over twice what Water-sp and Barnes-space gain from "
          "bandwidth beyond 0.5 MB/MHz",
          lambda t: _exceeds(_figure07_gains(t)[0], 2, _figure07_gains(t)[1])),
    Claim("fig07-radix-over-water-sp", ("figure07",),
          "Radix loses more than twice Water-sp's slowdown over the bandwidth range",
          lambda t: _exceeds(_slow(t["radix"]), 2, _slow(t["water-sp"]))),
    Claim("fig08-tracks-bytes", ("figure08",),
          "Bandwidth slowdown tracks bytes sent (rank correlation > 0.3)",
          lambda t: _gt(t["rank_correlation"], 0.3)),
    # --- Figures 9/10: interrupt cost
    Claim("fig09-hurts-most-apps", ("figure09",),
          "Interrupt cost hurts (> 5 % over the range) at least 8 applications",
          lambda t: _ge(sum(_slow(s) > 0.05 for s in t.values()), 8)),
    Claim("fig09-knee", ("figure09",),
          "Costs up to 500/side hurt much less than the full range (knee < full + 5 %)",
          lambda t: _lt(max(_slow(s, 2) - _slow(s) for s in t.values()), 0.05)),
    Claim("fig09-knee-raytrace", ("figure09",),
          "Raytrace: < 15 % lost up to 500/side, > 25 % at 10 000/side",
          lambda t: _both(_lt(_slow(t["raytrace"], 2), 0.15), _gt(_slow(t["raytrace"]), 0.25))),
    Claim("fig10-tracks-interrupt-events", ("figure10",),
          "Interrupt slowdown tracks page fetches + remote locks (rank correlation > 0.3)",
          lambda t: _gt(t["rank_correlation"], 0.3)),
    Claim("fig10-tracks-interrupt-events-subset", ("figure10",),
          "Interrupt slowdown tracks page fetches + remote locks within LU, Raytrace, "
          "Barnes-rebuild and Water-sp alone (> 0.3)",
          lambda t: _gt(_rho(t, MIXED_FOUR), 0.3)),
    # --- Figure 11: occupancy under AURC
    Claim("fig11-aurc-occupancy-sensitive", ("figure11", "figure06"),
          "Water-nsq loses over 1.5x more to NI occupancy under AURC than under HLRC",
          lambda aurc, hlrc: _exceeds(_slow(aurc["water-nsq"]), 1.5, _slow(hlrc["water-nsq"]))),
    # --- Table 3: maximum slowdowns
    Claim("tab03-interrupts-matter-broadly", ("table03",),
          "Interrupt cost slows >= 8 applications by > 5 %",
          lambda t: _ge(sum(d["interrupt_cost"] > 0.05 for d in t.values()), 8)),
    Claim("tab03-interrupts-fft-raytrace", ("table03",),
          "Interrupt cost slows FFT and Raytrace by > 2 %",
          lambda t: _gt(min(t[n]["interrupt_cost"] for n in ("fft", "raytrace")), 0.02)),
    Claim("tab03-occupancy-least", ("table03",),
          "NI occupancy costs at most interrupt cost + 2 % for >= 8 applications",
          lambda t: _ge(sum(d["ni_occupancy"] <= d["interrupt_cost"] + 0.02
                            for d in t.values()), 8)),
    Claim("tab03-occupancy-least-fft-raytrace", ("table03",),
          "NI occupancy costs FFT and Raytrace at most what interrupt cost does",
          lambda t: _le(max(t[n]["ni_occupancy"] - t[n]["interrupt_cost"]
                            for n in ("fft", "raytrace")), 0)),
    Claim("tab03-clustering-helps-most", ("table03",),
          "1 -> 8 procs/node helps (negative slowdown) >= 6 applications",
          lambda t: _ge(sum(d["procs_per_node"] < 0 for d in t.values()), 6),
          diverges="negative for 5; FFT, Ocean, Water-nsq, Radix and Barnes-rebuild "
          "slow down at 8/node (see fig13-clustering-helps-most)"),
    # --- Figure 12: page size
    Claim("fig12-radix-prefers-big-pages", ("figure12",),
          "Radix is faster with 16 KB pages than with 1 KB",
          lambda t: _gt(t["radix"]["16KB"] / t["radix"]["1KB"], 1)),
    Claim("fig12-small-pages-for-several", ("figure12",),
          "At least 4 applications are faster with 1 KB pages than with 16 KB",
          lambda t: _ge(sum(d["1KB"] > d["16KB"] for d in t.values()), 4)),
    # --- Figure 13: clustering
    Claim("fig13-clustering-helps-most", ("figure13",),
          "Clustering (1 -> 8 procs/node) helps most applications (>= 6)",
          lambda t: _ge(sum(d["8/node"] > d["1/node"] for d in t.values()), 6),
          diverges="5 gain; with fewer nodes FFT and Radix lose aggregate I/O "
          "bandwidth, Ocean saturates its node bus, Water-nsq and Barnes-rebuild lose"),
    Claim("fig13-task-queues-gain", ("figure13",),
          "Raytrace and Volrend gain > 1.5x from 1 to 8 procs/node",
          lambda t: _gt(_least_ratio(t, "8/node", "1/node", ("raytrace", "volrend")), 1.5)),
    Claim("fig13-barnes-rebuild-gains", ("figure13",),
          "Barnes-rebuild, lock-bound, gains from 1 to 8 procs/node",
          lambda t: _gt(t["barnes-rebuild"]["8/node"] / t["barnes-rebuild"]["1/node"], 1),
          diverges="8/node runs at 0.89x 1/node: its hashed cell locks still "
          "ping-pong between the two remaining nodes"),
    # --- Section 5: interrupt-delivery variants
    Claim("s5-uninode-interrupts-matter", ("section5-uninode",),
          "With uniprocessor nodes interrupt cost still slows every application",
          lambda t: _gt(min(_slow(s) for s in t.values()), 0)),
    Claim("s5-roundrobin-degrades", ("section5-roundrobin",),
          "Round-robin delivery degrades with interrupt cost like fixed delivery",
          lambda t: _gt(min(_slow(d["round_robin"]) for d in t.values()), 0)),
    Claim("s5-roundrobin-water-nsq-runs", ("section5-roundrobin",),
          "Water-nsq under round-robin delivery has a positive speedup at 0 cycles",
          lambda t: _gt(t["water-nsq"]["round_robin"][0], 0)),
    # --- Section 7: attribution
    Claim("s7-radix-bandwidth-recovers-gap", ("section7-attribution",),
          "4x I/O bandwidth lifts Radix's achievable speedup by > 1.2x",
          lambda t: _gt(t["radix"]["4x io bw"] / t["radix"]["achievable"], 1.2)),
    Claim("s7-fft-both-parameters", ("section7-attribution",),
          "FFT with both free interrupts and membus bandwidth reaches >= 0.95x "
          "either alone",
          lambda t: _ge(t["fft"]["both"] / max(t["fft"]["interrupts=0"],
                                               t["fft"]["io bw = membus"]), 0.95)),
    Claim("s7-barnes-critical-section-faults", ("section7-attribution",),
          "Removing remote fetches speeds Barnes-rebuild up",
          lambda t: _gt(t["barnes-rebuild"]["no remote fetches"]
                        / t["barnes-rebuild"]["achievable"], 1)),
    # --- Extensions beyond the paper
    Claim("ext-polling-offload-flat", ("section10-processing",),
          "Polling and NI offload drift < 5 % over the interrupt-cost sweep",
          lambda t: _lt(_flat_under_interrupts(t), 0.05)),
    Claim("ext-interrupts-degrade", ("section10-processing",),
          "The interrupt system degrades over the same sweep",
          lambda t: _gt(min(_slow(d["interrupt"]) for d in t.values()), 0)),
    Claim("ext-polling-wins-at-extreme", ("section10-processing",),
          "At 10 000-cycle interrupts a dedicated poller beats interrupts",
          lambda t: _gt(min(d["polling-dedicated"][-1] / d["interrupt"][-1]
                            for d in t.values()), 1)),
    Claim("ext-second-ni-bandwidth-bound", ("section10-multini",),
          "At low bandwidth a second NI lifts FFT and Radix by > 1.1x",
          lambda t: _gt(min(t[n]["low bw"][1] / t[n]["low bw"][0] for n in ("fft", "radix")),
                        1.1)),
    Claim("ext-multi-ni-latency-bound", ("section10-multini",),
          "Water-sp gains < 1.15x from more NIs at the achievable bandwidth",
          lambda t: _lt(t["water-sp"]["achievable bw"][2] / t["water-sp"]["achievable bw"][0],
                        1.15)),
    Claim("ext-problem-size-speedup", ("problem-size",),
          "Speedup at the largest problem size beats the smallest, everywhere",
          lambda t: _gt(min(_largest_over_smallest(t, "speedup")), 1)),
    Claim("ext-problem-size-bytes", ("problem-size",),
          "Byte intensity does not grow past 1.35x from the smallest size to the largest",
          lambda t: _le(max(_largest_over_smallest(t, "mb_per_mc")), 1.35)),
    Claim("ext-ablation-store-and-forward", ("ablations",),
          "Store-and-forward never speeds anything up (<= 1.02x cut-through)",
          lambda t: _le(_most_ratio(t, "store-and-forward", "base"), 1.02)),
    Claim("ext-ablation-store-and-forward-low-bw", ("ablations",),
          "Store-and-forward never speeds anything up at 0.25 MB/MHz either (<= 1.02x)",
          lambda t: _le(_most_ratio(t, "s&f @bw=0.25", "base @bw=0.25"), 1.02)),
    Claim("ext-ablation-no-gate", ("ablations",),
          "Removing the NI receive gate relaxes the 10k interrupt extreme (>= 0.98x)",
          lambda t: _ge(_least_ratio(t, "no-gate @intr=10k", "base @intr=10k"), 0.98)),
    Claim("ext-microbench-fetch-over-rpc", ("microbench",),
          "A page fetch costs more than a null RPC",
          lambda t: _gt(t["page_fetch"] / t["null_rpc"], 1)),
    Claim("ext-handler-time-small", ("breakdowns",),
          "Handler time stays under 10 % of every application at the achievable set",
          lambda t: _lt(max(d["handler"] for d in t.values()), 0.10)),
)


def evaluate(results_dir: Union[str, pathlib.Path]) -> List[Verdict]:
    """Every claim's verdict against the tables in ``results_dir``."""
    root = pathlib.Path(results_dir)
    tables = {
        eid: json.loads((root / f"{eid}.json").read_text())
        for eid in dict.fromkeys(eid for claim in CLAIMS for eid in claim.reads)
    }
    verdicts = []
    for claim in CLAIMS:
        holds, measured = claim.check(*(tables[eid] for eid in claim.reads))
        verdicts.append(Verdict(claim, bool(holds), measured))
    return verdicts

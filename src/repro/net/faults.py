"""Deterministic wire-level fault injection.

The paper assumes a perfectly reliable Myrinet-style fabric; real SVM
clusters lose, duplicate, and delay messages.  This module perturbs the
NI/link pipeline — *below* the protocol layer, which stays untouched —
so that end-performance sensitivity to imperfect communication can be
measured the same way the paper measures sensitivity to host overhead or
interrupt cost.

Two pieces:

* :class:`FaultParams` — a frozen, hashable configuration block carried
  on :class:`~repro.core.config.ClusterConfig`.  The default (all
  probabilities zero) disables the whole layer: no injector is built, no
  RNG is drawn, no retransmit timers are armed, and results are
  bit-identical to a build without this module.
* :class:`FaultInjector` — the seeded fault source shared by every NI of
  a cluster.  All randomness comes from one ``random.Random(fault_seed)``
  stream, and the simulation dispatches events in a deterministic order,
  so the same seed yields bit-identical runs.

Recovery from injected faults lives in
:class:`~repro.net.messaging.MessagingLayer` (sequence numbers,
ack/timeout retransmission, duplicate suppression); an exhausted retry
budget raises :class:`RetryExhaustedError` — a structured
:class:`~repro.sim.engine.SimulationStuckError` — rather than hanging.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Tuple

from repro.arch.params import canonical_numbers
from repro.sim.engine import SimulationStuckError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.message import Message

_PROB_FIELDS = ("drop_prob", "dup_prob", "delay_spike_prob", "stall_prob")


@dataclass(frozen=True)
class FaultParams:
    """Fault-injection and recovery knobs (all off by default).

    Probabilities apply per message as it leaves the sending NI; cycle
    values are 200 MHz processor cycles like every other cost.
    """

    #: probability the fabric silently loses a message
    drop_prob: float = 0.0
    #: probability the fabric delivers a message twice
    dup_prob: float = 0.0
    #: probability of an extra in-fabric delay spike on a message
    delay_spike_prob: float = 0.0
    #: mean of the (exponential) delay-spike distribution, in cycles
    delay_spike_cycles: int = 20_000
    #: fractional bandwidth loss on every link (0.25 = links run at 75%)
    link_degradation: float = 0.0
    #: per-link overrides: (src_node, dst_node, degradation) triples,
    #: taking precedence over the global ``link_degradation``
    degraded_links: Tuple[Tuple[int, int, float], ...] = ()
    #: probability a send hits a NIC firmware stall window
    stall_prob: float = 0.0
    #: maximum length of one NIC stall window, in cycles
    stall_cycles: int = 10_000
    #: seed of the fault stream (independent of the workload seed, so the
    #: same trace can be replayed under different fault realizations)
    fault_seed: int = 7
    # -- protocol recovery (repro.net.messaging) -----------------------
    #: cycles before the first retransmission of an undeposited message
    retry_timeout: int = 100_000
    #: retransmissions per message before the run is declared stuck
    max_retries: int = 16
    #: multiplicative backoff applied to the timeout after each retry
    retry_backoff: float = 2.0
    #: decorrelation weight for retransmit backoff in [0, 1]: 0 keeps the
    #: purely deterministic exponential ladder (every sender that lost a
    #: message in the same drop burst retries in lock-step — a retry
    #: storm); 1 is fully decorrelated jitter drawn between the base
    #: timeout and 3x the previous one.  The jitter stream is seeded from
    #: ``fault_seed`` (independently of the injector's draw stream), so
    #: runs stay bit-identical per seed.
    retry_jitter: float = 0.5

    def __post_init__(self) -> None:
        for name in _PROB_FIELDS:
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"FaultParams.{name} must be in [0, 1], got {v!r}")
        if not 0.0 <= self.link_degradation < 1.0:
            raise ValueError(
                f"FaultParams.link_degradation must be in [0, 1), got "
                f"{self.link_degradation!r}"
            )
        for entry in self.degraded_links:
            if len(entry) != 3 or not 0.0 <= entry[2] < 1.0:
                raise ValueError(
                    f"FaultParams.degraded_links entries must be "
                    f"(src, dst, degradation in [0, 1)) triples, got {entry!r}"
                )
        for name in ("delay_spike_cycles", "stall_cycles"):
            if getattr(self, name) < 0:
                raise ValueError(f"FaultParams.{name} must be >= 0")
        if self.retry_timeout < 1:
            raise ValueError("FaultParams.retry_timeout must be >= 1 cycle")
        if self.max_retries < 0:
            raise ValueError("FaultParams.max_retries must be >= 0")
        if self.retry_backoff < 1.0:
            raise ValueError("FaultParams.retry_backoff must be >= 1.0")
        if not 0.0 <= self.retry_jitter <= 1.0:
            raise ValueError(
                f"FaultParams.retry_jitter must be in [0, 1], got "
                f"{self.retry_jitter!r}"
            )
        canonical_numbers(self)

    @property
    def enabled(self) -> bool:
        """Whether any fault source is active.

        When ``False`` (the default), the cluster builds no injector and
        arms no retransmit machinery — the reliability layer is provably
        zero-cost.
        """
        return bool(
            self.drop_prob
            or self.dup_prob
            or self.delay_spike_prob
            or self.stall_prob
            or self.link_degradation
            or self.degraded_links
        )

    def replace(self, **kw) -> "FaultParams":
        """Functional update (sugar over :func:`dataclasses.replace`)."""
        import dataclasses

        return dataclasses.replace(self, **kw)


class RetryExhaustedError(SimulationStuckError):
    """A message exhausted its retransmit budget and was never deposited.

    Subclasses :class:`SimulationStuckError` so callers can treat "the
    retry budget gave up" and "the simulation deadlocked" uniformly: the
    run surfaces a structured error instead of hanging.
    """

    def __init__(self, msg: "Message", attempts: int) -> None:
        super().__init__(
            f"retry budget exhausted: {msg.kind.value} {msg.tag!r} "
            f"node {msg.src_node}->{msg.dst_node} ({msg.size_bytes} B, "
            f"seq {msg.seq}) not deposited after {attempts} retransmission(s)"
        )
        self.attempts = attempts
        self.tag = msg.tag
        self.src_node = msg.src_node
        self.dst_node = msg.dst_node


class FaultInjector:
    """Seeded fault source shared by all NIs of one cluster.

    Draw order per send is fixed (stall, spike, drop, duplicate) and each
    probability only consumes randomness when nonzero, so a run's fault
    realization depends only on ``fault_seed`` and the (deterministic)
    order in which messages reach the wire.
    """

    def __init__(self, params: FaultParams) -> None:
        self.params = params
        self.rng = random.Random(params.fault_seed)
        self._degraded: Dict[Tuple[int, int], float] = {
            (src, dst): deg for src, dst, deg in params.degraded_links
        }
        # realization counters (surfaced in RunResult.meta)
        self.drops = 0
        self.duplicates = 0
        self.delay_spikes = 0
        self.stalls = 0

    # -- per-send draws, in pipeline order ------------------------------
    def draw_stall(self) -> int:
        """NIC stall window in cycles (0 = no stall this send)."""
        p = self.params
        if p.stall_prob and self.rng.random() < p.stall_prob:
            self.stalls += 1
            return 1 + (self.rng.randrange(p.stall_cycles) if p.stall_cycles else 0)
        return 0

    def link_factor(self, src_node: int, dst_node: int) -> float:
        """Remaining bandwidth fraction on the src→dst link (0, 1]."""
        deg = self._degraded.get((src_node, dst_node), self.params.link_degradation)
        return 1.0 - deg

    def draw_spike(self) -> int:
        """Extra in-fabric delay in cycles (0 = no spike this message)."""
        p = self.params
        if p.delay_spike_prob and self.rng.random() < p.delay_spike_prob:
            self.delay_spikes += 1
            if p.delay_spike_cycles:
                return 1 + int(self.rng.expovariate(1.0 / p.delay_spike_cycles))
            return 1
        return 0

    def draw_drop(self) -> bool:
        p = self.params
        if p.drop_prob and self.rng.random() < p.drop_prob:
            self.drops += 1
            return True
        return False

    def draw_duplicate(self) -> bool:
        p = self.params
        if p.dup_prob and self.rng.random() < p.dup_prob:
            self.duplicates += 1
            return True
        return False

    def stats(self) -> Dict[str, int]:
        return {
            "faults_dropped": self.drops,
            "faults_duplicated": self.duplicates,
            "faults_delay_spikes": self.delay_spikes,
            "faults_stalls": self.stalls,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FaultInjector(drops={self.drops}, dups={self.duplicates}, "
            f"spikes={self.delay_spikes}, stalls={self.stalls})"
        )

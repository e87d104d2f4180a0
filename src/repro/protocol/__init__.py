"""SVM protocols: HLRC and AURC over the simulated cluster.

This package is the paper's subject proper: home-based lazy release
consistency in two variants (software diffs vs hardware automatic
update), with the SMP-node optimizations the paper's protocol uses
(node-level page caching with fetch coalescing, token-cached distributed
locks, hierarchical interrupt-free barriers).
"""

from repro.protocol.aurc import AURCProtocol
from repro.protocol.barriers import BarrierManager
from repro.protocol.base import (
    ACK_BYTES,
    GRANT_BASE_BYTES,
    REQUEST_HEADER_BYTES,
    TAG_DIFF_APPLY,
    TAG_LOCK_ACQUIRE,
    TAG_LOCK_RECALL,
    TAG_PAGE_FETCH,
    TAG_TOKEN_RETURN,
    NodeMemoryState,
    ProtocolContext,
    ProtocolCounters,
)
from repro.protocol.diffs import (
    diff_apply_cost,
    diff_create_cost,
    diff_wire_bytes,
    page_words,
    twin_cost,
)
from repro.protocol.hlrc import HLRCProtocol
from repro.protocol.locks import LockManager, LockState
from repro.protocol.timestamps import (
    WRITE_NOTICE_BYTES,
    IntervalLog,
    VectorClock,
    notices_wire_bytes,
)

PROTOCOLS = {"hlrc": HLRCProtocol, "aurc": AURCProtocol}

__all__ = [
    "ACK_BYTES",
    "AURCProtocol",
    "BarrierManager",
    "GRANT_BASE_BYTES",
    "HLRCProtocol",
    "IntervalLog",
    "LockManager",
    "LockState",
    "NodeMemoryState",
    "PROTOCOLS",
    "ProtocolContext",
    "ProtocolCounters",
    "REQUEST_HEADER_BYTES",
    "TAG_DIFF_APPLY",
    "TAG_LOCK_ACQUIRE",
    "TAG_LOCK_RECALL",
    "TAG_PAGE_FETCH",
    "TAG_TOKEN_RETURN",
    "VectorClock",
    "WRITE_NOTICE_BYTES",
    "diff_apply_cost",
    "diff_create_cost",
    "diff_wire_bytes",
    "notices_wire_bytes",
    "page_words",
    "twin_cost",
]

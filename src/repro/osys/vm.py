"""Virtual-memory substrate: page arithmetic and home assignment.

Shared data lives in a single cluster-wide virtual address space.  The
:class:`PageDirectory` maps addresses to pages and pages to their *home
node* — the node that holds the master copy under the home-based
protocols (HLRC/AURC).

Home assignment follows the systems the paper simulates:

* ``first_touch`` (default): the first node to touch a page becomes its
  home.  The paper notes an Ocean anomaly caused by first-touch
  allocation interacting with interrupt cost; first touch is established
  during an initialization pass in our application traces.
* ``round_robin``: pages are spread over nodes by page number — used as a
  fallback and by tests.
* ``block``: contiguous page ranges per node (what SPLASH-2 programs
  achieve via careful data placement, e.g. LU-contiguous).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple


def pages_in_range(start: int, nbytes: int, page_size: int) -> Tuple[int, ...]:
    """Page numbers overlapped by the byte range [start, start+nbytes)."""
    if nbytes < 0:
        raise ValueError("negative range length")
    if page_size <= 0 or page_size & (page_size - 1):
        raise ValueError("page size must be a positive power of two")
    if nbytes == 0:
        return ()
    first = start // page_size
    last = (start + nbytes - 1) // page_size
    return tuple(range(first, last + 1))


class PageDirectory:
    """Cluster-wide page-to-home mapping."""

    POLICIES = ("first_touch", "round_robin", "block")

    def __init__(
        self,
        page_size: int,
        n_nodes: int,
        policy: str = "first_touch",
        total_pages_hint: Optional[int] = None,
    ) -> None:
        if page_size <= 0 or page_size & (page_size - 1):
            raise ValueError("page size must be a positive power of two")
        if n_nodes < 1:
            raise ValueError("need at least one node")
        if policy not in self.POLICIES:
            raise ValueError(f"unknown home policy {policy!r}")
        self.page_size = page_size
        self.n_nodes = n_nodes
        self.policy = policy
        self.total_pages_hint = total_pages_hint
        self._homes: Dict[int, int] = {}

    # ------------------------------------------------------------------ #
    def page_of(self, addr: int) -> int:
        if addr < 0:
            raise ValueError("negative address")
        return addr // self.page_size

    # ------------------------------------------------------------------ #
    def home(self, page: int, toucher_node: Optional[int] = None) -> int:
        """Home node of ``page``, assigning it if not yet assigned.

        ``toucher_node`` feeds the first-touch policy; the other policies
        ignore it.
        """
        existing = self._homes.get(page)
        if existing is not None:
            return existing
        if self.policy == "first_touch":
            if toucher_node is None:
                raise ValueError(f"page {page} untouched and no toucher given")
            node = toucher_node
        elif self.policy == "round_robin":
            node = page % self.n_nodes
        else:  # block
            if self.total_pages_hint:
                per_node = max(1, -(-self.total_pages_hint // self.n_nodes))
                node = min(self.n_nodes - 1, page // per_node)
            else:
                node = page % self.n_nodes
        self._homes[page] = node
        return node

    def homes(self) -> Dict[int, int]:
        """Copy of the full page -> home-node map (conformance oracle)."""
        return dict(self._homes)

    def assign_home(self, page: int, node: int) -> None:
        """Explicit placement (used by traces that model careful layout)."""
        if not 0 <= node < self.n_nodes:
            raise ValueError(f"node {node} out of range")
        current = self._homes.get(page)
        if current is not None and current != node:
            raise ValueError(f"page {page} already homed at {current}")
        self._homes[page] = node

    @property
    def assigned_pages(self) -> int:
        return len(self._homes)


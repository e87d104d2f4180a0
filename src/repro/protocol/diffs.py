"""Twin/diff cost model for HLRC.

HLRC propagates updates as *diffs*: on the first write to a non-home page
in an interval, the writer copies the page (the *twin*); at a release it
word-compares twin against current contents and ships only the changed
words to the home, which applies them to the master copy.

The timing simulation charges this work by the paper's cost model
(Section 2): a fixed cost per word *compared* plus a cost per word
actually *included* in the diff, and a copy cost per word for twin
creation.  A functional diff over page contents, with the soundness
invariant ``apply_diff(twin, compute_diff(twin, cur)) == cur``, lives in
``tests/protocol/test_diffs.py``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.arch.params import ArchParams


def page_words(arch: "ArchParams", page_size: int) -> int:
    return page_size // arch.word_bytes


def twin_cost(arch: "ArchParams", page_size: int) -> int:
    """Cycles to create a twin (copy the whole page)."""
    return page_words(arch, page_size) * arch.twin_copy_cycles_per_word


def diff_create_cost(arch: "ArchParams", page_size: int, words_changed: int) -> int:
    """Cycles to *create* a diff: compare every word, include the changed."""
    compared = page_words(arch, page_size)
    included = min(words_changed, compared)
    return (
        compared * arch.diff_compare_cycles_per_word
        + included * arch.diff_include_cycles_per_word
    )


def diff_apply_cost(arch: "ArchParams", words_changed: int) -> int:
    """Cycles for the home to apply a diff (touch each included word)."""
    return words_changed * arch.diff_include_cycles_per_word


def diff_wire_bytes(arch: "ArchParams", words_changed: int) -> int:
    """Wire size of a diff: (offset, value) per word plus a small header."""
    return 16 + words_changed * (4 + arch.word_bytes)

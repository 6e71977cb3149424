"""Suffix-array construction for bsdiff.

bsdiff's match search needs a suffix array over the *old* firmware.
The construction runs on the update server (not the constrained
device), so asymptotics matter more than RAM: we use prefix doubling —
O(n log^2 n) comparisons — vectorised with numpy when available, with a
pure-Python fallback so the library works without it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Callable, List, Sequence

try:  # numpy is optional; the fallback is exercised in tests
    import numpy as _np
except ImportError:  # pragma: no cover - environment-dependent
    _np = None

__all__ = [
    "build_suffix_array",
    "longest_match",
    "longest_match_at",
    "SuffixIndex",
]


#: Symbols per packed key.  A symbol is ``byte + 1`` in 9 bits, with 0
#: as the past-the-end sentinel (so a suffix that ends orders below any
#: real byte), and seven of them fill 63 bits of an int64.  Keys of
#: suffixes sorted in suffix order are non-decreasing.
_WIDTH = 7
#: ``_PAD[k]`` sets every symbol after the first ``k`` to all ones: ORed
#: into a key cut after ``k`` symbols, it gives the largest key that
#: still starts with them.
_PAD = [(1 << 9 * (_WIDTH - k)) - 1 for k in range(_WIDTH + 1)]
#: A batched search computes this many consecutive scan positions at a
#: time (see :meth:`SuffixIndex.searcher`).
_BLOCK = 256

if _np is not None:
    _PAD_NP = _np.array(_PAD, dtype=_np.int64)
    #: ``_SHARED[j] = 2**(9j)``: a key XOR below it leaves the first
    #: ``_WIDTH - j`` symbols equal.
    _SHARED = _np.array([1 << 9 * j for j in range(_WIDTH)], dtype=_np.int64)


def build_suffix_array(data: bytes) -> List[int]:
    """Return the suffix array of ``data`` (indices of sorted suffixes)."""
    if not data:
        return []
    if _np is not None and len(data) > 64:
        return _sorted_suffixes(data)[0].tolist()
    return _build_python(data)


def _symbols(data: bytes):
    """``byte + 1`` per position of ``data``, then ``_WIDTH`` sentinels."""
    v = _np.zeros(len(data) + _WIDTH, dtype=_np.int64)
    v[:len(data)] = _np.frombuffer(data, dtype=_np.uint8)
    v[:len(data)] += 1
    return v


def _packed(symbols, count: int):
    """The packed keys of the first ``count`` positions of ``symbols``."""
    key = symbols[:count].copy()
    for i in range(1, _WIDTH):
        key <<= 9
        key |= symbols[i:count + i]
    return key


def _sorted_suffixes(data: bytes):
    """The suffix array of ``data`` (int64 array) and its packed keys.

    One sort of the packed 7-symbol keys replaces the first three
    doubling rounds.  On high-entropy firmware these ranks are almost
    all unique already, so the loop usually terminates after a round
    or two.  The keys come back in suffix order: doubling only reorders
    slots whose keys are equal.
    """
    n = len(data)
    keys = _packed(_symbols(data), n)
    sa = _np.argsort(keys)
    sorted_keys = keys[sa]
    # `boundary[i]`: sa[i] starts a new k-symbol group.  Ranks are the
    # *group-start position* rather than a dense 0..n-1 numbering —
    # order-preserving and equal exactly within a group, which is all
    # the pair comparisons need, and it stays consistent when only part
    # of the array is re-ranked below.
    boundary = _np.empty(n, dtype=bool)
    boundary[0] = True
    boundary[1:] = sorted_keys[1:] != sorted_keys[:-1]
    idxs = _np.arange(n, dtype=_np.int64)
    rank = _np.empty(n, dtype=_np.int64)
    rank[sa] = _np.maximum.accumulate(_np.where(boundary, idxs, 0))
    k = _WIDTH
    while k < n:
        # A suffix is *tied* when its group still has more than one
        # member; groups are contiguous in sa, so only those slots need
        # re-sorting — by (group, rank of the suffix k further on).
        # Repeated firmware regions leave a few percent of suffixes
        # tied after the 7-symbol seed, so each round sorts a small
        # subset instead of the whole array.
        tied = ~(boundary & _np.append(boundary[1:], True))
        tied_pos = _np.nonzero(tied)[0]
        if tied_pos.size == 0:
            break
        sub = sa[tied_pos]
        shifted = sub + k
        second = _np.full(sub.shape, -1, dtype=_np.int64)
        valid = shifted < n
        second[valid] = rank[shifted[valid]]
        group = rank[sub]
        order = _np.lexsort((second, group))
        sa[tied_pos] = sub[order]
        group_sorted = group[order]
        second_sorted = second[order]
        # New boundaries within the tied slots: a slot starts a group
        # unless it continues the previous tied slot's group with an
        # equal second key.  (Tied groups are contiguous, so adjacent
        # tied_pos entries in the same group differ by exactly 1.)
        new_boundary = _np.empty(tied_pos.shape, dtype=bool)
        new_boundary[0] = True
        same_group = (
            (tied_pos[1:] == tied_pos[:-1] + 1)
            & (group_sorted[1:] == group_sorted[:-1])
        )
        new_boundary[1:] = ~(
            same_group & (second_sorted[1:] == second_sorted[:-1]))
        boundary[tied_pos] = new_boundary
        rank[sa] = _np.maximum.accumulate(_np.where(boundary, idxs, 0))
        k <<= 1
    return sa, sorted_keys


def _build_python(data: bytes) -> List[int]:
    n = len(data)
    rank: List[int] = list(data)
    sa = sorted(range(n), key=lambda i: rank[i])
    k = 1
    while k < n:
        def key(i: int) -> tuple:
            nxt = rank[i + k] if i + k < n else -1
            return (rank[i], nxt)

        sa.sort(key=key)
        new_rank = [0] * n
        for idx in range(1, n):
            prev, cur = sa[idx - 1], sa[idx]
            new_rank[cur] = new_rank[prev] + (1 if key(cur) != key(prev) else 0)
        rank = new_rank
        if rank[sa[-1]] == n - 1:
            break
        k <<= 1
    return sa


def longest_match(
    old: bytes, suffix_array: Sequence[int], target: bytes
) -> "tuple[int, int]":
    """Longest common prefix between ``target`` and any suffix of ``old``.

    Returns ``(position_in_old, length)``; ``length`` is 0 when no byte
    matches.  Binary search over the suffix array, exactly as bsdiff's
    ``search`` routine.
    """
    return longest_match_at(old, suffix_array, target, 0, len(target))


def longest_match_at(
    old: bytes, suffix_array: Sequence[int], new: bytes,
    scan: int, cap: int
) -> "tuple[int, int]":
    """:func:`longest_match` against ``new[scan:scan + cap]``, zero-copy.

    ``diff`` calls the match search once per scan position; slicing the
    target out of ``new`` each time copied the whole comparison window
    (up to 4 KiB) tens of thousands of times per image pair.  This
    variant compares in place.  Lexicographic order is decided from the
    common-prefix length instead of materialising either side, so the
    binary search does no slicing at all; the result is identical.
    """
    bound = min(cap, len(new) - scan)
    if not old or bound <= 0:
        return (0, 0)

    target = new[scan:scan + bound]
    first = target[0]
    lo, hi = 0, len(suffix_array)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        start = suffix_array[mid]
        # Bounded prefix comparison: suffixes whose first `bound` bytes tie
        # with the target already achieve the maximum possible LCP, so the
        # tie-breaking order does not affect the result.  Most probes
        # resolve on the first byte; only near-ties pay the C-level
        # slice comparison.
        head = old[start]
        if head != first:
            le = head < first
        else:
            le = old[start:start + bound] <= target
        if le:
            lo = mid
        else:
            hi = mid

    best_pos = suffix_array[lo]
    best_len = _lcp_bounded(old, best_pos, new, scan,
                            min(bound, len(old) - best_pos))
    if hi < len(suffix_array):
        cand = suffix_array[hi]
        cand_len = _lcp_bounded(old, cand, new, scan,
                                min(bound, len(old) - cand))
        if cand_len > best_len:
            best_pos, best_len = cand, cand_len
    return (best_pos, best_len)


class SuffixIndex:
    """Suffix array of ``old`` plus each suffix's packed key, for match search.

    The plain binary search walks ~log2(n) Python-level iterations per
    probe, and ``diff`` probes once per scan position — thousands of
    times per image pair.  Each suffix is keyed by its first seven
    symbols (see ``_WIDTH``); the keys follow suffix order, so two
    bisects over them bracket the suffixes that tie with the target on
    those symbols, and only a bracket that is not empty needs the
    bounded binary search.

    The classic search converges to ``lo = max(K, 0)`` where ``K`` is
    the last suffix ordered ``<=`` the target, then scores ``sa[lo]``
    and ``sa[lo + 1]``.  :meth:`search` computes the same ``K`` from
    the bracket, so positions and lengths — and therefore patches — are
    byte-identical.  With numpy the suffix array and the keys are
    int64 arrays and :meth:`searcher` batches the search; without it
    they are lists and :meth:`searcher` runs :meth:`search` per
    position, the reference path.
    """

    __slots__ = ("old", "sa", "_keys")

    def __init__(self, old: bytes):
        self.old = old
        n = len(old)
        if _np is not None and n > 64:
            self.sa, self._keys = _sorted_suffixes(old)
        else:
            self.sa = build_suffix_array(old)
            # Key of position p from the key of p + 1: push one symbol
            # in at the top, drop the last one.
            by_pos = [0] * (n + 1)
            for p in range(n - 1, -1, -1):
                by_pos[p] = ((old[p] + 1) << 9 * (_WIDTH - 1)) \
                    | (by_pos[p + 1] >> 9)
            self._keys = [by_pos[p] for p in self.sa]

    def search(self, new: bytes, scan: int, cap: int) -> "tuple[int, int]":
        """Equivalent of :func:`longest_match_at` using the index."""
        bound = min(cap, len(new) - scan)
        if not self.old or bound <= 0:
            return (0, 0)
        head = new[scan:scan + min(bound, _WIDTH)]
        key = 0
        for byte in head:
            key = (key << 9) | (byte + 1)
        key <<= 9 * (_WIDTH - len(head))
        top = key | _PAD[len(head)]
        keys = self._keys
        return self._resolve(new, scan, bound, bisect_left(keys, key),
                             bisect_right(keys, top))

    def _resolve(self, new: bytes, scan: int, bound: int, lo: int,
                 hi: int) -> "tuple[int, int]":
        """Finish a search whose target ties with ``sa[lo:hi]`` on its key.

        Every suffix before ``lo`` compares below the target and every
        one from ``hi`` on above it, so the bounded binary search only
        walks the bracket.
        """
        old, sa = self.old, self.sa
        target = new[scan:scan + bound]
        while lo < hi:
            mid = (lo + hi) // 2
            start = sa[mid]
            if old[start:start + bound] <= target:
                lo = mid + 1
            else:
                hi = mid
        lo = max(lo - 1, 0)
        first = new[scan]
        best_pos = int(sa[lo])
        best_len = 0
        if old[best_pos] == first:
            best_len = _lcp_bounded(old, best_pos, new, scan,
                                    min(bound, len(old) - best_pos))
        if lo + 1 < len(sa):
            cand = int(sa[lo + 1])
            if old[cand] == first:
                cand_len = _lcp_bounded(old, cand, new, scan,
                                        min(bound, len(old) - cand))
                if cand_len > best_len:
                    best_pos, best_len = cand, cand_len
        return (best_pos, best_len)

    def searcher(self, new: bytes,
                 cap: int) -> Callable[[int], "tuple[int, int]"]:
        """``scan -> self.search(new, scan, cap)``, batched with numpy.

        Percival's scan loop visits runs of consecutive positions, so
        the search runs for ``_BLOCK`` positions at once, starting at
        the first one visited outside the current block.  One
        ``searchsorted`` places every target's key among the suffix
        keys.  When no suffix key starts with the target's symbols (an
        empty bracket), the last suffix ``<=`` the target sits just
        below that place, and both candidates' common-prefix lengths
        follow from the XOR of their keys with the target's.  Only a
        target sharing every key symbol with some suffix goes to the
        bounded binary search, inside its bracket.  Blocks are computed
        only when the loop steps into them, so a pair that jumps by
        whole matches pays for few positions, and only the current
        block is kept.
        """
        if isinstance(self._keys, list) or cap <= 0:
            return lambda scan: self.search(new, scan, cap)
        symbols = _symbols(new)
        n_new = len(new)
        start = stop = 0
        found: list = []
        brackets: list = []

        def find(scan: int) -> "tuple[int, int]":
            nonlocal start, stop, found, brackets
            if not start <= scan < stop:
                if not 0 <= scan < n_new:
                    return self.search(new, scan, cap)
                start, stop = scan, min(scan + _BLOCK, n_new)
                found, brackets = self._block(symbols, n_new, start, stop,
                                              cap)
            hit = found[scan - start]
            if hit is None:
                return self._resolve(new, scan, min(cap, n_new - scan),
                                     *brackets[scan - start])
            return hit

        return find

    def _block(self, symbols, n_new: int, start: int, stop: int, cap: int):
        """The batched search over ``start <= scan < stop``.

        Returns ``(found, brackets)``: ``found[i]`` is the result for
        ``start + i``, or ``None`` when its bracket ``brackets[i]`` is
        not empty.
        """
        keys, sa = self._keys, self.sa
        last_slot = len(sa) - 1
        # Symbols past the end of `new` are already sentinels; a cap
        # below the key width cuts the target the same way.
        target = _packed(symbols[start:], stop - start)
        if cap < _WIDTH:
            target &= ~_PAD[cap]
        width = _np.minimum(
            _np.minimum(cap, n_new - _np.arange(start, stop)), _WIDTH)
        top = target | _PAD_NP[width]
        lo = _np.searchsorted(keys, target, "left")
        below = _np.maximum(lo - 1, 0)
        above = _np.minimum(below + 1, last_slot)
        # With an empty bracket each candidate differs from the target
        # within its first `width` symbols, where the target's are
        # real bytes: the shared symbols are the common prefix.
        shared_below = _WIDTH - _np.searchsorted(
            _SHARED, keys[below] ^ target, "right")
        shared_above = _WIDTH - _np.searchsorted(
            _SHARED, keys[above] ^ target, "right")
        take_above = (shared_above > shared_below) & (below < last_slot)
        found = list(zip(
            _np.where(take_above, sa[above], sa[below]).tolist(),
            _np.where(take_above, shared_above, shared_below).tolist()))
        # The bracket is not empty when the first key at or past the
        # target still starts with the target's symbols.
        tied = _np.flatnonzero(
            (lo <= last_slot) & (keys[_np.minimum(lo, last_slot)] <= top))
        hi = _np.searchsorted(keys, top[tied], "right")
        brackets = [None] * len(found)
        for i, b_lo, b_hi in zip(tied.tolist(), lo[tied].tolist(),
                                 hi.tolist()):
            found[i] = None
            brackets[i] = (b_lo, b_hi)
        return found, brackets


def _lcp_bounded(old: bytes, pos: int, new: bytes, start: int,
                 limit: int) -> int:
    """Common-prefix length of ``old[pos:]`` and ``new[start:]``, capped.

    Locates the first mismatch without a Python byte loop: XOR the two
    windows as big-endian integers — the highest set bit of the XOR
    pinpoints the first differing byte (``bit_length`` is C-level on
    arbitrary-size ints).  A 16-byte head tier keeps the common case
    (probes that mismatch within a few bytes) from converting whole
    4 KiB windows; the result matches the byte-wise original.
    """
    if limit <= 0 or old[pos] != new[start]:
        return 0
    head = limit if limit < 16 else 16
    a = old[pos:pos + head]
    b = new[start:start + head]
    if a != b:
        x = int.from_bytes(a, "big") ^ int.from_bytes(b, "big")
        return head - 1 - (x.bit_length() - 1) // 8
    if head == limit:
        return limit
    a = old[pos:pos + limit]
    b = new[start:start + limit]
    if a == b:
        return limit
    x = int.from_bytes(a, "big") ^ int.from_bytes(b, "big")
    return limit - 1 - (x.bit_length() - 1) // 8

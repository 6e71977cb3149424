"""Suffix-array construction and match-search tests."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.delta import suffix
from repro.delta.suffix import (
    SuffixIndex,
    _build_python,
    build_suffix_array,
    longest_match,
    longest_match_at,
)


def naive_suffix_array(data: bytes):
    return sorted(range(len(data)), key=lambda i: data[i:])


@pytest.mark.parametrize("data", [
    b"",
    b"a",
    b"banana",
    b"mississippi",
    b"aaaaaaa",
    b"abcabcabc",
    bytes(range(256)),
], ids=["empty", "single", "banana", "mississippi", "runs", "repeat",
        "alphabet"])
def test_matches_naive(data):
    assert build_suffix_array(data) == naive_suffix_array(data)


def test_python_fallback_matches_naive():
    data = b"the quick brown fox" * 5
    assert _build_python(data) == naive_suffix_array(data)


def test_numpy_and_python_agree():
    data = b"abracadabra arbadacarba" * 20  # > 64 bytes: numpy path
    assert build_suffix_array(data) == _build_python(data)


def test_longest_match_exact():
    old = b"0123456789abcdefghij"
    sa = build_suffix_array(old)
    pos, length = longest_match(old, sa, b"89abcd")
    assert old[pos:pos + length] == b"89abcd"
    assert length == 6


def test_longest_match_partial():
    old = b"hello world"
    sa = build_suffix_array(old)
    pos, length = longest_match(old, sa, b"worst")
    assert length == 3  # "wor"
    assert old[pos:pos + length] == b"wor"


def test_longest_match_no_match():
    old = b"aaaa"
    sa = build_suffix_array(old)
    _, length = longest_match(old, sa, b"zzzz")
    assert length == 0


def test_longest_match_empty_inputs():
    assert longest_match(b"", [], b"abc") == (0, 0)
    sa = build_suffix_array(b"abc")
    assert longest_match(b"abc", sa, b"") == (0, 0)


@settings(max_examples=40, deadline=None)
@given(st.binary(min_size=1, max_size=300))
def test_suffix_array_is_permutation_and_sorted(data):
    sa = build_suffix_array(data)
    assert sorted(sa) == list(range(len(data)))
    for left, right in zip(sa, sa[1:]):
        assert data[left:] <= data[right:]


@settings(max_examples=40, deadline=None)
@given(st.binary(min_size=1, max_size=120), st.binary(min_size=1,
                                                      max_size=40))
def test_longest_match_is_maximal(old, target):
    sa = build_suffix_array(old)
    pos, length = longest_match(old, sa, target)
    assert old[pos:pos + length] == target[:length]
    best = max(
        (len_common(old[i:], target) for i in range(len(old))), default=0)
    assert length == best


def len_common(a: bytes, b: bytes) -> int:
    count = 0
    for x, y in zip(a, b):
        if x != y:
            break
        count += 1
    return count


@st.composite
def search_cases(draw):
    """An ``old`` just past the numpy threshold (or a few hundred bytes),
    from a small alphabet so 7-byte ties are common, and a ``new`` made
    of slices of ``old`` and fresh bytes, long enough to span blocks."""
    alphabet = draw(st.sampled_from([b"\x00", b"ab", b"a\x00\xff", b"xyz01"]))
    symbols = st.sampled_from(list(alphabet)) | st.integers(0, 255)
    old = bytes(draw(st.lists(symbols, min_size=65, max_size=draw(
        st.sampled_from([70, 400])))))
    new = bytearray()
    for _ in range(draw(st.integers(1, 12))):
        if draw(st.booleans()):
            start = draw(st.integers(0, len(old) - 1))
            new += old[start:start + draw(st.integers(1, 80))]
        else:
            new += bytes(draw(st.lists(symbols, min_size=1, max_size=60)))
    cap = draw(st.sampled_from([1, 2, 6, 7, 8, 13]) | st.integers(1, 4096))
    return old, bytes(new), cap


@settings(max_examples=120, deadline=None)
@given(search_cases(), st.randoms(use_true_random=False))
def test_batched_search_matches_scalar_search_everywhere(case, rng):
    """The numpy block search, the numpy index's scalar search, the
    pure-Python index and the plain binary search agree at every scan
    position — visited in order, then in a jumping order."""
    old, new, cap = case
    index = SuffixIndex(old)
    saved = suffix._np
    suffix._np = None
    try:
        reference = SuffixIndex(old)
    finally:
        suffix._np = saved
    sa = list(index.sa)
    assert sa == reference.sa
    expected = [longest_match_at(old, sa, new, scan, cap)
                for scan in range(len(new))]
    assert [index.search(new, scan, cap)
            for scan in range(len(new))] == expected
    assert [reference.search(new, scan, cap)
            for scan in range(len(new))] == expected
    find = index.searcher(new, cap)
    assert [find(scan) for scan in range(len(new))] == expected
    jumps = [rng.randrange(len(new)) for _ in range(20)]
    find = index.searcher(new, cap)
    assert [find(scan) for scan in jumps] == [expected[scan]
                                              for scan in jumps]

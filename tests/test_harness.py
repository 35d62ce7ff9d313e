"""Harness pieces below the command line: the seeded generator."""

import pytest

from macc.harness import SplitMix64


def scalar_bytes(rng, n):
    """Reference: the byte stream as ceil(n/8) little-endian next_u64 words."""
    out = b"".join(rng.next_u64().to_bytes(8, "little") for _ in range(-(-n // 8)))
    return out[:n]


@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 4096])
def test_bytes_matches_next_u64_stream(seed, n):
    fast, slow = SplitMix64(seed), SplitMix64(seed)
    assert fast.bytes(n) == scalar_bytes(slow, n)
    assert fast.next_u64() == slow.next_u64()
    assert fast.bytes(n + 3) == scalar_bytes(slow, n + 3)

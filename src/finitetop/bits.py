"""Small helpers for subsets-as-integer-bitmasks."""


def iter_bits(mask):
    """Yield the set bit positions of `mask` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def popcount(mask):
    return mask.bit_count()

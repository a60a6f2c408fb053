"""Small helpers for subsets-as-integer-bitmasks."""


def iter_bits(mask):
    """Yield the set bit positions of `mask` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def submasks(mask):
    """Yield every subset of `mask`, descending, ending with 0."""
    s = mask
    while True:
        yield s
        if s == 0:
            return
        s = (s - 1) & mask


def popcount(mask):
    return mask.bit_count()

"""Test data that several test modules share: the preset names and custom seeds."""

from hypothesis import strategies as st

from comptri import ArithmeticFunction

PRESETS = ("ones", "fib", "odd", "natural", "ge2", "two_three")

# custom seeds f_0(1..N), N <= 16: digits or 64-bit entries, f(1) may be 0,
# and some seeds are all zeros after their first few terms
ENTRIES = st.integers(0, 9) | st.integers(2**63, 2**64 - 1)
CUSTOM_SEEDS = (
    st.lists(ENTRIES, min_size=1, max_size=16)
    | st.builds(lambda head, zeros: head + [0] * zeros,
                st.lists(ENTRIES, min_size=1, max_size=3), st.integers(0, 13))
).map(lambda values: ArithmeticFunction(tuple(values), "custom"))

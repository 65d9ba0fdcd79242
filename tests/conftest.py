"""Settings and helpers shared by the whole test suite."""

import tracemalloc

from hypothesis import settings

# Property tests draw the same examples on every run, as the acceptance
# battery does with its fixed seed.  Example counts keep their defaults;
# so do deadlines, except on the file round trips of
# tests/test_serialization.py::TestBitExactRoundTrip, which run without one.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


def traced_peak(fn, *args):
    """The peak of the memory ``tracemalloc`` traces while ``fn(*args)``
    runs, in bytes; tracing starts before the call and stops after it."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

"""Settings shared by the whole test suite."""

from hypothesis import settings

# Property tests draw the same examples on every run, as the acceptance
# battery does with its fixed seed.  Example counts keep their defaults;
# so do deadlines, except on the file round trips of
# tests/test_serialization.py::TestBitExactRoundTrip, which run without one.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")

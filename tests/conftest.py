"""Settings shared by the whole test suite."""

from hypothesis import settings

# Property tests draw the same examples on every run, as the acceptance
# battery does with its fixed seed; deadlines and example counts keep
# their defaults.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")

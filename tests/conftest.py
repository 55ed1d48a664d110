"""Shared test settings.

The property tests run under a hypothesis profile that derandomizes its
search, so every run draws the same examples, and bounds their number, so
the suite's time stays fixed.  Without hypothesis those tests skip
themselves."""

try:
    from hypothesis import settings
except ImportError:
    settings = None

if settings is not None:
    settings.register_profile("quiverz", derandomize=True, max_examples=60, deadline=None, database=None)
    settings.load_profile("quiverz")

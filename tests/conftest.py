"""Shared test configuration.

Property tests run under one Hypothesis profile: no deadline (a sweep's
first call pays numpy's warm-up), derandomized so every run draws the same
examples, and no example database, so nothing is replayed from earlier runs.
Each test sets only its own `max_examples`.
"""

from hypothesis import settings

settings.register_profile("deterministic", deadline=None, derandomize=True, database=None)
settings.load_profile("deterministic")

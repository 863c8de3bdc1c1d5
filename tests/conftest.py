"""Test-wide settings.

Property tests run under a derandomized hypothesis profile with no deadline:
each run draws the same examples, writes no example database, and a loaded
host cannot time a test out.
"""

from hypothesis import settings

settings.register_profile("percsched", derandomize=True, deadline=None, database=None)
settings.load_profile("percsched")

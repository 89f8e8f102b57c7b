"""Test-wide settings: Hypothesis draws the same examples on every run.

With ``derandomize=True`` each property test seeds its draws from a hash of
the test itself, so a run of the suite tests what the last run tested and
its wall time is reproducible.  Each test's own ``@settings`` (its example
count, its deadline) still applies on top of this profile.
"""

from hypothesis import settings

settings.register_profile("reproducible", derandomize=True)
settings.load_profile("reproducible")

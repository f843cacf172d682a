"""Shared test configuration: one deterministic hypothesis profile.

Property tests draw the same examples on every run (derandomized, no example
database), and no per-example deadline applies, so timing noise on a busy
machine cannot fail them.
"""

from hypothesis import settings

settings.register_profile("qpcut", derandomize=True, deadline=None, database=None)
settings.load_profile("qpcut")

"""Shared test configuration: deterministic hypothesis profiles.

Property tests draw the same examples on every run (derandomized, no example
database), and no per-example deadline applies, so timing noise on a busy
machine cannot fail them.  "qpcut" is loaded by default; "qpcut-thorough"
draws ten times as many examples (1,000 where a test sets no count of its
own) and is selected with hypothesis's own option, e.g.

    pytest tests/test_projection_properties.py --hypothesis-profile=qpcut-thorough

That option is applied after this file is imported, so it wins over the
default loaded here.
"""

from hypothesis import settings

settings.register_profile("qpcut", derandomize=True, deadline=None, database=None)
settings.register_profile("qpcut-thorough", settings.get_profile("qpcut"), max_examples=1000)
settings.load_profile("qpcut")

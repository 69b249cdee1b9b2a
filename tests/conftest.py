"""Shared test settings: a deterministic hypothesis profile.

Property tests draw their examples from a fixed derandomized stream, with
no per-example deadline and no example database, so every run of the suite
checks the same inputs whatever the machine's load.
"""

from hypothesis import settings

settings.register_profile("pinlab", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("pinlab")

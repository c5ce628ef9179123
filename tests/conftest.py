"""Test-suite settings shared by every test module.

Property tests use one Hypothesis profile: examples are generated from a
fixed seed (``derandomize``), so every run checks the same cases and a failure
reproduces; no per-example deadline, because wall time on a loaded machine
says nothing about correctness; and no example database is written.
"""

from hypothesis import settings

settings.register_profile("findual", derandomize=True, deadline=None, database=None)
settings.load_profile("findual")

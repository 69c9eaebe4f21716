"""Hypothesis profiles of the suite.

The default profile draws the same examples on every run, so a tier-1 run
is repeatable: ``derandomize`` seeds each test from its own source (and so
reads and writes no example database).  For an exploratory search with
fresh examples on every run, select the random profile:

    python3 -m pytest --hypothesis-profile=random
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True)
settings.register_profile("random", derandomize=False)
settings.load_profile("deterministic")

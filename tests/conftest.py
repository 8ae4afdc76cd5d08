"""Hypothesis settings for the whole suite.

The ``repeatable`` profile draws the same examples on every run and keeps
no example database, so a pass or a failure repeats on any checkout.
Each test keeps its own ``max_examples`` and strategies.  To explore with
fresh random draws, for example before changing a numeric kernel, run
hypothesis's built-in profile: ``pytest --hypothesis-profile=default``.
"""

from hypothesis import settings

settings.register_profile("repeatable", derandomize=True, database=None)
settings.load_profile("repeatable")

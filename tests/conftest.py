"""Hypothesis profiles; select one with ``pytest --hypothesis-profile=NAME``.

``ci`` derives every example from the test itself instead of a random
seed, so a CI run draws the same examples each time, and it drops the
per-example deadline, which a slow shared runner would otherwise trip.
"""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)

"""Hypothesis profiles shared by every property test.

Tier-1 runs the ``ci`` profile: derandomized and without an example
database, so a property's examples are a pure function of its code and
the suite passes or fails the same way on every machine and every run.
The ``nightly`` profile (``HYPOTHESIS_PROFILE=nightly``) searches at
random with a larger budget; it is where new falsifiers are found, and
each one is then pinned as a plain deterministic regression test.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, database=None)
settings.register_profile("nightly", max_examples=200)
PROFILE = os.environ.get("HYPOTHESIS_PROFILE", "ci")
settings.load_profile(PROFILE)


def examples(tier1: int) -> int:
    """A property's ``max_examples``: its tier-1 budget, or the nightly one."""
    return settings.default.max_examples if PROFILE == "nightly" else tier1

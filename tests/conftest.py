"""Hypothesis profiles for the test suite.

The default profile, ``tier1``, is derandomized: each property test draws
the same examples on every run, at the ``max_examples`` its own settings
give, and reads and writes no example database.  Set
``HYPOTHESIS_PROFILE=explore`` to draw fresh examples instead, for example
``HYPOTHESIS_PROFILE=explore python -m pytest tests``.
"""

import os

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))

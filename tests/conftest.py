"""Hypothesis profiles for the test suite, and the Element spy.

The default profile, ``tier1``, is derandomized: each property test draws
the same examples on every run, at the ``max_examples`` its own settings
give, and reads and writes no example database.  Set
``HYPOTHESIS_PROFILE=explore`` to draw fresh examples instead, for example
``HYPOTHESIS_PROFILE=explore python -m pytest tests``.
"""

import os

import pytest
from hypothesis import settings

from altkit.core import Element

settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))


@pytest.fixture
def built_elements(monkeypatch) -> list:
    """Spy on both ways an Element is built, `Element.__init__` and
    `Element._of`: the list each new Element is appended to."""
    built = []
    of, init = Element._of.__func__, Element.__init__

    def spy_of(cls, *args):
        e = of(cls, *args)
        built.append(e)
        return e

    def spy_init(self, *args):
        init(self, *args)
        built.append(self)

    monkeypatch.setattr(Element, "_of", classmethod(spy_of))
    monkeypatch.setattr(Element, "__init__", spy_init)
    return built

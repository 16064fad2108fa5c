"""Hypothesis profiles: `default` for tier-1, `deep` for a longer search.

Select one with `pytest --hypothesis-profile=deep`.  Property tests take
their example counts from the loaded profile; one that is cheap enough
to run more asks for a multiple of it.
"""

from hypothesis import settings

settings.register_profile("default", max_examples=25, deadline=None)
settings.register_profile("deep", max_examples=300, deadline=None)

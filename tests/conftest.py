"""Hypothesis profiles of the suite.

``suite``, loaded by default: derandomized, with no deadline and 60
examples a test.  ``mutants`` (``pytest --hypothesis-profile=mutants``)
is ``suite`` without the shrink phase: a mutation check needs a failing
example, not the smallest one.
"""

from hypothesis import Phase, settings

settings.register_profile("suite", derandomize=True, deadline=None, max_examples=60)
settings.register_profile("mutants", settings.get_profile("suite"),
                          phases=[phase for phase in Phase if phase is not Phase.shrink])
settings.load_profile("suite")

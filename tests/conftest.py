"""Hypothesis profiles for the test suite.

By default every property test draws the same examples on every run
(``derandomize``), so the suite's time does not depend on the draw.
``--hypothesis-profile fresh`` draws new examples on each run instead.
Both keep each test's own ``max_examples``."""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.register_profile("fresh", derandomize=False)


def pytest_configure(config):
    if not config.getoption("hypothesis_profile", None):
        settings.load_profile("derandomized")

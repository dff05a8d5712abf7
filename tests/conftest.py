import json
from importlib import resources

import pytest
from hypothesis import settings

settings.register_profile("suite", deadline=None)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def reference_doc():
    path = resources.files("nlbox.data") / "beta_reference.json"
    return json.loads(path.read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def default_class_map():
    from nlbox import swap

    return swap.class_map(swap.DEFAULT_SOURCES)


@pytest.fixture(scope="session")
def premeasurement_marginal(default_class_map):
    """Behavior of (1,3) and (6,8) before the robot's outcome is known.

    It is the mixture of the sixteen class behaviors, each of robot
    probability exactly 1/16: a mixture of nonlocal boxes.  Summed in
    integers from the classes' rows of the package's ``product_counts()``,
    it is 256 p(a, b | x, y), a tuple of 144 ints.  The class map hits
    every Bell product once and the rows of C sum to zero, so every entry
    should be 16: without the robot's outcomes the parties see uniformly
    random outcomes in every cell, and every Bell expression averages to zero.
    """
    from nlbox.inequalities import product_counts

    rows = [product_counts()[row] for row in default_class_map]
    return tuple(map(sum, zip(*rows)))

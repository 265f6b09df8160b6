"""Every fast check of the built-in oracle suite, one test each.

The oracles live only in `cogent.selfcheck`; `cogent selfcheck` runs the
same table. The two slow checks stay out: the full gradient check is
acceptance criterion 1, and the convergence run is the `selfcheck` CLI's.
"""

import pytest

from cogent.selfcheck import CHECKS, SLOW

FAST = [(name, fn) for name, fn in CHECKS if name not in SLOW]


@pytest.mark.parametrize(
    "check", [fn for _, fn in FAST], ids=[fn.__name__.strip("_") for _, fn in FAST]
)
def test_oracle(check):
    check()

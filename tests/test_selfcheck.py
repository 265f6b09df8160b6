"""Every check of the built-in oracle suite but one, one test each.

The oracles live only in `cogent.selfcheck`; `cogent selfcheck` runs the
same table. The full gradient check stays out: acceptance criterion 1 runs
it. The convergence run, which `selfcheck --fast` skips, is
`test_oracle[convergence_run]`.
"""

import pytest

from cogent.selfcheck import CHECKS

RUN = [(name, fn) for name, fn in CHECKS if name != "full joint-loss gradient check"]


@pytest.mark.parametrize(
    "check", [fn for _, fn in RUN], ids=[fn.__name__.strip("_") for _, fn in RUN]
)
def test_oracle(check):
    check()

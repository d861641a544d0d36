import threading
import time

import numpy as np
import pytest

from amcmc_lab.seeding import Helper

# How the kernels split their units between the two threads, and that each
# unit runs once, is tested where they use the helper: tests/test_sde.py and
# tests/test_coeffs.py.


def test_the_helper_runs_under_the_callers_errstate():
    # a plain pool thread starts from numpy's default, over="warn"
    def work(pending):
        return np.geterr()["over"], threading.get_ident()

    with np.errstate(over="raise"), Helper() as helper:
        mine, theirs = helper.share(work, range(1))()
    assert mine == ("raise", threading.get_ident())
    assert theirs[0] == "raise" and theirs[1] != mine[1]


def test_a_raise_leaves_the_helper_no_further_unit_and_joins_it():
    # the calling thread raises on its first unit while the helper sleeps in
    # the one it took: the helper takes none of the three left, and is gone
    caller = threading.get_ident()
    helper_took, helper_busy = [], threading.Event()

    def work(pending):
        for unit in pending:
            if threading.get_ident() == caller:
                assert helper_busy.wait(10)
                raise RuntimeError("caller failed")
            helper_took.append(unit)
            helper_busy.set()
            time.sleep(0.2)

    before = threading.active_count()
    with pytest.raises(RuntimeError, match="caller failed"):
        with Helper() as helper:
            helper.share(work, range(5))()
    assert len(helper_took) == 1
    assert threading.active_count() == before


def test_leaving_takes_no_further_unit_however_many_are_left():
    # both threads raise on their first unit; the with block is left at
    # once, the rest of the units untaken (not drained one by one)
    units = iter(range(10**6))

    def work(pending):
        for unit in pending:
            raise RuntimeError(f"unit {unit} failed")

    with pytest.raises(RuntimeError, match="failed"):
        with Helper() as helper:
            helper.share(work, units)()
    assert next(units) <= 2

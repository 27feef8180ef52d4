import faulthandler
import os

import pytest


@pytest.fixture(autouse=True)
def time_limit(capsys):
    """Give every test 60 s, then end the whole run with exit code 1 and
    every thread's stack on the terminal: a deadlocked fan-out or a run that
    never ends then fails the suite instead of hanging it."""
    with capsys.disabled():
        stderr = os.dup(2)  # the terminal, not the capture
    faulthandler.dump_traceback_later(60, exit=True, file=stderr)
    yield
    faulthandler.cancel_dump_traceback_later()
    os.close(stderr)

"""pytest plugin: full-precision elapsed time of each acceptance criterion.

    python3 -m pytest tests/test_acceptance.py -p acceptance_probe -q -s -p no:cacheprovider

with ``bench`` on PYTHONPATH.  The criteria print their elapsed time to two
decimals; this plugin wraps ``_Timer.__exit__`` of the collected module so
that each criterion also prints ``[acceptance-probe NN] <elapsed> <budget>``
with every digit.  The test file is read, never modified.
"""

import time


def pytest_collection_finish(session):
    modules = {item.module for item in session.items}
    for module in modules:
        timer = getattr(module, "_Timer", None)
        if timer is None:
            continue
        original = timer.__exit__

        def __exit__(self, *exc, _original=original):
            elapsed = time.perf_counter() - self.start
            print(f"[acceptance-probe {self.number:02d}] {elapsed!r} {self.budget!r}")
            return _original(self, *exc)

        timer.__exit__ = __exit__

"""Test-session set-up: with ``CI`` set, hypothesis runs derandomized.

The ``ci`` profile draws the same examples on every run and keeps no
example database, so a property test cannot pass on one run of the
workflow and fail on the next.  Run it locally with ``CI=1``.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, database=None,
                          print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")

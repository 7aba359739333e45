"""Hypothesis settings shared by the test suite.

With the CI environment variable set, the `ci` profile derandomizes every
property test, so a failure on a runner repeats on every run, and prints the
blob that reproduces it locally with @reproduce_failure. Local runs keep
Hypothesis' random search.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")

"""Hypothesis settings shared by the test suite.

With the CI environment variable set, the `ci` profile derandomizes every
property test, so a failure on a runner repeats on every run, and prints the
blob that reproduces it locally with @reproduce_failure. Local runs keep
Hypothesis' random search. every_map gives the tests map objects.
"""

import os

from hypothesis import settings

from gaugequandles import bundles

settings.register_profile("ci", derandomize=True, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


def every_map(b):
    """Every equivariant map on the bundle b as an EquivariantMap, in enumerate_maps order."""
    return [bundles.EquivariantMap(b, row) for row in bundles.enumerate_maps(b)]

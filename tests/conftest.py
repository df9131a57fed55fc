"""Hypothesis profiles for the test suite.

``CCZ_HYPOTHESIS_PROFILE=ci`` loads the ``ci`` profile, which raises the
default example budget; CI runs the decoder mutation properties under it.
"""

import os

from hypothesis import settings

settings.register_profile("ci", max_examples=5000)
if "CCZ_HYPOTHESIS_PROFILE" in os.environ:
    settings.load_profile(os.environ["CCZ_HYPOTHESIS_PROFILE"])

"""Hypothesis profiles: the suite is a pure function of the tree.

By default every property draws the same examples on every run
(``derandomize``) and keeps no example database, so a run reads nothing that
an earlier run left behind. Set ``HYPOTHESIS_PROFILE=explore`` to draw fresh
random examples instead; a failure there prints the example to pin with
``@example``.
"""

import os

from hypothesis import settings

settings.register_profile("fixed", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False, database=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "fixed"))

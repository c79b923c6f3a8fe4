"""Lets the benchmark's own tests import the package from the checkout's ``src``."""

import run

run.import_package()

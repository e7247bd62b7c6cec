"""Setup shim with no package metadata.

``setup()`` receives no arguments and the repository has no
``pyproject.toml``, so this file describes no installable package and no
console scripts.  Run the code from a checkout with::

    PYTHONPATH=src python -m repro --help
"""

from setuptools import setup

setup()

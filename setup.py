"""Setup shim for environments without the `wheel` package.

All project metadata lives in setup.cfg; this file only enables
legacy `pip install -e .` where PEP 660 editable builds are unavailable.
"""

from setuptools import setup

setup()

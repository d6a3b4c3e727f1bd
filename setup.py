"""Setuptools shim.

The canonical project metadata lives in ``pyproject.toml``; this file exists
so that the package can be installed in editable mode on environments whose
``setuptools`` predates PEP 660 editable-wheel support (no ``wheel`` package
available offline), via ``pip install -e . --no-use-pep517``.
"""

from setuptools import setup

setup()

"""Environment for child processes that must import the capflow under test."""

import os

import capflow

SRC = os.path.dirname(os.path.dirname(os.path.abspath(capflow.__file__)))

# The parent's environment with the directory holding this capflow first on
# PYTHONPATH, so `python -m capflow` works in an uninstalled checkout too.
ENV = dict(
    os.environ,
    PYTHONPATH=os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p),
)

"""The package re-exports the public names of its three library modules."""

from __future__ import annotations

import pytest

import confdist
from confdist import calibration, inference, specfun


@pytest.mark.parametrize("module", [calibration, inference, specfun])
def test_module_names_are_package_attributes(module):
    missing = [
        name for name in module.__all__
        if getattr(confdist, name, None) is not getattr(module, name)
    ]
    assert not missing


def test_public_names_are_unique_and_star_importable():
    assert len(confdist.__all__) == len(set(confdist.__all__))
    namespace: dict = {}
    exec("from confdist import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(confdist.__all__)
    assert confdist.__version__ == "0.1.0"

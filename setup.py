"""Packaging for the LCCS-LSH reproduction (``pip install -e .``).

Kept as a plain ``setup.py`` (no build-isolation requirements) so the
editable install works offline with the baked-in toolchain.
"""

import os

from setuptools import find_packages, setup

_here = os.path.dirname(os.path.abspath(__file__))
_readme = os.path.join(_here, "README.md")
long_description = ""
if os.path.exists(_readme):
    with open(_readme, encoding="utf-8") as fh:
        long_description = fh.read()

setup(
    name="lccs-lsh-repro",
    version="1.0.0",
    description=(
        "Reproduction of LCCS-LSH (SIGMOD 2020) with a batched, "
        "vectorised query engine"
    ),
    long_description=long_description,
    long_description_content_type="text/markdown",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
    install_requires=[
        "numpy>=1.22",
        "orjson>=3.6",
        "scipy>=1.8",
    ],
    extras_require={
        "plot": ["matplotlib"],
        "test": ["pytest", "hypothesis"],
    },
)

"""Package metadata for the ``repro`` BitDew reproduction.

All project metadata lives here.  The code sits under ``src/``; for
development ``export PYTHONPATH=src`` is enough, and
``pip install --no-deps --no-build-isolation -e .`` installs it in
editable mode where no ``wheel`` package can be fetched.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description="A reproduction of BitDew, a programmable environment for "
                "large-scale data management and distribution",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
)

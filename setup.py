"""Package metadata for the MCML reproduction.

Installs the ``repro`` package from ``src/`` and the ``mcml`` console
script (``repro.experiments.cli:main``)::

    pip install -e .

Where no ``wheel`` package is installed and none can be fetched (offline
environments), pip cannot build the editable wheel; install in develop
mode instead::

    python setup.py develop

Without installing, every entry point also runs from a checkout with
``PYTHONPATH=src`` (e.g. ``PYTHONPATH=src python -m repro.experiments.cli``).
"""

from setuptools import find_namespace_packages, setup

setup(
    name="mcml-repro",
    version="0.1.0",
    description=(
        "Reproduction of MCML: model counting meets machine learning "
        "(PLDI 2020)"
    ),
    package_dir={"": "src"},
    # ``repro`` itself has no __init__.py (a namespace package), so plain
    # find_packages would miss it.
    packages=find_namespace_packages(where="src", include=["repro", "repro.*"]),
    python_requires=">=3.10",
    install_requires=["numpy"],
    entry_points={"console_scripts": ["mcml = repro.experiments.cli:main"]},
)

"""Legacy setup shim.

The offline evaluation environment lacks the ``wheel`` package, which PEP 660
editable installs require; this file lets ``pip install -e .`` fall back to
``setup.py develop``.  All metadata lives here, in ``setup.py``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24", "scipy>=1.10"],
)

"""Legacy setup shim for offline editable installs (no wheel available)."""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of LCM: Rollback and Forking Detection for Trusted "
        "Execution Environments using Lightweight Collective Memory (DSN 2017)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    # the C the compiled tiers build from at first import
    package_data={"repro": ["*.c"], "repro.crypto": ["*.c"]},
    python_requires=">=3.10",
)

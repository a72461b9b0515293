"""Package metadata and installation entry points.

The build system (PEP 517) is declared in pyproject.toml; the metadata stays
here so `pip install -e . --no-use-pep517` / `python setup.py develop` keep
working in offline environments that lack the wheel builder.
"""
from setuptools import find_packages, setup

setup(
    name="repro-countsketch",
    version="1.7.0",
    description=(
        "Reproduction of 'A High Performance GPU CountSketch Implementation "
        "and Its Application to Multisketching and Least Squares Problems' "
        "(SC 2025), with a batched/cached/sharded serving layer"
    ),
    long_description=(
        "High-performance CountSketch, multisketching and randomized "
        "least-squares solvers on a simulated-GPU roofline substrate, plus a "
        "request-serving layer (micro-batching, operator caching, shard "
        "scheduling, latency telemetry). See README.md for a quickstart."
    ),
    long_description_content_type="text/markdown",
    author="repro contributors",
    license="MIT",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=[
        "numpy>=1.22",
        "scipy>=1.8",
    ],
    extras_require={
        "test": ["pytest", "pytest-benchmark", "hypothesis"],
    },
    entry_points={
        "console_scripts": [
            "repro-serve=repro.cli:main",
        ],
    },
    classifiers=[
        "Development Status :: 4 - Beta",
        "Intended Audience :: Science/Research",
        "License :: OSI Approved :: MIT License",
        "Programming Language :: Python :: 3.10",
        "Programming Language :: Python :: 3.11",
        "Programming Language :: Python :: 3.12",
        "Topic :: Scientific/Engineering :: Mathematics",
    ],
)

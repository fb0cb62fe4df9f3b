from setuptools import find_packages, setup

setup(
    name="repro-timed-game-testing",
    version="1.2.0",
    description=(
        "Game-theoretic real-time system testing: timed I/O game automata,"
        " a DBM/federation kernel, winning-strategy synthesis, tioco/rtioco"
        " conformance execution, and a random-model differential-testing"
        " subsystem (repro.gen)."
    ),
    long_description=(
        "A from-scratch reproduction of A. David, K. G. Larsen, S. Li,"
        " B. Nielsen, 'A Game-Theoretic Approach to Real-Time System"
        " Testing' (DATE 2008), grown into a library with solvers,"
        " conformance monitors, mutation operators, and a seeded fuzzing"
        " harness. See README.md for a quickstart."
    ),
    long_description_content_type="text/plain",
    license="MIT",
    python_requires=">=3.9",
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=[
        "numpy>=1.20",
    ],
    extras_require={
        "test": [
            "pytest>=7",
            "hypothesis>=6",
        ],
    },
    entry_points={
        "console_scripts": [
            "repro-gen-fuzz=repro.gen.cli:main",
        ],
    },
    classifiers=[
        "Development Status :: 4 - Beta",
        "Intended Audience :: Science/Research",
        "Programming Language :: Python :: 3",
        "Topic :: Scientific/Engineering",
        "Topic :: Software Development :: Testing",
    ],
)

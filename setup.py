import re
from pathlib import Path

from setuptools import find_packages, setup

# ``repro.__version__`` is the one source of the version.
VERSION = re.search(
    r'^__version__ = "([^"]+)"$',
    (Path(__file__).parent / "src" / "repro" / "__init__.py").read_text(),
    re.M,
).group(1)

setup(
    name="proxrj-repro",
    version=VERSION,
    description=(
        "Reproduction of proximity rank join (PVLDB 2010): ProxRJ template, "
        "CBRR/CBPA/TBRR/TBPA, sharded + durable tiered storage, services"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    # numpy is the only third-party runtime dependency; the durable tier
    # additionally uses the sqlite3 standard-library module (present in
    # every normal CPython build — no extra install).
    install_requires=["numpy>=1.22"],
)

import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import settings

# Prefer the in-repo sources so the suite runs without an installed package.
_src = Path(__file__).resolve().parents[1] / "src"
if str(_src) not in sys.path:
    sys.path.insert(0, str(_src))

from magnonkit.lattice import exchange_gap_grid  # noqa: E402  (after the path insert above)


@pytest.fixture(autouse=True)
def no_kept_gap_grid():
    """Each test starts with no kept gap grid, so none reads a grid that an earlier test computed."""
    exchange_gap_grid.cache_clear()


# One profile for every property test: reproducible examples, no saved
# database, and no per-example deadline (a loaded machine slows an example
# without changing its values).  Tests set only their max_examples.
settings.register_profile("magnonkit", deadline=None, derandomize=True, database=None)
settings.load_profile("magnonkit")

# The address space and wall time of a capped child run.
CHILD_MEMORY_BYTES = 2**30
CHILD_TIMEOUT_S = 30.0


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_MEMORY_BYTES, CHILD_MEMORY_BYTES))


@pytest.fixture
def capped_cli():
    """Run ``python -m magnonkit <args>`` in a child process capped at 1 GB of address space and 30 s.

    For inputs that could exhaust memory: the cap and the timeout limit only the child, and a run
    past the cap ends in its own MemoryError.  ``threads`` sets the child's OpenBLAS thread count;
    the default of one keeps its footprint small.  Returns the ``CompletedProcess`` with text output.
    """
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(_src), os.environ.get("PYTHONPATH")]))}

    def run(*args, cwd, threads=1):
        return subprocess.run([sys.executable, "-m", "magnonkit", *map(str, args)], cwd=cwd,
                              env={**env, "OPENBLAS_NUM_THREADS": str(threads)},
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                              preexec_fn=_cap_address_space)

    return run

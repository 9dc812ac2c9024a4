import sys
from pathlib import Path

from hypothesis import settings

# Prefer the in-repo sources so the suite runs without an installed package.
_src = Path(__file__).resolve().parents[1] / "src"
if str(_src) not in sys.path:
    sys.path.insert(0, str(_src))

# One profile for every property test: reproducible examples, no saved
# database, and no per-example deadline (a loaded machine slows an example
# without changing its values).  Tests set only their max_examples.
settings.register_profile("magnonkit", deadline=None, derandomize=True, database=None)
settings.load_profile("magnonkit")

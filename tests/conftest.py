import os
import sys
from pathlib import Path

from hypothesis import settings

# Make the sibling oracles module importable regardless of invocation dir.
sys.path.insert(0, str(Path(__file__).parent))
# Subprocesses the tests start (python -m sigtest) import the package from
# src/ as well, also when pytest alone put src/ on the path.
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH")]))

# Property tests draw their instances deterministically so the suite is
# byte-stable run to run, matching the package's reproducibility contract.
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")

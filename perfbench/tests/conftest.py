import sys
from pathlib import Path

# The benchmark's modules import each other as top-level modules, the
# way `python3 perfbench/run.py` puts its own directory on the path.
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

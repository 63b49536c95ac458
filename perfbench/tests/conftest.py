import pathlib
import sys

# The benchmark's modules import each other as top-level names (the way
# ``python3 perfbench/run.py`` sees them).
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

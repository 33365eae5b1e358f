import sys
from pathlib import Path

# the benchmark's modules live one directory up and import each other
# as top-level modules (``python3 perfbench/run.py`` puts them there)
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

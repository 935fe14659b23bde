import sys
from pathlib import Path

# The benchmark package lives next to this directory, outside src/.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

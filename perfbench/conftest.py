import os
import sys

# The benchmark measures the checkout's own sources, never an installed copy.
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

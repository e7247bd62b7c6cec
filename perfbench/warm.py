"""Set-up probe for the grid workloads: import every layer and warm up.

``python3 perfbench/warm.py <workload>``; the benchmark times this whole
process, start to exit, as one set-up sample.
"""

import sys

from spec import WORK, require_source

if __name__ == "__main__":
    require_source()
    import grids

    WORK.mkdir(exist_ok=True)
    grids.warm(grids.GRIDS[sys.argv[1]])

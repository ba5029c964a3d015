"""arrays: large-array work in spwood.

One job is one ``raster`` job (``spwood watershed`` on one large sparse
and two small dense scenes: Voronoi stacks and floods of seeds x pixels)
and three ``selftrain`` jobs (a self-training round through the library:
EM fits, the O(n^2) overlap loss and distillation at batch scale). The two
parts take about the same time, so a change to either shows.
"""

import wl_raster
import wl_selftrain
from common import Composite


class Workload(Composite):
    PARTS = (("raster", wl_raster, 1), ("selftrain", wl_selftrain, 3))

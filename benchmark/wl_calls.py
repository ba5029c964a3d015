"""calls: many small calls into spwood, through the command line.

One job is one ``corpus`` job (five sparsify/report commands over a
DOTA-style corpus: per-record parse, sample, weaken and serialize) and six
``gradcheck`` jobs (``eval-loss --check-grad`` on 2-3 boxes per call).
The two parts take about the same time, so a change to either shows.
"""

import wl_corpus
import wl_gradcheck
from common import Composite


class Workload(Composite):
    PARTS = (("corpus", wl_corpus, 1), ("gradcheck", wl_gradcheck, 6))

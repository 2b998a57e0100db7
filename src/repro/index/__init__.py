"""Spatial indexing.

The paper organises data with ``n + 1`` R-trees: one *global* R-tree over
object MBRs plus a *local* R-tree (fan-out 4) per object over its instances.
:mod:`repro.index.rtree` provides one array-native implementation serving
both roles, with STR bulk loading, an append-only overflow leaf for
inserts, best-first extreme-distance searches and the level-wise
partitioning used by the level-by-level filters of Section 5.1.
"""

from repro.index.rtree import GLOBAL_FANOUT, RTree

__all__ = ["GLOBAL_FANOUT", "RTree"]

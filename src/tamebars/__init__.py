"""Bar codes and Jordan cells of tame real- and circle-valued simplicial maps.

The package computes level-set persistence data of a simplicial map with
exact field coefficients: bars and Jordan cells with machine-checkable
certificates (for real maps from one certified reduction of the cone on the
complex, for circle maps from the decomposition of the graph representation
of the fibers), and the derived invariants (fiber and global Betti numbers, Novikov numbers,
monodromy, configurations of bar ends, infinite cyclic cover homology).
"""

__version__ = "0.1.0"

"""Five-dimensional tangent-space toolkit.

Real five-component vectors over spacetime, the bivector algebra that
pairs them with ordinary four-vectors, basis construction, a flat
five-dimensional parallel transport, global transformation laws, and a
conserved moment current built from stress-energy and spin data.
"""

__version__ = "0.1.0"

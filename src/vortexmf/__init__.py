"""Numerical toolkit for mean field limits of point-vortex systems.

The model couples a scalar stream field on a flat torus to a probability
measure of circulation strengths on [-1, 1].  The package computes the
extremal coupling constant above which the free energy loses coercivity,
minimizes the free energy by trust-region Newton-CG, and checks the
quantitative asymptotics of concentrating solutions (radial blowup slope,
concentration mass, Pohozaev balance, Newton potential growth) against
independent quadrature oracles.
"""

__version__ = "0.1.0"

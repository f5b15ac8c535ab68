"""Steklov eigenvalues of the unit ball and their mass-concentration limits.

The Steklov spectrum of the ball with a uniform boundary density arises as
the limit of Neumann eigenvalues when the total mass M concentrates in a
shell of width eps at the boundary. This package computes the limit
spectrum in closed form, traces the Neumann branches lambda_l(eps) through
a Bessel cross-product characteristic equation, verifies the first-order
slope of each branch at eps = 0 two independent ways, checks the
small-argument remainder scaling empirically, and cross-validates every
eigenvalue against a Bessel-free ODE shooting oracle.
"""

__version__ = "0.1.0"

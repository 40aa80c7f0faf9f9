"""Partitioned surface-subsurface flow with a linear convergence testbench.

Modules
-------
material
    Van Genuchten-Mualem closures and the soil parameter presets.
analysis
    Discrete and continuous convergence factors of the coupling iteration.
iteration
    The shared relaxed fixed-point loop and damped Newton iteration.
linear1d
    Constant coefficient column against a 0D surface reservoir.
richards2d
    Q1 finite element Richards solver with damped Newton.
surface1d
    Implicit finite volume shallow water / kinematic wave solver.
coupling
    The relaxed Gauss-Seidel exchange between the two solvers.
scenarios
    Presets, INI ingestion and CSV writers for the benchmark runs.
cli
    ``coupledflow`` command line entry point.
_compiled
    scipy's compiled SuperLU and LAPACK modules, without scipy's packages.
"""

__version__ = "0.1.0"

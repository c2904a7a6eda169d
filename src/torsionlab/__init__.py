"""torsionlab: exact computational topology for torsion, nerves and fillings.

Modules by theme:

- simplicial / complexes: finite complexes, pairs, boundary matrices
- exact / homology: rank and invariant factors, cokernels, integer homology
- bounds: the column-norm cokernel bound and the (D, V) torsion bound
- certify: filtered-exact predicates, a float sign only under a rounding bound
- nerve: nerves of ball covers and the nerve-lemma checks
- hyperbolic: hyperboloid-model geometry and displacement checks
- constants: ball volumes, packing bounds, thick-thin arithmetic
- dehn: first homology of Dehn fillings, the figure-eight family
- cli: the `torsionlab` command

The package root imports none of them; import names from the submodules.
"""

__version__ = "0.1.0"

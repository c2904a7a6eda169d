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
"""

from .exact import (
    AbelianGroupStructure,
    IntegerMatrix,
    SNFResult,
    cokernel,
    smith_normal_form,
)
from .homology import all_homology
from .simplicial import (
    SimplicialComplex,
    SimplicialPair,
    boundary_matrix,
    build_complex,
    complexity_profile,
    random_dv_complex,
)

__all__ = [
    "AbelianGroupStructure",
    "IntegerMatrix",
    "SNFResult",
    "SimplicialComplex",
    "SimplicialPair",
    "all_homology",
    "boundary_matrix",
    "build_complex",
    "cokernel",
    "complexity_profile",
    "random_dv_complex",
    "smith_normal_form",
]

__version__ = "0.1.0"

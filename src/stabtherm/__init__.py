"""stabtherm: stabilizer-Hamiltonian thermalization toolkit.

Builds abelian and non-abelian toric-code models, the Fourier eigenoperators
of local Paulis under any commuting Pauli Hamiltonian, engineered-dissipation
thermal dynamics (composite, RWA and system-only Davies forms), verifies Gibbs
fixed points and ergodicity numerically, and compiles the dynamics into
two-body gate + reset schedules.

Units: hbar = 1, energies in units of the stabilizer coupling lambda, times
in 1/lambda.
"""

__version__ = "0.1.0"

from .pauli import PauliString, PauliSum
from .toric import (
    ToricLattice,
    StabilizerHamiltonian,
    build_torus,
    toric_hamiltonian,
    loop_operators,
    eigenoperator_decomposition,
    fourier_form_check,
    single_vertex_model,
    single_stabilizer_model,
)
from .lindblad import (
    DensityMatrix,
    JumpOp,
    LindbladGenerator,
    build_superoperator,
    evolve,
    trajectories,
    trajectory,
    steady_states,
    gibbs_state,
    trace_distance,
)
from .bath import (
    AncillaSpec,
    CompositeModel,
    attach_ancillas,
    rwa_generator,
    davies_reduction,
    rwa_validity_probe,
)
from .verify import (
    check_fixed_point_conditions,
    ergodicity_check,
    uniqueness_and_attractor_probe,
)
from .circuits import (
    Gate,
    GateSchedule,
    compile_pauli_exponential,
    reset_channel,
    trotterize,
    simulate_schedule,
)
from .groups import (
    FiniteGroup,
    build_group,
    cyclic_group,
    symmetric_group,
    qudit_ops,
    vertex_op,
    plaquette_op,
    flux_pair_creator,
    commutation_suite,
)

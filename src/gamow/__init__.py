"""Irreversible quantum resonances on a solvable model.

Four pieces, built around a delta-shell scattering potential whose S-matrix
continues analytically in closed form:

* ``reps``: the four co-representations of the inversion-extended Galilei
  group (parity, antilinear time reversal, total inversion) with exact
  integer group-relation checks;
* ``scattering``: the S-matrix, phase shifts, closed-form resonance poles
  (and their argument-principle count), bound states and Breit-Wigner fits;
* ``dynamics``: the four half-domain semigroup evolution laws of growing
  and decaying Gamow amplitudes, in the laboratory (r=0) and time-reversed
  (r=1) regimes, as one array function ``amplitude(law, pole, t)``, with
  sampled series as records and the regime-swapping map;
* ``spectral``: wavepacket reconstruction from the bound + continuum
  eigenfunction expansion, and a Paley-Wiener membership test for Hardy
  classes of the upper/lower energy half-plane.

Units: hbar = 2m = 1, so E = k^2.
"""

from .dynamics import (
    GamowState,
    HalfDomainError,
    Kind,
    Law,
    SpaceLabel,
    amplitude,
    evolution_series,
    semigroup_compose_check,
    time_reverse,
)
from .reps import (
    RelationReport,
    RepRow,
    SpinLabel,
    SymmetryOperator,
    apply_operator,
    build_c_matrix,
    build_r,
    build_sigma,
    build_t,
    compose,
    verify_group_relations,
)
from .scattering import (
    DeltaShellModel,
    PoleOnContourError,
    ResonanceFitError,
    ResonancePole,
    SearchRegion,
    bound_states,
    breit_wigner_fit,
    find_poles,
    fit_breit_wigner_curve,
    phase_shift_curve,
    pole_count,
    s_matrix,
)
from .spectral import (
    HardyReport,
    SpectralDecomposition,
    WavePacket,
    build_decomposition,
    expand,
    gaussian_packet,
    hardy_check,
    reconstruct,
    reconstruct_error,
    windowed_resonance_samples,
)

__version__ = "0.1.0"

"""Curvelet tight frames, wave propagators, and operator-sparsity diagnostics."""

from ._core import BACKEND, __version__
from .distance import PhasePoint, d, omega
from .flow import (
    VelocityModel,
    flow,
    flow_index,
    flow_step,
    flow_trajectory,
    predicted_curvelet,
    rotation,
)
from .frame import (
    CoeffSet,
    CurveletIndex,
    FrameParams,
    FrameTable,
    MoleculeProfile,
    analyze,
    build_frame,
    frame_atom,
    molecule_profile,
    synthesize,
    waveform,
)
from .propagators import (
    OperatorSpec,
    PsidoSymbol,
    WarpMap,
    acoustic_dispersion_matrix,
    acoustic_polarization,
    apply_cos_wave,
    apply_psido,
    chebyshev_wave,
    hyper_curvelet,
    oneway_velocity,
    polarization_fractions,
    solve_variable_wave,
    wave_energy,
)
from .sparsity import (
    DecayReport,
    MatrixColumn,
    SparseOperatorMatrix,
    build_matrix,
    column_omegas,
    curvelet_column,
    decay_report,
    polarization_split,
    truncation_error,
)
from .windows import WindowFamily, build_windows


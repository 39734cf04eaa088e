"""Four-photon Jaynes-Cummings dynamics in the large photon number regime."""

from .catlab import (
    count_components,
    dip_offset,
    entropy_dip_scan,
    expected_cat_state,
    expected_kerr_state,
    post_selected_field,
)
from .dynamics import (
    AtomDensity,
    FieldRank2,
    JointState,
    ModelParams,
    RabiMode,
    atom_density,
    atom_density_series,
    evolve,
    field_rank2,
    rabi_frequencies,
)
from .errors import JcmError
from .fock import coherent_state, fidelity, kerr_state, overlap
from .observables import (
    PhaseGrid,
    atomic_inversion,
    entropy,
    pnd,
    pnd_closed_eighth,
    pnd_closed_near_quarter,
    pnd_closed_quarter,
    q_grid,
)

__version__ = "0.1.0"

__all__ = [
    "AtomDensity", "FieldRank2", "JcmError", "JointState",
    "ModelParams", "PhaseGrid", "RabiMode",
    "atom_density", "atom_density_series", "atomic_inversion", "coherent_state",
    "count_components", "dip_offset", "entropy", "entropy_dip_scan", "evolve",
    "expected_cat_state",
    "expected_kerr_state", "fidelity", "field_rank2", "kerr_state", "overlap",
    "pnd", "pnd_closed_eighth", "pnd_closed_near_quarter", "pnd_closed_quarter",
    "post_selected_field", "q_grid", "rabi_frequencies",
]

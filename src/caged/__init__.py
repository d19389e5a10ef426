"""Glued-tree lattices with uniform plaquette flux: graphs, spectra, caging."""

from .errors import InvalidParameterError, ResourceLimitError, UnsupportedHypothesisError
from .graphs import (
    Graph,
    LotusSpec,
    chain_graph,
    grow_tree,
    lotus_patch,
    ordered_factorizations,
    replace_edges,
    shrub,
)
from .gauge import (
    Ccam,
    FlatSet,
    PhaseVector,
    canonical_ccam,
    canonical_phase_vector,
    chain_ccam,
    dense_matrix,
    flat_values,
    lotus_ccam,
    phase_pairing,
)
from .spectral import (
    Spectrum,
    spectrum_flux_af,
    spectrum_fluxless,
)
from .caging import (
    ClsState,
    crossing_amplitudes,
    exchange_symmetry_check,
    krylov_cls,
    local_caging_check,
    resolvent_recurrence,
    verify_all_cls,
)
from .bloch import (
    BlochModel,
    band_sweep,
    chain_bloch,
    charpoly_k_independence,
    dos_map,
    rhombic_bands,
    second_kind_44_bloch,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

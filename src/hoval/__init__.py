"""Translation hyperovals over GF(2^(hk)) and their small-field geometry.

The package constructs the plane point sets, moves them between the big
plane, the ambient small-field space and the binary model, and verifies
the structural claims: direction spectra, scattered binary linearity,
the pseudoregulus shape of the direction set, the reconstructed line
spread, the incidence plane it defines, and the C-plane axioms.
"""

from .errors import (
    EnumerationTooLarge,
    GcdHypothesisViolated,
    HovalError,
    InvalidSpread,
    NotF2Linear,
    ParseError,
)
from .gf2 import Field, Tower, field_create, tower_create
from .hyperoval import (
    AffinePointSet,
    DirectionSet,
    HyperovalSpec,
    TranslationHyperoval,
    build_hyperoval,
    directions,
    is_arc,
    translation_closure_check,
)
from .linearsets import (
    SpectrumHistogram,
    f2_witness,
    scattered_check,
    spectrum,
    spectrum_conforms,
)
from .pipeline import VerificationReport, run_verify_all
from .projective import DEFAULT_BUDGET, ProjSpace
from .pseudoregulus import detect_pseudoregulus, find_long_secants
from .bruckbose import build_plane, hyperoval_in_plane, plane_axioms_check
from .cplanes import build_c_planes, check_axioms
from .reduction import CorrespondenceMaps, Spread, field_reduction_spread, maps_for

__version__ = "0.1.0"

__all__ = [
    "AffinePointSet",
    "CorrespondenceMaps",
    "DEFAULT_BUDGET",
    "DirectionSet",
    "EnumerationTooLarge",
    "Field",
    "GcdHypothesisViolated",
    "HovalError",
    "HyperovalSpec",
    "InvalidSpread",
    "NotF2Linear",
    "ParseError",
    "ProjSpace",
    "SpectrumHistogram",
    "Spread",
    "Tower",
    "TranslationHyperoval",
    "VerificationReport",
    "build_c_planes",
    "build_hyperoval",
    "build_plane",
    "check_axioms",
    "detect_pseudoregulus",
    "directions",
    "f2_witness",
    "field_reduction_spread",
    "find_long_secants",
    "field_create",
    "hyperoval_in_plane",
    "is_arc",
    "maps_for",
    "plane_axioms_check",
    "run_verify_all",
    "scattered_check",
    "spectrum",
    "spectrum_conforms",
    "translation_closure_check",
    "tower_create",
]

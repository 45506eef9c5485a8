"""Classification toolkit for t-structures on bounded derived categories
of small hereditary abelian categories.

Three backends: finite-field quiver representations (exact computation),
coherent sheaves on the projective line (symbolic normal forms), and
finitely generated abelian groups (symbolic normal forms).  The derived
layer enumerates narrow sequences / aisles, refines them into wide-plus-
tilting data, and verifies the two classification bijections by exhaustive
roundtrips and star-product oracles.
"""

from .quiver import QuiverSpec, Rep, Morphism, QuiverBackend, BackendError, build_backend
from .core import (SubcatFlags, classify_subcat, closure, is_closed, perp,
                   torsion_decompose, is_tilting_in, mask_of, members, subcat,
                   enumerate_subcats, wide_census, tilting_census, generated_torsion)
from .derived import (SubcatSeq, dobj, derived_hom_dim,
                      aisle_from_torsion, is_narrow_sequence, theta_membership,
                      mu, star_membership, window_objects,
                      enumerate_narrow_sequences)
from .refined import (RefinedTSeq, TStructRecord, xi, psi, gap, narrow_cut, validate_refined,
                      enumerate_refined,
                      star_oracle_membership, enumerate_tstructures,
                      verify_roundtrips)
from .projline import (SheafObj, P1Narrow, P1SeqForm, P1Invalid,
                       line_bundle, skyscraper, p1_membership,
                       classify_p1_sequence, p1_is_aisle, p1_enumerate_sequences,
                       enumerate_p1_narrow, euler_form)
from .dedekind import (FGGroup, SpecClosedSet, TorsionFreeClass, CoNarrowSeq,
                       DedInvalid, ded_membership, ded_torsionfree_classes,
                       ded_classify_sequence, ded_is_aisle,
                       ded_co_narrow_validate, ded_enumerate_tstructures)
from . import faults

__all__ = [name for name in dict(vars()) if not name.startswith("_")]
__version__ = "0.1.0"

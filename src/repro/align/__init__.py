"""Smith-Waterman alignment substrate: scoring, kernels, traceback."""

from .api import (
    SearchHit,
    SearchResult,
    database_search,
    search_and_align,
    sw_align,
    sw_score,
)
from .banded import BandedResult, sw_score_banded
from .columnwise import ScanResult, sw_score_scan
from .dna import StrandHit, reverse_complement, sw_score_both_strands
from .gaps import DEFAULT_GAPS, GapModel, affine_gap, linear_gap
from .hirschberg import align_linear_space, global_align_linear_space
from .io_formats import (
    alignment_to_tabular,
    hits_to_tabular,
    pairwise_report,
    write_tabular,
)
from .modes import nw_align, nw_score, semiglobal_align, semiglobal_score
from .multiquery import (
    MultiQueryProfile,
    build_multi_profile,
    sw_score_batch_multi,
    sw_score_database_multi,
)
from .intersequence import (
    LanePack,
    pack_database,
    sw_score_batch,
    sw_score_database,
)
from .reference import DPMatrices, sw_matrix, sw_score_reference
from .scoring import (
    BLOSUM50,
    BLOSUM62,
    DNA_SIMPLE,
    SubstitutionMatrix,
    default_matrix_for,
    get_matrix,
    load_matrix_file,
    match_mismatch,
)
from .seeding import KmerIndex, SeedHit, seed_candidates, seeded_search
from .statistics import KarlinAltschul, calibrate, fit_gumbel, stock_parameters
from .stats import gcups, pair_cells, task_cells, workload_cells
from .striped import (
    SCORE_CAP_8BIT,
    SCORE_CAP_16BIT,
    SaturationOverflow,
    StripedProfile,
    StripedResult,
    sw_score_striped,
)
from .traceback import Alignment, sw_align_reference, traceback
from .wavefront import WavefrontResult, sw_score_wavefront

__all__ = [
    "SearchHit",
    "SearchResult",
    "database_search",
    "search_and_align",
    "sw_align",
    "sw_score",
    "ScanResult",
    "sw_score_scan",
    "GapModel",
    "DEFAULT_GAPS",
    "affine_gap",
    "linear_gap",
    "align_linear_space",
    "global_align_linear_space",
    "nw_score",
    "nw_align",
    "semiglobal_score",
    "semiglobal_align",
    "BandedResult",
    "sw_score_banded",
    "StrandHit",
    "reverse_complement",
    "sw_score_both_strands",
    "KarlinAltschul",
    "calibrate",
    "fit_gumbel",
    "stock_parameters",
    "alignment_to_tabular",
    "hits_to_tabular",
    "write_tabular",
    "pairwise_report",
    "LanePack",
    "MultiQueryProfile",
    "build_multi_profile",
    "sw_score_batch_multi",
    "sw_score_database_multi",
    "pack_database",
    "sw_score_batch",
    "sw_score_database",
    "DPMatrices",
    "sw_matrix",
    "sw_score_reference",
    "SubstitutionMatrix",
    "BLOSUM62",
    "BLOSUM50",
    "DNA_SIMPLE",
    "match_mismatch",
    "get_matrix",
    "default_matrix_for",
    "load_matrix_file",
    "KmerIndex",
    "SeedHit",
    "seed_candidates",
    "seeded_search",
    "gcups",
    "pair_cells",
    "task_cells",
    "workload_cells",
    "SaturationOverflow",
    "StripedProfile",
    "StripedResult",
    "sw_score_striped",
    "SCORE_CAP_8BIT",
    "SCORE_CAP_16BIT",
    "Alignment",
    "sw_align_reference",
    "traceback",
    "WavefrontResult",
    "sw_score_wavefront",
]

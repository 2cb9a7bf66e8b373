"""Ready-made LDDP-Plus problem definitions.

The paper's three case studies (Sec. VI) plus the experiment workloads of
Sec. V and several classic LDDP problems from the introduction's motivation
(bioinformatics alignment, dynamic time warping):

=========================  =================  ==============================
factory                    pattern            paper role
=========================  =================  ==============================
``make_levenshtein``       anti-diagonal      case study VI-A (Fig. 10)
``make_dithering``         knight-move        case study VI-B (Fig. 12)
``make_checkerboard``      horizontal case-2  case study VI-C (Fig. 13)
``make_lcs``               anti-diagonal      Fig. 7 tuning workload
``make_fig8_problem``      inverted-L         Sec. V-B experiment (Fig. 8)
``make_fig9_problem``      horizontal case-1  Sec. V implementation (Fig. 9)
``make_synthetic``         any (all 15 sets)  classification/transfer tests
``make_dtw``               anti-diagonal      intro motivation (speech)
``make_needleman_wunsch``  anti-diagonal      intro motivation (bioinf)
``make_smith_waterman``    anti-diagonal      intro motivation (bioinf)
=========================  =================  ==============================

Every factory accepts ``materialize=False`` to skip allocating the payload
(and the ``init`` hook), producing a problem usable only with the executors'
``estimate`` mode — that is how benchmarks sweep paper-scale tables (16k+)
without gigabyte allocations. A ``payload['_nbytes_hint']`` entry preserves
correct setup-transfer byte accounting.

Every factory's ``cell`` and ``init`` are module-level functions that read
their data from the payload, never from a closure, so every problem pickles
and the serve process backend runs it in a worker, not inline.
"""

from .levenshtein import make_levenshtein, reference_levenshtein
from .lcs import make_lcs
from .dtw import make_dtw
from .needleman_wunsch import make_needleman_wunsch
from .smith_waterman import make_smith_waterman
from .gotoh import make_gotoh, reference_gotoh
from .prefix_sum import make_prefix_sum, reference_prefix_sum
from .viterbi import make_viterbi, reference_viterbi, viterbi_path
from .lcsubstr import extract_substring, make_lcsubstr, reference_lcsubstr
from .gauss_seidel import (
    gs_solve,
    make_gauss_seidel_sweep,
    reference_gs_sweep,
    residual,
)
from .dithering import make_diffusion, make_dithering, reference_dithering
from .checkerboard import make_checkerboard, reference_checkerboard
from .synthetic import (
    make_fig8_problem,
    make_fig9_problem,
    make_linear,
    make_synthetic,
)

__all__ = [
    "make_levenshtein",
    "reference_levenshtein",
    "make_lcs",
    "make_dtw",
    "make_needleman_wunsch",
    "make_smith_waterman",
    "make_gotoh",
    "reference_gotoh",
    "make_prefix_sum",
    "reference_prefix_sum",
    "make_viterbi",
    "reference_viterbi",
    "viterbi_path",
    "make_lcsubstr",
    "extract_substring",
    "reference_lcsubstr",
    "make_gauss_seidel_sweep",
    "reference_gs_sweep",
    "gs_solve",
    "residual",
    "make_dithering",
    "make_diffusion",
    "reference_dithering",
    "make_checkerboard",
    "reference_checkerboard",
    "make_synthetic",
    "make_fig8_problem",
    "make_fig9_problem",
    "make_linear",
]

"""Growth indicators of entire functions given by Dirichlet series.

The package estimates Ritt-style order/type indicators (absolute and
relative) from certified growth surrogates, detects index-pairs, and
checks the inequality chains relating them on concrete function triples.
"""

from .errors import (BracketError, DetectionFailedError, DomainError, ExtRangeError,
                     IndicatorUndefinedError, NumericError, RittGrowthError, SpecFormatError,
                     TailBoundError)
from .levelindex import (ExtReal, compare, exp_iter, from_real, log_iter,
                         lse_accumulate, pow_scale, to_real)
from .series import (SeriesSpec, ValidationReport, expexp_spec, log_sum_upper, max_term_log,
                     table_spec, term_log, validate)
from .growth import GridSpec, SourceBundle, invert_modulus, sample_profile
from .indicators import (IndexPair, IndicatorEstimate, RelativeIndicators, Samples,
                         detect_index_pair, detect_relative_index_pair, order_pair,
                         profile_samples, ratio_sequence, relative_indicators, tail_estimate,
                         type_pair, weak_type_pair)
from .oracle import TailSequence, check_difference_rules, exact_limits
from .theorems import CheckReport, TheoremInstance, check_instance, load_batch, run_batch
from .corpus import CorpusEntry, analytic_relative, default_entries, instantiate

__version__ = "0.1.0"

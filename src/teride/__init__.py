"""Topic-aware entity resolution over incomplete textual data streams."""

from .cdd import AttrConstraint, CddRule, detect_cdds, rules_from_text, rules_to_text
from .engine import Engine, Event, MatchResultSet, precompute
from .errors import TerideError
from .grid import ErGrid, TupleSummary, summarize
from .impute import ImputedTuple, impute_tuple
from .index import build_cdd_index, build_dr_index
from .metric import DistanceFn, jaccard_dist, jaccard_sim
from .model import (
    QueryConfig,
    Repository,
    StreamTuple,
    read_repository,
    read_tuples,
    tokenize,
    write_tuples,
)
from .pivot import PivotSet, select_pivots
from .prune import judge_pair, pair_probability

__version__ = "0.1.0"

__all__ = [
    "AttrConstraint",
    "CddRule",
    "DistanceFn",
    "Engine",
    "ErGrid",
    "Event",
    "ImputedTuple",
    "MatchResultSet",
    "PivotSet",
    "QueryConfig",
    "Repository",
    "StreamTuple",
    "TerideError",
    "TupleSummary",
    "build_cdd_index",
    "build_dr_index",
    "detect_cdds",
    "impute_tuple",
    "jaccard_dist",
    "jaccard_sim",
    "judge_pair",
    "pair_probability",
    "precompute",
    "read_repository",
    "read_tuples",
    "rules_from_text",
    "rules_to_text",
    "select_pivots",
    "summarize",
    "tokenize",
    "write_tuples",
]

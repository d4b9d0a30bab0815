"""vecfuse: fuse word embeddings with knowledge-graph edges and evaluate
the result on word-similarity benchmarks."""

from .errors import VecfuseError, ConfigError, DataError, NumericalError
from .labels import StandardLabel, LemmaRuleSet, Standardizer, lemmatize, standardize
from .matrixio import LabeledMatrix, read_native, read_text_embeddings, \
    read_word2vec_binary, write_native
from .rowmerge import MergePlan, build_merge_plan, l1_normalize_columns, \
    l2_normalize_columns, l2_normalize_rows, merge_standardized, zipf_weight
from .kgraph import Assertion, AssociationMatrix, EdgeTable, build_association, \
    filter_terms, load_assertions, rescale_by_source
from .retrofit import RetrofitProblem, assemble_problem, retrofit, retrofit_step
from .interpolate import FusionResult, OverlapIndex, build_overlap, fuse, svd_discount
from .evaluation import EvalReport, GoldPair, MatrixLookup, evaluate, fisher_ci, \
    load_gold, round_robin_split, spearman
from .config import PipelineConfig, config_from_dict, load_config
from .pipeline import run_pipeline

__version__ = "0.1.0"

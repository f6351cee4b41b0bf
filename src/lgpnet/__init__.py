"""Log Gaussian probability features and 1-D residual/SE classifiers for
speech spoofing detection, with GMM baselines, metrics, and score fusion."""

__version__ = "0.1.0"

from .errors import FormatError, ProtocolError, TrainingDivergedError
from .gmm import EmConfig, Gmm, llr_score, train_em
from .lgp import LgpNormStats, extract_lgp, fit_norm_stats
from .model import ClassifierConfig, SpoofModel, UfmConfig, segment_ufm
from .training import LabeledDataset, LabeledUtterance, TrainConfig, train_one_path, train_two_step
from .evaluation import TdcfCostModel, fuse_scores

__all__ = [
    "__version__",
    "FormatError", "ProtocolError", "TrainingDivergedError",
    "EmConfig", "Gmm", "llr_score", "train_em",
    "LgpNormStats", "extract_lgp", "fit_norm_stats",
    "ClassifierConfig", "SpoofModel", "UfmConfig", "segment_ufm",
    "LabeledDataset", "LabeledUtterance", "TrainConfig", "train_one_path", "train_two_step",
    "TdcfCostModel", "fuse_scores",
]

"""Flat key=value configuration files and the run configuration schema.

Files contain ``key = value`` lines; ``#`` starts a comment.  Unknown and
duplicate keys are rejected so typos fail loudly.  Every training run
writes the resolved configuration back next to its outputs, and
``RunConfig.build`` is the one mapping of its keys to a model and a schedule.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .errors import ProtocolError, naming
from .gmm import Gmm
from .lgp import LgpNormStats
from .model import ClassifierConfig, SpoofModel
from .tensorio import write_file
from .training import TrainConfig


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


_CASTS = {"int": int, "float": float, "bool": _parse_bool}


def read_flat_config(cls, path):
    """Build the flat dataclass ``cls`` from a ``key = value`` file.

    Values are cast by field type.  Unknown keys, duplicate keys and bad
    values raise ProtocolError with the line number, and a value ``cls``
    refuses raises its ValueError; every error names the file.
    """
    values = {}
    types = {f.name: getattr(f.type, "__name__", f.type) for f in fields(cls)}
    with naming(path), open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ProtocolError("expected 'key = value'", line=lineno)
            key, _, raw = text.partition("=")
            key = key.strip()
            if key not in types:
                raise ProtocolError(f"unknown key {key!r}", line=lineno)
            if key in values:
                raise ProtocolError(f"duplicate key {key!r}", line=lineno)
            try:
                values[key] = _CASTS[types[key]](raw.strip())
            except ValueError as exc:
                raise ProtocolError(f"bad value for {key!r}: {exc}", line=lineno) from None
        return cls(**values)


def write_flat_config(obj, path) -> None:
    """Write the flat dataclass ``obj`` as ``key = value`` lines in field
    order, booleans as ``true``/``false``, the form :func:`read_flat_config` reads."""
    lines = []
    for f in fields(obj):
        value = getattr(obj, f.name)
        lines.append(f"{f.name} = {str(value).lower() if isinstance(value, bool) else value}\n")
    write_file(path, "".join(lines).encode("utf-8"))


@dataclass
class RunConfig:
    """Everything one experiment needs, in one flat document."""

    gmm_order: int = 512
    channels: int = 512
    blocks: int = 6
    se_enabled: bool = False
    se_reduction: int = 16
    segment_length: int = 400
    batch_size: int = 32
    epochs: int = 100
    lr: float = 1e-4
    seed: int = 0
    workers: int = 1

    def __post_init__(self):
        # ClassifierConfig and TrainConfig check the model and training keys
        if self.workers < 1:
            raise ValueError("workers must be >= 1")

    def build(self, gmms: list[Gmm], stats: list[LgpNormStats]) -> tuple[SpoofModel, TrainConfig]:
        """This run's model, one path per GMM and stats pair under the stats'
        LGP form, and its schedule; ``segment_length`` sets both lengths."""
        cfg = ClassifierConfig(gmm_order=self.gmm_order, channels=self.channels,
                               blocks=self.blocks, se_enabled=self.se_enabled,
                               se_reduction=self.se_reduction, input_length=self.segment_length,
                               paths=len(gmms), lgp_form=stats[0].form)
        model = SpoofModel(cfg, gmms, stats, seed=self.seed)
        return model, TrainConfig(batch_size=self.batch_size, epochs=self.epochs, lr=self.lr,
                                  seed=self.seed, target_length=self.segment_length)

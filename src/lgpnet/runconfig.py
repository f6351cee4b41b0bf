"""Flat key=value configuration files and the run configuration schema.

Files contain ``key = value`` lines; ``#`` starts a comment.  Unknown and
duplicate keys are rejected so typos fail loudly.  Every training run
writes the resolved configuration back next to its outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .errors import ProtocolError, naming


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


@dataclass
class RunConfig:
    """Everything one experiment needs, in one flat document."""

    gmm_order: int = 512
    channels: int = 512
    blocks: int = 6
    se_enabled: bool = False
    se_reduction: int = 16
    paths: int = 1
    segment_length: int = 400
    batch_size: int = 32
    epochs: int = 100
    step1_epochs: int = 0              # 0 means "same as epochs"
    step2_epochs: int = 0
    lr: float = 1e-4
    seed: int = 0
    workers: int = 1

    def __post_init__(self):
        # ClassifierConfig and TrainConfig check the model and training keys
        if self.workers < 1:
            raise ValueError("workers must be >= 1")

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        return read_flat_config(cls, path)

    def write(self, path) -> None:
        lines = ["# resolved run configuration"]
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool):
                value = "true" if value else "false"
            lines.append(f"{f.name} = {value}")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")

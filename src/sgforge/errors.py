"""Exception types shared across the package, and the cut-off for input that
their messages quote."""

import json

_QUOTE_LIMIT = 80


def cut(spelled: str) -> str:
    """A value as a message spells it, cut after about 80 characters, so that
    a message quoting a long input stays one short line."""
    if len(spelled) <= _QUOTE_LIMIT:
        return spelled
    return f"{spelled[:_QUOTE_LIMIT]}... ({len(spelled):,} characters)"


def cut_json(value) -> str:
    """value spelled as JSON, then `cut`: how a message quotes input data."""
    return cut(json.dumps(value))


class SgforgeError(Exception):
    """Base class for all sgforge errors."""


class EmptyLabelError(SgforgeError):
    """A label was empty after canonicalization."""


class DanglingReferenceError(SgforgeError):
    """An attribute or relation referenced an object id that does not exist."""


class ParseError(SgforgeError):
    """A serialized file was malformed. Carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class LengthMismatchError(SgforgeError):
    """Model outputs and tagging targets have different lengths."""


class SequenceTooLongError(SgforgeError):
    """Input sequence exceeds the configured maximum length."""


class ShapeMismatchError(SgforgeError):
    """Parameter, gradient, or optimizer-state shapes disagree."""


class EmptyDatasetError(SgforgeError):
    """A training run was started with no training examples."""


class IdMismatchError(SgforgeError):
    """Predicted and reference collections are not parallel by region id."""


class TrainingDivergedError(SgforgeError):
    """Training produced a non-finite loss, gradient or parameter."""


class ConfigError(SgforgeError):
    """A config, split or lexicon file is malformed or names a bad field value."""


class CheckpointError(SgforgeError):
    """A checkpoint manifest or payload is malformed; names the file and,
    where one is at fault, the tensor."""

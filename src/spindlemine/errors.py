"""Exception hierarchy shared by every spindlemine module.

The CLI maps these onto process exit codes: :class:`InputError` (and any
:class:`StageError` wrapping one) exits with 2, :class:`CapacityError`
with 3.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from typing import Iterator, TextIO


class SpindlemineError(Exception):
    """Base class for all errors raised by this package."""


class InputError(SpindlemineError):
    """Invalid input data, arguments, or configuration."""


class CapacityError(SpindlemineError):
    """A configured resource limit was exceeded (e.g. the concept cap)."""


class StageError(SpindlemineError):
    """A pipeline stage failed; carries the stage name and the root cause."""

    def __init__(self, stage: str, message: str, cause: Exception | None = None):
        super().__init__(f"stage '{stage}': {message}")
        self.stage = stage
        self.cause = cause


@contextmanager
def input_file(path: str, what: str, **open_args) -> Iterator[TextIO]:
    """Open the input file ``path`` for reading, as ``open(path,
    **open_args)`` does.

    A file that cannot be opened, read or decoded inside the block raises
    :class:`InputError` ("cannot read <what> <path>: ..."), and text that
    ``json`` cannot parse one naming the file and the JSON error.  Every
    reader of an input file opens it here, so every subcommand reports a
    bad input file the same way.
    """
    try:
        with open(path, **open_args) as fh:
            yield fh
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {what} {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON: {exc}") from exc

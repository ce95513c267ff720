"""Exception hierarchy and helpers shared by every spindlemine module.

The CLI maps these onto process exit codes: :class:`InputError` (and any
:class:`StageError` wrapping one) exits with 2, :class:`CapacityError`
with 3.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from contextlib import contextmanager
from types import ModuleType
from typing import Any, Iterable, Iterator, TextIO


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
    :class:`InputError` ("cannot read <what> <path>: ...").  Every reader
    of an input file opens it here, so every subcommand reports a bad
    input file the same way.
    """
    try:
        with open(path, **open_args) as fh:
            yield fh
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {what} {path}: {exc}") from exc


def check_unique(what: str, names: Iterable[str], places: str = "at positions",
                 start: int = 0) -> None:
    """Raise :class:`InputError` naming ``what``, the first name ``names``
    repeats and the two ``places`` holding it, counted from ``start``."""
    seen: dict[str, int] = {}
    for i, name in enumerate(names, start):
        first = seen.setdefault(name, i)
        if first != i:
            raise InputError(f"{what} {name!r} repeated {places} {first} and {i}")


def read_json(path: str, what: str) -> Any:
    """The JSON value in the input file ``path``, opened with
    :func:`input_file`.  Text ``json`` cannot parse, an integer literal
    longer than ``int`` converts (``sys.get_int_max_str_digits``) and
    nesting deeper than the parser recurses raise :class:`InputError`
    naming the file.  One leading byte-order mark is dropped, as a "UTF-8
    with BOM" save starts with one.  Every JSON input is read here."""
    with input_file(path, what) as fh:
        text = fh.read().removeprefix("\ufeff")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # int()'s digit limit, deep nesting
        raise InputError(f"{path}: JSON beyond the parser's limits: {exc}") from exc


def lazy_import(name: str) -> ModuleType:
    """The module ``name``, imported on its first attribute access.

    This is the standard library's ``importlib.util.LazyLoader`` recipe:
    the module is registered in ``sys.modules`` at once and its code runs
    when one of its attributes is first read.  A module already imported
    is returned as it is.  A module that cannot be found is imported at
    once, so its ``ImportError`` is raised by the importing module, not
    by the first use.
    """
    module = sys.modules.get(name)
    if module is not None:
        return module
    spec = importlib.util.find_spec(name)
    if spec is None:  # not installed, or blocked by a None in sys.modules
        return importlib.import_module(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module

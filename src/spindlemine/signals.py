"""EEG recordings, spindle annotations, and per-segment features.

A recording is a set of equally long channels sampled at a fixed rate,
amplitudes in microvolts; channel names follow whatever montage the data
uses (e.g. 10-20 labels like ``F4``).  Spindles arrive as annotations —
``(id, start_s, end_s, channel)`` — and are cut out of the raw signal by
:func:`extract_segments`; detection itself is out of scope.

A recording CSV is parsed in one checked pass, a block of lines at a
time, after a cheap pre-pass over its bytes that counts the rows and
reads the last one: with the first row, the sample rate and every
annotated span are known before parsing starts.  Each block is copied
into preallocated windows and dropped: :func:`read_recording_csv` keeps one window per
channel (the whole recording, no time column), and
:func:`read_recording_segments` keeps only the annotated spans, so its
memory grows with the spindles, not with the recording.

A long recording's rows are parsed in two parts where two CPUs are
usable, cut at a block border: this process parses the first part, and
a child made with ``os.fork`` the second, which sends back its checks
and the rows it copied through a pipe.  The parts are merged in file
order, so the result and the first error are those of a one-part pass.
The pass stays in one part without ``os.fork``, with another Python
thread alive, on one usable CPU or for a short recording; no option
selects it.

Each segment is then summarized into a feature row:

* mean and maximum of the absolute amplitude (microvolts); the mean is of
  ``|x|`` because the raw mean of an oscillatory signal is near zero,
* power-weighted mean frequency (spectral centroid) over the one-sided
  periodogram, matching the usual ``meanfreq`` semantics,
* dominant frequency: DFT-magnitude argmax restricted to a search band
  (default 6-14 Hz, where spindle activity lives), after zero-padding to
  the next power of two at least 4x the segment length so the grid is
  fine enough for sub-hertz differences; ties break toward the lower
  frequency,
* mean-amplitude / dominant-frequency ratio,
* average band power over 15 contiguous 2 Hz bands, 0.5-2.5 up to
  28.5-30.5 Hz (microvolts squared).

All spectra use a rectangular window and no detrending unless asked
(``detrend=True`` removes the segment mean before spectral operations
only), which keeps the band powers an exact partition of the signal's
mean square power (Parseval).  The periodogram is one numpy ``rfft``,
scaled as ``scipy.signal.periodogram`` scales a boxcar window, so it
equals scipy's bit for bit without the dependency.  Band power
integrates the periodogram by rectangles: bin ``k`` owns the frequency
cell ``f_k +- df/2`` clipped to ``[0, Nyquist]``, and edge bins
contribute fractionally when a band cuts through their cell.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import numbers
import os
import sys
import threading
import warnings
from dataclasses import dataclass
from itertools import chain, islice
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import InputError, check_unique, input_file, lazy_import, read_json

# loaded on first use, so the lattice and mining commands start without it
np = lazy_import("numpy")

#: The 15 contiguous 2 Hz analysis bands, 0.5-2.5 ... 28.5-30.5 Hz.
DEFAULT_BANDS: tuple[tuple[float, float], ...] = tuple(
    (0.5 + 2.0 * k, 2.5 + 2.0 * k) for k in range(15)
)

#: Search band for the dominant frequency.
DEFAULT_DOMINANT_BAND: tuple[float, float] = (6.0, 14.0)

SCALAR_FEATURES = (
    "mean_amplitude_uV",
    "max_amplitude_uV",
    "mean_frequency_Hz",
    "dominant_frequency_Hz",
    "amp_freq_ratio_uV_per_Hz",
)


class ZeroPowerWarning(UserWarning):
    """Emitted when a spectral centroid is requested for a zero-power signal."""


# ---------------------------------------------------------------------------
# Recordings and annotations
# ---------------------------------------------------------------------------


def check_sample_rate(sample_rate: float) -> float:
    """``sample_rate`` as a float; anything but a finite, positive real
    number (a string or a bool, say) raises :class:`InputError`."""
    if (isinstance(sample_rate, numbers.Real) and not isinstance(sample_rate, bool)
            and 0.0 < sample_rate <= sys.float_info.max):
        return float(sample_rate)
    raise InputError(f"sample_rate must be finite and positive, got {sample_rate!r}")


@dataclass(frozen=True)
class Recording:
    """Multi-channel signal: ``data`` has shape (n_channels, n_samples)."""

    sample_rate: float
    channels: tuple[str, ...]
    data: np.ndarray

    def __post_init__(self) -> None:
        check_sample_rate(self.sample_rate)
        check_unique("channel name", self.channels)
        if self.data.ndim != 2 or self.data.shape[0] != len(self.channels):
            raise InputError(
                f"data shape {self.data.shape} does not match {len(self.channels)} channels"
            )

    @property
    def n_samples(self) -> int:
        return self.data.shape[1]

    @property
    def duration_s(self) -> float:
        return self.n_samples / self.sample_rate

    def channel(self, name: str) -> np.ndarray:
        try:
            return self.data[self.channels.index(name)]
        except ValueError:
            raise InputError(f"unknown channel {name!r}") from None


@dataclass(frozen=True)
class SpindleAnnotation:
    """One annotated spindle: where it is and on which channel."""

    id: str
    start_s: float
    end_s: float
    channel: str


def read_recording_csv(path: str, sample_rate: float | None = None) -> Recording:
    """Read a recording CSV with header ``time,<ch1>,<ch2>,...``.

    The ``time`` column is optional when ``sample_rate`` is given; when
    both are present the explicit ``sample_rate`` wins.  With only a time
    column, the rate is inferred from the (required uniform) spacing.

    Every line after the header is one sample: one cell per header
    column, each a finite decimal number, optionally in double quotes.
    A repeated header name, a blank line, a ragged row, a non-numeric or a
    non-finite cell raises :class:`InputError` naming the columns or the
    file line.  An explicit
    ``sample_rate`` is checked before the file is opened.

    The file is read in one pass (see :func:`_read_recording`), in parts
    on a machine with several usable CPUs, into a preallocated
    C-contiguous ``(channels, samples)`` array; no time column and no
    parsed block outlives the pass.
    """
    def whole_channels(channels, n_rows, rate):
        data = np.empty((len(channels), n_rows))
        return [(0, n_rows, c, data[c]) for c in range(len(channels))], data

    channels, rate, data = _read_recording(path, sample_rate, whole_channels)
    return Recording(sample_rate=rate, channels=channels, data=data)


def read_recording_segments(
    path: str, annotations: Iterable[SpindleAnnotation], sample_rate: float | None = None
) -> tuple[float, list[tuple[SpindleAnnotation, np.ndarray]]]:
    """The sample rate and each annotated span of the recording CSV at
    ``path``: what ``extract_segments(read_recording_csv(path,
    sample_rate), annotations)`` gives, bit for bit, with the same errors.

    The pass checks every row as :func:`read_recording_csv` does but
    copies only the annotated rows, each span into its own array.  The
    checks come in this order: ``sample_rate``, then every error of the
    recording (opening and decoding it, its header, a bad or blank row,
    no channel columns, no rows, the rate inference), then the first
    annotation whose span :func:`extract_segments` rejects.  A rejected
    span is never allocated: once one is found, the pass keeps nothing.

    A long recording is parsed in two parts, by this process and by a
    child made with ``os.fork``, where two CPUs are usable (see
    :func:`_read_recording`); the child sends back only the rows of the
    spans in its part.  The checks and their order are those of a
    one-part pass, and so is every sample.
    """
    annotations = list(annotations)

    def spans(channels, n_rows, rate):
        try:
            cuts = [_span(ann, channels, rate, n_rows) for ann in annotations]
        except InputError as exc:
            return [], exc  # raised once the whole file has passed its checks
        segments = [(ann, np.empty(i1 - i0)) for ann, (_, i0, i1) in zip(annotations, cuts)]
        return [(i0, i1, c, out) for (c, i0, i1), (_, out) in zip(cuts, segments)], segments

    _, rate, segments = _read_recording(path, sample_rate, spans)
    if isinstance(segments, InputError):
        raise segments
    return rate, segments


def _read_recording(path: str, sample_rate: float | None, plan):
    """``(channels, sample_rate, kept)`` of the recording CSV at ``path``,
    read in one checked pass.

    A pre-pass over the bytes counts the rows and reads the last one; the
    header and the first row come from the text pass itself.  With those,
    ``plan(channels, n_rows, rate)`` is called before the first block is
    parsed and returns ``(windows, kept)``: each window
    ``(first_row, stop_row, channel, out)`` receives that channel's
    samples of rows ``[first_row, stop_row)`` in ``out``, and ``kept`` is
    returned as it is.  ``plan`` is not called, and nothing is kept, when
    the rate is neither given nor inferable from the first and last rows,
    or when the file's size cannot hold its rows as numbers (a valid row
    takes at least two bytes per column): such a file fails a check.

    The sample rows are then parsed in parts, one per usable CPU and at
    most ``_MAX_PARTS`` (see :func:`_part_starts`): this process parses
    the first part, a child made with ``os.fork`` each other one (see
    :func:`_parse_body`).  Parts are cut only at multiples of
    ``_BLOCK``, so the blocks, and the ``rows X to Y`` of a bad-row
    message, are those of a one-part pass.
    The pass stays in one part without ``os.fork``, with another Python
    thread alive, on one usable CPU, when a fork fails, or below
    ``2 * _PART_ROWS`` rows.  Nothing selects the parts but the file and
    the machine: there is no option.

    The rows are checked as the docstring of :func:`read_recording_csv`
    says, and the first error in file order is raised; uniform time steps
    are checked from their running minimum and maximum, the step across
    each block border and each cut included.  A pass that reads other
    rows than the pre-pass counted, or infers another rate, raises
    :class:`InputError`: the file changed while it was read.  These
    checks come after all parts are merged, in the order of a one-part
    pass.
    """
    if sample_rate is not None:
        sample_rate = check_sample_rate(sample_rate)
    # a time step beyond the float range is inf: the rate check below names the file
    with input_file(path, "recording") as fh, np.errstate(over="ignore"):
        # an Excel "CSV UTF-8" export starts with a byte-order mark
        line = fh.readline().removeprefix("\ufeff")
        header = [h.strip() for h in next(csv.reader([line]), [])]
        check_unique(f"{path}: header name", header, "in columns", 1)
        has_time = bool(header) and header[0].lower() == "time"
        channel_names = tuple(header[1:] if has_time else header)
        first = fh.readline()
        n_lines, size, last = _scan_lines(path, fh.encoding)
        n_rows = max(n_lines - 1, 0)
        rate = sample_rate
        if rate is None and has_time and n_rows >= 2:
            rate = _pre_pass_rate(len(header), n_rows, first, last)
        windows, kept = [], None
        if rate is not None and 2 * len(header) * n_rows <= size:
            windows, kept = plan(channel_names, n_rows, rate)
            windows.sort(key=lambda window: window[0])
        body = _Body(path, header, has_time, sample_rate is None and has_time, n_rows, windows)
        index, t_first, t_last, step_min, step_max = _parse_body(
            body, chain([first] if first else [], fh))
    if not index:
        raise InputError(f"{path}: recording needs a header and at least one sample row")
    if index != n_rows:
        raise _changed(path)
    if body.infer:
        if index < 2:
            raise InputError(f"{path}: cannot infer sample rate from a single sample")
        # as Python floats, inf - inf is nan without a warning, and an inf
        # step makes the span inf: the rate is then 0.0
        if step_min <= 0 or float(step_max) - float(step_min) > 1e-6 * step_max:
            raise InputError(f"{path}: time column is not uniformly increasing")
        try:
            sample_rate = check_sample_rate(_rate(index, t_first, t_last))
        except InputError as exc:
            raise InputError(f"{path}: inferred from the time column, {exc}") from exc
    elif sample_rate is None:
        raise InputError(f"{path}: no time column; a sample rate must be supplied")
    if kept is None or rate != sample_rate:
        raise _changed(path)
    return channel_names, sample_rate, kept


class _Part(NamedTuple):
    """What the pass learnt from a run of rows: the row after the last one
    read (``end``), the times of the first and the last row read and the
    smallest and the largest step between consecutive rows.  The times
    are None and the steps inf and -inf where no row was read or the
    steps are not checked."""

    end: int
    t_first: float | None
    t_last: float | None
    step_min: float
    step_max: float


class _Body(NamedTuple):
    """The sample rows of one recording CSV as each part of its pass
    sees them: the file, its header, whether it has a time column and
    whether the time steps are checked (``infer``), the pre-pass row
    count and the windows of ``plan``, sorted by first row."""

    path: str
    header: list[str]
    has_time: bool
    infer: bool
    n_rows: int
    windows: list

    def parse(self, lines: Iterator[str], start: int, stop: int | None) -> _Part:
        """Check rows ``[start, stop)`` of the body, to its end where
        ``stop`` is None, and copy them into the windows.  ``lines``
        yields those rows; they are read, parsed and dropped ``_BLOCK``
        lines at a time, and the first bad block raises."""
        path, header, has_time = self.path, self.header, self.has_time
        pending = (window for window in self.windows if window[1] > start)
        active, upcoming = [], next(pending, None)
        t_first, t_tail = None, np.empty(0)  # the time of the first and of the last row read
        step_min, step_max = math.inf, -math.inf
        index, row = start, start + 2  # rows read so far; the file line of the block's first line
        while block := list(islice(lines, _BLOCK if stop is None else min(_BLOCK, stop - index))):
            if len(header) == has_time:
                raise InputError(f"{path}: no channel columns")
            matrix = None if "\n" in block else _parse_rows(block, len(header))
            if matrix is None:
                raise _bad_row_error(path, header, block, row)
            end = index + len(block)
            if end > self.n_rows:
                raise _changed(path)
            if self.infer:
                steps = np.diff(np.concatenate((t_tail, matrix[:, 0])))
                if steps.size:
                    step_min, step_max = min(step_min, steps.min()), max(step_max, steps.max())
                t_first = matrix[0, 0] if t_first is None else t_first
                t_tail = matrix[-1:, 0]
            while upcoming is not None and upcoming[0] < end:
                active.append(upcoming)
                upcoming = next(pending, None)
            for first_row, stop_row, channel, out in active:
                lo, hi = max(first_row, index), min(stop_row, end)
                out[lo - first_row:hi - first_row] = matrix[lo - index:hi - index,
                                                            channel + has_time]
            active = [window for window in active if window[1] > end]
            index, row = end, row + len(block)
        return _Part(index, t_first, t_tail[0] if t_tail.size else None, step_min, step_max)

    def parse_alone(self, start: int, stop: int | None) -> _Part:
        """:meth:`parse` of rows ``[start, stop)`` through a file handle of
        its own.  The handle reads and drops the header and the rows
        before ``start`` in text mode, with the decoder of a one-part
        pass, so lines end and fail to decode where they do there."""
        with input_file(self.path, "recording") as fh:
            return self.parse(islice(fh, start + 1, None), start, stop)

    def filled(self, start: int, end: int) -> list:
        """The stretches of the windows' arrays that rows ``[start, end)`` fill."""
        return [out[max(first_row, start) - first_row:min(stop_row, end) - first_row]
                for first_row, stop_row, _, out in self.windows
                if first_row < end and stop_row > start]


#: Fewest sample rows a part of a recording's pass gets: below twice this
#: many, the rows are parsed in one part.
_PART_ROWS = 8192

#: Most parts a recording's pass is cut into, whatever the CPU count.
#: Each child first decodes and drops every line before its part, and the
#: affinity mask does not show a cgroup's CPU quota.  On a 2-CPU machine,
#: 4 and 8 parts read slower than 2; more CPUs were not measured.
_MAX_PARTS = 2


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _part_starts(n_rows: int) -> list[int]:
    """The first rows of the parts after the first of a body of
    ``n_rows`` rows: one part per usable CPU, at most ``_MAX_PARTS``,
    each of at least ``_PART_ROWS`` rows, cut at multiples of
    ``_BLOCK``.  Empty (one part) without ``os.fork``, with another
    Python thread alive (a child of ``fork`` would hold only the forking
    thread, and any lock another held stays taken) or with too few rows.

    Native threads that Python does not run, such as the BLAS pool numpy
    starts, are not counted: the child only parses text with numpy,
    writes to a pipe and ends with ``os._exit``, and calls into no such
    library.  Python 3.12 and later count them, and a fork beside them
    issues a ``DeprecationWarning``, which a warnings filter can show but
    not turn into an error."""
    blocks = n_rows // _BLOCK
    n_parts = min(_MAX_PARTS, _usable_cpus(), blocks // -(-_PART_ROWS // _BLOCK))
    if n_parts < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return []
    return [-(-k * blocks // n_parts) * _BLOCK for k in range(1, n_parts)]


def _parse_body(body: _Body, lines: Iterator[str]) -> _Part:
    """:meth:`_Body.parse` of every row of ``body``, in the parts of
    :func:`_part_starts`.  ``lines`` yields the rows from the first one.

    Each part but the first goes to a child made with ``os.fork``, from
    the last part down; where a fork fails, this process takes over that
    part and every one before it.  The child sends the report of its
    part through a pipe (see :func:`_send_part`) and ends with
    ``os._exit``.  Meanwhile this process parses its own part from
    ``lines``, then reads the reports in file order and merges them: the
    first error raises, and the step across each cut joins the running
    minimum and maximum.  A part whose report is missing or cannot be
    read is parsed here.  Every child is waited for before this returns
    or raises, and killed first unless its whole report was read.
    """
    children = []  # (start, stop, pid, read end of its pipe), from the last part down
    reported = set()  # the pids whose report was read whole: they end by themselves
    parent = os.getpid()
    try:
        stop = None
        for start in reversed(_part_starts(body.n_rows)):
            try:
                read_end, write_end = os.pipe()
            except OSError:
                break
            try:
                pid = os.fork()
            except OSError:
                os.close(read_end)
                os.close(write_end)
                break
            if not pid:
                _send_part(body, start, stop, write_end)
                os._exit(0)  # no exit handler runs, no buffer shared with the parent is flushed
            os.close(write_end)
            children.append((start, stop, pid, read_end))
            stop = start
        part = body.parse(lines, 0, stop)
        for start, stop, pid, read_end in reversed(children):
            if part.end != start:
                raise _changed(body.path)
            report = _receive(body, start, read_end)
            if report is None:
                report = body.parse_alone(start, stop)
            else:
                reported.add(pid)
            if report.t_first is None:
                part = part._replace(end=report.end)
                continue
            step = np.float64(report.t_first) - np.float64(part.t_last)  # across the cut
            part = _Part(report.end, part.t_first, report.t_last,
                         min(part.step_min, step, report.step_min),
                         max(part.step_max, step, report.step_max))
        return part
    finally:
        if os.getpid() != parent:
            os._exit(1)  # a child leaves this frame only here, whatever stopped it
        for *_, pid, read_end in children:
            os.close(read_end)
            # where SIGCHLD is ignored, the kernel reaps each child as it ends
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                if pid not in reported:
                    from signal import SIGKILL
                    os.kill(pid, SIGKILL)
                os.waitpid(pid, 0)


def _send_part(body: _Body, start: int, stop: int | None, write_end: int) -> None:
    """Parse rows ``[start, stop)`` of ``body`` alone and send the report
    through the pipe ``write_end``: what a child of :func:`_parse_body`
    does before it ends.

    The report is an 8-byte little-endian length, then that many bytes
    of JSON, ``{"error": message}`` for an :class:`InputError` and
    ``{"part": [end, t_first, t_last, step_min, step_max]}`` otherwise;
    after a part come the float64 bytes of :meth:`_Body.filled` for its
    rows, in window order.
    """
    import gc
    gc.disable()  # the finalizers of the parent's garbage are the parent's to run
    try:
        part = body.parse_alone(start, stop)
        head, filled = {"part": part}, body.filled(start, part.end)
    except InputError as exc:
        head, filled = {"error": str(exc)}, []
    head = json.dumps(head).encode()
    for data in [len(head).to_bytes(8, "little") + head, *filled]:
        view = memoryview(data).cast("B")
        while view:
            view = view[os.write(write_end, view):]


def _receive(body: _Body, start: int, read_end: int) -> _Part | None:
    """The part from row ``start`` as :func:`_send_part` reported it
    through ``read_end``, with its rows copied into the windows; the
    :class:`InputError` it reported is raised.  None where the report is
    missing or cannot be read."""
    try:
        with open(read_end, "rb", closefd=False) as pipe:
            report = json.loads(pipe.read(int.from_bytes(pipe.read(8), "little")))
            if "error" in report:
                raise InputError(report["error"])
            part = _Part(*report["part"])
            for out in body.filled(start, part.end):
                view = memoryview(out).cast("B")
                if pipe.readinto(view) != view.nbytes:
                    return None
            return part
    except (OSError, ValueError, TypeError, KeyError):
        return None


def _rate(n_rows: int, t_first: float, t_last: float) -> float:
    """The sample rate of ``n_rows`` rows from time ``t_first`` to ``t_last``."""
    return (n_rows - 1) / (float(t_last) - float(t_first))


def _pre_pass_rate(width: int, n_rows: int, first: str, last: str | None) -> float | None:
    """The rate :func:`_rate` infers from the ``first`` and ``last`` rows
    (as the text pass yields them) of ``width`` cells, or None where it is
    not a valid rate: a row that is blank, undecodable or that
    :func:`_parse_rows` rejects, or times that do not increase."""
    times = []
    for line in (first, last):
        matrix = None if line in ("", "\n", None) else _parse_rows([line], width)
        if matrix is None:
            return None
        times.append(matrix[0, 0])
    if not times[0] < times[1]:
        return None
    rate = _rate(n_rows, *times)
    return rate if 0.0 < rate <= sys.float_info.max else None


def _changed(path: str) -> InputError:
    return InputError(f"{path}: the recording changed while it was read")


#: Bytes read at a time by the line count of :func:`_scan_lines`.
_CHUNK = 1 << 17

#: Bytes first read from the end of the file for its last line.
_TAIL = 1 << 12


def _scan_lines(path: str, encoding: str) -> tuple[int, int, str | None]:
    """The number of lines of the file at ``path``, its size in bytes and
    its last line (None where it does not decode as ``encoding``).

    Lines end where text mode ends them, at ``\\n``, ``\\r\\n`` or a lone
    ``\\r``; the last line is returned without its line end.
    """
    lines = size = 0
    end = b""
    with input_file(path, "recording", mode="rb") as fh:
        while chunk := fh.read(_CHUNK):
            # numpy counts one byte value several times faster than bytes.count
            lines += int(np.count_nonzero(np.frombuffer(chunk, np.uint8) == ord("\n")))
            if b"\r" in chunk:
                lines += chunk.count(b"\r") - chunk.count(b"\r\n")
            if end == b"\r" and chunk[:1] == b"\n":
                lines -= 1  # a \r\n split between two chunks
            end = chunk[-1:]
            size += len(chunk)
        if end not in (b"", b"\n", b"\r"):
            lines += 1  # the last line has no line end
        window = _TAIL
        while True:
            start = max(size - window, 0)
            fh.seek(start)
            tail = fh.read(size - start)
            ending = 2 if tail.endswith(b"\r\n") else int(tail.endswith((b"\n", b"\r")))
            body = tail[:len(tail) - ending]
            cut = max(body.rfind(b"\n"), body.rfind(b"\r"))
            if cut >= 0 or not start:
                break
            window *= 16
    try:
        return lines, size, body[cut + 1:].decode(encoding)
    except UnicodeDecodeError:
        return lines, size, None


#: ``np.loadtxt`` arguments for the sample rows: comma-separated cells,
#: optionally double-quoted, no comment syntax, always a 2-D result.
_ROW_FORMAT = dict(delimiter=",", dtype=float, comments=None, ndmin=2, quotechar='"')

#: ``_ROW_FORMAT`` without quote handling, which parses lines that hold
#: no ``"`` to the same values or the same error, faster.
_PLAIN_FORMAT = {**_ROW_FORMAT, "quotechar": None}

#: Sample lines read and parsed at a time.
_BLOCK = 4096


def _parse_rows(lines: list[str], width: int) -> np.ndarray | None:
    """``lines`` as a ``(len(lines), width)`` matrix of finite values.

    Returns None when any line is ragged, non-numeric or non-finite.  The
    caller rules out blank lines first: ``np.loadtxt`` skips them, and
    warns when a body of blank lines holds no data.
    """
    row_format = _ROW_FORMAT if '"' in "".join(lines) else _PLAIN_FORMAT
    try:
        matrix = np.loadtxt(lines, **row_format)
    except ValueError:
        return None
    if matrix.shape != (len(lines), width) or not np.isfinite(matrix).all():
        return None
    return matrix


def _bad_row_error(path: str, header: list[str], block: list[str], first_row: int) -> InputError:
    """The error naming the first line of ``block`` (file line
    ``first_row`` on) that is blank or that :func:`_parse_rows` rejects:
    its cell count, a non-numeric cell or a non-finite value and its
    column."""
    width = len(header)
    for row, line in enumerate(block, start=first_row):
        cells = next(csv.reader([line]), [])
        if len(cells) != width:
            return InputError(f"{path}: row {row} has {len(cells)} cells, expected {width}")
        try:
            [values] = np.loadtxt([line], **_ROW_FORMAT)
        except ValueError:
            return InputError(f"{path}: non-numeric cell in row {row}")
        for cell, name, value in zip(cells, header, values):
            if not math.isfinite(value):
                return InputError(
                    f"{path}: non-finite value {cell.strip()!r} in row {row}, "
                    f"column {name!r}"
                )
    # only a row that parses alone but not beside its neighbours gets here
    return InputError(f"{path}: rows {first_row} to {first_row + len(block) - 1} are not "
                      f"{width} finite numbers each")


def read_annotations_json(path: str) -> list[SpindleAnnotation]:
    """Read annotations: a JSON array of {id, start_s, end_s, channel}
    objects.

    Each annotation gives its end either as ``end_s`` or as ``duration_s``
    (seconds after ``start_s``), never both.  The checks are those of
    :func:`_annotations`.
    """
    raw = read_json(path, "annotations")
    return [ann for _, ann in _annotations(path, "annotation", raw)]


def _annotations(path: str, kind: str, raw) -> Iterator[tuple[dict, SpindleAnnotation]]:
    """Each record of the JSON array ``raw`` with its annotation fields
    checked: an object with keys ``id``, ``start_s``, ``channel`` and one
    of ``end_s`` / ``duration_s``, times that are finite JSON numbers and
    an ``id`` no earlier record has.  Otherwise :class:`InputError` names
    the file, the record (a ``kind`` and its index) and the key or id."""
    if not isinstance(raw, list):
        raise InputError(f"{path}: expected a JSON array of {kind}s")
    seen: dict[str, int] = {}  # id -> index of its record
    for i, item in enumerate(raw):
        if not isinstance(item, dict):
            raise InputError(f"{path}: {kind} {i} is not an object")
        missing = {"id", "start_s", "channel"} - item.keys()
        if missing:
            raise InputError(f"{path}: {kind} {i} missing keys {sorted(missing)}")
        end_keys = [k for k in ("end_s", "duration_s") if k in item]
        if len(end_keys) != 1:
            raise InputError(
                f"{path}: {kind} {i} needs exactly one of the keys "
                f"['end_s', 'duration_s'], got {end_keys}"
            )
        ann_id = str(item["id"])
        if ann_id in seen:
            raise InputError(
                f"{path}: duplicate {kind} id {ann_id!r} in {kind}s {seen[ann_id]} and {i}")
        seen[ann_id] = i
        start_s = _annotation_number(path, kind, i, item, "start_s")
        if "end_s" in item:
            end_s = _annotation_number(path, kind, i, item, "end_s")
        else:
            end_s = start_s + _annotation_number(path, kind, i, item, "duration_s")
        yield item, SpindleAnnotation(
            id=ann_id, start_s=start_s, end_s=end_s, channel=str(item["channel"]))


def _annotation_number(path: str, kind: str, index: int, item: dict, key: str) -> float:
    """One record's time as a float: a finite JSON number, else InputError."""
    value = item[key]
    # bool is an int subclass, but JSON true/false is not a time; the bound
    # also rejects nan, inf and integers beyond the float range
    if (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max):
        return float(value)
    raise InputError(
        f"{path}: {kind} {index} key {key!r} must be a finite number, got {value!r}"
    )


def extract_segments(
    rec: Recording, annotations: Iterable[SpindleAnnotation]
) -> list[tuple[SpindleAnnotation, np.ndarray]]:
    """Cut each annotated span out of its channel.

    The sample index range is ``[floor(start * fs), floor(end * fs))``.
    Out-of-bounds annotations and unknown channels are rejected with the
    annotation id in the message.
    """
    out = []
    for ann in annotations:
        channel, i0, i1 = _span(ann, rec.channels, rec.sample_rate, rec.n_samples)
        out.append((ann, rec.data[channel, i0:i1].copy()))
    return out


def _span(ann: SpindleAnnotation, channels: Sequence[str], sample_rate: float,
          n_samples: int) -> tuple[int, int, int]:
    """``(channel index, i0, i1)`` of the samples ``ann`` spans in a
    recording of ``n_samples`` samples per channel: the rule and the
    errors of :func:`extract_segments`."""
    if ann.channel not in channels:
        raise InputError(f"annotation {ann.id!r}: unknown channel {ann.channel!r}")
    if not (0.0 <= ann.start_s < ann.end_s):
        raise InputError(
            f"annotation {ann.id!r}: invalid span [{ann.start_s}, {ann.end_s}]"
        )
    end = ann.end_s * sample_rate
    # floor(end) > n_samples, tested before an infinite end reaches floor()
    if end >= n_samples + 1:
        raise InputError(
            f"annotation {ann.id!r}: end {ann.end_s} s beyond recording "
            f"duration {n_samples / sample_rate} s"
        )
    i0, i1 = math.floor(ann.start_s * sample_rate), math.floor(end)
    if i1 <= i0:
        raise InputError(f"annotation {ann.id!r}: span holds no complete sample")
    return channels.index(ann.channel), i0, i1


def write_segments_json(
    path: str,
    segments: Sequence[tuple[SpindleAnnotation, np.ndarray]],
    sample_rate: float,
) -> None:
    """Write ``(annotation, samples)`` pairs as a JSON array of segments,
    byte for byte as ``json.dump(..., indent=2, allow_nan=False)`` writes
    it, plus a newline.

    Segments are written one at a time.  The header fields go through
    :func:`json.dumps`; the samples, one per line, are joined from
    ``float.__repr__`` (as the encoder writes a float) instead of running
    the pure-Python indenting encoder over every sample.  A non-finite
    value raises :class:`ValueError`, as the encoder does.
    """
    with open(path, "w") as fh:
        separator = "[\n  "
        for ann, samples in segments:
            fields = [f'"{key}": {json.dumps(value, allow_nan=False)}' for key, value in (
                ("id", ann.id), ("channel", ann.channel), ("start_s", ann.start_s),
                ("end_s", ann.end_s), ("sample_rate", sample_rate))]
            values = np.asarray(samples, dtype=np.float64)
            finite = np.isfinite(values)
            if not finite.all():
                bad = float(values[~finite][0])
                raise ValueError(f"Out of range float values are not JSON compliant: {bad!r}")
            body = ",\n      ".join(map(float.__repr__, values.tolist()))
            fields.append(f'"samples": [\n      {body}\n    ]' if body else '"samples": []')
            fh.write(separator + "{\n    " + ",\n    ".join(fields) + "\n  }")
            separator = ",\n  "
        # the encoder writes an empty list as "[]"
        fh.write("\n]\n" if separator != "[\n  " else "[]\n")


def read_segments_json(path: str) -> list[tuple[SpindleAnnotation, float, np.ndarray]]:
    """Read extracted segments: (annotation, sample_rate, samples) triples.

    Each segment's annotation fields are checked as an annotation's (see
    :func:`_annotations`).  Its ``sample_rate`` must pass
    :func:`check_sample_rate` and its ``samples`` be a non-empty list of
    finite JSON numbers (not ``true``/``false``, not strings), as a time
    must be; otherwise :class:`InputError` names the file, the segment
    index and its id.
    """
    raw = read_json(path, "segments")
    out = []
    for i, (item, ann) in enumerate(_annotations(path, "segment", raw)):
        where = f"{path}: segment {i} (id {ann.id!r})"
        try:
            fs = check_sample_rate(item.get("sample_rate"))
            samples = item["samples"]
            # type() is exact, so a bool (an int subclass) is no number
            if type(samples) is list and not set(map(type, samples)) <= {int, float}:
                bad = next(v for v in samples if type(v) not in (int, float))
                raise InputError(f"samples must be a non-empty list of numbers, got {bad!r}")
            samples = _as_segment(samples)
        except InputError as exc:
            raise InputError(f"{where}: {exc}") from exc
        # OverflowError: an integer sample beyond the float range
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise InputError(f"{where}: malformed samples: {exc}") from exc
        if not np.isfinite(samples).all():
            raise InputError(f"{where}: samples must be finite")
        out.append((ann, fs, samples))
    return out


# ---------------------------------------------------------------------------
# Spectral helpers
# ---------------------------------------------------------------------------


def _as_segment(segment) -> np.ndarray:
    x = np.asarray(segment, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise InputError("samples must be a non-empty list of numbers")
    return x


def _cell_energies(x: np.ndarray, sample_rate: float, detrend: bool):
    """One-sided periodogram as per-bin energies plus each bin's cell.

    The periodogram ``P`` is one numpy ``rfft`` of the segment (mean
    removed with ``detrend``), scaled as ``scipy.signal.periodogram``
    scales a boxcar window: the samples are multiplied by
    ``1 / sqrt(n / (1 / fs))`` and the squared magnitudes of the bins
    strictly between DC and Nyquist are doubled.  The scale is written
    exactly so: the shorter ``1 / sqrt(n * fs)`` rounds differently for
    some lengths and rates, and ``P`` would then differ from scipy's.

    Bin ``k`` at frequency ``f_k`` carries energy ``P_k * df`` and owns
    the cell ``[f_k - df/2, f_k + df/2]`` clipped to ``[0, fs/2]`` (half
    cells at DC and, for even lengths, at Nyquist).  Summed over all bins
    the energies equal the signal's mean square power exactly.
    """
    n = len(x)
    if detrend:
        x = x - np.mean(x)
    spectrum = np.fft.rfft(x * (1 / np.sqrt(n / (1 / sample_rate))))
    psd = spectrum.real**2 + spectrum.imag**2
    psd[1:-1 if n % 2 == 0 else None] *= 2
    freqs = np.fft.rfftfreq(n, 1 / sample_rate)
    df = sample_rate / n
    energy = psd * df
    lo = np.clip(freqs - df / 2.0, 0.0, None)
    hi = np.clip(freqs + df / 2.0, None, sample_rate / 2.0)
    return freqs, energy, lo, hi


def mean_amplitude(segment) -> float:
    """Mean of the absolute amplitude, in microvolts."""
    a = np.abs(_as_segment(segment))
    # the rounded mean of equal values can exceed them by one ulp; the
    # exact mean never exceeds the maximum
    return float(min(np.mean(a), np.max(a)))


def max_amplitude(segment) -> float:
    """Maximum absolute amplitude, in microvolts."""
    x = _as_segment(segment)
    return float(np.max(np.abs(x)))


def mean_frequency(segment, sample_rate: float, detrend: bool = False) -> float:
    """Power-weighted mean frequency of the one-sided periodogram.

    A zero-power signal has no centroid: returns 0.0 after emitting
    :class:`ZeroPowerWarning`.
    """
    x = _as_segment(segment)
    check_sample_rate(sample_rate)
    freqs, energy, _, _ = _cell_energies(x, sample_rate, detrend)
    return _centroid(freqs, energy)


def _centroid(freqs: np.ndarray, energy: np.ndarray) -> float:
    """Energy-weighted mean of ``freqs``; 0.0 and a warning at zero energy."""
    total = float(np.sum(energy))
    if total == 0.0:
        warnings.warn("zero-power segment: mean frequency undefined, returning 0.0",
                      ZeroPowerWarning, stacklevel=3)
        return 0.0
    return float(np.sum(freqs * energy) / total)


def dominant_frequency(
    segment,
    sample_rate: float,
    band: tuple[float, float] = DEFAULT_DOMINANT_BAND,
    detrend: bool = False,
) -> float:
    """Frequency of the DFT-magnitude maximum within ``band``.

    The segment is zero-padded to the next power of two >= 4x its length,
    so the bin width is at most ``fs / (4 n)``.  Equal magnitudes resolve
    to the lower frequency.
    """
    x = _as_segment(segment)
    if x.size < 2:
        raise InputError("dominant_frequency needs at least 2 samples")
    check_bands([band], sample_rate)
    lo, hi = band
    if detrend:
        x = x - np.mean(x)
    nfft = 1 << (4 * x.size - 1).bit_length()
    magnitude = np.abs(np.fft.rfft(x, n=nfft))
    freqs = np.fft.rfftfreq(nfft, d=1.0 / sample_rate)
    in_band = np.flatnonzero((freqs >= lo) & (freqs <= hi))
    if in_band.size == 0:
        raise InputError(f"no DFT bins inside [{lo}, {hi}] Hz at this resolution")
    # np.argmax takes the first maximum; freqs ascend, so ties go low.
    best = in_band[int(np.argmax(magnitude[in_band]))]
    return float(freqs[best])


def bandpower(
    segment,
    sample_rate: float,
    band: tuple[float, float],
    detrend: bool = False,
) -> float:
    """Signal power inside a frequency band, in microvolts squared.

    Rectangle-rule integral of the one-sided periodogram; bins whose cell
    is only partially covered by the band contribute proportionally.
    Summed over a partition of ``[0, Nyquist]`` this reproduces the total
    mean square power exactly.
    """
    x = _as_segment(segment)
    check_bands([band], sample_rate)
    _, energy, cell_lo, cell_hi = _cell_energies(x, sample_rate, detrend)
    return float(_band_powers(energy, cell_lo, cell_hi, [band])[0])


def check_bands(bands: Iterable[tuple[float, float]], sample_rate: float) -> None:
    """Reject a bad ``sample_rate`` and any band outside ``0 <= lo < hi <= Nyquist``."""
    check_sample_rate(sample_rate)
    for lo, hi in bands:
        if not (0.0 <= lo < hi <= sample_rate / 2.0):
            raise InputError(f"invalid band [{lo}, {hi}] for Nyquist {sample_rate / 2.0} Hz")


def check_band_settings(dominant_band: tuple[float, float], bands: Sequence[tuple[float, float]],
                        sample_rate: float | None = None) -> None:
    """Reject a ``dominant_band`` or band outside ``0 <= lo < hi``, unsorted or overlapping
    ``bands``, and, with a ``sample_rate``, any band above Nyquist (:func:`check_bands`)."""
    lo, hi = dominant_band
    if not 0.0 <= lo < hi:
        raise InputError(f"invalid dominant_band [{lo}, {hi}]")
    previous_hi = 0.0
    for lo, hi in bands:
        if not 0.0 <= lo < hi:
            raise InputError(f"invalid band [{lo}, {hi}]")
        if lo < previous_hi:
            raise InputError("bands must be sorted and non-overlapping")
        previous_hi = hi
    if sample_rate is not None:
        check_bands([dominant_band, *bands], sample_rate)


def _band_powers(energy, cell_lo, cell_hi, bands) -> np.ndarray:
    """Rectangle-rule power of every band at once.

    Row ``b`` of a (bands x bins) array holds the fraction of each bin's
    cell that band ``b`` covers; the powers are the row sums of
    ``energy * fraction``.
    """
    edges = np.asarray(bands, dtype=float).reshape(-1, 2)
    lo, hi = edges[:, :1], edges[:, 1:]
    width = cell_hi - cell_lo
    overlap = np.clip(np.minimum(cell_hi, hi) - np.maximum(cell_lo, lo), 0.0, None)
    with np.errstate(invalid="ignore", divide="ignore"):
        fraction = np.where(width > 0.0, overlap / np.where(width > 0.0, width, 1.0), 0.0)
    return np.sum(energy * fraction, axis=1)


# ---------------------------------------------------------------------------
# Feature rows
# ---------------------------------------------------------------------------


def band_column_name(lo: float, hi: float) -> str:
    return f"bandpower_{lo:g}_{hi:g}_uV2"


def feature_columns(bands: Sequence[tuple[float, float]] = DEFAULT_BANDS) -> tuple[str, ...]:
    """Column names in canonical order: the 5 scalars, then the bands."""
    return SCALAR_FEATURES + tuple(band_column_name(lo, hi) for lo, hi in bands)


@dataclass(frozen=True)
class FeatureRow:
    """The per-spindle feature vector, in canonical column order."""

    mean_amplitude: float
    max_amplitude: float
    mean_frequency: float
    dominant_frequency: float
    amp_freq_ratio: float
    bandpowers: tuple[float, ...]
    bands: tuple[tuple[float, float], ...] = DEFAULT_BANDS

    def __post_init__(self) -> None:
        if len(self.bandpowers) != len(self.bands):
            raise InputError(
                f"{len(self.bandpowers)} band powers for {len(self.bands)} bands"
            )
        if self.mean_amplitude < 0 or self.max_amplitude < self.mean_amplitude:
            raise InputError("amplitudes must satisfy 0 <= mean <= max")
        if any(p < 0 for p in self.bandpowers):
            raise InputError("band powers must be non-negative")
        if self.dominant_frequency <= 0:
            raise InputError("dominant frequency must be positive")
        if self.amp_freq_ratio != self.mean_amplitude / self.dominant_frequency:
            raise InputError("amp_freq_ratio must equal mean_amplitude / dominant_frequency")

    def values(self) -> tuple[float, ...]:
        return (
            self.mean_amplitude,
            self.max_amplitude,
            self.mean_frequency,
            self.dominant_frequency,
            self.amp_freq_ratio,
        ) + self.bandpowers

    def columns(self) -> tuple[str, ...]:
        return feature_columns(self.bands)


def feature_row(
    segment,
    sample_rate: float,
    bands: Sequence[tuple[float, float]] = DEFAULT_BANDS,
    dominant_band: tuple[float, float] = DEFAULT_DOMINANT_BAND,
    detrend: bool = False,
) -> FeatureRow:
    """Compute the full feature vector for one segment."""
    x = _as_segment(segment)
    dom = dominant_frequency(x, sample_rate, band=dominant_band, detrend=detrend)
    if dom <= 0.0:
        raise InputError("dominant frequency is 0 Hz; amp/freq ratio undefined "
                         "(search band must exclude DC)")
    mean_amp = mean_amplitude(x)
    check_bands(bands, sample_rate)
    freqs, energy, cell_lo, cell_hi = _cell_energies(x, sample_rate, detrend)
    return FeatureRow(
        mean_amplitude=mean_amp,
        max_amplitude=max_amplitude(x),
        mean_frequency=_centroid(freqs, energy),
        dominant_frequency=dom,
        amp_freq_ratio=mean_amp / dom,
        bandpowers=tuple(_band_powers(energy, cell_lo, cell_hi, bands).tolist()),
        bands=tuple((float(lo), float(hi)) for lo, hi in bands),
    )

"""Opt-in tracing spans and run stats at findual's layer boundaries.

`span(name, **attrs)` is a context manager around one call into a layer:
the CLI dispatch, a validation and its Light's test, a dualization, the
codec, a twist check, the census, a census orbit class, the exponent
table's certification and the census's mirror check, the jet.  Its
attrs carry sizes (dim, n, p, bytes), counts (the census's
representatives built, classes mirrored, fibers certified as torus
images; Light's steps, search cap and generating set) and which
certificate or shortcut ran; more can be set inside the block with
``s[key] = value``.  Tracing is off unless the environment switches it on,
and off, `span` returns one shared object that does nothing, so no time is
read and nothing is kept.  Two environment variables, read once at import,
switch it on; there is no flag, so `--help` is unchanged:

- ``FINDUAL_TRACE=FILE`` appends one JSON line per span to FILE, with keys
  ``id``, ``parent`` (the id of the enclosing span, null at a root),
  ``name``, ``attrs``, ``start`` (ns on the process's performance counter)
  and ``ns`` (the duration);
- ``FINDUAL_STATS=1`` writes, per span name, the count and the total and
  largest durations to stderr.

Spans are kept in memory and written when the outermost one ends, which in
a CLI run is the dispatch span, so a run does no tracing I/O until its
command is done.  Neither variable changes stdout or an exit code: a trace
file that cannot be written is reported on stderr.
"""

from __future__ import annotations

import json
import os
import sys
import time


class _Off:
    """The span of a run with tracing off: enters, exits and drops attrs."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def __setitem__(self, key, value):
        pass


_OFF = _Off()


class _Recorder:
    """The spans of one process: those open, innermost last, and those done
    since the outermost open one began."""

    def __init__(self, trace_path, stats: bool):
        self.trace_path = trace_path
        self.stats = stats
        self.open = []
        self.done = []
        self.last_id = 0

    def flush(self) -> None:
        done, self.done = sorted(self.done, key=lambda s: s.id), []
        if self.trace_path:
            lines = "".join(json.dumps({"id": s.id, "parent": s.parent, "name": s.name, "attrs": s.attrs,
                                        "start": s.start, "ns": s.ns}, sort_keys=True, default=repr) + "\n"
                            for s in done)
            try:
                with open(self.trace_path, "a") as fh:
                    fh.write(lines)
            except OSError as exc:
                sys.stderr.write(f"findual trace: cannot write {self.trace_path}: {exc}\n")
        if self.stats:
            totals = {}
            for s in done:
                count, total, most = totals.get(s.name, (0, 0, 0))
                totals[s.name] = (count + 1, total + s.ns, max(most, s.ns))
            sys.stderr.write("".join(f"findual stats: {name} count={count} total_ns={total} max_ns={most}\n"
                                     for name, (count, total, most) in sorted(totals.items())))


class _Span:
    __slots__ = ("name", "attrs", "id", "parent", "start", "ns")

    def __init__(self, name: str, attrs: dict):
        self.name = name
        self.attrs = attrs

    def __setitem__(self, key, value):
        self.attrs[key] = value

    def __enter__(self):
        rec = _recorder
        rec.last_id += 1
        self.id = rec.last_id
        self.parent = rec.open[-1].id if rec.open else None
        rec.open.append(self)
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.ns = time.perf_counter_ns() - self.start
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        rec = _recorder
        rec.open.pop()
        rec.done.append(self)
        if not rec.open:
            rec.flush()
        return False


_recorder = None


def span(name: str, **attrs):
    """A span named `name` with the given attrs, or the no-op span when
    tracing is off."""
    if _recorder is None:
        return _OFF
    return _Span(name, attrs)


def _configure(trace_path, stats: bool) -> None:
    """Switch tracing to write `trace_path` (None for no file) and the
    stats (if `stats`); off when neither is asked for.  Called once at
    import with the environment's values; tests call it to switch tracing
    in process."""
    global _recorder
    _recorder = _Recorder(trace_path, stats) if trace_path or stats else None


_configure(os.environ.get("FINDUAL_TRACE") or None, os.environ.get("FINDUAL_STATS") == "1")

"""Structured, sim-time-aware logging.

``get_logger(__name__)`` returns a :class:`StructLogger` whose methods
take an event name plus arbitrary key=value fields::

    log = get_logger("repro.support.bus")
    log.warning("link-partitioned", src="earth", dst="habitat")

Records land in an in-memory :class:`LogBuffer` (exported by
:mod:`repro.obs.export`) and, optionally, on stderr.  Each record
carries wall-clock time and — when a sim clock is registered or a
``sim_time=`` field is passed — simulation time, formatted as
``[day 02 03:14:05]`` in the text report.

Like every obs API, logging is a no-op costing one attribute read when
telemetry is disabled.
"""

from __future__ import annotations

import sys
import time
from typing import Any, Optional

from repro.obs import _state

LEVELS = ("debug", "info", "warning", "error")
_LEVEL_NUM = {name: i for i, name in enumerate(LEVELS)}

_DAY = 86_400.0


def format_sim_time(sim_time_s: Optional[float]) -> str:
    """Render sim seconds as ``day DD HH:MM:SS`` (mission days are 1-based)."""
    if sim_time_s is None:
        return "--"
    day, rem = divmod(float(sim_time_s), _DAY)
    hours, rem = divmod(rem, 3600.0)
    minutes, seconds = divmod(rem, 60.0)
    return f"day {int(day) + 1:02d} {int(hours):02d}:{int(minutes):02d}:{int(seconds):02d}"


class LogRecord:
    """One structured log entry."""

    __slots__ = ("logger", "level", "event", "fields", "wall_time", "sim_time")

    def __init__(self, logger: str, level: str, event: str,
                 fields: dict, sim_time: Optional[float]):
        self.logger = logger
        self.level = level
        self.event = event
        self.fields = fields
        self.wall_time = time.time()
        self.sim_time = sim_time

    def to_dict(self) -> dict:
        return {
            "logger": self.logger,
            "level": self.level,
            "event": self.event,
            "fields": self.fields,
            "wall_time": self.wall_time,
            "sim_time": self.sim_time,
        }

    def format(self) -> str:
        fields = " ".join(f"{k}={v!r}" for k, v in self.fields.items())
        sim = format_sim_time(self.sim_time)
        body = f"{self.event} {fields}" if fields else self.event
        return f"[{sim}] {self.level.upper():7s} {self.logger}: {body}"

    def __repr__(self) -> str:
        return f"<LogRecord {self.format()}>"


class LogBuffer:
    """In-memory sink for every logger's records."""

    def __init__(self) -> None:
        self.records: list[LogRecord] = []
        #: Records below this level are dropped even when enabled.
        self.min_level = "debug"
        #: When True, records are also formatted onto stderr.
        self.echo = False

    def add(self, record: LogRecord) -> None:
        self.records.append(record)
        if self.echo:
            print(record.format(), file=sys.stderr)

    def merge(self, record_dicts: list) -> None:
        """Adopt exported records from another process's buffer.

        Incoming records were already level-filtered (and echoed, if
        requested) at the source, so they are appended verbatim with
        their original wall/sim timestamps.
        """
        for raw in record_dicts:
            record = LogRecord(
                raw["logger"], raw["level"], raw["event"],
                dict(raw.get("fields", {})), raw.get("sim_time"),
            )
            record.wall_time = raw.get("wall_time", record.wall_time)
            self.records.append(record)

    def matching(self, event_substring: str) -> list[LogRecord]:
        return [r for r in self.records if event_substring in r.event]

    def reset(self) -> None:
        self.records.clear()
        self.min_level = "debug"
        self.echo = False


#: The process-global log buffer.
buffer = LogBuffer()


class StructLogger:
    """Named logger handing structured records to the global buffer."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def log(self, level: str, event: str, **fields: Any) -> None:
        if not _state.enabled:
            return
        if _LEVEL_NUM[level] < _LEVEL_NUM[buffer.min_level]:
            return
        sim_time = fields.pop("sim_time", None)
        if sim_time is None:
            sim_time = _state.sim_now()
        buffer.add(LogRecord(self.name, level, event, fields, sim_time))

    def debug(self, event: str, **fields: Any) -> None:
        self.log("debug", event, **fields)

    def info(self, event: str, **fields: Any) -> None:
        self.log("info", event, **fields)

    def warning(self, event: str, **fields: Any) -> None:
        self.log("warning", event, **fields)

    def error(self, event: str, **fields: Any) -> None:
        self.log("error", event, **fields)


_loggers: dict[str, StructLogger] = {}


def get_logger(name: str) -> StructLogger:
    """Get-or-create the named logger (module-level convention)."""
    logger = _loggers.get(name)
    if logger is None:
        logger = _loggers[name] = StructLogger(name)
    return logger

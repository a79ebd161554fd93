"""``fleet_service``: a ``repro serve --workers 2`` process on a fresh
service root, fed by two closed-loop clients: two submissions outstanding,
the next one sent when one reaches ``done``.

The seeded trace is tiny missions (2 days, 2 h of daytime, 5 s frames,
no events), so the service's own overhead is a large share of each job.
Most submissions are new fingerprints, which compute cold and write the
cache and journal.  Some are exact duplicates, which registry dedup
answers.  Some resubmit the config just submitted under another quality
mode: the two run together and share one checkpoint journal, so one of
them meets the other's journal lease, fails with ``JournalBusyError``
and is retried after a backoff, reading the stored days back.  This is
the only workload that loads ``repro.service`` and the journal.
"""

from __future__ import annotations

import dataclasses
import random
import resource
import signal
import sqlite3
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Optional

from perfbench import checks, hooks
from perfbench.common import HERE, ROOT, Measured, count_quarantined
from perfbench.digest import digest
from perfbench.missions import mission_seeds, tiny_config
from perfbench.spans import REQUEST, Span, Tracer, clock, load_spans, propagate_requests

#: Closed-loop clients, i.e. submissions outstanding at once.
CLIENTS = 2
#: Service worker count, as in ``repro serve --workers 2``.
WORKERS = 2
#: The trace's mix, chosen rather than taken from recorded traffic: every
#: block of 20 submissions holds 14 new fingerprints, 3 exact duplicates
#: of earlier submissions and 3 quality variants, each sent right after
#: its original.  The units are shuffled per block, so every seed runs
#: the same mix.
BLOCK = (("new",),) * 11 + (("new", "variant"),) * 3 + (("duplicate",),) * 3
#: The original submissions gate; variants ask for another mode.
ORIGINAL_QUALITY = "gate"
VARIANT_QUALITIES = ("auto", "off")
#: Service starts per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: Submissions every phase completes whatever its time budget, so traced
#: and untraced runs of one seed digest the same outputs.
DIGEST_REQUESTS = 12
TRACE_LENGTH = 5000

POLL_S = 0.01
READY_TIMEOUT_S = 60.0
JOB_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0


@dataclasses.dataclass(frozen=True)
class Op:
    """One submission of the trace."""

    index: int
    kind: str  # "new" | "duplicate" | "variant"
    seed: int
    quality: str
    #: The earlier submission a duplicate or variant refers to.
    base: Optional[int] = None


def make_trace(seed: int, length: int = TRACE_LENGTH) -> list[Op]:
    rng = random.Random(seed)
    seeds = mission_seeds(seed)
    kinds: list[str] = []
    while len(kinds) < length:
        block = list(BLOCK)
        rng.shuffle(block)
        kinds += [kind for unit in block for kind in unit]
    ops: list[Op] = []
    for index, kind in enumerate(kinds[:length]):
        if kind == "duplicate" and ops:
            base = ops[rng.randrange(index)]
            ops.append(Op(index, "duplicate", base.seed, base.quality, base.index))
        elif kind == "variant":
            base = ops[-1]  # the new submission it follows in its unit
            ops.append(Op(index, "variant", base.seed,
                          rng.choice(VARIANT_QUALITIES), base.index))
        else:
            ops.append(Op(index, "new", next(seeds), ORIGINAL_QUALITY))
    return ops


class Service:
    """One service process, started through the launcher on a fresh root."""

    def __init__(self, work: Path, spans: bool):
        self.root = Path(tempfile.mkdtemp(dir=work, prefix="service"))
        self.spans = self.root.with_suffix(".spans.json") if spans else None
        self.log = open(self.root.with_suffix(".log"), "wb")
        cmd = [sys.executable, str(HERE / "service_launcher.py"), "--root", str(self.root)]
        if self.spans is not None:
            cmd += ["--spans", str(self.spans)]
        self.client = None
        self.started = clock()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, stdout=self.log,
                                     stderr=subprocess.STDOUT)

    def wait_ready(self) -> float:
        """Seconds from spawn until the health probe reads ``ready``."""
        from repro.service import FleetClient, RegistryUnavailable

        while clock() - self.started < READY_TIMEOUT_S:
            if self.proc.poll() is not None:
                raise RuntimeError(f"service exited with {self.proc.returncode}")
            try:
                if self.client is None:
                    self.client = FleetClient(self.root)
                if self.client.health().get("ready"):
                    return clock() - self.started
            except (RegistryUnavailable, sqlite3.Error):
                pass
            time.sleep(0.005)
        raise RuntimeError("service not ready in time")

    def stop(self) -> None:
        """Stop gracefully (SIGTERM), and wait until the process is gone."""
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


@dataclasses.dataclass
class Session:
    service: Service
    ops: list[Op]


def setup(seed: int, work: Path, repeats: int,
          traced: bool = False) -> tuple[list[float], Session]:
    """Start the service ``repeats`` times; keep the last one running."""
    samples, service = [], None
    for _ in range(repeats):
        if service is not None:
            service.stop()
        service = Service(work, spans=traced)
        try:
            samples.append(service.wait_ready())
        except RuntimeError:
            service.stop()
            raise
    return samples, Session(service, make_trace(seed))


def close(session: Session) -> None:
    session.service.stop()


@dataclasses.dataclass
class _Pending:
    op: Op
    job_id: str
    sent: float
    root: Optional[Span]
    #: Span from the receipt until the client sees ``done``; the job's
    #: service-side spans hang under it.
    wait: Optional[Span]


class Judge:
    """Checks finished submissions against their originals, in trace order.

    An original can finish after a submission that refers to it: a
    duplicate shares its original's job, so the client may read the job
    ``done`` under the duplicate first, and a variant runs beside its
    original and either may win the journal lease.  A finished
    submission therefore waits here until its original has been judged.
    """

    def __init__(self, out: Measured):
        self.out = out
        #: Job id, result digest and content digest of each judged submission.
        self._outcomes: dict[int, dict] = {}
        self._waiting: dict[int, tuple] = {}

    def add(self, op: Op, record, payload: Optional[dict], latency: float,
            failures: list[str]) -> None:
        """One finished submission: the registry row the client saw last,
        its verified result (None when reading it failed) and the failures
        met while reading it."""
        self._waiting[op.index] = (op, record, payload, latency, failures)
        # Ascending order: an original always precedes what refers to it.
        for index in sorted(self._waiting):
            op, record, payload, latency, failures = self._waiting[index]
            if op.base is not None and op.base not in self._outcomes:
                continue
            del self._waiting[index]
            failures = failures + checks.check_job(
                op, record, payload, self._outcomes.get(op.base))
            content = digest((payload["summaries"], payload["pairwise"])) if payload else ""
            self._outcomes[index] = {"job_id": record.job_id, "content_digest": content,
                                    "result_digest": record.result_digest}
            self.out.record(index, latency, payload["badge_days"] if payload else 0,
                            failures, digest((index, op.kind, record.job_id,
                                              record.result_digest, content)))


def measure(session: Session, seed: int, work: Path, seconds: float,
            tracer: Optional[Tracer] = None) -> Measured:
    """Drive the trace for ``seconds``, drain, and stop the service."""
    from repro.exec.integrity import ArtifactError
    from repro.service import ServiceError

    service, ops = session.service, session.ops
    client = service.client
    uninstall = hooks.install(tracer, hooks.CLIENT) if tracer else None
    out = Measured()
    judge = Judge(out)
    pending: dict[int, _Pending] = {}
    job_waits: dict[str, Span] = {}
    submitted = deduped = 0

    def scope(root):
        return tracer.within(root) if root is not None else nullcontext()

    def submit(op: Op) -> _Pending:
        nonlocal submitted, deduped
        root = tracer.begin(REQUEST, request=str(op.index)) if tracer else None
        sent = clock()
        with scope(root):
            receipt = client.submit(tiny_config(op.seed), quality=op.quality)
            wait = tracer.begin("service.wait") if tracer else None
        submitted += 1
        deduped += receipt.deduped
        if root is not None:
            root.request = f"{op.index}:{receipt.job_id}"
            if not receipt.deduped:
                job_waits[receipt.job_id] = wait
        return _Pending(op, receipt.job_id, sent, root, wait)

    def finish(p: _Pending, record, latency: float) -> None:
        if p.wait is not None:
            tracer.finish(p.wait)
        payload, failures = None, []
        if record.state == "done":
            with scope(p.root):
                try:
                    payload = client.result(p.job_id)
                except (ServiceError, ArtifactError) as exc:
                    failures.append(f"submission {p.op.index}: {exc}")
        if p.root is not None:
            tracer.finish(p.root)
        judge.add(p.op, record, payload, latency, failures)

    start = clock()
    next_index = 0
    try:
        while True:
            issuing = clock() - start < seconds or next_index < DIGEST_REQUESTS
            while issuing and len(pending) < CLIENTS:
                pending[next_index] = submit(ops[next_index])
                next_index += 1
            if not pending:
                break
            finished = False
            for index, p in list(pending.items()):
                record = client.status(p.job_id)
                late = clock() - p.sent > JOB_TIMEOUT_S
                if record.terminal or late or service.proc.poll() is not None:
                    finish(pending.pop(index), record, clock() - p.sent)
                    finished = True
            if not finished:
                time.sleep(POLL_S)
        out.wall_s = clock() - start
        out.extra = _registry_figures(client, submitted, deduped)
        out.extra["quarantined"] = count_quarantined(
            service.root / "cache", service.root / "journal")
    finally:
        if uninstall:
            uninstall()
        service.stop()
    # The service processes are this process's only children so far.
    out.child_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    if tracer:
        out.spans = _merge(tracer.spans, service.spans, job_waits)
    return out


def _registry_figures(client, submitted: int, deduped: int) -> dict:
    """Queue wait and execute time summed over jobs, retries and useful
    leases, read from the registry's own timestamps and transition log."""
    queue_wait_s = execute_s = 0.0
    leases = retries = done = 0
    for job in client.registry.jobs():
        transitions = client.registry.transitions(job.job_id)
        running = [at for at, _src, dst, _detail in transitions if dst == "running"]
        finished = [at for at, _src, dst, _detail in transitions if dst == "done"]
        leases += sum(1 for _at, _src, dst, _detail in transitions if dst == "leased")
        retries += max(0, job.attempts - 1)
        if running and finished:
            queue_wait_s += running[0] - job.submitted_at
            execute_s += finished[-1] - running[-1]
            done += 1
    return {
        "queue_wait_s": queue_wait_s,
        "execute_s": execute_s,
        "retries": retries,
        "useful_ratio": done / leases if leases else 0.0,
        "dedup_ratio": deduped / submitted if submitted else 0.0,
    }


def _merge(client_spans: list[Span], spans_file: Optional[Path],
           job_waits: dict[str, Span]) -> list[Span]:
    """Client and service spans in one list.

    Each service-side root (a job's execution or its acknowledgement)
    hangs under the wait span of the submission that created the job, so
    the part of it that outlasts the client's wait (the service thread
    closing its span after the commit the client already saw) is cut off
    instead of overlapping the client's result read.
    """
    spans = list(client_spans)
    if spans_file is not None and spans_file.exists():
        for sp in load_spans(spans_file):
            if sp.parent is None and sp.request in job_waits:
                sp.parent = job_waits[sp.request].span_id
            spans.append(sp)
    propagate_requests(spans)
    return spans

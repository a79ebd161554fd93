"""The fleet trace's mix, and the client loop's order of judging."""

from types import SimpleNamespace

from perfbench import fleet_service
from perfbench.fleet_service import Op, Session


def test_fleet_trace_mix_is_fixed_per_block():
    ops = fleet_service.make_trace(9, 200)
    kinds = [op.kind for op in ops]
    assert kinds.count("new") == 140
    assert kinds.count("duplicate") == kinds.count("variant") == 30
    for op in ops:
        if op.base is not None:
            assert op.base < op.index and ops[op.base].seed == op.seed
        if op.kind == "variant":
            # Sent right after its original, so the two run together.
            assert op.base == op.index - 1 and ops[op.base].kind == "new"
            assert op.quality != ops[op.base].quality
    assert fleet_service.make_trace(9, 200) == ops


class FakeClient:
    """A service whose gated jobs read ``done`` from their second status
    read on, and whose other jobs from their first.

    A duplicate shares its original's job, so the job turns ``done``
    between the original's read and the duplicate's; a quality variant
    finishes before the gated original it follows.  Either way the client
    sees the later submission finish first.
    """

    def __init__(self):
        self.jobs: dict[str, str] = {}
        self.reads: dict[str, int] = {}
        self.registry = SimpleNamespace(jobs=lambda: [])

    def _fingerprint(self, job_id: str) -> str:
        return next(f for f, j in self.jobs.items() if j == job_id)

    def submit(self, cfg, *, quality):
        fingerprint = f"{cfg.seed}/{quality}"
        deduped = fingerprint in self.jobs
        job_id = self.jobs.setdefault(fingerprint, f"job{len(self.jobs)}")
        return SimpleNamespace(job_id=job_id, deduped=deduped)

    def status(self, job_id: str):
        fingerprint = self._fingerprint(job_id)
        self.reads[job_id] = self.reads.get(job_id, 0) + 1
        done = self.reads[job_id] >= (2 if fingerprint.endswith("/gate") else 1)
        return SimpleNamespace(job_id=job_id, fingerprint=fingerprint, error=None,
                               state="done" if done else "running", terminal=done,
                               result_digest=f"digest-{job_id}")

    def result(self, job_id: str) -> dict:
        fingerprint = self._fingerprint(job_id)
        seed = int(fingerprint.split("/")[0])
        return {"fingerprint": fingerprint, "summaries": {(1, 2): seed},
                "pairwise": {}, "badge_days": 4}


def test_a_submission_that_finishes_before_its_original_is_judged_after_it(tmp_path):
    client = FakeClient()
    service = SimpleNamespace(client=client, root=tmp_path, spans=None,
                              proc=SimpleNamespace(poll=lambda: None), stop=lambda: None)
    ops = [Op(0, "new", 1, "gate"), Op(1, "duplicate", 1, "gate", base=0),
           Op(2, "new", 2, "gate"), Op(3, "variant", 2, "off", base=2)]
    ops += [Op(i, "new", i, "gate") for i in range(4, fleet_service.DIGEST_REQUESTS)]
    out = fleet_service.measure(Session(service, ops), 0, tmp_path, 0.0)
    assert out.failures == [] and out.failed == 0
    assert out.attempted == fleet_service.DIGEST_REQUESTS
    assert out.digest(fleet_service.DIGEST_REQUESTS) != "incomplete"
    assert client.jobs["1/gate"] == "job0" and len(client.jobs) == 11

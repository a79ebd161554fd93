"""Tests for primary/backup replication."""

import pytest

from repro.core.engine import Simulator
from repro.core.errors import ConfigError
from repro.support.bus import Network
from repro.support.replication import Replica, ReplicatedService


@pytest.fixture()
def service():
    sim = Simulator()
    net = Network(sim, default_latency_s=0.01)
    svc = ReplicatedService.build(net, sim, heartbeat_s=1.0, failover_timeout_s=3.5)
    return sim, net, svc


class TestReplication:
    def test_updates_replicate_to_backup(self, service):
        sim, net, svc = service
        svc.submit("u1")
        svc.submit("u2")
        sim.run_until(1.0)
        assert svc.backup.state == ["u1", "u2"]

    def test_backup_rejects_writes(self, service):
        sim, net, svc = service
        assert not svc.backup.submit("direct")
        assert svc.backup.rejected_updates == 1

    def test_no_failover_while_primary_alive(self, service):
        sim, net, svc = service
        sim.run_until(30.0)
        assert svc.primary.is_primary and not svc.backup.is_primary


class TestFailover:
    def test_backup_takes_over(self, service):
        sim, net, svc = service
        svc.submit("u1")
        sim.run_until(5.0)
        net.crash("svc-a")
        sim.run_until(15.0)
        assert svc.backup.is_primary
        assert svc.current_primary() is svc.backup

    def test_state_survives_failover(self, service):
        sim, net, svc = service
        svc.submit("u1")
        sim.run_until(5.0)
        net.crash("svc-a")
        sim.run_until(15.0)
        assert svc.submit("u2")
        assert svc.backup.state == ["u1", "u2"]

    def test_failover_within_timeout_bound(self, service):
        sim, net, svc = service
        sim.run_until(5.0)
        net.crash("svc-a")
        sim.run_until(5.0 + 3.5 + 1.5)
        assert svc.backup.took_over_at is not None
        assert svc.backup.took_over_at - 5.0 <= 3.5 + 1.1

    def test_total_failure_rejects_writes(self, service):
        sim, net, svc = service
        net.crash("svc-a")
        net.crash("svc-b")
        sim.run_until(10.0)
        assert svc.current_primary() is None
        assert not svc.submit("u")

    def test_split_brain_resolves_on_heal(self, service):
        sim, net, svc = service
        sim.run_until(2.0)
        net.partition("svc-a", "svc-b")
        sim.run_until(10.0)  # backup promotes itself during the partition
        assert svc.primary.is_primary and svc.backup.is_primary
        net.heal("svc-a", "svc-b")
        sim.run_until(20.0)
        assert svc.primary.is_primary != svc.backup.is_primary


class TestRecovery:
    def test_recovered_backup_does_not_instantly_take_over(self, service):
        """The heartbeat clock must reset on recovery: comparing against
        the pre-crash timestamp would declare the primary dead at once."""
        sim, net, svc = service
        sim.run_until(5.0)
        net.crash("svc-b")
        sim.run_until(60.0)  # long outage >> failover timeout
        net.recover("svc-b")
        sim.run_until(61.0)  # one monitor tick after recovery
        assert not svc.backup.is_primary
        assert svc.backup.took_over_at is None

    def test_recovered_backup_still_fails_over_eventually(self, service):
        """Recovery must restart the monitor, not just reset the clock."""
        sim, net, svc = service
        net.crash("svc-b")
        sim.run_until(10.0)
        net.recover("svc-b")
        sim.run_until(12.0)
        net.crash("svc-a")
        sim.run_until(20.0)
        assert svc.backup.is_primary

    def test_recovered_backup_heartbeats_again(self, service):
        """A recovered *primary-side peer* must resume heartbeating, or
        the backup would failover despite the primary being healthy."""
        sim, net, svc = service
        net.crash("svc-a")
        sim.run_until(10.0)  # backup takes over
        assert svc.backup.is_primary
        net.recover("svc-a")
        sim.run_until(30.0)
        # svc-a heartbeats resumed; svc-b (lexicographically larger,
        # promoted) yields: exactly one primary, no split brain.
        assert svc.primary.is_primary and not svc.backup.is_primary

    def test_failback_records_transitions(self, service):
        sim, net, svc = service
        net.crash("svc-a")
        sim.run_until(10.0)
        net.recover("svc-a")
        sim.run_until(30.0)
        assert [what for _, what in svc.backup.transitions] == ["take-over", "yield"]

    def test_stopped_replica_stays_stopped_through_recovery(self, service):
        """Teardown stops both replicas and drains the queue; a crash that
        outlasts the teardown recovers during that drain.  Restarting the
        heartbeat then would keep the drain from ever ending."""
        sim, net, svc = service
        sim.run_until(5.0)
        svc.primary.stop()
        svc.backup.stop()
        net.crash("svc-a")
        net.recover("svc-a")
        for _ in range(1000):
            if not sim.step():
                break
        assert sim.pending() == 0

    def test_state_syncs_after_recovery(self, service):
        sim, net, svc = service
        svc.submit("u1")
        sim.run_until(1.0)
        net.crash("svc-b")
        sim.run_until(2.0)
        svc.submit("u2")  # accepted while the backup is down
        sim.run_until(3.0)
        net.recover("svc-b")
        sim.run_until(5.0)
        assert svc.backup.state == ["u1", "u2"]

    def test_failover_and_failback_under_partition(self, service):
        """Partition -> both primary; heal -> one; crash cycle -> same."""
        sim, net, svc = service
        net.partition("svc-a", "svc-b")
        sim.run_until(10.0)
        assert svc.primary.is_primary and svc.backup.is_primary
        net.heal("svc-a", "svc-b")
        sim.run_until(20.0)
        assert svc.primary.is_primary != svc.backup.is_primary
        net.crash("svc-a")
        sim.run_until(30.0)
        net.recover("svc-a")
        sim.run_until(50.0)
        assert svc.current_primary() is not None
        assert svc.primary.is_primary != svc.backup.is_primary

    def test_remote_submit_via_bus(self, service):
        sim, net, svc = service
        svc.primary.send(svc.primary.name, "noop")  # warm the bus
        relay_write = lambda: svc.backup.send("svc-a", "submit", "remote-u")
        sim.schedule(1.0, relay_write)
        sim.run_until(2.0)
        assert "remote-u" in svc.primary.state


class TestValidation:
    def test_timeout_must_exceed_heartbeat(self):
        with pytest.raises(ConfigError):
            Replica("r", Simulator(), peer="p", is_primary=True,
                    heartbeat_s=2.0, failover_timeout_s=1.0)

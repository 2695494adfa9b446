"""StaticPolicy wiring through the measurement database and the server."""

import asyncio
import json

from repro.dataflow import analyze_program
from repro.schemes import get_scheme
from repro.service.client import AttestationClient, SimulatedProver
from repro.service.database import MeasurementDatabase
from repro.service.server import AttestationServer
from repro.workloads import get_workload

WORKLOAD = "figure4_loop"


def serve(coro_factory, **server_kwargs):
    async def go():
        server = AttestationServer(**server_kwargs)
        await server.start()
        try:
            return await coro_factory(server)
        finally:
            await server.stop()
    return asyncio.run(go())


async def connected_client(server, device_id="prover-0"):
    client = AttestationClient(
        "127.0.0.1", server.port, device_id,
        SimulatedProver(device_id=device_id))
    await client.connect()
    return client


def _tightened_policy(program):
    """A well-formed policy that rejects the benign run's loop records."""
    workload = get_workload(WORKLOAD)
    _, measurement = get_scheme("lofat").measure_execution(
        program, list(workload.inputs))
    target = next(r for r in measurement.metadata.loops if r.iterations > 0)
    policy = analyze_program(program).policy
    return policy.with_bound(target.entry, 0, target.iterations - 1)


class TestDatabasePolicyKeyspace:
    def test_store_lookup_and_stats(self):
        program = get_workload(WORKLOAD).build()
        policy = analyze_program(program).policy
        database = MeasurementDatabase()
        assert database.lookup_policy(program.digest) is None
        database.store_policy(policy)
        assert database.lookup_policy(program.digest) == policy
        assert database.stats()["policy_entries"] == 1

    def test_json_roundtrip_preserves_policies(self):
        program = get_workload(WORKLOAD).build()
        policy = analyze_program(program).policy
        database = MeasurementDatabase()
        database.store_policy(policy)
        restored = MeasurementDatabase.from_json(database.to_json())
        clone = restored.lookup_policy(program.digest)
        assert clone == policy
        assert clone.policy_digest() == policy.policy_digest()

    def test_empty_database_emits_no_policy_block(self):
        document = json.loads(MeasurementDatabase().to_json())
        assert "policy_entries" not in document


class TestServerPolicyEnforcement:
    def test_first_use_derives_and_persists_policy(self):
        database = MeasurementDatabase()

        async def scenario(server):
            client = await connected_client(server)
            _, verdict = await client.attest_round(WORKLOAD)
            await client.close()
            return verdict

        verdict = serve(scenario, database=database)
        assert verdict.accepted
        program = get_workload(WORKLOAD).build()
        persisted = database.lookup_policy(program.digest)
        assert persisted is not None
        assert persisted == analyze_program(program).policy

    def test_database_policy_wins_and_rejects(self):
        """A policy persisted in the shared database overrides derivation."""
        program = get_workload(WORKLOAD).build()
        database = MeasurementDatabase()
        database.store_policy(_tightened_policy(program))

        async def scenario(server):
            client = await connected_client(server)
            _, verdict = await client.attest_round(WORKLOAD)
            await client.close()
            return verdict

        verdict = serve(scenario, database=database)
        assert not verdict.accepted
        assert verdict.reason == "policy_violation"


"""End-to-end server tests over real sockets.

Each test starts a :class:`~repro.serve.server.ServerThread` on an
ephemeral port (or a UNIX socket) and drives it with the blocking
client — the same stack ``repro client`` and the benchmark use.
"""

import json
import socket
import threading
import time

import pytest

from repro.cli import EXIT_UNAVAILABLE, main
from repro.serve import ServeClient, ServerUnavailable, parse_address
from repro.serve.protocol import encode


def raw_connection(address):
    host, _, port = address.rpartition(":")
    sock = socket.create_connection((host, int(port)), timeout=10.0)
    return sock, sock.makefile("rb")


class TestQueryPath:
    def test_solutions_and_generation(self, server_factory):
        with ServeClient(server_factory().server.address) as client:
            response = client.query("anc(a, X)")
        assert response["status"] == "ok"
        assert response["generation"] == 0
        assert response["count"] == 4
        assert {"X": "b"} in response["solutions"]
        assert response["calls"] > 0

    def test_solution_cap_is_a_clean_stop(self, server_factory):
        with ServeClient(server_factory().server.address) as client:
            response = client.query("spin(A, B, C, D)", limit=7)
        assert response["status"] == "ok"
        assert response["count"] == 7

    def test_parse_error_is_an_error_response(self, server_factory):
        with ServeClient(server_factory().server.address) as client:
            response = client.query("anc(a,")
        assert response["status"] == "error"
        assert response["error"]

    def test_deadline_expiry_is_a_timeout_response(self, server_factory):
        thread = server_factory(drain_timeout=0.5)
        with ServeClient(thread.server.address) as client:
            started = time.perf_counter()
            response = client.query("slow", timeout=0.3)
            elapsed = time.perf_counter() - started
        assert response["status"] == "timeout"
        assert elapsed < 5.0

    def test_caught_deadline_is_still_a_timeout_response(self, server_factory):
        thread = server_factory(drain_timeout=0.5)
        with ServeClient(thread.server.address) as client:
            response = client.query("catch(slow, _, true)", timeout=0.3)
        assert response["status"] == "timeout"

    def test_bad_field_types_are_rejected(self, server_factory):
        with ServeClient(server_factory().server.address) as client:
            assert client.query("anc(a, X)", timeout=-1)["status"] == "error"
            assert client.request({"op": "query", "query": 7})["status"] == "error"

    def test_garbage_line_gets_an_error_response(self, server_factory):
        sock, reader = raw_connection(server_factory().server.address)
        try:
            sock.sendall(b"this is not json\n")
            response = json.loads(reader.readline())
        finally:
            sock.close()
        assert response["status"] == "error"
        assert response["id"] is None

    def test_responses_correlate_by_id_out_of_order(self, server_factory):
        address = server_factory(max_inflight=2).server.address
        sock, reader = raw_connection(address)
        try:
            sock.sendall(encode({
                "op": "query", "id": "slow-one",
                "query": "spin(A, B, C, D)", "limit": 10_000,
            }))
            sock.sendall(encode({
                "op": "query", "id": "fast-one", "query": "anc(a, X)",
            }))
            first = json.loads(reader.readline())
            second = json.loads(reader.readline())
        finally:
            sock.close()
        # The cheap query overtakes the expensive one on the wire.
        assert first["id"] == "fast-one"
        assert second["id"] == "slow-one"
        assert second["count"] == 10_000


class TestUpdatePath:
    def test_update_bumps_generation_and_queries_see_it(self, server_factory):
        with ServeClient(server_factory().server.address) as client:
            assert client.query("anc(a, X)")["count"] == 4
            update = client.update(asserts=["parent(e, f)."])
            assert update["status"] == "ok"
            assert update["generation"] == 1
            assert update["asserted"] == 1
            after = client.query("anc(a, X)")
            assert after["generation"] == 1
            assert after["count"] == 5

    def test_retract_via_update(self, server_factory):
        with ServeClient(server_factory().server.address) as client:
            update = client.update(retracts=["parent(a, b)."])
            assert update["retracted"] == 1
            assert client.query("anc(a, X)")["count"] == 0

    def test_bad_update_source_leaves_generation_standing(self, server_factory):
        with ServeClient(server_factory().server.address) as client:
            response = client.update(asserts=["broken(("])
            assert response["status"] == "error"
            assert client.ping()["generation"] == 0

    def test_empty_update_is_an_error(self, server_factory):
        with ServeClient(server_factory().server.address) as client:
            assert client.update()["status"] == "error"


class TestAdmissionE2E:
    def test_saturated_server_sheds_load(self, server_factory):
        thread = server_factory(max_inflight=1, max_queue=0, drain_timeout=0.5)
        address = thread.server.address
        sock, reader = raw_connection(address)
        try:
            sock.sendall(encode({
                "op": "query", "id": "hog", "query": "slow", "timeout": 2.0,
            }))
            time.sleep(0.3)  # let the hog occupy the only slot
            with ServeClient(address) as client:
                shed = client.query("anc(a, X)")
            assert shed["status"] == "rejected"
            assert "saturated" in shed["error"]
            hog = json.loads(reader.readline())
            assert hog["id"] == "hog"
            assert hog["status"] == "timeout"
        finally:
            sock.close()
        stats = thread.server.stats()
        assert stats["rejected"] == 1

    def test_sustains_concurrent_queries_with_background_updates(
        self, server_factory
    ):
        """The ISSUE's headline demo: >= 8 concurrent in-flight queries
        while updates publish new generations underneath them."""
        thread = server_factory(max_inflight=10, max_queue=10)
        address = thread.server.address
        responses = []
        lock = threading.Lock()
        barrier = threading.Barrier(10)

        def reader_worker():
            with ServeClient(address) as client:
                barrier.wait(timeout=10.0)  # all 10 fire together
                response = client.query("spin(A, B, C, D)", limit=10_000)
            with lock:
                responses.append(response)

        workers = [
            threading.Thread(target=reader_worker) for _ in range(10)
        ]
        for worker in workers:
            worker.start()
        # Publish updates while the readers are in flight.
        with ServeClient(address) as writer:
            for n in range(3):
                assert writer.update(
                    asserts=[f"hotfix{n}(x)."]
                )["status"] == "ok"
        for worker in workers:
            worker.join(timeout=60.0)
        assert len(responses) == 10
        for response in responses:
            assert response["status"] == "ok"
            assert response["count"] == 10_000
        stats = thread.server.stats()
        assert stats["peak_inflight"] >= 8
        assert stats["generation"] == 3


class TestLifecycleEvents:
    def test_request_events_cover_the_lifecycle(self, server_factory):
        thread = server_factory(max_inflight=1, max_queue=0, drain_timeout=0.5)
        address = thread.server.address
        sock, reader = raw_connection(address)
        try:
            sock.sendall(encode({
                "op": "query", "id": "hog", "query": "slow", "timeout": 1.0,
            }))
            time.sleep(0.3)
            with ServeClient(address) as client:
                client.query("anc(a, X)")  # shed
            reader.readline()  # hog's timeout response
        finally:
            sock.close()
        thread.stop()
        events = [e for e in thread.server.events if e.kind == "request"]
        actions = [e.action for e in events]
        assert "admitted" in actions
        assert "started" in actions
        assert "rejected" in actions
        assert "completed" in actions
        completed = [e for e in events if e.action == "completed"]
        assert all(e.seconds is not None for e in completed)
        rejected = [e for e in events if e.action == "rejected"]
        assert rejected[0].status == "rejected"
        assert all(e.generation == 0 for e in events)
        # Every event serializes to one flat JSONL-ready record.
        for event in events:
            record = event.to_record()
            assert record["kind"] == "request"
            json.dumps(record)

    def test_jsonl_log_receives_lifecycle_records(self, server_factory, tmp_path):
        log_path = tmp_path / "requests.jsonl"
        thread = server_factory(log_path=str(log_path))
        with ServeClient(thread.server.address) as client:
            client.query("anc(a, X)")
            client.update(asserts=["extra(x)."])
        thread.stop()
        records = [
            json.loads(line)
            for line in log_path.read_text().splitlines() if line
        ]
        assert all(r["kind"] == "request" for r in records)
        ops = {r["op"] for r in records}
        assert ops == {"query", "update"}
        assert any(
            r["action"] == "completed" and r["generation"] == 1
            for r in records
        )


class TestDrainAndAvailability:
    def test_draining_server_answers_unavailable(self, database):
        import asyncio

        from repro.serve import QueryServer

        server = QueryServer(database)
        server.draining = True

        async def scenario():
            query = await server._run_query(
                {"op": "query", "id": 1, "query": "anc(a, X)"}
            )
            update = await server._run_update(
                {"op": "update", "id": 2, "assert": ["f(x)."]}
            )
            return query, update

        query, update = asyncio.run(scenario())
        assert query["status"] == "unavailable"
        assert update["status"] == "unavailable"

    def test_graceful_drain_finishes_inflight_work(self, server_factory):
        thread = server_factory()
        address = thread.server.address
        result = {}

        def worker():
            with ServeClient(address) as client:
                result["response"] = client.query(
                    "spin(A, B, C, D)", limit=10_000
                )

        runner = threading.Thread(target=worker)
        runner.start()
        time.sleep(0.1)  # request in flight
        thread.stop()
        runner.join(timeout=30.0)
        assert result["response"]["status"] == "ok"
        assert result["response"]["count"] == 10_000

    def test_stats_and_ping(self, server_factory):
        with ServeClient(server_factory().server.address) as client:
            ping = client.ping()
            assert ping["status"] == "ok"
            assert ping["protocol"] == 1
            client.query("anc(a, X)")
            stats = client.stats()
        assert stats["status"] == "ok"
        assert stats["completed"] == 1
        assert stats["engine_calls"] > 0
        assert stats["draining"] is False

    def test_unix_socket_transport(self, server_factory, tmp_path):
        path = str(tmp_path / "repro.sock")
        thread = server_factory(unix_path=path)
        assert thread.server.address == path
        with ServeClient(path) as client:
            assert client.query("anc(a, X)")["count"] == 4
        with ServeClient(f"unix:{path}") as client:
            assert client.ping()["status"] == "ok"


class TestClientAddressing:
    def test_parse_address_forms(self, tmp_path):
        assert parse_address("127.0.0.1:7878") == (
            socket.AF_INET, ("127.0.0.1", 7878)
        )
        assert parse_address(":7878")[1] == ("127.0.0.1", 7878)
        assert parse_address("unix:/tmp/x")[1] == "/tmp/x"
        assert parse_address("/tmp/x")[1] == "/tmp/x"
        with pytest.raises(ServerUnavailable):
            parse_address("nonsense")

    def test_unreachable_server_raises_server_unavailable(self):
        with pytest.raises(ServerUnavailable):
            ServeClient("127.0.0.1:1", connect_timeout=0.5)


class TestCliClient:
    def test_query_round_trip_exit_zero(self, server_factory, capsys):
        address = server_factory().server.address
        code = main(["client", address, "query", "anc(a, X)"])
        assert code == 0
        response = json.loads(capsys.readouterr().out)
        assert response["count"] == 4

    def test_update_then_query_sees_new_generation(self, server_factory, capsys):
        address = server_factory().server.address
        assert main([
            "client", address, "update", "--assert", "parent(e, f).",
        ]) == 0
        assert json.loads(capsys.readouterr().out)["generation"] == 1
        assert main(["client", address, "query", "anc(a, X)"]) == 0
        assert json.loads(capsys.readouterr().out)["count"] == 5

    def test_timeout_maps_to_exit_resource(self, server_factory, capsys):
        thread = server_factory(drain_timeout=0.5)
        code = main([
            "client", thread.server.address, "query", "slow",
            "--timeout", "0.3",
        ])
        assert code == 3
        capsys.readouterr()

    def test_unreachable_server_exits_unavailable(self, capsys):
        code = main(["client", "127.0.0.1:1", "ping"])
        assert code == EXIT_UNAVAILABLE
        assert "error:" in capsys.readouterr().err

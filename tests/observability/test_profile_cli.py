"""End-to-end tests for the ``profile`` command and the JSONL export
paths of ``run`` and ``compare``."""

import json

import pytest

from repro.cli import main
from repro.observability import PIPELINE_PHASES

PROGRAM = """
:- entry(grandmother/2).
wife(john, jane). wife(tom, pat).
mother(john, joan). mother(joan, pat). mother(ann, joan).
girl(jan).
female(W) :- girl(W).
female(W) :- wife(_, W).
grandmother(GC, GM) :- grandparent(GC, GM), female(GM).
grandparent(GC, GP) :- parent(P, GP), parent(GC, P).
parent(C, P) :- mother(C, P).
parent(C, P) :- mother(C, M), wife(P, M).
"""

QUERY = "grandmother(G, pat)"


@pytest.fixture()
def program_file(tmp_path):
    path = tmp_path / "family.pl"
    path.write_text(PROGRAM)
    return str(path)


def load_jsonl(path):
    """Every line must round-trip through ``json.loads``."""
    records = []
    with open(path) as handle:
        for line in handle:
            assert line.endswith("\n")
            records.append(json.loads(line))
    return records


class TestProfileCommand:
    def test_jsonl_round_trips(self, program_file, tmp_path):
        out = str(tmp_path / "profile.jsonl")
        assert main(["profile", program_file, QUERY, "--json", out]) == 0
        records = load_jsonl(out)
        assert all("type" in record for record in records)

    def test_record_inventory(self, program_file, tmp_path):
        out = str(tmp_path / "profile.jsonl")
        main(["profile", program_file, QUERY, "--json", out])
        records = load_jsonl(out)
        types = {}
        for record in records:
            types[record["type"]] = types.get(record["type"], 0) + 1
        assert types["profile"] == 1  # the header, first
        assert records[0]["type"] == "profile"
        assert types["span"] == len(PIPELINE_PHASES)
        assert types["search"] == 1
        assert types["metrics"] == 1
        assert types["solutions"] == 1
        assert types.get("drift", 0) >= 1
        assert types.get("event", 0) > 0

    def test_all_ten_phases_present(self, program_file, tmp_path):
        out = str(tmp_path / "profile.jsonl")
        main(["profile", program_file, QUERY, "--json", out])
        names = [r["name"] for r in load_jsonl(out) if r["type"] == "span"]
        assert sorted(names) == sorted(PIPELINE_PHASES)

    def test_no_calibrate_marks_span_skipped(self, program_file, tmp_path):
        out = str(tmp_path / "profile.jsonl")
        main(["profile", program_file, QUERY, "--json", out, "--no-calibrate"])
        spans = {r["name"]: r for r in load_jsonl(out) if r["type"] == "span"}
        assert spans["calibration"]["skipped"] is True

    def test_event_records_carry_predicates(self, program_file, tmp_path):
        out = str(tmp_path / "profile.jsonl")
        main(["profile", program_file, QUERY, "--json", out])
        records = load_jsonl(out)
        events = [r for r in records if r["type"] == "event"]
        assert "index" in {r["kind"] for r in events}
        boxes = [r for r in records if r["type"] in ("stream", "sample")]
        assert boxes and all("/" in r["predicate"] for r in boxes)

    def test_stderr_summary(self, program_file, capsys):
        main(["profile", program_file, QUERY])
        err = capsys.readouterr().err
        assert "pipeline spans" in err
        assert "drift" in err

    def test_metrics_record_matches_run(self, program_file, tmp_path):
        out = str(tmp_path / "profile.jsonl")
        main(["profile", program_file, QUERY, "--json", out])
        records = load_jsonl(out)
        metrics = next(r for r in records if r["type"] == "metrics")
        solutions = next(r for r in records if r["type"] == "solutions")
        assert metrics["calls"] > 0
        assert solutions["count"] == 2  # john and ann


class TestRunJson:
    def test_run_exports_jsonl(self, program_file, tmp_path):
        out = str(tmp_path / "run.jsonl")
        assert main(["run", program_file, QUERY, "--json", out]) == 0
        records = load_jsonl(out)
        types = {r["type"] for r in records}
        assert {"profile", "metrics", "solutions", "event"} <= types

    def test_run_profile_flag_prints_summary(self, program_file, capsys):
        main(["run", program_file, QUERY, "--profile"])
        assert "events" in capsys.readouterr().err


class TestCompareJson:
    def test_compare_exports_both_runs(self, program_file, tmp_path):
        out = str(tmp_path / "compare.jsonl")
        assert main(["compare", program_file, QUERY, "--json", out]) == 0
        records = load_jsonl(out)
        runs = {r.get("run") for r in records if r["type"] == "metrics"}
        assert runs == {"original", "reordered"}

    def test_zero_call_run_emits_degenerate_record(self, program_file, tmp_path):
        # A control-construct-only query charges no calls on either
        # side: the ratio is undefined, and the export must say so
        # with a machine-readable marker instead of silence.
        out = str(tmp_path / "compare.jsonl")
        main(["compare", program_file, "true", "--json", out])
        records = load_jsonl(out)
        degenerate = [r for r in records if r["type"] == "degenerate"]
        assert {r["run"] for r in degenerate} == {"original", "reordered"}
        for record in degenerate:
            assert record["calls"] == 0
            assert "zero calls" in record["reason"]

    def test_normal_compare_has_no_degenerate_record(self, program_file, tmp_path):
        out = str(tmp_path / "compare.jsonl")
        main(["compare", program_file, QUERY, "--json", out])
        assert not [
            r for r in load_jsonl(out) if r["type"] == "degenerate"
        ]


class TestProfileFollowAndTrace:
    def test_follow_streams_aggregates_and_samples(self, program_file, tmp_path):
        out = str(tmp_path / "follow.jsonl")
        assert (
            main([
                "profile", program_file, QUERY,
                "--follow", "--follow-interval", "0.05",
                "--json", out, "--no-calibrate",
            ])
            == 0
        )
        records = load_jsonl(out)
        types = {r["type"] for r in records}
        assert {"stream", "sample"} <= types
        header = records[0]
        assert header["type"] == "profile"
        # Schema-2 header: sampling accounting is always present.
        assert header["schema"] == 2
        assert "dropped" in header and "sampled_rate" in header
        streams = [r for r in records if r["type"] == "stream"]
        assert all("/" in r["predicate"] for r in streams)
        assert all("total_calls" in r for r in streams)
        samples = [r for r in records if r["type"] == "sample"]
        assert all("cost" in r and "mode" in r for r in samples)

    def test_trace_export_is_loadable_perfetto_json(self, program_file, tmp_path):
        out = str(tmp_path / "profile.jsonl")
        trace = str(tmp_path / "trace.json")
        assert (
            main([
                "profile", program_file, QUERY,
                "--json", out, "--trace", trace, "--no-calibrate",
            ])
            == 0
        )
        with open(trace) as handle:
            document = json.load(handle)
        assert document["traceEvents"]
        names = {event["name"] for event in document["traceEvents"]}
        # Both pipeline spans and engine boxes land in one trace.
        assert "goal search" in names
        assert any("/" in name for name in names)

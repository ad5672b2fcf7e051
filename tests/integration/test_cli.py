"""End-to-end tests for the gpssn command-line interface."""

import json

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "net.json"
    code = main([
        "generate", "--dataset", "UNI",
        "--users", "80", "--pois", "30", "--road-vertices", "80",
        "--seed", "3", "--output", str(path),
    ])
    assert code == 0
    return path


class TestGenerate:
    def test_bundle_created(self, bundle):
        assert bundle.exists()
        assert bundle.stat().st_size > 1000

    def test_realworld_dataset(self, tmp_path, capsys):
        path = tmp_path / "bri.json"
        code = main([
            "generate", "--dataset", "Bri+Cal",
            "--users", "60", "--pois", "25", "--road-vertices", "60",
            "--output", str(path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Bri+Cal" in out


class TestStats:
    def test_prints_table(self, bundle, capsys):
        assert main(["stats", "--input", str(bundle)]) == 0
        out = capsys.readouterr().out
        assert "|V(G_s)|" in out
        assert "80" in out


class TestQuery:
    def test_single_answer(self, bundle, capsys):
        code = main([
            "query", "--input", str(bundle), "--user", "0",
            "--tau", "3", "--gamma", "0.3", "--theta", "0.3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "#1:" in out or "no (S, R) pair" in out
        assert "page accesses" in out

    def test_topk(self, bundle, capsys):
        code = main([
            "query", "--input", str(bundle), "--user", "0",
            "--tau", "3", "--gamma", "0.3", "--theta", "0.3",
            "--topk", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("#") >= 1

    def test_sampled(self, bundle, capsys):
        code = main([
            "query", "--input", str(bundle), "--user", "0",
            "--tau", "3", "--gamma", "0.3", "--theta", "0.3",
            "--sampled", "10",
        ])
        assert code == 0

    def test_metric_option(self, bundle, capsys):
        code = main([
            "query", "--input", str(bundle), "--user", "0",
            "--tau", "2", "--gamma", "0.5", "--theta", "0.2",
            "--metric", "cosine",
        ])
        assert code == 0


class TestFigure:
    def test_fig7d(self, capsys):
        code = main([
            "figure", "--name", "fig7d",
            "--users", "80", "--pois", "30", "--road-vertices", "80",
            "--queries", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "pair pruning power" in out

    def test_table2(self, capsys):
        code = main([
            "figure", "--name", "table2",
            "--users", "60", "--pois", "25", "--road-vertices", "60",
        ])
        assert code == 0
        assert "Bri+Cal" in capsys.readouterr().out


class TestCalibrateAndTune:
    def test_calibrate(self, bundle, capsys):
        code = main([
            "calibrate", "--input", str(bundle), "--samples", "100",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Interest_Score" in out
        assert "giant component share" in out

    def test_tune(self, bundle, capsys):
        code = main(["tune", "--input", str(bundle), "--percentile", "60"])
        assert code == 0
        out = capsys.readouterr().out
        assert "gamma" in out and "theta" in out


class TestExitCodes:
    def test_missing_bundle_is_input_error(self, tmp_path, capsys):
        code = main([
            "query", "--input", str(tmp_path / "nope.json"), "--user", "0",
        ])
        assert code == 2
        assert "cannot load bundle" in capsys.readouterr().err

    def test_invalid_bundle_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        assert main(["stats", "--input", str(path)]) == 2

    def test_wrong_format_is_input_error(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"format": "something-else"}')
        assert main(["query", "--input", str(path), "--user", "0"]) == 2

    def test_unknown_user_is_query_error(self, bundle, capsys):
        code = main([
            "query", "--input", str(bundle), "--user", "999999",
        ])
        assert code == 3
        assert "query error" in capsys.readouterr().err

    def test_no_answer_still_exits_zero(self, bundle, capsys):
        code = main([
            "query", "--input", str(bundle), "--user", "0",
            "--tau", "3", "--gamma", "0.99", "--theta", "0.99",
            "--radius", "0.51",
        ])
        assert code == 0

    @pytest.mark.parametrize("command", ["serve", "batch"])
    def test_thread_backend_is_gone(self, bundle, command, capsys):
        with pytest.raises(SystemExit) as info:
            main([command, "--input", str(bundle), "--backend", "thread"])
        assert info.value.code == 2
        assert "invalid choice: 'thread'" in capsys.readouterr().err

    @pytest.mark.parametrize("window", ["0", "-5"])
    def test_serve_rejects_non_positive_window(self, bundle, window, capsys):
        code = main([
            "serve", "--input", str(bundle), "--port", "0",
            "--window", window,
        ])
        assert code == 2
        assert "window_sec must be > 0" in capsys.readouterr().err


class TestBatch:
    @pytest.fixture(scope="class")
    def queries_file(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("batch") / "queries.jsonl"
        lines = [
            '{"user": 0, "tau": 3, "gamma": 0.3, "theta": 0.3}',
            '{"user": 1, "tau": 3, "gamma": 0.3, "theta": 0.3}',
            '{"user": 0, "tau": 3, "gamma": 0.3, "theta": 0.3}',
        ]
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_serial_batch_writes_outcomes(
        self, bundle, queries_file, tmp_path, capsys
    ):
        out = tmp_path / "out.jsonl"
        code = main([
            "batch", "--input", str(bundle), "--queries", str(queries_file),
            "--output", str(out), "--max-groups", "150",
        ])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 3
        docs = [json.loads(line) for line in lines]
        assert [d["index"] for d in docs] == [0, 1, 2]
        assert all(d["status"] == "ok" for d in docs)
        assert "3 queries, 3 ok" in capsys.readouterr().out

    def test_workers_match_serial_byte_for_byte(
        self, bundle, queries_file, tmp_path
    ):
        serial = tmp_path / "serial.jsonl"
        parallel = tmp_path / "parallel.jsonl"
        args = [
            "batch", "--input", str(bundle), "--queries", str(queries_file),
            "--max-groups", "150",
        ]
        assert main(args + ["--output", str(serial), "--workers", "0"]) == 0
        assert main(args + ["--output", str(parallel), "--workers", "2"]) == 0
        assert serial.read_bytes() == parallel.read_bytes()

    def test_outcomes_to_stdout(self, bundle, queries_file, capsys):
        code = main([
            "batch", "--input", str(bundle), "--queries", str(queries_file),
            "--max-groups", "150",
        ])
        assert code == 0
        captured = capsys.readouterr()
        for line in captured.out.strip().splitlines():
            json.loads(line)  # stdout stays pure JSONL
        assert "batch:" in captured.err

    def test_failed_item_sets_batch_exit_code(
        self, bundle, queries_file, tmp_path
    ):
        queries = tmp_path / "with_bad.jsonl"
        queries.write_text(
            queries_file.read_text() + '{"user": 999999}\n'
        )
        out = tmp_path / "out.jsonl"
        code = main([
            "batch", "--input", str(bundle), "--queries", str(queries),
            "--output", str(out), "--max-groups", "150",
        ])
        assert code == 5
        docs = [json.loads(l) for l in out.read_text().strip().splitlines()]
        assert docs[-1]["status"] == "error"
        assert docs[-1]["error_kind"] == "UnknownEntityError"

    def test_invalid_query_line_is_input_error(self, bundle, tmp_path, capsys):
        queries = tmp_path / "bad.jsonl"
        queries.write_text('{"tau": 3}\n')
        code = main([
            "batch", "--input", str(bundle), "--queries", str(queries),
        ])
        assert code == 2
        assert '"user" key' in capsys.readouterr().err

    def test_unknown_key_is_input_error(self, bundle, tmp_path, capsys):
        queries = tmp_path / "typo.jsonl"
        queries.write_text('{"user": 0, "radius_km": 3}\n')
        code = main([
            "batch", "--input", str(bundle), "--queries", str(queries),
        ])
        assert code == 2
        assert "radius_km" in capsys.readouterr().err

    def test_empty_queries_file_is_input_error(self, bundle, tmp_path):
        queries = tmp_path / "empty.jsonl"
        queries.write_text("\n")
        assert main([
            "batch", "--input", str(bundle), "--queries", str(queries),
        ]) == 2

    def test_timing_adds_measurement_fields(
        self, bundle, queries_file, tmp_path
    ):
        out = tmp_path / "timed.jsonl"
        code = main([
            "batch", "--input", str(bundle), "--queries", str(queries_file),
            "--output", str(out), "--max-groups", "150", "--timing",
        ])
        assert code == 0
        doc = json.loads(out.read_text().splitlines()[0])
        assert "duration_sec" in doc and "worker" in doc

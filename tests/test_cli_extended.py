"""Tests for the extended CLI commands (explain, convert, json-out)."""

import json

import pytest

from repro.cli import main
from repro.graphs import (
    DynamicGraph,
    GraphSnapshot,
    community_pair_graph,
    perturb_weights,
    write_temporal_edge_csv,
)


@pytest.fixture
def graph_file(tmp_path):
    base = community_pair_graph(community_size=10, p_in=0.6, seed=0)
    drifted = perturb_weights(base, 0.02, seed=1)
    matrix = drifted.adjacency.tolil()
    matrix[0, 19] = matrix[19, 0] = 3.0
    graph = DynamicGraph([
        base.with_time("jan"),
        GraphSnapshot(matrix.tocsr(), base.universe, "feb"),
    ])
    path = tmp_path / "graph.csv"
    write_temporal_edge_csv(graph, path)
    return path


class TestExplainCommand:
    def test_explains_node(self, graph_file, capsys):
        assert main(["explain", str(graph_file), "--node", "0"]) == 0
        out = capsys.readouterr().out
        assert "top contributors" in out
        assert "19" in out

    def test_unknown_node(self, graph_file, capsys):
        assert main(["explain", str(graph_file),
                     "--node", "nosuch"]) == 1
        assert "not in the graph" in capsys.readouterr().err

    def test_bad_transition(self, graph_file, capsys):
        assert main(["explain", str(graph_file), "--node", "0",
                     "--transition", "5"]) == 1
        assert "transition" in capsys.readouterr().err


class TestConvertCommand:
    @pytest.mark.parametrize("extension", [".json", ".npz"])
    def test_round_trip_through_format(self, graph_file, tmp_path,
                                       extension, capsys):
        converted = tmp_path / f"graph{extension}"
        assert main(["convert", str(graph_file), str(converted)]) == 0
        assert converted.exists()
        # the converted file is accepted by other commands
        assert main(["info", str(converted)]) == 0
        out = capsys.readouterr().out
        assert "nodes: 20" in out

    def test_bad_destination_extension(self, graph_file, tmp_path,
                                       capsys):
        assert main(["convert", str(graph_file),
                     str(tmp_path / "graph.xml")]) == 1
        assert "extension" in capsys.readouterr().err

    def test_bad_source_extension(self, tmp_path, capsys):
        source = tmp_path / "graph.txt"
        source.write_text("whatever")
        assert main(["convert", str(source),
                     str(tmp_path / "out.json")]) == 1
        assert "extension" in capsys.readouterr().err


class TestJsonOut:
    def test_detect_writes_report(self, graph_file, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        assert main(["detect", str(graph_file), "-l", "2",
                     "--json-out", str(out_path)]) == 0
        document = json.loads(out_path.read_text())
        assert document["format"] == "repro-detection-report"
        assert document["detector"] == "CAD"
        flagged = [t for t in document["transitions"] if t["anomalous"]]
        assert flagged
        assert {"0", "19"} <= set(flagged[0]["nodes"][:4])


class TestServeUsage:
    """Bad serve options exit 1 with a one-line message, checked
    before any port is bound or directory created."""

    @pytest.fixture
    def binds(self, tmp_path, monkeypatch):
        from repro.observability import current_registry, disable, enable
        from repro.service import server

        bound = []
        monkeypatch.setattr(server, "DetectionHTTPServer",
                            lambda *args: bound.append(args))
        monkeypatch.chdir(tmp_path)
        previous = current_registry()
        yield bound
        if previous is None:
            disable()
        else:
            enable(previous)

    @pytest.mark.parametrize("argv, fragment", [
        (["--max-sessions", "0"], "max_sessions must be >= 1"),
        (["--store", "local:x", "--checkpoint-dir", "y"],
         "mutually exclusive"),
    ])
    def test_rejected_before_binding(self, argv, fragment, binds,
                                     tmp_path, capsys):
        assert main(["serve", "--port", "0", *argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and fragment in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert binds == []
        assert list(tmp_path.iterdir()) == []

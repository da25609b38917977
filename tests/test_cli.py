from __future__ import annotations

import pytest

from shapcent.cli import main
from shapcent.graph import load_edge_list

PATH3 = "0 1\n1 2\n"


@pytest.fixture
def path3_file(tmp_path):
    p = tmp_path / "path3.txt"
    p.write_text(PATH3)
    return str(p)


class TestExactCommand:
    def test_fringe_scores(self, path3_file, capsys):
        assert main(["exact", "--game", "g1", "--input", path3_file]) == 0
        out = capsys.readouterr().out
        assert out == "0,0.833333333333\n1,1.33333333333\n2,0.833333333333\n"

    def test_output_file_and_tsv(self, path3_file, tmp_path):
        out = tmp_path / "scores.tsv"
        rc = main(
            [
                "exact", "--game", "g4", "--decay", "inv-linear",
                "--input", path3_file, "--output", str(out), "--format", "tsv",
            ]
        )
        assert rc == 0
        rows = out.read_text().splitlines()
        assert rows[0].split("\t")[0] == "0"
        assert float(rows[1].split("\t")[1]) == pytest.approx(19 / 18, abs=1e-10)

    def test_per_node_parameter_file(self, path3_file, tmp_path, capsys):
        kfile = tmp_path / "k.csv"
        kfile.write_text("0,1\n1,2\n2,1\n")
        rc = main(
            ["exact", "--game", "g2", "--input", path3_file, "--k-file", str(kfile)]
        )
        assert rc == 0
        assert len(capsys.readouterr().out.splitlines()) == 3

    @pytest.mark.parametrize("line", ["99,1", "-4,2"])
    def test_parameter_file_unknown_node_exit_2(self, path3_file, tmp_path, capsys, line):
        kfile = tmp_path / "k.csv"
        kfile.write_text(f"0,1\n1,2\n2,1\n{line}\n")
        rc = main(
            ["exact", "--game", "g2", "--input", path3_file, "--k-file", str(kfile)]
        )
        assert rc == 2
        assert "outside [0, 3)" in capsys.readouterr().err

    def test_missing_game_parameter_is_data_error(self, path3_file, capsys):
        assert main(["exact", "--game", "g2", "--input", path3_file]) == 2
        assert "requires --k" in capsys.readouterr().err

    def test_unknown_decay_is_data_error(self, path3_file, capsys):
        rc = main(
            ["exact", "--game", "g4", "--decay", "linear", "--input", path3_file]
        )
        assert rc == 2
        assert "unknown decay" in capsys.readouterr().err

    @pytest.mark.parametrize("decay", ["step:inf", "step:1e400"])
    def test_step_decay_that_never_vanishes_exits_2(self, tmp_path, capsys, decay):
        edge = tmp_path / "edge.txt"
        edge.write_text("0 1\n")
        assert main(["exact", "--game", "g4", "--decay", decay, "--directed",
                     "--input", str(edge)]) == 2
        assert "shapcent: error: decay function must vanish" in capsys.readouterr().err

    def test_step_decay_matches_distance_cutoff(self, path3_file, capsys):
        assert main(
            ["exact", "--game", "g4", "--decay", "step:1.0", "--input", path3_file]
        ) == 0
        step_out = capsys.readouterr().out
        assert main(
            ["exact", "--game", "g3", "--d-cutoff", "1.0", "--input", path3_file]
        ) == 0
        cutoff_out = capsys.readouterr().out
        for a, b in zip(step_out.splitlines(), cutoff_out.splitlines()):
            assert float(a.split(",")[1]) == pytest.approx(
                float(b.split(",")[1]), abs=1e-10
            )


class TestErrorPaths:
    def test_usage_error_exit_1(self):
        assert main(["exact", "--input", "x.txt"]) == 1  # --game missing
        assert main(["no-such-command"]) == 1

    def test_bad_edge_file_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("0 0\n")
        assert main(["exact", "--game", "g1", "--input", str(bad)]) == 2
        assert "self-loop" in capsys.readouterr().err

    def test_infinite_weight_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "inf.txt"
        bad.write_text("0 1 1.0\n1 2 inf\n")
        assert main(["exact", "--game", "g3", "--d-cutoff", "1", "--weighted",
                     "--input", str(bad)]) == 2
        assert "line 2: non-finite weight" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "cmd, game_args, stray",
        [
            ("exact", ["--game", "g1", "--decay", "exp"], "--decay"),
            ("exact", ["--game", "g4", "--decay", "exp", "--d-cutoff", "2"], "--d-cutoff"),
            ("exact", ["--game", "g3", "--d-cutoff", "1", "--k", "2"], "--k"),
            ("exact", ["--game", "g5", "--w-cutoff", "1", "--k-file", "k.csv"], "--k-file"),
            ("exact", ["--game", "g2", "--k", "1", "--w-cutoff", "1"], "--w-cutoff"),
            ("exact", ["--game", "g1", "--w-cutoff-file", "w.csv"], "--w-cutoff-file"),
            ("exact", ["--game", "g2", "--k", "1", "--d-cutoff-file", "c.csv"],
             "--d-cutoff-file"),
            ("oracle", ["--game", "g5", "--w-cutoff", "1", "--decay", "exp"], "--decay"),
            ("mc", ["--game", "g1", "--k", "1", "--iters", "5", "--seed", "1"], "--k"),
            ("bench", ["--game", "g1", "--decay", "exp", "--thresholds", "0.5",
                       "--iters", "5", "--seed", "1"], "--decay"),
        ],
    )
    def test_parameter_of_another_game_exit_2(self, path3_file, capsys, cmd, game_args,
                                              stray):
        assert main([cmd, "--input", path3_file, *game_args]) == 2
        err = capsys.readouterr().err
        assert err.startswith("shapcent: error: game g")
        assert f"does not take {stray}\n" in err

    def test_missing_file_exit_2(self, tmp_path):
        assert main(
            ["exact", "--game", "g1", "--input", str(tmp_path / "nope.txt")]
        ) == 2

    def test_oracle_size_refusal_exit_2(self, tmp_path, capsys):
        big = tmp_path / "big.txt"
        rc = main(["gen", "gnp", "-n", "30", "-p", "0.2", "--seed", "1",
                   "--output", str(big)])
        assert rc == 0
        assert main(["oracle", "--game", "g1", "--input", str(big)]) == 2
        assert "enumeration limit" in capsys.readouterr().err

    def test_gnp_requires_p(self, capsys):
        assert main(["gen", "gnp", "-n", "5", "--seed", "1"]) == 2
        assert "requires -p" in capsys.readouterr().err


class TestOracleCommand:
    def test_matches_exact_solver(self, path3_file, capsys):
        assert main(["oracle", "--game", "g1", "--input", path3_file]) == 0
        oracle_out = capsys.readouterr().out
        assert main(["exact", "--game", "g1", "--input", path3_file]) == 0
        assert capsys.readouterr().out == oracle_out


class TestMcCommand:
    def test_deterministic_given_seed(self, path3_file, capsys):
        argv = ["mc", "--game", "g1", "--input", path3_file,
                "--iters", "100", "--seed", "7"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_trace_against_reference(self, path3_file, tmp_path, capsys):
        ref = tmp_path / "ref.csv"
        assert main(["exact", "--game", "g1", "--input", path3_file,
                     "--output", str(ref)]) == 0
        trace = tmp_path / "trace.csv"
        rc = main(
            ["mc", "--game", "g1", "--input", path3_file, "--iters", "50",
             "--seed", "3", "--reference", str(ref), "--trace-out", str(trace),
             "--output", str(tmp_path / "mc.csv")]
        )
        assert rc == 0
        lines = trace.read_text().splitlines()
        assert lines[0] == "iteration,elapsed_ms,max_rel_error"
        assert len(lines) == 11  # 50 iterations / stride 5

    def test_zero_error_stride_exits_2(self, path3_file, tmp_path, capsys):
        ref = tmp_path / "ref.csv"
        assert main(["exact", "--game", "g1", "--input", path3_file,
                     "--output", str(ref)]) == 0
        rc = main(["mc", "--game", "g1", "--input", path3_file, "--iters", "10",
                   "--seed", "1", "--reference", str(ref), "--error-stride", "0"])
        assert rc == 2
        assert "error_stride must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("0,1.0\n1,0.5,3\n", "line 2: expected 2 fields"),
            ("0,1.0\nx,0.5\n", "line 2: non-integer node id"),
            ("0,nan\n1,0.5\n", "line 1: non-finite score"),
        ],
    )
    def test_malformed_reference_exits_2(self, path3_file, tmp_path, capsys, text, message):
        ref = tmp_path / "bad.csv"
        ref.write_text(text)
        rc = main(["mc", "--game", "g1", "--input", path3_file, "--iters", "10",
                   "--seed", "1", "--reference", str(ref)])
        assert rc == 2
        assert message in capsys.readouterr().err


class TestGenCommand:
    def test_round_trip(self, tmp_path, capsys):
        out = tmp_path / "g.txt"
        rc = main(["gen", "complete", "-n", "5", "--seed", "11",
                   "--output", str(out)])
        assert rc == 0
        g = load_edge_list(out.read_text(), weighted=True)
        assert g.node_count == 5 and g.edge_count == 10

    @pytest.mark.parametrize("flag", [["-p", "0.5"], ["--directed"]])
    def test_complete_rejects_gnp_flags(self, flag, capsys):
        assert main(["gen", "complete", "-n", "5", "--seed", "1", *flag]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("shapcent: error: complete takes neither")

    def test_complete_accepts_weighted(self, capsys):
        assert main(["gen", "complete", "-n", "5", "--seed", "1", "--weighted"]) == 0
        assert capsys.readouterr().out.startswith("nodes 5\n")

    def test_gnp_negative_node_count_exit_2(self, capsys):
        assert main(["gen", "gnp", "-n", "-3", "-p", "0.5", "--seed", "1"]) == 2
        assert capsys.readouterr().err == "shapcent: error: negative node count: -3\n"

    def test_gen_is_deterministic(self, capsys):
        argv = ["gen", "gnp", "-n", "12", "-p", "0.3", "--seed", "4"]
        assert main(argv) == 0
        a = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == a

    def test_stdin_input(self, monkeypatch, capsys):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(PATH3))
        assert main(["exact", "--game", "g1", "--input", "-"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 3


class TestBenchCommand:
    def test_writes_report_and_traces(self, tmp_path, capsys):
        graph = tmp_path / "g.txt"
        assert main(["gen", "gnp", "-n", "20", "-p", "0.3", "--seed", "2",
                     "--output", str(graph)]) == 0
        out_dir = tmp_path / "bench"
        rc = main(
            ["bench", "--game", "g1", "--input", str(graph),
             "--thresholds", "0.25", "--runs", "2", "--iters", "2000",
             "--seed", "10", "--out-dir", str(out_dir)]
        )
        assert rc == 0
        assert (out_dir / "report.csv").exists()
        assert (out_dir / "report.txt").exists()
        assert (out_dir / "trace_000.csv").exists()
        assert (out_dir / "trace_001.csv").exists()
        assert "speedup" in capsys.readouterr().out

    @pytest.fixture
    def graph20(self, tmp_path):
        graph = tmp_path / "g.txt"
        assert main(["gen", "gnp", "-n", "20", "-p", "0.3", "--seed", "2",
                     "--output", str(graph)]) == 0
        return str(graph)

    def test_iterations_below_error_stride_exit_2(self, graph20, capsys):
        rc = main(["bench", "--game", "g1", "--input", graph20, "--thresholds", "0.25",
                   "--runs", "1", "--iters", "3", "--seed", "1"])
        assert rc == 2
        assert "below the error stride 5" in capsys.readouterr().err

    @pytest.mark.parametrize("thresholds", ["nan", "0.1,inf", "0", "-0.2"])
    def test_bad_thresholds_exit_2(self, graph20, capsys, thresholds):
        rc = main(["bench", "--game", "g1", "--input", graph20, "--thresholds", thresholds,
                   "--runs", "1", "--iters", "100", "--seed", "1"])
        assert rc == 2
        assert "positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_bad_threads_exit_2(self, graph20, capsys, threads):
        rc = main(["bench", "--game", "g1", "--input", graph20, "--thresholds", "0.25",
                   "--runs", "1", "--iters", "100", "--seed", "1", "--threads", threads])
        assert rc == 2
        assert "workers must be >= 1" in capsys.readouterr().err

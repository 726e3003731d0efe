import json
import time

import pytest

from teride.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_OK,
    f_score,
    gen_synthetic,
    inject_missing,
    main,
    subsample_repo,
)
from teride.errors import InvalidRate
from teride.model import StreamTuple, read_tuples, write_tuples

from .conftest import make_workload


class TestInject:
    def _trace(self, seed=1):
        _, streams = gen_synthetic(d=3, n_streams=2, length=10, vocab_size=30, topic_count=2, seed=seed)
        return [t for rows in streams for t in rows]

    def test_zero_rate_is_identity(self):
        trace = self._trace()
        assert inject_missing(trace, 0.0, 1, seed=3) == trace

    def test_full_rate_one_attr_each(self):
        trace = self._trace()
        out = inject_missing(trace, 1.0, 1, seed=3)
        assert all(len(r.missing) == 1 for r in out)

    def test_partial_rate_counts(self):
        trace = self._trace()
        out = inject_missing(trace, 0.5, 2, seed=3)
        holes = [r for r in out if r.missing]
        assert len(holes) == int(0.5 * len(trace))
        assert all(len(r.missing) == 2 for r in holes)

    def test_seed_replay_is_byte_identical(self, tmp_path):
        trace = self._trace()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_tuples(a, inject_missing(trace, 0.3, 1, seed=9), 3)
        write_tuples(b, inject_missing(trace, 0.3, 1, seed=9), 3)
        assert a.read_bytes() == b.read_bytes()

    def test_rate_validation(self):
        trace = self._trace()
        with pytest.raises(InvalidRate):
            inject_missing(trace, 1.5, 1, seed=0)
        with pytest.raises(InvalidRate):
            inject_missing(trace, 0.5, 3, seed=0)  # m must stay below d


class TestGen:
    def test_same_seed_identical_corpus(self, tmp_path):
        for sub in ("one", "two"):
            rc = main(
                [
                    "gen",
                    "--out-dir",
                    str(tmp_path / sub),
                    "--d",
                    "3",
                    "--streams",
                    "2",
                    "--length",
                    "8",
                    "--vocab",
                    "25",
                    "--topics",
                    "2",
                    "--seed",
                    "5",
                ]
            )
            assert rc == EXIT_OK
        for name in ("repository.csv", "stream_0.csv", "stream_1.csv"):
            assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()

    def test_zero_length_streams_are_header_only(self, tmp_path):
        rc = main(
            [
                "gen",
                "--out-dir",
                str(tmp_path),
                "--d",
                "3",
                "--streams",
                "1",
                "--length",
                "0",
                "--vocab",
                "10",
                "--topics",
                "1",
                "--repo-size",
                "4",
            ]
        )
        assert rc == EXIT_OK
        lines = (tmp_path / "stream_0.csv").read_text().strip().splitlines()
        assert len(lines) == 1

    def test_inject_keeps_the_width_of_a_header_only_stream(self, tmp_path):
        gen = ["gen", "--out-dir", str(tmp_path), "--d", "3", "--streams", "1", "--length", "0",
               "--vocab", "10", "--topics", "1", "--repo-size", "4"]
        assert main(gen) == EXIT_OK
        src = tmp_path / "stream_0.csv"
        for out in (tmp_path / "once.csv", tmp_path / "twice.csv"):
            argv = ["inject", "--input", str(src), "--out", str(out),
                    "--missing-rate", "0.5", "--missing-attrs", "1"]
            assert main(argv) == EXIT_OK
            assert out.read_bytes() == (tmp_path / "stream_0.csv").read_bytes()
            src = out

    def test_cross_stream_duplicates_share_most_tokens(self):
        _, streams = gen_synthetic(d=3, n_streams=2, length=20, vocab_size=40, topic_count=3, seed=8)
        shares = []
        for a, b in zip(streams[0], streams[1]):
            for x, y in zip(a.attrs, b.attrs):
                shares.append(len(x & y) / len(x | y))
        assert sum(shares) / len(shares) > 0.5


class TestSubsample:
    def test_ratio_and_determinism(self):
        repo, _ = make_workload(seed=2, length=10, repo_size=20)
        sub1 = subsample_repo(repo, 0.5, seed=4)
        sub2 = subsample_repo(repo, 0.5, seed=4)
        assert len(sub1) == 10
        assert [s.rid for s in sub1.samples] == [s.rid for s in sub2.samples]

    def test_full_ratio_identity(self):
        repo, _ = make_workload(seed=2, length=10, repo_size=20)
        assert subsample_repo(repo, 1.0, seed=4) is repo

    def test_ratio_validation(self):
        repo, _ = make_workload(seed=2, length=5, repo_size=10)
        with pytest.raises(InvalidRate):
            subsample_repo(repo, 0.0, seed=1)


class TestFScore:
    def test_perfect(self):
        keys = {(1, "a", "b"), (2, "c", "d")}
        assert f_score(keys, set(keys)) == 1.0

    def test_partial(self):
        res = {(1, "a", "b"), (1, "x", "y")}
        truth = {(1, "a", "b"), (2, "c", "d")}
        assert f_score(res, truth) == pytest.approx(0.5)

    def test_empty_cases(self):
        assert f_score(set(), set()) == 1.0
        assert f_score({(1, "a", "b")}, set()) == 0.0


@pytest.fixture
def workspace(tmp_path):
    rc = main(
        [
            "gen",
            "--out-dir",
            str(tmp_path),
            "--d",
            "3",
            "--streams",
            "2",
            "--length",
            "12",
            "--vocab",
            "30",
            "--topics",
            "2",
            "--repo-size",
            "30",
            "--seed",
            "13",
        ]
    )
    assert rc == EXIT_OK
    for sid in (0, 1):
        rc = main(
            [
                "inject",
                "--input",
                str(tmp_path / f"stream_{sid}.csv"),
                "--out",
                str(tmp_path / f"stream_{sid}.csv"),
                "--missing-rate",
                "0.3",
                "--missing-attrs",
                "1",
                "--seed",
                str(20 + sid),
            ]
        )
        assert rc == EXIT_OK
    return tmp_path


def run_args(ws, mode, results, metrics=None, extra=()):
    args = [
        "run",
        "--repo",
        str(ws / "repository.csv"),
        "--streams",
        str(ws / "stream_0.csv"),
        str(ws / "stream_1.csv"),
        "--keywords",
        "topic0",
        "--alpha",
        "0.2",
        "--rho",
        "0.6",
        "--window",
        "5",
        "--mode",
        mode,
        "--results",
        str(results),
    ]
    if metrics:
        args += ["--metrics", str(metrics)]
    args += list(extra)
    return args


class TestRunAndBench:
    def test_detect_and_pivots_write_files(self, workspace):
        rules = workspace / "rules.txt"
        pivots = workspace / "pivots.txt"
        assert main(["detect", "--repo", str(workspace / "repository.csv"), "--out", str(rules)]) == EXIT_OK
        assert main(["pivots", "--repo", str(workspace / "repository.csv"), "--out", str(pivots)]) == EXIT_OK
        assert rules.read_text().strip()
        assert pivots.read_text().startswith("PARAMS P=10")

    def test_engine_equals_oracle_results_files(self, workspace):
        out_e = workspace / "engine.jsonl"
        out_o = workspace / "oracle.jsonl"
        assert main(run_args(workspace, "engine", out_e)) == EXIT_OK
        assert main(run_args(workspace, "oracle", out_o)) == EXIT_OK
        assert out_e.read_bytes() == out_o.read_bytes()

    def test_precomputed_rules_and_pivots_reused(self, workspace):
        rules = workspace / "rules.txt"
        pivots = workspace / "pivots.txt"
        main(["detect", "--repo", str(workspace / "repository.csv"), "--out", str(rules)])
        main(["pivots", "--repo", str(workspace / "repository.csv"), "--out", str(pivots)])
        out_a = workspace / "a.jsonl"
        out_b = workspace / "b.jsonl"
        assert main(run_args(workspace, "engine", out_a)) == EXIT_OK
        assert (
            main(
                run_args(
                    workspace,
                    "engine",
                    out_b,
                    extra=["--rules", str(rules), "--pivots", str(pivots)],
                )
            )
            == EXIT_OK
        )
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_metrics_report_f_score_one_against_own_results(self, workspace):
        out = workspace / "r.jsonl"
        metrics = workspace / "m.json"
        assert main(run_args(workspace, "engine", out)) == EXIT_OK
        assert (
            main(
                run_args(
                    workspace, "engine", out, metrics=metrics, extra=["--groundtruth", str(out)]
                )
            )
            == EXIT_OK
        )
        rec = json.loads(metrics.read_text())
        assert rec["schema"] == 3
        assert rec["f_score"] == 1.0
        assert "pruning_power_by_stage" in rec

    def test_keywords_are_tokenized_like_values(self, workspace):
        lower = workspace / "lower.jsonl"
        upper = workspace / "upper.jsonl"
        assert main(run_args(workspace, "engine", lower)) == EXIT_OK
        args = run_args(workspace, "engine", upper)
        args[args.index("--keywords") + 1] = "TOPIC0"
        assert main(args) == EXIT_OK
        assert '"kind": "match"' in lower.read_text()
        assert upper.read_bytes() == lower.read_bytes()

    def test_bench_reports_both_modes(self, workspace):
        metrics = workspace / "bench.json"
        args = run_args(workspace, "engine", workspace / "ignored.jsonl", metrics=metrics)
        args[0] = "bench"
        # bench has no --mode/--results/--groundtruth flags
        for flag in ("--mode", "--results"):
            i = args.index(flag)
            del args[i : i + 2]
        assert main(args) == EXIT_OK
        rec = json.loads(metrics.read_text())
        assert rec["schema"] == 2
        assert set(rec["modes"]) == {"engine", "noindex"}
        assert all(m["schema"] == 3 and "sim_ub_single" in m["stage_counts"] for m in rec["modes"].values())
        assert rec["speedup"] > 0

    def test_results_jsonl_schema(self, workspace):
        out = workspace / "r.jsonl"
        assert main(run_args(workspace, "engine", out)) == EXIT_OK
        for line in out.read_text().splitlines():
            rec = json.loads(line)
            assert set(rec) == {"ts", "kind", "rid_a", "rid_b", "prob"}
            assert rec["kind"] in ("match", "expire")


class TestExitCodes:
    def test_config_error_is_2(self, workspace):
        out = workspace / "r.jsonl"
        args = run_args(workspace, "engine", out)
        args[args.index("--rho") + 1] = "2.0"  # gamma outside (0, d)
        assert main(args) == EXIT_CONFIG

    @pytest.mark.parametrize("keywords", ["", ","], ids=["empty", "comma"])
    def test_keywords_without_a_token_are_2(self, workspace, keywords):
        args = run_args(workspace, "engine", workspace / "r.jsonl")
        args[args.index("--keywords") + 1] = keywords
        assert main(args) == EXIT_CONFIG

    def test_missing_file_is_3(self, tmp_path):
        args = [
            "run",
            "--repo",
            str(tmp_path / "absent.csv"),
            "--streams",
            str(tmp_path / "also-absent.csv"),
            "--keywords",
            "k",
            "--alpha",
            "0.1",
            "--rho",
            "0.5",
            "--window",
            "5",
        ]
        assert main(args) == EXIT_IO

    def test_rid_live_on_two_streams_is_2(self, workspace):
        stream_0 = read_tuples(workspace / "stream_0.csv")
        stream_1 = [
            StreamTuple(rid=a.rid, stream_id=b.stream_id, arrival_time=b.arrival_time, attrs=b.attrs)
            for a, b in zip(stream_0, read_tuples(workspace / "stream_1.csv"))
        ]
        write_tuples(workspace / "stream_1.csv", stream_1, 3)
        for mode in ("engine", "oracle"):
            assert main(run_args(workspace, mode, workspace / "r.jsonl")) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "line",
        [
            '{"kind": "match"}',
            "[1, 2]",
            '{"kind": "match", "ts": [1], "rid_a": "a", "rid_b": "b"}',
            '{"kind": "match",',
        ],
        ids=["lacks-keys", "not-an-object", "unhashable-ts", "not-json"],
    )
    def test_malformed_groundtruth_is_2(self, workspace, capsys, line):
        truth = workspace / "truth.jsonl"
        truth.write_text('{"ts": 1, "kind": "expire", "rid_a": "x"}\n' + line + "\n")
        args = run_args(workspace, "engine", workspace / "r.jsonl", extra=["--groundtruth", str(truth)])
        assert main(args) == EXIT_CONFIG
        assert f"{truth}:2:" in capsys.readouterr().err
        # the ground truth is read before the engine runs, so no results are written
        assert not (workspace / "r.jsonl").exists()

    @pytest.mark.parametrize(
        "verb,flag",
        [
            ("run", "--streams"),
            ("run", "--repo"),
            ("run", "--groundtruth"),
            ("inject", "--input"),
            ("detect", "--repo"),
            ("pivots", "--repo"),
        ],
        ids=["run-streams", "run-repo", "run-groundtruth", "inject-input", "detect-repo", "pivots-repo"],
    )
    def test_file_that_is_not_utf8_is_2(self, workspace, capsys, verb, flag):
        bad = workspace / "bad.bin"
        bad.write_bytes(b"\xff\xfe")
        if flag == "--groundtruth":
            args = run_args(workspace, "engine", workspace / "r.jsonl", extra=[flag, str(bad)])
        elif verb == "run":
            args = run_args(workspace, "engine", workspace / "r.jsonl")
            args[args.index(flag) + 1] = str(bad)
        else:
            args = [verb, flag, str(bad), "--out", str(workspace / "out.txt")]
            if verb == "inject":
                args += ["--missing-rate", "0.5", "--missing-attrs", "1"]
        assert main(args) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"teride: {bad}: ") and "Traceback" not in err

    @pytest.mark.parametrize("length", ["12", "0"], ids=["rows", "header-only"])
    def test_stream_file_of_another_width_is_2(self, workspace, capsys, length):
        gen = ["gen", "--out-dir", str(workspace / "d4"), "--d", "4", "--streams", "1",
               "--length", length, "--vocab", "30", "--topics", "2", "--repo-size", "4"]
        assert main(gen) == EXIT_OK
        wide = workspace / "d4" / "stream_0.csv"
        args = run_args(workspace, "engine", workspace / "r.jsonl")
        args[args.index("--streams") + 2] = str(wide)
        assert main(args) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"teride: {wide}: 4 attributes") and "Traceback" not in err
        assert not (workspace / "r.jsonl").exists()

    def test_one_stream_file_twice_is_2(self, workspace, capsys):
        args = run_args(workspace, "engine", workspace / "r.jsonl")
        at = args.index("--streams")
        args[at + 2] = args[at + 1]
        assert main(args) == EXIT_CONFIG
        assert capsys.readouterr().err == "teride: stream 0: two arrivals at step 1, s0t0 and s0t0\n"
        assert not (workspace / "r.jsonl").exists()

    @pytest.mark.parametrize("verb", ["run", "bench", "detect", "pivots"])
    @pytest.mark.parametrize(
        "kind,message",
        [
            ("header-only", "repository must be non-empty"),
            ("missing-cell", "tuple r0 has missing attributes (2,)"),
        ],
        ids=["header-only", "missing-cell"],
    )
    def test_bad_repository_names_the_file_is_2(self, workspace, capsys, verb, kind, message):
        repo = workspace / "repository.csv"
        lines = repo.read_text().splitlines()
        if kind == "header-only":
            del lines[1:]
        else:
            lines[1] = lines[1].rsplit(",", 1)[0] + ",__MISSING__"
        repo.write_text("\n".join(lines) + "\n")
        if verb in ("run", "bench"):
            args = run_args(workspace, "engine", workspace / "r.jsonl")
            if verb == "bench":
                args = ["bench"] + args[1 : args.index("--mode")]
        else:
            args = [verb, "--repo", str(repo), "--out", str(workspace / "out.txt")]
        assert main(args) == EXIT_CONFIG
        assert capsys.readouterr().err == f"teride: {repo}: {message}\n"

    def test_field_over_the_csv_size_limit_is_2(self, workspace, capsys):
        stream = workspace / "stream_0.csv"
        lines = stream.read_text().splitlines()
        rid, sid, t, *attrs = lines[1].split(",")
        lines[1] = ",".join([rid, sid, t, "x" * 200_000] + attrs[1:])
        stream.write_text("\n".join(lines) + "\n")
        inject = ["inject", "--input", str(stream), "--out", str(workspace / "out.csv"),
                  "--missing-rate", "0.5", "--missing-attrs", "1"]
        assert main(inject) == EXIT_CONFIG
        assert main(run_args(workspace, "engine", workspace / "r.jsonl")) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"{stream}:2:" in err and "field larger than field limit" in err

    @pytest.mark.parametrize(
        "cell,value,message",
        [
            (1, "x", "invalid literal for int()"),
            (2, "x", "invalid literal for int()"),
            (2, "-1", "arrival_time must be non-negative"),
            (3, "!!", "tokenizes to nothing"),
        ],
        ids=["stream-id-not-an-int", "arrival-time-not-an-int", "negative-arrival-time", "empty-value"],
    )
    def test_bad_stream_row_names_the_file_and_line_is_2(self, workspace, capsys, cell, value, message):
        stream = workspace / "stream_0.csv"
        lines = stream.read_text().splitlines()
        cells = lines[3].split(",")
        cells[cell] = value
        lines[3] = ",".join(cells)
        stream.write_text("\n".join(lines) + "\n")
        assert main(run_args(workspace, "engine", workspace / "r.jsonl")) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"{stream}:4: " in err and message in err

    @pytest.mark.parametrize(
        "flag,text",
        [
            ("--rules", "DEP=0 | 5:INT:0.0,0.1 -> [0.0,0.1]\n"),
            ("--pivots", "PIVOT attr=0 idx=0 tokens=w1\n"),
        ],
        ids=["rule-attr-out-of-range", "pivots-for-one-attr"],
    )
    def test_rule_or_pivot_file_outside_the_schema_is_2(self, workspace, capsys, flag, text):
        path = workspace / "file.txt"
        path.write_text(text)
        for mode in ("engine", "oracle"):
            args = run_args(workspace, mode, workspace / "r.jsonl", extra=[flag, str(path)])
            assert main(args) == EXIT_CONFIG
            assert capsys.readouterr().err.startswith(f"teride: {path}: ")
        assert not (workspace / "r.jsonl").exists()

    @pytest.mark.parametrize("bad", ["--rules", "--pivots"])
    def test_rule_and_pivot_files_are_checked_once(self, workspace, capsys, schema_checks, bad):
        files = {"--rules": workspace / "rules.txt", "--pivots": workspace / "pivots.txt"}
        for verb, flag in (("detect", "--rules"), ("pivots", "--pivots")):
            argv = [verb, "--repo", str(workspace / "repository.csv"), "--out", str(files[flag])]
            assert main(argv) == EXIT_OK
        extra = [arg for flag, path in files.items() for arg in (flag, str(path))]
        assert main(run_args(workspace, "engine", workspace / "r.jsonl", extra=extra)) == EXIT_OK
        assert schema_checks == {"check_rules": 1, "check_pivots": 1}
        # a file outside the three-attribute schema: still exit 2 naming that file
        files[bad].write_text(
            "DEP=0 | 5:INT:0.0,0.1 -> [0.0,0.1]\n" if bad == "--rules" else "PIVOT attr=0 idx=0 tokens=w1\n"
        )
        schema_checks.update(dict.fromkeys(schema_checks, 0))
        assert main(run_args(workspace, "engine", workspace / "r.jsonl", extra=extra)) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"teride: {files[bad]}: ") and "Traceback" not in err
        assert schema_checks == {"check_rules": 1, "check_pivots": int(bad == "--pivots")}

    @pytest.mark.parametrize(
        "flag,bad_line",
        [
            ("--pivots", "PIVOT attr=-1 idx=0 tokens=w1"),
            ("--pivots", "PIVOT attr=0 idx={next_idx} tokens="),
            ("--pivots", "PIVOT attr=0 idx={next_idx} tokens=w1++w2"),
            ("--pivots", "PIVOT attr=0 idx=0 tokens=w1"),
            ("--pivots", "PARAMS P=4 eMin=1.5 cntMax=3"),
            ("--pivots", "BOGUS attr=0 idx={next_idx} tokens=w1"),
            ("--pivots", "PIVOT attr=0 idx={next_idx} tokens=w1 extra=1"),
            ("--rules", "DEP=0 | 1:CONST:w1++w2 -> [0.0,0.1]"),
            ("--rules", "DEP=0 | 1:INT:0.0,0.1 -> [nan,nan]"),
            ("--rules", "DEP=0 | 1:INT:0.0,0.1 -> [-5,7]"),
            ("--rules", "DEP=0 | 1:INT:0.0,0.1 -> [0.0,inf]"),
            ("--rules", "{first_line}"),
        ],
        ids=[
            "pivot-negative-attr", "pivot-no-tokens", "pivot-empty-token", "pivot-duplicate",
            "pivot-second-params", "pivot-unknown-kind", "pivot-extra-key",
            "rule-empty-token",
            "rule-dep-nan", "rule-dep-outside", "rule-dep-infinite", "rule-duplicate",
        ],
    )
    def test_bad_line_in_a_valid_rule_or_pivot_file_is_2(self, workspace, capsys, flag, bad_line):
        path = workspace / "file.txt"
        verb = "pivots" if flag == "--pivots" else "detect"
        assert main([verb, "--repo", str(workspace / "repository.csv"), "--out", str(path)]) == EXIT_OK
        text = path.read_text()
        next_idx = text.count("PIVOT attr=0 ")
        bad_line = bad_line.format(next_idx=next_idx, first_line=text.splitlines()[0])
        path.write_text(text + bad_line + "\n")
        for mode in ("engine", "noindex", "oracle"):
            args = run_args(workspace, mode, workspace / "r.jsonl", extra=[flag, str(path)])
            assert main(args) == EXIT_CONFIG
            err = capsys.readouterr().err
            assert err.startswith(f"teride: {path}: ") and "line" in err and "Traceback" not in err
        assert not (workspace / "r.jsonl").exists()

    def test_pivot_file_naming_a_huge_attribute_is_2_at_once(self, workspace, capsys):
        """The reader rejects the unnamed attributes below the one named before
        it builds anything sized by that attribute number."""
        path = workspace / "pivots.txt"
        path.write_text("PIVOT attr=100000000 idx=0 tokens=w1\n")
        t0 = time.perf_counter()
        args = run_args(workspace, "engine", workspace / "r.jsonl", extra=["--pivots", str(path)])
        assert main(args) == EXIT_CONFIG
        assert time.perf_counter() - t0 < 5.0
        err = capsys.readouterr().err
        assert err.startswith(f"teride: {path}: ") and "no pivot for attr 0" in err
        assert "Traceback" not in err
        assert not (workspace / "r.jsonl").exists()

    def test_pivots_with_fewer_than_two_buckets_is_2(self, workspace):
        out = workspace / "pivots.txt"
        argv = ["pivots", "--repo", str(workspace / "repository.csv"), "--p", "1", "--out", str(out)]
        assert main(argv) == EXIT_CONFIG
        assert not out.exists()

    def test_detect_without_determinants_is_2(self, workspace):
        out = workspace / "rules.txt"
        argv = [
            "detect", "--repo", str(workspace / "repository.csv"),
            "--max-determinants", "0", "--out", str(out),
        ]
        assert main(argv) == EXIT_CONFIG
        assert not out.exists()

    def test_bad_usage_is_2(self):
        assert main(["run"]) == EXIT_CONFIG

    def test_unknown_verb_is_2(self):
        assert main(["frobnicate"]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--d", "0"),
            ("--streams", "0"),
            ("--topics", "0"),
            ("--vocab", "2"),
            ("--length", "-1"),
            ("--repo-size", "-1"),
        ],
    )
    def test_gen_arguments_it_cannot_honour_are_2(self, tmp_path, flag, value):
        # with nothing to generate, a check that stops rejecting the value
        # fails this test instead of looping in the generator
        args = {
            "--d": "3", "--streams": "2", "--length": "0", "--repo-size": "0",
            "--vocab": "25", "--topics": "2",
        }
        args[flag] = value
        out = tmp_path / "out"
        argv = ["gen", "--out-dir", str(out)] + [x for kv in args.items() for x in kv]
        assert main(argv) == EXIT_CONFIG
        assert not out.exists()

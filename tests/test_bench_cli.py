"""Benchmark harness and CLI tests."""

import csv
import io
import json
import shlex
from pathlib import Path

import pytest

from pktsched.bench import (CSV_COLUMNS, QUEUE_KINDS, BenchConfig,
                            rows_to_csv, run_bench, run_error_preset,
                            run_error_sweep)
from pktsched.cli import build_parser, main
from pktsched.errors import ConfigError


def tiny_config(**kw):
    defaults = dict(queue="cffs", num_buckets=256, pkts_per_bucket=1.0,
                    repetitions=2, warmup=1, seed=0)
    defaults.update(kw)
    return BenchConfig(**defaults)


def test_bench_config_validation():
    with pytest.raises(ConfigError):
        BenchConfig(queue="mystery")
    with pytest.raises(ConfigError):
        BenchConfig(pkts_per_bucket=1.0, occupancy=0.5)  # both fill modes
    with pytest.raises(ConfigError):
        BenchConfig(pkts_per_bucket=None, occupancy=None)  # neither
    with pytest.raises(ConfigError):
        BenchConfig(pkts_per_bucket=None, occupancy=1.5)
    with pytest.raises(ConfigError):
        BenchConfig(repetitions=0)
    with pytest.raises(ConfigError):
        BenchConfig(queue="approx", num_buckets=525)  # 524 priorities


@pytest.mark.parametrize("queue", QUEUE_KINDS)
def test_run_bench_row_schema(queue):
    row = run_bench(tiny_config(queue=queue))
    for col in CSV_COLUMNS:
        assert col in row
    assert row["mops"] > 0
    assert row["mops_min"] <= row["mops"] <= row["mops_max"]


def test_bench_occupancy_mode():
    row = run_bench(tiny_config(queue="bh", pkts_per_bucket=None,
                                occupancy=0.5))
    assert row["fill_mode"] == "occupancy"
    assert row["fill_value"] == 0.5


def test_approx_bench_reports_error_stats():
    full = run_bench(tiny_config(queue="approx", pkts_per_bucket=None,
                                 occupancy=1.0))
    assert full["mean_abs_err"] == 0.0  # full queue estimates exactly
    other = run_bench(tiny_config(queue="cffs"))
    assert other["mean_abs_err"] == 0.0  # exact queues never err


def test_error_presets():
    assert run_error_preset("even_spacing")["error"] == 0
    assert run_error_preset("all_full")["error"] == 0
    assert run_error_preset("half_plus_outlier")["error"] < 0
    with pytest.raises(ConfigError):
        run_error_preset("mystery")


def test_error_sweep_rows():
    rows = run_error_sweep(occupancies=[0.5, 1.0], seeds=range(2), trials=50)
    assert [r["occupancy"] for r in rows] == [0.5, 1.0]
    assert rows[1]["mean_abs_err"] == 0.0
    assert rows[0]["mean_abs_err"] >= 0.0


def test_rows_to_csv_stable_columns():
    rows = [run_bench(tiny_config())]
    text = rows_to_csv(rows)
    parsed = list(csv.DictReader(io.StringIO(text)))
    assert list(parsed[0]) == CSV_COLUMNS


# -- CLI ------------------------------------------------------------------------

def test_cli_bench_ok(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    code = main(["bench", "--queue", "bh", "--buckets", "128",
                 "--repetitions", "1", "--warmup", "0",
                 "--output", str(out)])
    assert code == 0
    parsed = list(csv.DictReader(io.StringIO(out.read_text())))
    assert parsed[0]["queue"] == "bh"


def test_cli_config_file_overrides_flags(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"buckets": 64, "queue": ["heap"]}))
    out = tmp_path / "bench.csv"
    code = main(["bench", "--queue", "bh", "--buckets", "9999",
                 "--repetitions", "1", "--warmup", "0",
                 "--config", str(cfg), "--output", str(out)])
    assert code == 0
    parsed = list(csv.DictReader(io.StringIO(out.read_text())))
    assert parsed[0]["queue"] == "heap"
    assert parsed[0]["buckets"] == "64"


def test_cli_bench_refuses_a_bad_config_before_any_drain(monkeypatch, capsys):
    """approx holds at most 524 buckets; the heap row must not drain first."""
    calls = []
    monkeypatch.setattr("pktsched.cli.run_bench",
                        lambda cfg: calls.append(cfg) or run_bench(cfg))
    assert main(["bench", "--queue", "heap", "approx", "--buckets", "1000",
                 "--repetitions", "1", "--warmup", "0"]) == 1
    assert calls == []
    assert "approx holds at most" in capsys.readouterr().err


def test_cli_bench_config_queue_must_be_a_list(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"queue": "heap"}))
    out = tmp_path / "bench.csv"
    assert main(["bench", "--buckets", "64", "--repetitions", "1",
                 "--warmup", "0", "--config", str(cfg),
                 "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert "config error: queue must be a list" in err and "'heap'" in err
    assert not out.exists()


def test_cli_config_file_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"polcy": "lqf", "duration_n": 1}))
    assert main(["sim", "--config", str(cfg),
                 "--output", str(tmp_path / "sim.json")]) == 1
    assert "polcy" in capsys.readouterr().err
    assert not (tmp_path / "sim.json").exists()


def test_cli_sim_config_rejects_batch_bytes(tmp_path, capsys):
    """sim serves one packet per dequeue and has no batch flag, so a
    config file that sets batch_bytes is refused, not ignored."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"batch_bytes": 4096}))
    assert main(["sim", "--config", str(cfg), "--duration-ns", "1000000",
                 "--output", str(tmp_path / "sim.json")]) == 1
    assert "'batch_bytes' is not a flag of sim" in capsys.readouterr().err
    assert not (tmp_path / "sim.json").exists()


@pytest.mark.parametrize("command, override", [
    ("bench", {"warmup": "3"}), ("bench", {"warmup": -1}),
    ("bench", {"repetitions": 2.5}), ("bench", {"seeds": "2"}),
    ("bench", {"seeds": 0}), ("bench", {"seed": "1"}),
    ("bench", {"occupancy": "0.5"}),
    ("sim", {"flows": "2"}), ("sim", {"flows": 0}),
    ("sim", {"duration_ns": -5}), ("sim", {"duration_ns": 1.5}),
    ("error-sweep", {"seeds": "2"}), ("error-sweep", {"alpha": "16"}),
    ("error-sweep", {"occupancies": "0.5"}),
    ("error-sweep", {"occupancies": [2.0]}),
    ("sim", {"tree": 5}), ("sim", {"tree": ["x"]}), ("sim", {"tree": True}),
    ("sim", {"seed": [1]}), ("sim", {"seed": 1.5}), ("sim", {"seed": "x"}),
])
def test_cli_config_file_rejects_malformed_values(tmp_path, capsys, command, override):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(override))
    small = {"bench": ["--queue", "bh", "--buckets", "64", "--repetitions", "1",
                       "--warmup", "0"],
             "sim": ["--duration-ns", "1000000"],
             "error-sweep": ["--seeds", "1", "--occupancies", "0.5"]}[command]
    out = tmp_path / "out"
    assert main([command, *small, "--config", str(cfg), "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert "config error:" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    ["--seeds", "0"], ["--occupancies", "2.0"], ["--occupancies", "0"],
    ["--occupancies", "0.5", "-0.1"], ["--alpha", "1"],
])
def test_cli_error_sweep_rejects_malformed_flags(tmp_path, capsys, flags):
    out = tmp_path / "out"
    assert main(["error-sweep", *flags, "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert "config error:" in err and "Traceback" not in err
    assert not out.exists()


def test_cli_sim_hclock(tmp_path):
    out = tmp_path / "sim.json"
    assert main(["sim", "--policy", "hclock", "--duration-ns", "5000000",
                 "--output", str(out)]) == 0
    summary = json.loads(out.read_text())
    assert summary["conserved"] is True
    assert set(summary["per_flow_bytes"]) == {"f0", "f1"}


def test_cli_sim_packet_size(tmp_path):
    out = tmp_path / "sim.json"
    assert main(["sim", "--packet-size", "9000", "--duration-ns", "50000000",
                 "--output", str(out)]) == 0
    per_flow = json.loads(out.read_text())["per_flow_bytes"]
    assert per_flow and all(b > 0 and b % 9000 == 0 for b in per_flow.values())


def test_cli_exit_codes(tmp_path, capsys):
    # config error -> 1
    assert main(["bench", "--queue", "mystery", "--repetitions", "1"]) == 1
    # a bucket count of 0 in a tree file is a config error too
    tree = tmp_path / "tree.json"
    tree.write_text(json.dumps({"policy": "fifo",
                                "nodes": [{"id": "r", "parent": None}],
                                "flows": {"f0": "r"},
                                "shaper": {"num_buckets": 0}}))
    assert main(["sim", "--tree", str(tree), "--duration-ns", "1000"]) == 1
    # so is a node limit that is not a number
    tree.write_text(json.dumps({"policy": "fifo",
                                "nodes": [{"id": "r", "parent": None,
                                           "limit": "5"}],
                                "flows": {"f0": "r", "f1": "r"}}))
    assert main(["sim", "--tree", str(tree), "--duration-ns", "1000"]) == 1
    # a tree or config file that cannot be read or decoded is one as well
    assert main(["sim", "--tree", str(tmp_path / "missing.json")]) == 1
    assert main(["sim", "--tree", str(tmp_path)]) == 1
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"seed": "\xe9"}')
    assert main(["sim", "--config", str(latin1)]) == 1
    assert main(["sim", "--tree", str(latin1)]) == 1
    # an empty tree path, config path or tree object is refused, never
    # replaced by the default FIFO tree
    empty_tree = tmp_path / "empty_tree.json"
    empty_tree.write_text(json.dumps({"tree": {}}))
    for argv in (["sim", "--tree", ""], ["sim", "--config", ""],
                 ["sim", "--config", str(empty_tree)]):
        capsys.readouterr()
        assert main([*argv, "--duration-ns", "1000"]) == 1, argv
        assert capsys.readouterr().err.startswith("config error:"), argv
    # and a workload number out of range: no traceback, hang or silent run
    for flag, value in (("--link-rate", "0"), ("--link-rate", "-5"),
                        ("--arrival-rate", "-5"), ("--flow-cap", "0"),
                        ("--packet-size", "0")):
        assert main(["sim", flag, value, "--duration-ns", "1000000"]) == 1
    assert main(["bench", "--buckets", "0", "--repetitions", "1"]) == 1
    # runtime error (unwritable output path) -> 2
    assert main(["sim", "--duration-ns", "1000000", "--output",
                 str(tmp_path / "missing" / "o.json")]) == 2
    capsys.readouterr()


def test_readme_cli_lines_parse():
    """Every command in README's CLI block is one the parser accepts."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("pktsched ")]
    assert lines
    parser = build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line)[1:])


def test_cli_sim_summary(tmp_path):
    out = tmp_path / "sim.json"
    code = main(["sim", "--policy", "lqf", "--flows", "2",
                 "--duration-ns", "5000000", "--output", str(out)])
    assert code == 0
    summary = json.loads(out.read_text())
    assert summary["conserved"] is True
    assert summary["dequeued"] > 0


def test_cli_error_sweep(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["error-sweep", "--seeds", "2",
                 "--occupancies", "0.5", "1.0", "--output", str(out)])
    assert code == 0
    parsed = list(csv.DictReader(io.StringIO(out.read_text())))
    assert [r["occupancy"] for r in parsed] == ["0.5", "1.0"]


def _tool_module(name):
    import importlib.util
    path = Path(__file__).resolve().parent.parent / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _served_hash_module():
    return _tool_module("served_hash")


def test_crit5_ratio_reports_every_run(monkeypatch, capsys):
    tool = _tool_module("crit5_ratio")
    # one real run: the tool reaches criterion 5's ratio and band
    ratio, band = tool.run_once()
    assert ratio > 0 and band == (0.9, 1.15)
    ratios = iter([1.0, 0.95, 0.89])
    monkeypatch.setattr(tool, "run_once", lambda: (next(ratios), band))
    assert tool.main(["--runs", "3"]) == 1  # 0.89 is outside the band
    out = capsys.readouterr().out.splitlines()
    assert out == ["run 1: approx/cffs 1.000", "run 2: approx/cffs 0.950",
                   "run 3: approx/cffs 0.890",
                   "median 0.950, minimum 0.890, 2 of 3 inside [0.9, 1.15]"]


@pytest.mark.parametrize("trace", [False, True])
def test_ab_bench_trace_compares_the_per_layer_metrics(monkeypatch, tmp_path,
                                                        trace):
    """--trace runs perfbench with --trace 1 and summarises the per_layer
    metrics of BENCHMARK.json in their directions; without it, the
    end-to-end ones."""
    import json
    module = _tool_module("ab_bench")
    spec = json.loads((module.DEFAULT_ROOT / "BENCHMARK.json").read_text())
    section = spec["per_layer" if trace else "end_to_end"]
    calls = []

    def run_once(root, workload, seconds, seed, traced):
        calls.append(traced)
        # the change reads 1.0 on every metric, the parent 2.0
        value = 1.0 if root == module.DEFAULT_ROOT else 2.0
        return {m["name"]: value for m in section}

    monkeypatch.setattr(module, "run_once", run_once)
    out = tmp_path / "ab.json"
    argv = ["--against", str(tmp_path), "--workload", "hclock_256",
            "--pairs", "2", "--seconds", "1", "--json", str(out)]
    assert module.main(argv + ["--trace"] * trace) == 0
    assert calls == [int(trace)] * 4
    report = json.loads(out.read_text())
    assert report["command"].endswith(f"--trace {int(trace)}")
    metrics = report["workloads"]["hclock_256"]["metrics"]
    assert list(metrics) == [m["name"] for m in section]
    for m in section:
        better = 2 if m["better"] == "lower" else 0
        assert metrics[m["name"]]["change_better_pairs"] == better
        # 1.0 against 2.0 is far past every bound, one way or the other;
        # the per-layer metrics carry no bound and get no verdict
        verdict = metrics[m["name"]].get("verdict")
        if "bound" not in m:
            assert verdict is None
        else:
            assert verdict == ("better" if better else "worse than bound")


@pytest.mark.parametrize("extra", [0, 1])
def test_ab_bench_warns_when_paths_differ_in_length(monkeypatch, capsys, extra):
    """A checkout's path length alone moves perfbench's figures, so a
    comparison of two paths of unequal length warns on stderr, and one of
    equal length does not."""
    import json
    module = _tool_module("ab_bench")
    root = str(module.DEFAULT_ROOT)
    against = "/" + "x" * (len(root) - 1 + extra)
    spec = json.loads((module.DEFAULT_ROOT / "BENCHMARK.json").read_text())
    monkeypatch.setattr(module, "run_once", lambda *args: {
        m["name"]: 1.0 for m in spec["end_to_end"]})
    assert module.main(["--against", against, "--workload", "hclock_256",
                        "--pairs", "1", "--seconds", "1"]) == 0
    err = capsys.readouterr().err
    assert ("differ in length" in err) == bool(extra)


@pytest.mark.parametrize("parent, change, direction, expected", [
    # 9 of 10 pairs better and the medians 10 apart, the parent's q3 - q1 5
    (list(range(100, 110)), [p + 10 for p in range(100, 109)] + [99],
     "higher", "better"),
    # 8 of 10 pairs better: unresolved, however far apart the medians
    (list(range(100, 110)), [p + 10 for p in range(100, 108)] + [99, 100],
     "higher", "unresolved"),
    # 10 of 10 better, but the medians only 1 apart against a spread of 5
    (list(range(100, 110)), [p + 1 for p in range(100, 110)],
     "higher", "unresolved"),
    # 19% worse is inside a 20% bound; 21% worse is not
    ([100.0] * 10, [81.0] * 10, "higher", "unresolved"),
    ([100.0] * 10, [79.0] * 10, "higher", "worse than bound"),
    ([100.0] * 10, [121.0] * 10, "lower", "worse than bound"),
    ([100.0] * 10, [90.0] * 10, "lower", "better"),
])
def test_ab_bench_verdict(parent, change, direction, expected):
    """The verdict an end-to-end metric gets under a 20% bound: worse than
    the bound by the medians; better on at least 9 of 10 pairs by more
    than the parent's interquartile spread; otherwise unresolved."""
    module = _tool_module("ab_bench")
    assert module.verdict(parent, change, direction, 0.2) == expected


def test_served_hash_repeated_flags_accumulate():
    parse = _served_hash_module().parse_args
    args = parse(["--seed", "1", "--seed", "2", "3",
                  "--workload", "pfabric_4k", "--workload", "hclock_256"])
    assert args.seed == [1, 2, 3]
    assert args.workload == ["pfabric_4k", "hclock_256"]
    args = parse([])
    assert args.seed == [1, 2, 3] and len(args.workload) == 11
    assert parse(["--seed", "7"]).seed == [7]


def test_served_hash_against_itself_matches(capsys):
    module = _served_hash_module()
    root = str(module.DEFAULT_ROOT)
    assert module.main(["--against", root, "--workload", "hclock_256",
                        "--seed", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("hclock_256 seed 1: ids ")
    assert out[-1] == "identical: 1 of 1 lines"


def test_served_hash_prints_the_sim_lines():
    """Each sim_* line hashes one run_sim trace per seed: every policy and
    seed serves a trace of its own, and the line names how many packets
    it dequeued."""
    module = _served_hash_module()
    args = module.parse_args(["--workload", *module.SIM_NAMES,
                              "--seed", "1", "2"])
    lines = module.replay_lines(module.DEFAULT_ROOT, args)
    assert [line.split(":")[0] for line in lines] == [
        f"{name} seed {seed}" for name in module.SIM_NAMES for seed in (1, 2)]
    traces = set()
    for line in lines:
        _, trace, digest, dequeued, count = line.split()[2:]
        assert (trace, dequeued) == ("trace", "dequeued") and int(count) > 0
        traces.add(digest)
    assert len(traces) == len(lines)


def test_served_hash_against_reports_every_differing_line(monkeypatch, capsys):
    """--against names every line that differs, not only the first, and
    counts the identical ones; one differing line is enough to exit 1."""
    module = _served_hash_module()
    lines = {"a": ["w seed 1: ids 1", "w seed 2: ids 2", "w seed 3: ids 3",
                   "w seed 4: ids 4"],
             "b": ["w seed 1: ids 1", "w seed 2: ids X", "w seed 3: ids 3",
                   "w seed 4: ids Y"]}
    monkeypatch.setattr(module, "replay_lines",
                        lambda root, args: lines[root.name])
    assert module.main(["--root", "a", "--against", "b"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[:4] == lines["a"]
    assert [line.split(":")[0] for line in out[4:6]] == [
        "line 2 differs", "line 4 differs"]
    assert "ids X" in out[4] and "ids Y" in out[5]
    assert out[6:] == ["identical: 2 of 4 lines"]


def test_served_hash_against_exits_2_on_a_failed_replay(monkeypatch, capsys):
    module = _served_hash_module()

    def replay_lines(root, args):
        raise module.subprocess.CalledProcessError(1, "replay", stderr="boom\n")

    monkeypatch.setattr(module, "replay_lines", replay_lines)
    assert module.main(["--root", "a", "--against", "b"]) == 2
    assert capsys.readouterr().err == "boom\n"


@pytest.mark.parametrize("short", ["a", "b"])
def test_served_hash_against_fails_on_unequal_line_counts(monkeypatch, capsys, short):
    """A checkout that prints fewer lines, all matching the other's, is not
    identical: the first line only one side prints is the difference."""
    module = _served_hash_module()
    lines = {"a": ["w seed 1: ids 1", "w seed 2: ids 2"],
             "b": ["w seed 1: ids 1", "w seed 2: ids 2"]}
    lines[short] = lines[short][:1]
    monkeypatch.setattr(module, "replay_lines",
                        lambda root, args: lines[root.name])
    assert module.main(["--root", "a", "--against", "b"]) == 1
    out = capsys.readouterr().out
    assert "line 2 differs" in out and "None" in out
    assert out.endswith("identical: 1 of 2 lines\n")

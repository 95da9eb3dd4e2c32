import argparse
import hashlib
import json
import math
import time

import numpy as np
import pytest

from ldpcount import derive_seed, experiments, mechanisms, oracles, substream
from ldpcount.cli import build_parser, main

BUDGET = ("--eps0", ".5", "--eps1", "1", "--eps2", "1")

# sha256 of stdout at fixed seeds.  A change that moves one of these moves
# the output bytes: say so in CHANGES.md and bump ``documents.SCHEMA``.
GOLDEN = {
    "triangles": (
        ("estimate-triangles", "--gen", "ba:300:3", *BUDGET, "--zeta", ".05",
         "--seed", "42"),
        "74262ffcde5c711b3262dda7327e0ba6d3cc931c305a5f91f5af4d660c596880",
    ),
    "triangles-no-noise": (
        ("estimate-triangles", "--gen", "ba:300:3", "--mode", "no-noise",
         "--seed", "42"),
        "0353823c0e1ebc805bb35e0c025daf1347232b0bc5ff7aa339ea10d925e0b41c",
    ),
    "cycles-k5": (
        ("estimate-cycles", "--gen", "er:30:0.2", "--k", "5", *BUDGET,
         "--zeta", ".05", "--seed", "7"),
        "51fe5db63147f6d3f6ff7ada78210c32b7f4c7a37c8f7835231e0f4087bcb6ef",
    ),
    "cycles-k7": (
        ("estimate-cycles", "--gen", "er:12:0.3", "--k", "7", *BUDGET,
         "--zeta", ".05", "--seed", "7"),
        "41f0bbe5896a767574a95bf823ec4e5ed79820897993727e7f7b0ea0af314181",
    ),
    "experiment-csv": (
        ("experiment", "--task", "triangles", "--gen", "ba:80:3", "--trials", "30",
         "--seed", "11", "--eps0", ".5", "--eps1", "1", "--eps2", ".5",
         "--zeta", ".05"),
        "b60251cc9acc4856480a1ea92011576a407bb7803b33597be3ccbd455b826cc4",
    ),
    "experiment-json": (
        ("experiment", "--task", "cycles", "--k", "5", "--gen", "er:14:0.3",
         "--trials", "5", "--seed", "1", *BUDGET, "--format", "json",
         "--keep-estimates"),
        "40a80e8e22657c089de65b988f3ea4973177745eff7f87b697094ba233540f21",
    ),
    "verify-bounds": (
        ("verify-bounds", "--gen", "ba:80:2", "--orderings", "10", "--eps0", "1",
         "--seed", "3"),
        "01124e0558fe5deb0b09f9ea47ae177edb5cf5b74e59f066034cb73e66864939",
    ),
    "error-scaling": (
        ("error-scaling", "--task", "triangles", "--gen", "ba:{n}:2",
         "--sizes", "20,30,40", "--trials", "5", "--seed", "2", *BUDGET,
         "--format", "json"),
        "73eee8f4892abcfb83364f1cf71898b8f9e9e203b43038f74220869c724383e0",
    ),
    "stats": (
        ("stats", "--gen", "ba:300:3"),
        "0596e2e7c253160b8a0f46fd1a2bb567e49be665028942e07fd417a64328b9f4",
    ),
    # two-digit keys: JSON orders them as strings, "10" before "2"
    "count-exact": (
        ("count-exact", "--gen", "er:13:0.25", "--cycles", "3,9",
         "--paths", "2,9,10,11"),
        "c21f625fd5f54acafe6f4558f4de3debcbd46c439cb75d578e0b551ec25fa417",
    ),
    "gen-graph": (
        ("gen-graph", "--gen", "ktree:50:3"),
        "35aee3250edd2cbb08167463f2c2b7c18c530d9adf41201196acfa2699234802",
    ),
    "cycles-no-noise": (
        ("estimate-cycles", "--gen", "er:30:0.2", "--k", "5", "--mode", "no-noise",
         "--seed", "7"),
        "952cda7cd471b057c5fc8c77f92e9099baad2502f00b94bf3c476e643e55f5ba",
    ),
    "experiment-json-summary": (
        ("experiment", "--task", "triangles", "--gen", "ba:60:3", "--trials", "8",
         "--seed", "5", *BUDGET, "--format", "json"),
        "37b63f79d315ed0dc4d4de1e8e8903e37f0acffae8441176f55b2b2d175bfe41",
    ),
    "error-scaling-csv": (
        ("error-scaling", "--task", "triangles", "--gen", "ba:{n}:2",
         "--sizes", "20,30,40", "--trials", "5", "--seed", "2", *BUDGET),
        "92769acb1f301f350d20215f5e20c6e31360f1e8546ac902399eeb69e2c17181",
    ),
    # the same bytes with --threads 1
    "error-scaling-cycles-threads": (
        ("error-scaling", "--task", "cycles", "--k", "5", "--gen", "ba:{n}:2",
         "--sizes", "12,16,20", "--trials", "3", "--seed", "4", *BUDGET,
         "--format", "json", "--threads", "2"),
        "4e2fbfe72695b95ec267d12db91f3bf15433536e62712596a22fe29871fcd421",
    ),
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_output_bytes(capsys, name):
    argv, digest = GOLDEN[name]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert sha256(out) == digest


def test_substream_golden_draws():
    assert derive_seed(0, 0, 2, 7) == 9464080614848850186
    rng = substream(0, 0, 2, 7)
    assert [rng.random().hex() for _ in range(4)] == [
        "0x1.4bd168b94159cp-3",
        "0x1.1fe71739e2af0p-2",
        "0x1.eb80a955d3d84p-2",
        "0x1.93e4d6f013244p-3",
    ]


def test_the_shared_zero_counter_survives_earlier_streams():
    counter = mechanisms._COUNTER
    assert counter.dtype == np.uint64 and not counter.flags.writeable
    with pytest.raises(ValueError):
        counter[0] = 1
    for user in range(2000):  # each stream advances its own copy of the counter
        rng = substream(3, 1, 1, user)
        rng.random(8)
        assert rng.bit_generator.state["state"]["counter"][0] > 0
    assert counter.tolist() == [0, 0, 0, 0]
    test_substream_golden_draws()


def test_gen_graph_then_stats(tmp_path, capsys):
    path = tmp_path / "g.el"
    code, out, _ = run_cli(capsys, "gen-graph", "--gen", "ba:50:2", "--seed", "3",
                           "--out", str(path))
    assert code == 0
    assert path.read_text().startswith("0 1\n")
    code, out, _ = run_cli(capsys, "stats", "--graph", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 50 and doc["degeneracy"] <= 2
    assert doc["schema"] == 1
    assert doc["arboricity_range"][1] == doc["degeneracy"]


def test_count_exact_triangle_file(tmp_path, capsys):
    path = tmp_path / "tri.el"
    path.write_text("0 1\n0 2\n1 2\n")
    code, out, _ = run_cli(capsys, "count-exact", "--graph", str(path),
                           "--cycles", "3", "--paths", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["triangles"] == 1
    assert doc["cycles"]["3"] == 1
    assert doc["paths"]["2"] == 3


def test_estimate_triangles_deterministic_bytes(tmp_path, capsys):
    path = tmp_path / "g.el"
    run_cli(capsys, "gen-graph", "--gen", "er:20:0.2", "--seed", "5", "--out", str(path))
    args = ("estimate-triangles", "--graph", str(path), "--eps0", ".5",
            "--eps1", "1", "--eps2", "1", "--zeta", ".05", "--seed", "42")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert sha256(out1) == (
        "858e951d964f8c18fc6b8126e8007542fb54b88f448d30b6079706906d29fd1c"
    )
    doc = json.loads(out1)
    assert doc["mode"] == "noisy" and doc["budget"]["eps0"] == 0.5


def test_estimate_cycles_no_noise_warns_loudly(tmp_path, capsys):
    path = tmp_path / "c5.el"
    path.write_text("0 1\n1 2\n2 3\n3 4\n0 4\n")
    code, out, err = run_cli(capsys, "estimate-cycles", "--graph", str(path),
                             "--k", "5", "--mode", "no-noise")
    assert code == 0
    assert "NOT a privacy mechanism" in err
    doc = json.loads(out)
    assert doc["estimate"] == 1.0
    assert doc["k"] == 5 and doc["budget"] is None


@pytest.mark.parametrize("argv", [
    ("estimate-triangles", "--gen", "er:10:0.2"),
    ("estimate-cycles", "--gen", "er:10:0.2", "--k", "5"),
    ("experiment", "--task", "triangles", "--gen", "er:10:0.2", "--trials", "2"),
    ("error-scaling", "--task", "triangles", "--gen", "er:{n}:0.2",
     "--sizes", "10,12,14", "--trials", "2"),
], ids=lambda argv: argv[0])
def test_budget_over_total_rejected_with_exit_1(capsys, argv):
    code, _, err = run_cli(capsys, *argv, "--eps0", "1", "--eps1", "1",
                           "--eps2", "1", "--eps-total", "2")
    assert code == 1
    assert "declared total" in err


@pytest.mark.parametrize("mode", ["noisy", "no-noise"])
@pytest.mark.parametrize("command", [
    ("estimate-triangles",),
    ("estimate-cycles", "--k", "5"),
], ids=lambda argv: argv[0])
def test_empty_graph_rejected_with_exit_1(tmp_path, capsys, command, mode):
    path = tmp_path / "empty.el"
    path.write_text("")
    code, _, err = run_cli(capsys, *command, "--graph", str(path), *BUDGET,
                           "--mode", mode)
    assert code == 1
    assert "0 nodes" in err


def test_missing_budget_flags_exit_1(capsys):
    code, _, err = run_cli(capsys, "estimate-triangles", "--gen", "er:10:0.2")
    assert code == 1
    assert "--eps" in err


def test_usage_error_is_validation_exit_1(capsys):
    code, out, err = run_cli(capsys, "estimate-cycles", "--gen", "er:10:0.2")
    assert code == 1 and out == ""
    assert "error: the following arguments are required: --k" in err
    code, out, err = run_cli(capsys, "estimate-triangles", "--gen", "er:10:0.3",
                             "--eps0", "abc")
    assert code == 1 and out == ""
    assert "error: argument --eps0: invalid float value: 'abc'" in err
    assert run_cli(capsys, "no-such-command")[0] == 1


def test_every_subcommand_argument_has_help():
    (sub,) = (a for a in build_parser()._actions
              if isinstance(a, argparse._SubParsersAction))
    missing = [
        f"{name} {'/'.join(action.option_strings) or action.dest}"
        for name, parser in sub.choices.items()
        for action in parser._actions
        if not action.help
    ]
    assert missing == []


@pytest.mark.parametrize("argv", [
    ("error-scaling", "--task", "triangles", "--gen", "ba:{n}:3", "--trials", "2",
     "--mode", "no-noise", "--sizes", "10,x,30"),
    ("count-exact", "--gen", "er:10:0.3", "--cycles", "3,y"),
], ids=lambda argv: argv[0])
def test_malformed_int_list_names_its_flag_exit_1(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert f"argument {argv[-2]}:" in err and argv[-1] in err


def test_missing_file_exit_1(capsys):
    code, _, err = run_cli(capsys, "stats", "--graph", "/does/not/exist.el")
    assert code == 1


def test_malformed_graph_exit_1(tmp_path, capsys):
    path = tmp_path / "bad.el"
    path.write_text("0 1\n1 1\n")
    code, _, err = run_cli(capsys, "stats", "--graph", str(path))
    assert code == 1
    assert "self-loop" in err


def test_resource_limit_exit_2(capsys):
    code, _, err = run_cli(capsys, "count-exact", "--gen", "er:40:0.6",
                           "--cycles", "10")
    assert code == 2


@pytest.mark.parametrize("big", [99_999_999_999, 2**62, 2**70], ids=repr)
def test_huge_node_id_exit_2(tmp_path, capsys, big):
    # these died with a 745 GiB MemoryError, an int64 key overflow (exit 1)
    # and an OverflowError traceback
    path = tmp_path / "big.el"
    path.write_text(f"0 1\n1 {big}\n")
    code, out, err = run_cli(capsys, "stats", "--graph", str(path))
    assert code == 2
    assert err == f"error: n={big + 1} nodes > NODE_LIMIT=134217728; shrink n\n"
    assert out == ""


@pytest.mark.parametrize("gen", ["er:200000000:0.1", "ba:200000000:3", "ktree:200000000:2"])
def test_generator_above_node_limit_exit_2(monkeypatch, capsys, gen):
    # gen_er once drew a 1.6 GB first row before the limit refused the graph
    def no_draws(seed):
        raise AssertionError("drew before refusing")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    code, out, err = run_cli(capsys, "stats", "--gen", gen)
    assert code == 2
    assert err == "error: n=200000000 nodes > NODE_LIMIT=134217728; shrink n\n"
    assert out == ""


@pytest.mark.parametrize(
    "gen, m",
    [
        ("er:20000:1", 199990000),
        ("ba:100000000:3", 299999991),
        ("ktree:100000000:2", 199999997),
    ],
)
def test_generator_above_edge_limit_exit_2(monkeypatch, capsys, gen, m):
    # er:20000:1 would keep 2e8 edges: tens of GB, then out of memory
    def no_draws(seed):
        raise AssertionError("drew before refusing")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "stats", "--gen", gen)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert err == f"error: m={m} edges > EDGE_LIMIT=33554432; shrink n\n"
    assert out == ""


@pytest.mark.parametrize(
    "command",
    [("estimate-triangles",), ("estimate-cycles", "--k", "5")],
    ids=["estimate-triangles", "estimate-cycles"],
)
def test_dense_limit_exit_2(monkeypatch, capsys, command):
    monkeypatch.setattr(mechanisms, "DENSE_BYTES_LIMIT", 9 * 100 * 100 - 1)
    code, out, err = run_cli(capsys, *command, "--gen", "ba:100:3", *BUDGET)
    assert code == 2
    assert "DENSE_BYTES_LIMIT" in err and out == ""


def test_partial_path_limit_exit_2(monkeypatch, capsys):
    monkeypatch.setattr(oracles, "WALK_LIMIT", 50)
    code, out, err = run_cli(capsys, "count-exact", "--gen", "ba:40:3", "--cycles", "5")
    assert code == 2
    assert "WALK_LIMIT=50 " in err and out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("count-exact", "--gen", "er:60:0.5", "--cycles", "9"),
        ("experiment", "--task", "cycles", "--k", "9", "--gen", "er:60:0.5",
         "--trials", "1", "--eps0", ".5", "--eps1", "1", "--eps2", "1"),
    ],
    ids=["count-exact", "experiment"],
)
def test_oracle_walk_priced_before_it_walks_exit_2(monkeypatch, capsys, argv):
    # the walker's old step counter gave up after about 30 s of walking
    def walker_must_not_run(*args):
        raise AssertionError("walked before the price was checked")

    monkeypatch.setattr(oracles, "_simple_paths", walker_must_not_run)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert err.startswith("error: oracle walks exceed WALK_LIMIT=100000000 ")
    assert out == ""


@pytest.mark.parametrize("command", ["experiment", "error-scaling"])
def test_even_cycle_length_rejected_before_the_oracle(monkeypatch, capsys, command):
    def oracle_must_not_run(*args, **kwargs):
        raise AssertionError("the exact counter ran before k was checked")

    monkeypatch.setattr(experiments, "count_cycles", oracle_must_not_run)
    gen = "ba:600:3" if command == "experiment" else "ba:{n}:3"
    argv = [command, "--task", "cycles", "--k", "8", "--gen", gen, "--trials", "2",
            "--eps0", "1", "--eps1", "1", "--eps2", "1"]
    if command == "error-scaling":
        argv += ["--sizes", "200,400,600"]
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    assert "odd" in err


def test_rr_budget_past_exp_overflow_matches_infinite_budget(capsys):
    def per_user(eps1):
        code, out, err = run_cli(capsys, "estimate-triangles", "--gen", "ba:200:3",
                                 "--eps0", "1", "--eps1", eps1, "--eps2", "1")
        assert code == 0, err
        return json.loads(out)["per_user"]

    assert per_user("800") == per_user("inf")


@pytest.mark.parametrize("command", [
    ("estimate-triangles",),
    ("estimate-cycles", "--k", "5"),
], ids=lambda c: c[0])
@pytest.mark.parametrize("name,value", [
    ("eps0", "1e-320"),  # int(inf) in the degree cap
    ("eps1", "1e-17"),  # unbias divides by e^eps1 - 1 == 0
    ("eps2", "1e-320"),  # infinite noise scales
    ("zeta", "1e-320"),  # n/zeta overflows in the clipping shift
])
def test_budget_below_float64_resolution_exit_1(capsys, command, name, value):
    budget = {"eps0": "1", "eps1": "1", "eps2": "1", name: value}
    argv = [f for k, v in budget.items() for f in (f"--{k}", v)]
    code, out, err = run_cli(capsys, *command, "--gen", "ba:60:3", *argv)
    assert code == 1
    assert out == ""
    assert name in err


def assert_rejected(code, out, err, *names):
    assert code == 1
    assert out == ""
    assert "error:" in err and "Traceback" not in err
    assert all(name in err for name in names)


@pytest.mark.parametrize("command", [
    ("estimate-triangles",),
    ("estimate-cycles", "--k", "5"),
], ids=lambda c: c[0])
def test_tiny_zeta_that_fits_gives_a_finite_estimate(capsys, command):
    code, out, err = run_cli(capsys, *command, "--gen", "ba:60:3", *BUDGET,
                             "--zeta", "1e-300")
    assert code == 0, err
    assert math.isfinite(json.loads(out)["estimate"])


@pytest.mark.parametrize("template", ["ba:{n}:{m}", "ba:{n}:{0}"])
def test_error_scaling_template_with_other_fields_exit_1(capsys, template):
    code, out, err = run_cli(capsys, "error-scaling", "--task", "triangles",
                             "--gen", template, "--sizes", "20,30,40",
                             "--trials", "2", "--mode", "no-noise")
    assert_rejected(code, out, err, "generator spec")


@pytest.mark.parametrize("argv", [
    ("experiment", "--gen", "ba:30:2", "--k", "4"),
    ("error-scaling", "--gen", "ba:{n}:2", "--sizes", "20,30,40", "--k", "7"),
], ids=lambda argv: argv[0])
def test_k_with_triangle_task_exit_1(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--task", "triangles", "--trials", "2",
                             "--mode", "no-noise")
    assert_rejected(code, out, err, "k=")


def test_experiment_on_a_graph_file_matches_its_generator(tmp_path, capsys):
    path = tmp_path / "g.el"
    code, _, _ = run_cli(capsys, "gen-graph", "--gen", "ba:60:3", "--seed", "5",
                         "--out", str(path))
    assert code == 0
    args = ("experiment", "--task", "triangles", "--trials", "4", "--seed", "5",
            *BUDGET, "--format", "json", "--keep-estimates")
    code_file, from_file, _ = run_cli(capsys, *args, "--graph", str(path))
    code_gen, from_gen, _ = run_cli(capsys, *args, "--gen", "ba:60:3")
    assert code_file == code_gen == 0
    assert from_file == from_gen


def test_experiment_csv_golden_header_and_determinism(tmp_path, capsys):
    args = ("experiment", "--task", "triangles", "--gen", "ba:60:3",
            "--trials", "20", "--seed", "7", "--eps0", ".5", "--eps1", "1",
            "--eps2", "1", "--zeta", ".05")
    code, out1, _ = run_cli(capsys, *args)
    assert code == 0
    lines = out1.splitlines()
    assert lines[0] == "exact,mean,rmse,bias,stderr,clipped_fraction"
    assert len(lines) == 2
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    # thread count must not change the bytes
    _, out4, _ = run_cli(capsys, *args, "--threads", "4")
    assert out1 == out4


def test_keep_estimates_with_csv_exit_1(capsys):
    # CSV has no estimates column; the flag was once dropped without a word
    args = ("experiment", "--task", "triangles", "--gen", "ba:30:2", "--trials", "2",
            "--mode", "no-noise", "--keep-estimates")
    for fmt in ((), ("--format", "csv")):
        code, out, err = run_cli(capsys, *args, *fmt)
        assert_rejected(code, out, err, "--keep-estimates", "--format")


def test_experiment_json_format(capsys):
    code, out, _ = run_cli(capsys, "experiment", "--task", "cycles", "--k", "5",
                           "--gen", "er:12:0.3", "--trials", "4", "--seed", "1",
                           "--eps0", ".5", "--eps1", "1", "--eps2", "1",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) >= {"exact", "mean", "rmse", "bias", "stderr", "clipped_fraction"}


def test_verify_bounds_cli(capsys):
    code, out, _ = run_cli(capsys, "verify-bounds", "--gen", "ba:80:2",
                           "--orderings", "10", "--eps0", "1", "--seed", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["orderings"] == 10
    assert doc["chiba_bound_ok"] is True


def test_error_scaling_cli(capsys):
    code, out, _ = run_cli(capsys, "error-scaling", "--task", "triangles",
                           "--gen", "ba:{n}:2", "--sizes", "12,16,20",
                           "--trials", "2", "--seed", "2", "--mode", "no-noise",
                           "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "n,exact,mean,rmse,bias,stderr,clipped_fraction"

import csv
import hashlib
import inspect
import json
import os
import warnings

import mutants
import numpy as np
import pytest
from oracle_reference import check_instance_record

from nshard import cli, verify
from nshard.cli import main
from nshard.intervals import locate
from nshard.oracles import Trajectory
from nshard.schedule import AngleSchedule


def file_hashes(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def test_build_desk(tmp_path):
    out = tmp_path / "o"
    out.mkdir()
    rc = main(["build", "--mode", "desk", "--d", "6", "--k", "4", "--rho", "1e-3",
               "--seed", "7", "--out", str(out)])
    assert rc == 0
    for name in ("instance.txt", "hbar_profile.csv", "f_slices.csv", "config.json"):
        assert (out / name).exists()
    cfg = json.loads((out / "config.json").read_text())
    assert cfg["resolved_k"] == 4
    assert cfg["resolved_N"] == 5
    # config.json and the seed replay the instance that instance.txt records
    inst, _ = cli._instance(cli.RunConfig(**{k: cfg[k] for k in cli.KEYS}),
                            *np.random.SeedSequence(cfg["seed"]).spawn(2))
    rec = check_instance_record(out / "instance.txt", inst)
    assert (rec["d"], rec["mu"], len(rec["bits"])) == ("6", repr(1e-3 / 99000.0), 5)


def test_build_theory_is_cap_free(tmp_path):
    out = tmp_path / "o"
    out.mkdir()
    rc = main(["build", "--mode", "theory", "--T", "1", "--gamma", "1.0", "--d", "4",
               "--seed", "1", "--out", str(out)])
    assert rc == 0
    cfg = json.loads((out / "config.json").read_text())
    assert cfg["log2_inv_rho"] == 256.0
    assert cfg["resolved_k"] == 4
    inst, _ = cli._instance(cli.RunConfig(**{k: cfg[k] for k in cli.KEYS}),
                            *np.random.SeedSequence(cfg["seed"]).spawn(2))
    rec = check_instance_record(out / "instance.txt", inst)
    assert (rec["mu"], rec["w"], len(rec["bits"])) == ("none", "none", 5)


def test_build_missing_out_dir_errors(tmp_path):
    missing = tmp_path / "nope"
    rc = main(["build", "--mode", "desk", "--out", str(missing)])
    assert rc == 2
    assert not missing.exists()


def test_check_passes_and_writes_report(tmp_path):
    out = tmp_path / "o"
    out.mkdir()
    rc = main(["check", "--seed", "0", "--out", str(out)])
    assert rc == 0
    assert (out / "report.csv").exists()
    assert (out / "report.jsonl").exists()


def test_extended_check_passes_every_row(tmp_path):
    # the embedded oracle reads one binary64 table in both precisions, so the
    # forward differences at the valley breakpoints see the kinks the subdifferential reports
    out = tmp_path / "o"
    out.mkdir()
    assert main(["check", "--precision", "extended", "--seed", "0", "--out", str(out)]) == 0
    rows = list(csv.DictReader((out / "report.csv").open()))
    assert len(rows) == 22
    assert [r["check"] for r in rows if r["passed"] != "1"] == []


def test_check_mutation_fails_but_writes_report(tmp_path):
    out = tmp_path / "o"
    out.mkdir()
    with mutants.BY_NAME["table-slope-bump"].patch():
        rc = main(["check", "--seed", "0", "--out", str(out)])
    assert rc == 1
    rows = list(csv.DictReader((out / "report.csv").open()))
    failed = [r["check"] for r in rows if r["passed"] == "0"]
    assert "r-convexity" in failed


# sha256 of report.csv and report.jsonl of `nshard check`, recorded before the suite came to draw
# its samples in row blocks ahead on a worker thread; the blocks are the rows of the one-call draws.
# The extended digest was re-recorded when the schedule's atan(8) - atan(1) and the suite's
# interval gaps came to be taken at the schedule's 50 digits instead of binary64's 53 bits
CHECK_GOLDEN = {
    "--seed 0": ("fffbde53cd062dd6600a9d248e47e14e1c684e1a8c2889d6b57c8b4ed81a188e",
                 "492f0b27e102ae41817260d8435319294de695d189a86c36e9a9c494890cb9cc"),
    "--seed 1": ("66244f2cb26ca5ee2e9363090327b0b73fd3f08fb92caf89dd127aec561284c2",
                 "a26b1fc8b8f72a33394a9b4e5a599d0ba4ca96bd28846a80a9b3e0cbb79f1ed4"),
    "--seed 0 --precision extended": ("e7601a433201dd691b7fbf225f09781ebe554be42a15025923b21a0d2ad56f48",
                                      "2af7dfcb1f5bfea8dee379b89d1d3413fe1c2f2db5e44d195b840fbe85b93941"),
}


@pytest.mark.parametrize("args", sorted(CHECK_GOLDEN))
def test_check_report_matches_golden_digest(tmp_path, args):
    assert main(["check", *args.split(), "--out", str(tmp_path)]) == 0
    hashes = file_hashes(tmp_path)
    assert (hashes["report.csv"], hashes["report.jsonl"]) == CHECK_GOLDEN[args]


def test_run_outputs_and_replay(tmp_path):
    out = tmp_path / "o"
    out.mkdir()
    args = ["run", "--mode", "desk", "--d", "5", "--k", "3", "--rho", "1e-3",
            "--algo", "pgd", "--T", "6", "--seed", "3", "--delta", "0.5", "--out", str(out)]
    assert main(args) == 0
    first = file_hashes(out)
    assert set(first) == {"trajectory.jsonl", "summary.csv", "config.json"}
    lines = (out / "summary.csv").read_text().splitlines()
    assert lines[0] == "t,f,subgrad_norm,f_ge_1,depth,certified,witness_value"
    assert len(lines) == 7
    recs = [json.loads(l) for l in (out / "trajectory.jsonl").read_text().splitlines()]
    assert len(recs) == 6 and recs[0]["x"] == [0.0] * 5
    # replay into the same directory: bit-identical artifacts
    assert main(args) == 0
    assert file_hashes(out) == first


def test_run_certifies_high_value_iterates(tmp_path):
    out = tmp_path / "o"
    out.mkdir()
    assert main(["run", "--mode", "desk", "--d", "5", "--k", "3", "--rho", "1e-3",
                 "--algo", "sgd", "--T", "5", "--seed", "2", "--delta", "0.5",
                 "--out", str(out)]) == 0
    rows = list(csv.DictReader((out / "summary.csv").open()))
    for r in rows:
        if r["f_ge_1"] == "1":
            assert r["certified"] == "1"


@pytest.mark.parametrize("algo", ["pgd", "sgd"])
def test_run_certifies_every_iterate_where_the_flow_steps_over_the_cap_cone(tmp_path, algo):
    # at rho 1e-3 the flow's Euler step delta/1000 is wider than the cap scale rho/99; on these
    # runs it misses the cone at some iterate of each delta, and the fallback points certify them
    for seed in (1, 4, 7, 9, 12):
        for delta in ("0.5", "1.0"):
            out = tmp_path / f"{seed}-{delta}"
            out.mkdir()
            assert main(["run", "--mode", "desk", "--d", "10", "--k", "4", "--rho", "1e-3", "--algo", algo,
                         "--T", "40", "--delta", delta, "--seed", str(seed), "--out", str(out)]) == 0
            rows = list(csv.DictReader((out / "summary.csv").open()))
            assert [r["t"] for r in rows if r["f_ge_1"] == "1" and r["certified"] != "1"] == []


@pytest.mark.parametrize("argv", [
    "build --mode desk --d 6 --k 4 --rho 1e-3 --seed 7",
    "build --mode theory --d 5 --T 3 --seed 2",
    "run --mode desk --d 10 --k 4 --rho 1e-3 --T 20 --algo sgd --delta 1.0 --seed 4",
    "run --mode theory --d 5 --T 3 --algo pgd --seed 2",
    "mc --mode desk --runs 100 --T 8 --d 12 --algo random --seed 0",
])
def test_config_json_replays_its_command(tmp_path, monkeypatch, argv):
    # the written config.json, read back through --config into a fresh directory, gives every file again
    first, again = tmp_path / "first", tmp_path / "again"
    first.mkdir()
    again.mkdir()
    monkeypatch.chdir(first)
    assert main([*argv.split(), "--out", "."]) == 0
    monkeypatch.chdir(again)
    assert main([argv.split()[0], "--config", str(first / "config.json")]) == 0
    assert file_hashes(again) == file_hashes(first)


@pytest.mark.parametrize("key, value", [("log2_inv_rho", 9.0), ("resolved_k", 5), ("resolved_N", 4.0),
                                        ("resolved_N", True), ("mutate", True), ("mutate", 0)])
def test_config_refuses_a_resolved_key_the_settings_do_not_give(tmp_path, capsys, key, value):
    # "mutate" is no longer written at all, so a file carrying it fails the unknown-key rule instead
    out = tmp_path / "o"
    out.mkdir()
    assert main(["build", "--mode", "desk", "--d", "3", "--k", "3", "--rho", "1e-3", "--out", str(out)]) == 0
    cfg = json.loads((out / "config.json").read_text())
    cfg[key] = value
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert main(["build", "--config", str(cfgp), "--out", str(out)]) == 2
    want = "error: unknown config keys: ['mutate']" if key == "mutate" else f"error: config key {key!r} is {value!r}"
    assert capsys.readouterr().err.startswith(want)


def test_config_refuses_the_mutate_key_and_flag(tmp_path, capsys):
    # config.json no longer carries "mutate": false, and a file that still does fails the unknown-key rule
    out = tmp_path / "o"
    out.mkdir()
    assert main(["build", "--mode", "desk", "--d", "3", "--k", "3", "--rho", "1e-3", "--out", str(out)]) == 0
    cfg = json.loads((out / "config.json").read_text())
    assert "mutate" not in cfg
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({**cfg, "mutate": False}))
    capsys.readouterr()
    assert main(["build", "--config", str(cfgp), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: unknown config keys: ['mutate']\n"
    with pytest.raises(SystemExit) as exc:
        main(["check", "--mutate", "--out", str(out)])
    assert exc.value.code == 2


def test_run_unknown_algorithm_from_config(tmp_path):
    out = tmp_path / "o"
    out.mkdir()
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"algo": "annealing"}))
    rc = main(["run", "--config", str(cfgp), "--out", str(out)])
    assert rc == 2


def test_config_file_with_flag_override(tmp_path):
    out = tmp_path / "o"
    out.mkdir()
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"mode": "desk", "d": 4, "k": 3, "rho": 1e-3, "seed": 5, "T": 4}))
    assert main(["build", "--config", str(cfgp), "--seed", "7", "--out", str(out)]) == 0
    cfg = json.loads((out / "config.json").read_text())
    assert cfg["seed"] == 7  # flag wins
    assert cfg["d"] == 4  # file wins over default


def test_config_rejects_unknown_keys(tmp_path):
    out = tmp_path / "o"
    out.mkdir()
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"depth": 9}))
    assert main(["build", "--config", str(cfgp), "--out", str(out)]) == 2


def test_mc_report(tmp_path):
    out = tmp_path / "o"
    out.mkdir()
    rc = main(["mc", "--mode", "desk", "--k", "4", "--rho", "1e-4", "--T", "10",
               "--d", "40", "--algo", "random", "--runs", "100", "--seed", "1",
               "--out", str(out)])
    assert rc == 0
    rows = list(csv.DictReader((out / "mc_report.csv").open()))
    checks = [r["check"] for r in rows]
    assert "hit_within_rho" in checks
    assert "depth_ge_4" in checks
    assert any(c.startswith("jump_ge_") for c in checks)
    assert any(c.startswith("alignment_ge_third") for c in checks)
    for r in rows:
        assert r["vacuous"] in ("0", "1")
        assert float(r["estimate"]) <= 1.0
    assert (out / "mc_report.jsonl").exists()


def test_mc_replay_bit_identical(tmp_path):
    out = tmp_path / "o"
    out.mkdir()
    args = ["mc", "--mode", "desk", "--k", "3", "--rho", "1e-3", "--T", "5", "--d", "10",
            "--algo", "random", "--runs", "100", "--seed", "4", "--out", str(out)]
    assert main(args) == 0
    first = file_hashes(out)
    assert main(args) == 0
    assert file_hashes(out) == first


# sha256 of mc_report.csv, re-recorded when each experiment came to draw from
# one Generator per role (bits, algorithm, directions) in (R, ·) blocks instead
# of one seed per run; the lockstep experiments equal the serial per-run
# references of oracle_reference on that layout; any change to these bytes
# must say why.  pgd and random were re-recorded again when their alignment
# row came to be read from the (a, b, x_d) chain's stream (the directions'
# Generator draws its chi-square folds); sgd's leading part stays 0 from the
# origin and grid runs in d dimensions, so their bytes are unchanged
MC_GOLDEN = {
    "sgd": "2b319e5fb256b4bde23954aaa801ba3f460abfb3afe8b520c57ebd9b8863c675",
    "pgd": "e75a32b9b73e1ba1c4cc082448495a5a66c5752a1c3a8e40c1d8f6ecb4b25dd3",
    "random": "9e6651fb8a0b7015f18ead4ead23b56a6b281c92006a37966ebbf4ec383a8591",
    "grid": "a63ce38e0580e0aa199c032902d880bbf15c8fd1597efd8992151a5aaa93e315",
}


# sha256 of mc_report.jsonl of the same commands, recorded beside MC_GOLDEN when the
# experiments came to return the rows that `nshard mc` writes, from the tree before that change;
# pgd and random re-recorded with MC_GOLDEN, as their alignment row now comes from the chain's stream
MC_JSONL_GOLDEN = {
    "sgd": "f3399424c444bb81a0536b19bb456ad0bd3159ae5ade24a3fa865f31da85d39e",
    "pgd": "2b5bbe3955c5aba1b1185d2db8f936d773df5975a3203b9aa8e3f7238f4fe362",
    "random": "2daabc086815bad2ddd4f33265cbb7190dd7a6050977116cb93218d2c47ed5e7",
    "grid": "0cd9e95654f68336b4e48ff4b2b04f089b3065d1cee0382c5a71416f5edd257f",
}


@pytest.mark.parametrize("algo", sorted(MC_GOLDEN))
def test_mc_report_matches_golden_digest(tmp_path, algo):
    out = tmp_path / "o"
    out.mkdir()
    assert main(["mc", "--mode", "desk", "--runs", "100", "--T", "8", "--d", "12",
                 "--algo", algo, "--seed", "0", "--out", str(out)]) == 0
    assert file_hashes(out)["mc_report.csv"] == MC_GOLDEN[algo]
    assert file_hashes(out)["mc_report.jsonl"] == MC_JSONL_GOLDEN[algo]


# sha256 of mc_report.csv in extended precision, re-recorded with MC_GOLDEN
# for the per-role seed layout, and again as its pgd alignment row now comes
# from the chain's stream
MC_EXTENDED_GOLDEN = "8aac0140dd13ccb03c02ad0c99720851f833a87054181056b168031d8922abf1"


def test_mc_extended_report_matches_golden_digest(tmp_path):
    out = tmp_path / "o"
    out.mkdir()
    assert main(["mc", "--mode", "desk", "--k", "3", "--rho", "1e-3", "--T", "8", "--d", "12", "--algo", "pgd",
                 "--runs", "100", "--precision", "extended", "--seed", "1", "--out", str(out)]) == 0
    assert file_hashes(out)["mc_report.csv"] == MC_EXTENDED_GOLDEN


# sha256 of trajectory.jsonl, recorded from the serial step loop as above;
# mc reports hold only frequencies, which a last-bit change of an iterate
# rarely moves, while these bytes hold every iterate
RUN_GOLDEN = {
    "sgd": "c0b3a3f2e33a24e90679749b2207dd5c513fcf215cd3df8a45040eee0b9ad815",
    "pgd": "5daef2ff8acd0238e26e0b2e684ee441dbce8f32cb53b00b2653d6771ab9af25",
    "random": "ee7000466adb5023aeb3147e7a6817c6141bb05233c30565067519afd70e45a5",
    "grid": "0d705b69305125a1fdf36dbe919c855c6f5791f497a0c1a5781289df194dfaf9",
}


@pytest.mark.parametrize("algo", sorted(RUN_GOLDEN))
def test_run_trajectory_matches_golden_digest(tmp_path, algo):
    out = tmp_path / "o"
    out.mkdir()
    assert main(["run", "--mode", "desk", "--d", "50", "--T", "8", "--delta", "0",
                 "--algo", algo, "--seed", "0", "--out", str(out)]) == 0
    assert file_hashes(out)["trajectory.jsonl"] == RUN_GOLDEN[algo]


# sha256 of summary.csv, recorded once the flow stopped at its first witness;
# the columns before witness_value are the literals below, recorded from the
# full-arc certificate before that, so only witness_value moved
SUMMARY_GOLDEN = {
    "pgd": "f9fe2472ddc3df7ba6fb9e820aff8511e2c3f0ca0097d88d75f593fc27a24525",
    "sgd": "e151f9c3cc1d26c27ab9555412f5c06b3391ca2a1a2f899a14f54a1d3f780d31",
}
SUMMARY_HEAD = {
    "pgd": """t,f,subgrad_norm,f_ge_1,depth,certified
1,1.156626237365089,0.2445419028328545,1,0,1
2,1.1491632657958406,0.24653053510896628,1,0,1
3,1.1411133269064795,0.24653053510896628,1,0,1
4,1.1371553128120024,0.24653053510896628,1,0,1
5,1.1357785332079045,0.24653053510896628,1,0,1
6,1.1333319072168446,0.24653053510896628,1,0,1
7,1.1320457836163538,0.24653053510896628,1,0,1
8,1.1322213831272465,0.24653053510896628,1,0,1
""",
    "sgd": """t,f,subgrad_norm,f_ge_1,depth,certified
1,1.156626237365089,0.2445419028328545,1,0,1
2,1.1506461631409777,0.2445419028328545,1,0,1
3,1.1464176121051097,0.2445419028328545,1,0,1
4,1.1429650146420451,0.2445419028328545,1,0,1
5,1.1399749775299894,0.2445419028328545,1,0,1
6,1.1373006070348681,0.2445419028328545,1,0,1
7,1.1348592519560277,0.2445419028328545,1,0,1
8,1.1325989963533551,0.2445419028328545,1,0,1
""",
}


@pytest.mark.parametrize("algo", sorted(SUMMARY_GOLDEN))
def test_run_summary_matches_golden_digest(tmp_path, algo):
    out = tmp_path / "o"
    out.mkdir()
    assert main(["run", "--d", "10", "--T", "8", "--delta", "1.0", "--algo", algo,
                 "--seed", "0", "--out", str(out)]) == 0
    assert file_hashes(out)["summary.csv"] == SUMMARY_GOLDEN[algo]
    lines = (out / "summary.csv").read_text().splitlines()
    assert "".join(line.rsplit(",", 1)[0] + "\n" for line in lines) == SUMMARY_HEAD[algo]


def test_build_replay_bit_identical(tmp_path):
    out = tmp_path / "o"
    out.mkdir()
    args = ["build", "--mode", "desk", "--d", "4", "--k", "3", "--rho", "1e-3",
            "--seed", "11", "--out", str(out)]
    assert main(args) == 0
    first = file_hashes(out)
    assert main(args) == 0
    assert file_hashes(out) == first


def test_build_depth_cap_boundary(tmp_path, capsys):
    # desk mode builds N = k + 1 levels; binary64 accepts N = 24 and refuses 25
    ok, refused = tmp_path / "ok", tmp_path / "refused"
    ok.mkdir()
    refused.mkdir()
    assert main(["build", "--mode", "desk", "--k", "23", "--out", str(ok)]) == 0
    assert "N=24" in capsys.readouterr().out
    assert main(["build", "--mode", "desk", "--k", "24", "--out", str(refused)]) == 2
    err = capsys.readouterr().err
    assert err == "error: depth 25 exceeds the binary64 cap 24; build with an extended-precision schedule\n"
    assert os.listdir(refused) == []


def test_run_non_finite_iterate_exits_2_with_one_line(tmp_path, capsys):
    # eta = 1e308 sends the second pgd iterate so far out that its leading
    # norm overflows; the run stops there instead of writing inf or NaN
    out = tmp_path / "o"
    out.mkdir()
    rc = main(["run", "--mode", "desk", "--d", "5", "--k", "3", "--rho", "1e-3", "--algo", "pgd",
               "--eta", "1e308", "--T", "5", "--seed", "3", "--delta", "0", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: run stopped at step t=")
    assert "non-finite" in err
    assert not (out / "summary.csv").exists()


def test_run_overflowing_iterates_certify_without_warnings(tmp_path, capsys):
    # eta = 1e308 sends the sgd iterates so far out that norms in the
    # certificate overflow; they answer inf and certify nothing, silently
    out = tmp_path / "o"
    out.mkdir()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--algo", "sgd", "--eta", "1e308", "--T", "3", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    rows = list(csv.DictReader((out / "summary.csv").open()))
    assert [r["certified"] for r in rows] == ["1", "0", "0"]


def test_mc_overflowing_alignment_exits_2_without_warnings(tmp_path, capsys):
    out = tmp_path / "o"
    out.mkdir()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["mc", "--mode", "desk", "--runs", "100", "--T", "5", "--d", "5", "--algo", "pgd",
                     "--eta", "1e308", "--seed", "3", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: run stopped at step t=2: row 0: ")


class ProposesNaNInRow:
    """Steps along the first axis and proposes a NaN in row 37 at step 3."""

    name = "nan"

    def propose(self, t, x, response, rng):
        x = x + 1.0
        if t == 3:
            x[37, 0] = np.nan
        return x


def test_mc_non_finite_proposal_in_one_row_exits_2_with_one_line(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_algorithm", lambda cfg: ProposesNaNInRow())
    out = tmp_path / "o"
    out.mkdir()
    assert main(["mc", "--mode", "desk", "--runs", "100", "--T", "6", "--d", "5",
                 "--seed", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: run stopped at step t=3: row 37: ")
    assert "non-finite" in err
    assert not (out / "mc_report.csv").exists()


@pytest.mark.parametrize("algo,flag,a,b", [
    ("sgd", "--eta", "0.001", "0.5"),
    ("random", "--radius", "0.01", "5"),
    ("grid", "--resolution", "0.1", "0.7"),
])
def test_mc_honours_algorithm_flags(tmp_path, algo, flag, a, b):
    reports = []
    for val in (a, b):
        out = tmp_path / val
        out.mkdir()
        assert main(["mc", "--mode", "desk", "--k", "2", "--rho", "1e-3", "--T", "4", "--d", "4",
                     "--algo", algo, flag, val, "--runs", "100", "--seed", "2", "--out", str(out)]) == 0
        reports.append((out / "mc_report.csv").read_bytes())
    assert reports[0] != reports[1]


@pytest.mark.parametrize("bad", [{"rho": "1e-3"}, {"T": 2.5}, {"d": True}, {"algo": 3}, {"delta": None}])
def test_config_rejects_mistyped_values(tmp_path, capsys, bad):
    out = tmp_path / "o"
    out.mkdir()
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps(bad))
    assert main(["build", "--config", str(cfgp), "--out", str(out)]) == 2
    key = next(iter(bad))
    assert f"config key {key!r}" in capsys.readouterr().err


def test_config_accepts_integer_for_float(tmp_path):
    out = tmp_path / "o"
    out.mkdir()
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"eta": 1, "delta": 1, "k": 2}))
    assert main(["build", "--config", str(cfgp), "--d", "3", "--out", str(out)]) == 0
    assert json.loads((out / "config.json").read_text())["eta"] == 1


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("algo,key,value", [
    ("pgd", "noise", -0.5), ("pgd", "noise", float("nan")), ("random", "radius", -2.0),
    ("pgd", "delta", -1.0), ("pgd", "delta", float("nan")), ("pgd", "delta", 2.0),
    ("sgd", "eta", float("nan")), ("pgd", "eta", float("inf")), ("pgd", "eta", -1.0), ("sgd", "eta", 0.0),
    ("grid", "resolution", float("inf")),
])
def test_run_rejects_bad_flag_values_before_stepping(tmp_path, capsys, monkeypatch, via, algo, key, value):
    monkeypatch.setattr(cli, "run", lambda *args, **kwargs: pytest.fail("the run started"))
    out = tmp_path / "o"
    out.mkdir()
    argv = ["run", "--mode", "desk", "--d", "4", "--k", "3", "--T", "5", "--algo", algo, "--out", str(out)]
    if via == "flag":
        argv += [f"--{key}", repr(value)]
    else:
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps({key: value}))
        argv += ["--config", str(cfgp)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and "must be" in err and repr(value) in err
    assert err.startswith(f"error: --{key} must be")  # the flag, not the library parameter
    assert not list(out.iterdir())


@pytest.mark.parametrize("command", ["run", "mc"])
@pytest.mark.parametrize("value", ["0", "-1", "nan"])
def test_grid_rejects_a_resolution_that_is_not_positive(tmp_path, capsys, command, value):
    out = tmp_path / "o"
    out.mkdir()
    argv = [command, "--mode", "desk", "--d", "4", "--k", "3", "--T", "5", "--algo", "grid",
            "--resolution", value, "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: --resolution must be positive\n"
    assert not list(out.iterdir())


@pytest.mark.parametrize("algo,flag,value,message", [
    ("sgd", "--eta", "inf", "--eta must be finite and positive, got inf"),
    ("pgd", "--eta", "-1", "--eta must be finite and positive, got -1.0"),
    ("grid", "--resolution", "inf", "--resolution must be finite, got inf"),
])
def test_mc_rejects_bad_algorithm_flags_before_running(tmp_path, capsys, monkeypatch, algo, flag, value, message):
    monkeypatch.setattr(cli, "mc_hitting", lambda *args, **kwargs: pytest.fail("the experiment started"))
    assert main(["mc", "--mode", "desk", "--T", "3", "--d", "4", "--runs", "100", "--algo", algo, flag, value,
                 "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not list(tmp_path.iterdir())


def _sched_of(fn, args, kwargs):
    return inspect.signature(fn).bind(*args, **kwargs).arguments.get("sched")


def test_commands_share_one_schedule_per_precision(tmp_path, monkeypatch):
    seen = []
    for name in ("build_h", "build_instance", "progress_process", "mc_hitting", "concentration_check"):
        def spy(*args, _fn=getattr(cli, name), **kwargs):
            seen.append(_sched_of(_fn, args, kwargs))
            return _fn(*args, **kwargs)
        monkeypatch.setattr(cli, name, spy)
    # the suite's own work is covered elsewhere; here only its schedule counts
    monkeypatch.setattr(cli, "invariant_suite", lambda **kw: seen.append(kw["sched"]) or verify.CertificateReport())
    commands = [["build", "--mode", "desk", "--d", "4", "--k", "3"], ["build", "--mode", "theory", "--T", "1"],
                ["run", "--mode", "desk", "--d", "4", "--k", "3", "--T", "3"], ["check"],
                ["mc", "--mode", "desk", "--k", "3", "--T", "3", "--d", "4", "--runs", "100"]]
    for precision in ("binary64", "extended"):
        del seen[:]
        for args in commands:
            assert main(args + ["--precision", precision, "--out", str(tmp_path)]) == 0
        assert len(seen) == 7 and {id(s) for s in seen} == {id(cli._schedule(precision))}
        assert seen[0].backend == precision
    assert cli._schedule("binary64") is not cli._schedule("extended")


@pytest.mark.parametrize("precision", ["binary64", "extended"])
def test_build_and_run_bytes_equal_those_on_a_cold_schedule(tmp_path, monkeypatch, precision):
    commands = {"build": ["build", "--mode", "desk", "--d", "6", "--k", "3", "--seed", "1"],
                "run": ["run", "--mode", "desk", "--d", "6", "--k", "3", "--T", "10", "--seed", "1"]}

    def hashes():
        out = {}
        for name, args in commands.items():
            (tmp_path / name).mkdir(exist_ok=True)
            assert main(args + ["--precision", precision, "--out", str(tmp_path / name)]) == 0
            out[name] = file_hashes(tmp_path / name)
        return out

    hashes()  # warm the shared schedule
    warm = hashes()
    monkeypatch.setattr(cli, "_schedule", lambda p: AngleSchedule(p))  # a new one, caches empty, per call
    assert hashes() == warm


def test_run_locates_depths_on_its_own_schedule(tmp_path, monkeypatch):
    # the binary64 and extended schedules put this point at depths 9 and 8 of these bits
    bits, x_d = (1, 1, 0, 0, 1, 0, 1, 0, 0), 0.6648212396741423
    monkeypatch.setattr(cli, "random_bits", lambda n, rng: bits)

    def at_split(algo, inst, x0, T, seed):
        x = np.zeros(inst.d)
        x[-1] = x_d
        f, g = inst.value_and_subgrad(x)
        return Trajectory(x[None], np.array([f]), g[None])

    monkeypatch.setattr(cli, "run", at_split)
    depths = {}
    for precision in ("binary64", "extended"):
        out = tmp_path / precision
        out.mkdir()
        assert main(["run", "--mode", "desk", "--k", "8", "--d", "4", "--T", "1", "--delta", "0",
                     "--precision", precision, "--out", str(out)]) == 0
        depths[precision] = int(next(csv.DictReader((out / "summary.csv").open()))["depth"])
        assert depths[precision] == locate(np.array([x_d]), bits, AngleSchedule(precision))[0]
    assert depths == {"binary64": 9, "extended": 8}

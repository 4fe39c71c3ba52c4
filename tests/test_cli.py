import numpy as np
import pytest

from permpolar.cli import ConfigError, main, parse_config
from permpolar.parallel import scheme_from_manifest

BASE_CFG = """\
scheme = degraded
channels = bec:0.1 bec:0.4
n = 32
m = 1
rates = 0.6 0.3
trials = 40
seed = 123
permutations = all
"""


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_parse_config_fields():
    cfg = parse_config(BASE_CFG + "threshold = 0.5\n# comment\n")
    assert cfg.scheme == "degraded"
    assert len(cfg.channels) == 2
    assert cfg.n == 32
    assert cfg.rates == [0.6, 0.3]
    assert cfg.threshold == 0.5
    assert cfg.trials == 40
    assert cfg.seed == 123
    assert cfg.permutations == "all"


def test_parse_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("frobnicate = 1\n")
    with pytest.raises(ConfigError):
        parse_config("scheme = sideways\n")
    with pytest.raises(ConfigError):
        parse_config("channels = warp:0.1\n")
    with pytest.raises(ConfigError):
        parse_config("n = many\n")


def test_parse_permutation_lists():
    cfg = parse_config("permutations = 0,1,2;2,1,0\n")
    assert cfg.permutations == [(0, 1, 2), (2, 1, 0)]


def test_construct_and_manifest_roundtrip(tmp_path, capsys):
    cfg = write(tmp_path, "exp.cfg", BASE_CFG)
    man = str(tmp_path / "scheme.txt")
    assert main(["construct", "--config", cfg, "--out", man]) == 0
    out = capsys.readouterr().out
    assert "|A| = 19" in out and "|A| = 9" in out
    assert "scheme_rate" in out
    scheme = scheme_from_manifest(open(man).read())
    assert scheme.n == 32
    assert scheme.info_sets[1].issubset(scheme.info_sets[0])
    # second run is byte-identical
    man2 = str(tmp_path / "scheme2.txt")
    assert main(["construct", "--config", cfg, "--out", man2]) == 0
    assert open(man).read() == open(man2).read()


def test_simulate_deterministic_and_workers(tmp_path):
    cfg = write(tmp_path, "exp.cfg", BASE_CFG)
    man = str(tmp_path / "scheme.txt")
    assert main(["construct", "--config", cfg, "--out", man]) == 0
    out1 = str(tmp_path / "r1.csv")
    out2 = str(tmp_path / "r2.csv")
    out3 = str(tmp_path / "r3.csv")
    assert main(["simulate", "--config", cfg, "--manifest", man, "--out", out1]) == 0
    assert main(["simulate", "--config", cfg, "--manifest", man, "--out", out2]) == 0
    assert (
        main(
            [
                "simulate", "--config", cfg, "--manifest", man,
                "--out", out3, "--workers", "2",
            ]
        )
        == 0
    )
    r1 = open(out1).read()
    assert r1 == open(out2).read()
    assert r1 == open(out3).read()
    lines = r1.strip().splitlines()
    assert len(lines) == 3  # header + 2 permutations


def test_simulate_noiseless_smoke(tmp_path):
    cfg_text = """\
scheme = degraded
channels = bec:0.0 bec:0.0 bec:0.0
n = 8
rates = 0.75 0.5 0.25
trials = 10
seed = 5
permutations = all
"""
    cfg = write(tmp_path, "noiseless.cfg", cfg_text)
    man = str(tmp_path / "m.txt")
    assert main(["construct", "--config", cfg, "--out", man]) == 0
    out = str(tmp_path / "r.csv")
    assert main(["simulate", "--config", cfg, "--manifest", man, "--out", out]) == 0
    lines = open(out).read().strip().splitlines()
    assert len(lines) == 7  # header + 3! permutations
    for ln in lines[1:]:
        assert ln.split(",")[4] == "0"  # error count column


def test_simulate_manifest_mismatch(tmp_path):
    cfg = write(tmp_path, "exp.cfg", BASE_CFG)
    other = write(
        tmp_path, "other.cfg", BASE_CFG.replace("bec:0.1", "bec:0.2")
    )
    man = str(tmp_path / "scheme.txt")
    assert main(["construct", "--config", cfg, "--out", man]) == 0
    code = main(
        ["simulate", "--config", other, "--manifest", man, "--out",
         str(tmp_path / "x.csv")]
    )
    assert code == 2


def test_simulate_reads_a_file_channel_back_from_the_manifest(tmp_path):
    ch = write(tmp_path, "ch.txt", "2 3\n0.7 0.2 0.1\n0.1 0.2 0.7\n")
    cfg = write(
        tmp_path,
        "file.cfg",
        f"scheme = interleaved\nchannels = file:{ch} bec:0.5\nn = 16\nm = 2\n"
        "rates = 0.25 0.25\ntrials = 20\nseed = 5\n",
    )
    man = str(tmp_path / "m.txt")
    assert main(["construct", "--config", cfg, "--out", man]) == 0
    out = tmp_path / "r.csv"
    assert main(["simulate", "--config", cfg, "--manifest", man, "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 3  # header + 2! permutations


def test_exit_codes(tmp_path):
    bad = write(tmp_path, "bad.cfg", "nonsense = 1\n")
    assert main(["construct", "--config", bad, "--out", str(tmp_path / "m")]) == 2
    nondeg = write(
        tmp_path,
        "nd.cfg",
        "scheme = degraded\nchannels = bsc:0.11002 bec:0.5\nn = 16\n"
        "rates = 0.3 0.2\n",
    )
    assert main(["construct", "--config", nondeg, "--out", str(tmp_path / "m")]) == 3
    deep = write(
        tmp_path,
        "deep.cfg",
        "channels = bec:0.3 bec:0.6\ndepth = 9\n",
    )
    assert main(["bounds", "--config", deep, "--out", str(tmp_path / "b")]) == 4


def test_surrogate_mode_allows_non_degraded(tmp_path):
    cfg_text = (
        "scheme = degraded\nchannels = bec:0.5 bsc:0.11002\nn = 16\n"
        "rates = 0.25 0.125\nsurrogate = true\n"
    )
    cfg = write(tmp_path, "sur.cfg", cfg_text)
    man = str(tmp_path / "m.txt")
    assert main(["construct", "--config", cfg, "--out", man]) == 0


@pytest.mark.parametrize(
    "channels, rates",
    [
        ("bsc:0.11002 bec:0.5", "0.3 0.2"),  # not in Bhattacharyya order
        ("bec:0.5 bsc:0.11002", "0.1 0.3"),  # rates break the nesting
    ],
)
def test_surrogate_infeasible_exits_3_with_one_line(tmp_path, capsys, channels, rates):
    cfg = write(
        tmp_path,
        "sur.cfg",
        f"scheme = degraded\nchannels = {channels}\nn = 16\n"
        f"rates = {rates}\nsurrogate = true\n",
    )
    man = tmp_path / "m.txt"
    assert main(["construct", "--config", cfg, "--out", str(man)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("construction infeasible: ")
    assert not man.exists()


@pytest.mark.parametrize(
    "command, text, code",
    [
        ("construct", "scheme = interleaved\nn = 1000\nm = 2\n", 3),
        ("construct", "scheme = nonbinary\nn = 1000\nm = 2\n", 3),
        ("construct", "scheme = interleaved\nn = 32\nrates = 1.5 0.3\n", 3),
        ("construct", "scheme = nonbinary\nn = 32\nm = 5\n", 3),
        ("construct", "scheme = interleaved\nchannels = qsc:4:0.1 bec:0.4\n", 3),
        ("construct", "scheme = degraded\nn = 32\nm = 0\n", 2),
        ("bounds", "channels = qsc:4:0.1 bsc:0.1\ndepth = 2\n", 2),
        ("construct", "scheme = interleaved\nsurrogate = true\n", 2),
    ],
    ids=["interleaved-n", "nonbinary-n", "rate", "m5", "qsc", "m0", "bounds-qsc",
         "surrogate-coupled"],
)
def test_bad_build_exits_with_one_line(tmp_path, capsys, command, text, code):
    # later keys override the defaults
    base = "channels = bec:0.1 bec:0.4\nn = 32\nm = 2\nrates = 0.5 0.3\n"
    cfg = write(tmp_path, "bad.cfg", base + text)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == code
    assert len(capsys.readouterr().err.splitlines()) == 1


def test_bounds_csv(tmp_path):
    cfg = write(
        tmp_path,
        "bounds.cfg",
        "channels = bec:0.3 bec:0.6\ndepth = 2\nmerge_tol = 0.0\n",
    )
    out = str(tmp_path / "b.csv")
    assert main(["bounds", "--config", cfg, "--out", out]) == 0
    lines = open(out).read().strip().splitlines()
    assert lines[0] == "k,compound_lower,parallel_lower,parallel_upper,merge_tol"
    assert len(lines) == 4
    row1 = lines[2].split(",")
    assert int(row1[0]) == 1
    assert float(row1[1]) == pytest.approx(0.4, abs=1e-12)
    # rerun is byte-identical
    out2 = str(tmp_path / "b2.csv")
    assert main(["bounds", "--config", cfg, "--out", out2]) == 0
    assert open(out).read() == open(out2).read()


def test_bounds_negative_depth_is_a_config_error(tmp_path, capsys):
    cfg = write(tmp_path, "neg.cfg", "channels = bec:0.3\ndepth = -1\n")
    assert main(["bounds", "--config", cfg, "--out", str(tmp_path / "b")]) == 2
    assert capsys.readouterr().err == "configuration error: depth -1 is negative\n"


def test_bounds_walk_each_channel_once(tmp_path, monkeypatch):
    # one depth-5 walk takes 1 + 2 + 4 + 8 + 16 minus steps; a walk for
    # every depth and every bound would take 6 * 57 for the two channels
    import permpolar.polar as polar

    steps = []
    minus = polar.channel_minus
    monkeypatch.setattr(
        polar, "channel_minus", lambda ch, *a: steps.append(ch) or minus(ch, *a)
    )
    cfg = write(tmp_path, "walk.cfg", "channels = bsc:0.11002 bec:0.5\ndepth = 5\n")
    assert main(["bounds", "--config", cfg, "--out", str(tmp_path / "w.csv")]) == 0
    assert len(steps) == 2 * 31


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "PASS polar: float SC equals exact-rational SC" in out


@pytest.mark.parametrize(
    "case",
    [
        "negative-seed-flag",
        "negative-seed-config",
        "repeated-permutation",
        "unparsable-permutation",
        "missing-manifest",
        "malformed-manifest",
        "zero-trials",
        "zero-workers",
        "seven-channels-all-permutations",
        "extra-channel-field",
        "unknown-manifest-key",
        "frozen-vector-in-coupled-manifest",
    ],
)
def test_simulate_bad_input_exits_2_with_one_line(tmp_path, capsys, case):
    base = BASE_CFG
    if case == "frozen-vector-in-coupled-manifest":
        base = BASE_CFG.replace("degraded", "interleaved").replace("m = 1", "m = 2")
    elif case == "seven-channels-all-permutations":
        base = (
            "scheme = degraded\nchannels =" + " bec:0.1" * 7 + "\nn = 8\n"
            "rates =" + " 0.5" * 7 + "\ntrials = 10\nseed = 1\n"
            "permutations = all\n"
        )
    cfg_text = base
    if case == "negative-seed-config":
        cfg_text = BASE_CFG.replace("seed = 123", "seed = -1")
    elif case == "extra-channel-field":
        cfg_text = BASE_CFG.replace("bec:0.1", "bec:0.1:7")
    cfg = write(tmp_path, "exp.cfg", cfg_text)
    man = str(tmp_path / "scheme.txt")
    assert main(["construct", "--config", write(tmp_path, "c.cfg", base),
                 "--out", man]) == 0
    if case == "missing-manifest":
        man = str(tmp_path / "absent.txt")
    elif case == "malformed-manifest":
        man = write(tmp_path, "bad.txt", "scheme degraded\nS two\n")
    elif case == "unknown-manifest-key":
        man = write(tmp_path, "bad.txt", open(man).read() + "lsit 4\n")
    elif case == "frozen-vector-in-coupled-manifest":
        man = write(tmp_path, "bad.txt", open(man).read() + "b 0101\n")
    extra = {
        "negative-seed-flag": ["--seed", "-1"],
        "repeated-permutation": ["--permutations", "0,0"],
        "unparsable-permutation": ["--permutations", "0,x"],
        "zero-trials": ["--trials", "0"],
        "zero-workers": ["--workers", "0"],
    }.get(case, [])
    capsys.readouterr()
    out = tmp_path / "r.csv"
    code = main(["simulate", "--config", cfg, "--manifest", man,
                 "--out", str(out)] + extra)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("configuration error: ")
    assert not out.exists()

import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rwrs.config import (
    EXPERIMENTS,
    ConfigError,
    ExperimentConfig,
    config_hash,
    parse_config,
    serialize_config,
    validate_config,
)


def test_minimal_config_defaults():
    cfg = parse_config("experiment: verify-lemma1\nalpha: 2.0\n")
    assert cfg.experiment == "verify-lemma1"
    assert cfg.alpha == 2.0
    assert cfg.n == 16384
    assert cfg.replicates == 500
    assert cfg.master_seed == 0
    assert cfg.workers == 1


def test_alpha_bound_message():
    with pytest.raises(ConfigError, match="alpha must satisfy 1 < alpha <= 2"):
        parse_config("experiment: verify-lemma1\nalpha: 1.0\n")
    with pytest.raises(ConfigError, match="alpha must satisfy 1 < alpha <= 2"):
        parse_config("experiment: verify-lemma1\nalpha: 2.5\n")


def test_unknown_key_reports_line():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("experiment: simulate-rwrs\nbogus: 1\n")


def test_bad_syntax_reports_line():
    with pytest.raises(ConfigError, match="line 3"):
        parse_config("experiment: simulate-rwrs\nalpha: 2.0\njust words\n")


def test_missing_experiment():
    with pytest.raises(ConfigError, match="experiment"):
        parse_config("alpha: 2.0\n")


def test_unknown_experiment():
    with pytest.raises(ConfigError, match="unknown experiment"):
        parse_config("experiment: nope\n")


def test_comments_and_blank_lines():
    text = """
# a comment
experiment: verify-moments   # trailing note
alpha: 2.0

n_list: 1024, 2048, 4096, 8192
"""
    cfg = parse_config(text)
    assert cfg.n_list == (1024, 2048, 4096, 8192)


def test_points_parsing():
    cfg = parse_config("experiment: verify-fdd\npoints: 1:0.5, 0.5:0.25\n")
    assert cfg.points == ((1.0, 0.5), (0.5, 0.25))


def test_round_trip():
    text = ("experiment: verify-fdd\nalpha: 1.5\nn: 65536\nreplicates: 1500\n"
            "points: 1:0.5\nmaster_seed: 9\nworkers: 4\n")
    cfg = parse_config(text)
    again = parse_config(serialize_config(cfg))
    assert cfg == again
    assert serialize_config(cfg) == serialize_config(again)


_ANY_FLOAT = st.floats(allow_nan=False)
_FLOAT_LIST = st.lists(_ANY_FLOAT, max_size=5).map(tuple)
_GRID = st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                 unique=True, max_size=6).map(lambda xs: (0.0, *sorted(xs), 1.0))
_POSITIVE = st.integers(1, 2**40)

# every config that validates, except for an output_dir holding '#' or a line
# break; the unvalidated numeric keys take any value
_CONFIGS = st.builds(
    ExperimentConfig,
    experiment=st.sampled_from(EXPERIMENTS),
    alpha=st.floats(1.0, 2.0, exclude_min=True),
    n=_POSITIVE,
    n_list=st.none() | st.lists(_POSITIVE, max_size=5).map(tuple),
    replicates=_POSITIVE,
    s_grid=_GRID,
    t_grid=_GRID,
    K=_POSITIVE,
    cells=_POSITIVE,
    master_seed=st.integers(0, 2**64 - 1),
    workers=st.integers(1, 64),
    output_dir=st.none() | st.text(string.ascii_letters + string.digits + "/_.-: #\n\r",
                                   max_size=20).filter(lambda d: d == d.strip()),
    s_vec=_FLOAT_LIST,
    points=st.lists(st.tuples(_ANY_FLOAT, _ANY_FLOAT), max_size=4).map(tuple),
    a=_ANY_FLOAT,
    s0=_ANY_FLOAT,
    t0=_ANY_FLOAT,
    deltas=_FLOAT_LIST,
    gamma=_ANY_FLOAT,
    gamma_prime=_ANY_FLOAT,
    grid_points=st.integers(-2**40, 2**40),
    permutations=st.integers(500, 2**40),
    p_value_min=st.floats(0.0, 1.0),
    var_tol=_ANY_FLOAT,
    holder_ratio_max=_ANY_FLOAT,
)


@settings(max_examples=300, deadline=None)
@given(_CONFIGS)
def test_round_trip_property(cfg):
    try:
        validate_config(cfg)
    except ConfigError:
        # refused only for an output_dir the text form cannot hold
        assert any(c in cfg.output_dir for c in "#\n\r")
        return
    again = parse_config(serialize_config(cfg))
    assert again == cfg
    assert config_hash(again) == config_hash(cfg)


@pytest.mark.parametrize("output_dir", ["runs/#1", "runs\n1", "runs\r\n1"])
def test_output_dir_the_text_form_cannot_hold(output_dir):
    with pytest.raises(ConfigError, match="output_dir"):
        parse_config("experiment: simulate-rwrs\n", {"output_dir": output_dir})


def test_overrides_win():
    cfg = parse_config("experiment: simulate-rwrs\nn: 8\n",
                       overrides={"n": "16", "master_seed": "3"})
    assert cfg.n == 16 and cfg.master_seed == 3
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("experiment: simulate-rwrs\n", overrides={"wat": "1"})


def test_hash_ignores_formatting():
    a = parse_config("experiment: simulate-rwrs\nalpha: 2.0\nn: 8\n")
    b = parse_config("# hi\nn: 8\nexperiment: simulate-rwrs   \nalpha: 2.0\n")
    assert config_hash(a) == config_hash(b)
    c = parse_config("experiment: simulate-rwrs\nalpha: 2.0\nn: 9\n")
    assert config_hash(a) != config_hash(c)


def test_validation_bounds():
    base = "experiment: simulate-rwrs\n"
    for bad in ("n: 0", "replicates: 0", "workers: 0", "K: 0", "cells: 0",
                "permutations: 100", "p_value_min: 2.0"):
        with pytest.raises(ConfigError):
            parse_config(base + bad + "\n")


def test_grid_validation():
    with pytest.raises(ConfigError, match="s-grid"):
        parse_config("experiment: simulate-rwrs\ns_grid: 0.0, 0.5\n")


def test_invalid_value_type():
    with pytest.raises(ConfigError, match="invalid value"):
        parse_config("experiment: simulate-rwrs\nn: eight\n")


@pytest.mark.parametrize("line", ["n_list: 1,x", "s_vec: 0,a", "points: 1:2:3",
                                  "points: 1", "points: a:0.5"])
def test_invalid_list_and_pair_values(line):
    key = line.split(":", 1)[0]
    with pytest.raises(ConfigError, match=f"invalid value for '{key}'"):
        parse_config(f"experiment: verify-fdd\n{line}\n")


def test_serialized_form_of_every_key():
    cfg = ExperimentConfig(
        experiment="verify-fdd", alpha=1.5, n=4096, n_list=(256, 512),
        replicates=40, s_grid=(0.0, 0.25, 0.57, 1.0), t_grid=(0.0, 0.3, 1.0),
        K=1024, cells=32, master_seed=7, workers=2, output_dir="out/dir",
        s_vec=(0.3, 0.57, 1.0), points=((1.0, 0.5), (0.57, 0.25)), a=0.5,
        s0=0.75, t0=0.25, deltas=(0.1, 0.2), gamma=0.6, gamma_prime=0.4,
        grid_points=16, permutations=600, p_value_min=0.05, var_tol=0.2,
        holder_ratio_max=3.0)
    assert serialize_config(cfg) == (
        "experiment: verify-fdd\nalpha: 1.5\nn: 4096\nn_list: 256,512\n"
        "replicates: 40\ns_grid: 0.0,0.25,0.57,1.0\nt_grid: 0.0,0.3,1.0\n"
        "K: 1024\ncells: 32\nmaster_seed: 7\nworkers: 2\noutput_dir: out/dir\n"
        "s_vec: 0.3,0.57,1.0\npoints: 1.0:0.5,0.57:0.25\na: 0.5\ns0: 0.75\n"
        "t0: 0.25\ndeltas: 0.1,0.2\ngamma: 0.6\ngamma_prime: 0.4\n"
        "grid_points: 16\npermutations: 600\np_value_min: 0.05\nvar_tol: 0.2\n"
        "holder_ratio_max: 3.0\n")
    assert parse_config(serialize_config(cfg)) == cfg


# the benchmark's workload configs (perfbench/workloads.py) and their hashes
@pytest.mark.parametrize("text, digest", [
    ("experiment: verify-fdd\nalpha: 2.0\nn: 65536\n"
     "points: 1:0.5,0.5:0.25,0.5:0.75\nreplicates: 500\nworkers: 1\n",
     "92d8211b557ad610"),
    ("experiment: verify-lemma1\nalpha: 1.5\nn: 65536\n"
     "s_vec: 0.25,0.5,1\nreplicates: 500\nworkers: 2\n",
     "b5979a9e1fab0d64"),
    ("experiment: verify-holder\nalpha: 2.0\ngrid_points: 32\n"
     "replicates: 20\nworkers: 1\n",
     "afd4d0c2c1676456"),
], ids=["fdd-gauss", "lemma1-stable", "holder-refine"])
def test_workload_config_hashes(text, digest):
    assert config_hash(parse_config(text)) == digest

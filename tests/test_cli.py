import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import latticelab
from latticelab import cli, lattice_lab, smallness

SRC = os.path.dirname(os.path.dirname(os.path.abspath(latticelab.__file__)))

# Runs the CLI with an import hook that refuses every scipy module.
NO_SCIPY_MAIN = """
import sys

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError("scipy is refused: " + name)
        return None

sys.meta_path.insert(0, RefuseScipy())
from latticelab import cli
sys.exit(cli.main(sys.argv[1:]))
"""


def run_python(code, *args):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)


def report(argv, capsys):
    assert cli.main(argv) == 0
    return capsys.readouterr().out


def test_importing_the_cli_loads_no_scipy():
    proc = run_python("import sys, latticelab.cli\n"
                      "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("argv", [["classify"], ["thickthin"],
                                  ["presentation", "--preset", "torus"]], ids=" ".join)
def test_default_reports_run_without_scipy(argv, capsys):
    proc = run_python(NO_SCIPY_MAIN, *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == report(argv, capsys)


@pytest.mark.parametrize("argv", [
    ["thickthin", "--preset", "nope"],
    ["thickthin", "--preset", "z2"],
    ["psi-check", "--preset", "z2"],
    ["span", "--preset", "z2"],
    ["crystallo", "--preset", "sl2z"],
    ["classify", "--matrix", "[[1,2],[3"],
    ["classify", "--matrix", "[1,2]"],
    ["classify", "--matrix", "[[2,0],[0,2]]"],
    ["count-presentations", "--v-list", "1,x"],
    ["chabauty", "--radius-list", "1,a"],
    ["solvable", "--primes", "5,x"],
    ["solvable", "--primes", "1"],
    ["heisenberg", "--coords", "1,2"],
    ["heisenberg", "--coords", "1/0,1,1"],
    ["thickthin", "--preset", "octagon-genus2"],
    ["psi-check", "--preset", "octagon-genus2"],
    ["span", "--preset", "octagon-genus2"],
    ["mahler", "--count", "0"],
    ["mahler", "--count", "-1"],
    ["mahler", "--family", "bogus", "--count", "1"],
    ["jordan", "--group", "bogus"],
    ["recurrence", "--family", "bogus"],
    ["presentation", "--epsilon", "0"],
    ["presentation", "--epsilon", "-0.1"],
    ["presentation", "--radius", "0"],
    ["thickthin", "--epsilon", "0"],
    ["thickthin", "--epsilon", "-1"],
    ["psi-check", "--epsilon", "0"],
    ["psi-check", "--step", "0.6"],
    ["psi-check", "--step", "1"],
    ["psi-check", "--samples", "1", "--step", "0.5"],
    ["zassenhaus", "--epsilon", "0"],
    ["zassenhaus", "--epsilon", "3"],
    ["zassenhaus", "--epsilon", "8"],
    ["recurrence", "--epsilon", "-0.1"],
    ["zassenhaus", "--pairs", "0"],
    ["zassenhaus", "--dim", "0"],
    ["thickthin", "--samples", "0"],
    ["classify", "--bogus"],
    [],
], ids=lambda argv: " ".join(argv) or "no subcommand")
def test_bad_input_is_a_precondition_violation(argv, capsys):
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("precondition violated:")


def test_zassenhaus_singular_ladder_names_epsilon(capsys):
    assert cli.main(["zassenhaus", "--epsilon", "4"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("precondition violated: commutator ladder level 5: singular matrix")
    assert "--epsilon 4" in err and "lower --epsilon" in err


@pytest.mark.parametrize("subcommand, key, value", [
    ("presentation", "epsilon", "0.19"),
    ("solvable", "m", "2"),
    ("span", "word_ball", "3"),
])
def test_config_file_matches_flags(subcommand, key, value, tmp_path, capsys):
    # The report echoes the --config path, so both runs name the same file:
    # first holding no entries, then holding the value under the flag's dest.
    config = tmp_path / "run.cfg"
    config.write_text("# no entries\n")
    flag = "--" + key.replace("_", "-")
    with_flags = report(["--config", str(config), subcommand, flag, value], capsys)
    config.write_text("%s = %s\n" % (key, value))
    assert report(["--config", str(config), subcommand], capsys) == with_flags


@pytest.mark.parametrize("subcommand, entry", [
    pytest.param("presentation", "bogus = 1", id="bogus = 1"),
    pytest.param("presentation", "samples = abc", id="samples = abc"),
    pytest.param("presentation", "format = xml", id="format = xml"),
    pytest.param("zassenhaus", "epsilon = 0", id="zassenhaus epsilon = 0"),
])
def test_bad_config_entry_is_a_precondition_violation(subcommand, entry, tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text(entry + "\n")
    assert cli.main(["--config", str(config), subcommand]) == 2
    assert capsys.readouterr().err.startswith("precondition violated:")


def test_unusable_file_is_a_precondition_violation(tmp_path, capsys):
    missing = str(tmp_path / "missing" / "file")
    for argv in (["--config", missing, "classify"], ["classify", "--out", missing]):
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith("precondition violated:")


def test_default_chabauty_limit_of_one_over_n_is_the_line(capsys):
    result = json.loads(report(["chabauty"], capsys))["result"]
    assert result["converged"] is True
    assert (result["limit_v_dim"], result["limit_lattice_rank"]) == (1, 0)


def test_default_octagon_presentation_runs_to_completion(capsys):
    result = json.loads(report(["presentation", "--preset", "octagon-genus2"], capsys))["result"]
    assert (result["abelianization_rank"], result["torsion"]) == (4, [])
    assert (result["net_size"], result["generators"], result["relators"]) == (30, 106, 143)


def test_classify_a_hyperbolic_element_with_entries_near_the_float_limit(capsys):
    # Squaring an entry or the trace of this element overflows a float.
    result = json.loads(report(["classify", "--matrix", "[[1e300,0],[0,1e-300]]"],
                               capsys))["result"]
    assert result["class"] == "hyperbolic"
    assert result["translation_length"] == pytest.approx(2 * math.log(1e300), rel=1e-12)


def loop_zassenhaus(seed, dim, pairs, epsilon):
    """(violations, worst ratio) of `zassenhaus`, pair by pair, as the
    command ran before it went by blocks of pairs."""
    rng = np.random.default_rng(seed)
    violations, worst_ratio = 0, 0.0
    for _ in range(pairs):
        x = rng.normal(size=(dim, dim))
        y = rng.normal(size=(dim, dim))
        x *= epsilon * rng.uniform(0.2, 1.0) / np.linalg.norm(x)
        y *= epsilon * rng.uniform(0.2, 1.0) / np.linalg.norm(y)
        lhs = smallness.frobenius_to_identity(smallness.commutator(np.eye(dim) + x, np.eye(dim) + y))
        rhs = 8.0 * np.linalg.norm(x) * np.linalg.norm(y)
        worst_ratio = max(worst_ratio, lhs / rhs if rhs else 0.0)
        violations += int(lhs > rhs)
    return violations, worst_ratio


@pytest.mark.parametrize("epsilon", ["0.2", "2"])
@pytest.mark.parametrize("pairs", [1, 7, lattice_lab.ROW_BLOCK + 3])
@pytest.mark.parametrize("dim", [2, 3])
def test_zassenhaus_matches_the_pairwise_loop(dim, pairs, epsilon, capsys):
    for seed in range(10):
        result = json.loads(report(["zassenhaus", "--seed", str(seed), "--dim", str(dim),
                                    "--pairs", str(pairs), "--epsilon", epsilon], capsys))["result"]
        violations, worst_ratio = loop_zassenhaus(seed, dim, pairs, float(epsilon))
        assert json.dumps(result) == json.dumps(dict(result, violations=violations,
                                                     worst_ratio=worst_ratio))
    if (dim, pairs, epsilon) == (3, lattice_lab.ROW_BLOCK + 3, "2"):
        assert violations > 0


def test_zassenhaus_memory_is_bounded_by_the_block(capsys):
    tracemalloc.start()
    try:
        result = json.loads(report(["zassenhaus", "--pairs", "200000"], capsys))["result"]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (result["pairs"], result["violations"]) == (200000, 0)
    assert peak < 8 * 2**20

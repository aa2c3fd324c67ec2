import ast

import numpy as np
import pytest

from rwspn import build_npl_sys, check_strong_lumpability, cli, explore, production_rules, rewrite
from rwspn.cli import main


def test_explore_quotient_counts(tmp_path, capsys):
    out = tmp_path / "q"
    assert main(["explore", "--n", "1", "--mode", "quotient", "--out", str(out)]) == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("states=42 final=2 elapsed=")
    for name in ("states.txt", "edges.txt", "generator.coo"):
        assert (out / name).exists()


def test_explore_ordinary_counts(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["explore", "--n", "1", "--mode", "ordinary", "--out", str(out)]) == 0
    assert capsys.readouterr().out.startswith("states=60 final=2")


def test_explore_budget_exceeded(tmp_path, capsys):
    out = tmp_path / "b"
    rc = main(["explore", "--n", "2", "--budget", "40", "--out", str(out)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out.startswith("states>40 final=? elapsed=")
    assert captured.err.startswith("error: state budget 40 exceeded")


def test_solve_budget_exceeded(tmp_path, capsys):
    out = tmp_path / "sb"
    assert main(["solve", "--n", "2", "--budget", "10", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: state budget 10 exceeded")
    assert not out.exists()


def test_explore_canon_bound_exceeded(tmp_path, capsys):
    # 8 lines of 3 branches: (3!)**8 arrangements of the inner groups
    out = tmp_path / "cb"
    assert main(["explore", "--n", "8", "--k", "3", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith("\nerror: 1679616 sibling permutations exceed bound 1000000\n")
    assert not out.exists()


def test_solve_transient_budget_exceeded(tmp_path, capsys):
    # the grid's t values are floats, so mu prints as a plain number
    out = tmp_path / "tb"
    assert main(["solve", "--n", "1", "--grid", "1:10000000:2", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: mu = 25520397.44796 needs about as many uniformization terms, budget is 2000000\n"
    )
    assert not out.exists()


def test_explore_verify_symmetry(tmp_path):
    out = tmp_path / "vs"
    assert main(["explore", "--n", "1", "--verify-symmetry", "--out", str(out)]) == 0


def test_verify_symmetry_needs_quotient_mode(tmp_path, capsys, monkeypatch):
    # ordinary states are not normal forms, so there is nothing to check
    monkeypatch.setattr(cli, "build_npl_sys", lambda *args: pytest.fail("model built"))
    out = tmp_path / "vo"
    with pytest.raises(SystemExit) as exc:
        main(["explore", "--n", "1", "--mode", "ordinary", "--verify-symmetry", "--out", str(out)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: rwspn explore")
    assert "argument --verify-symmetry: needs --mode quotient" in captured.err
    assert not out.exists()


def test_verify_passes(capsys):
    assert main(["verify", "--n", "1"]) == 0
    out = capsys.readouterr().out
    assert "normalize-oracle: PASS" in out
    assert "strong-lumpability: PASS" in out
    assert "lumped-vs-quotient: PASS" in out


@pytest.mark.parametrize("change", ["missing", "extra"])
def test_verify_counts_an_entry_of_one_generator_at_its_full_rate(change, capsys, monkeypatch):
    # the lumped generator loses its first entry, or gains one at 0.375;
    # every other entry equals the quotient's, so that rate is max |delta|
    def changed(gen, partition, tol):
        lumped = lump_generator(gen, partition, tol)
        rows, cols, data = lumped._rows(), lumped.indices, lumped.data
        if change == "missing":
            seen.append(data[0])
            return cli.Generator._from_arrays(lumped.n, rows[1:], cols[1:], data[1:])
        final = int(np.flatnonzero(np.diff(lumped.indptr) == 0)[0])  # a row without entries
        seen.append(0.375)
        return cli.Generator._from_arrays(lumped.n, np.append(rows, final),
                                          np.append(cols, 1 - min(final, 1)), np.append(data, 0.375))

    seen = []
    lump_generator = cli.lump_generator
    monkeypatch.setattr(cli, "lump_generator", changed)
    assert main(["verify", "--n", "1"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[1:] == ["strong-lumpability: PASS (60 states)",
                       f"lumped-vs-quotient: FAIL (max |delta| = {seen[0]:.3e})"]


def test_explore_verify_symmetry_fails_on_a_non_minimal_state(tmp_path, capsys, monkeypatch):
    # successors left raw: the oracle finds a state that is not its normal form
    monkeypatch.setattr(rewrite, "normalize_block", lambda net, block: (net, block))
    out = tmp_path / "vf"
    assert main(["explore", "--n", "1", "--verify-symmetry", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: non-minimal normal form: ")
    assert not out.exists()


def test_verify_oracle_fails_on_a_moved_state(capsys, monkeypatch):
    # the normal form of the last quotient state is reported with one
    # token more on its first place; its net's rows come as one block
    quotient = explore(build_npl_sys(1, 2, 2), production_rules(), mode="quotient")
    last = quotient._stores[quotient.states._net[41]]

    def moved(blocks):
        out = normalize_states(blocks)
        if blocks[0][0] is last.net:
            out[0][1][quotient.states._row[41], 0] += 1
        return out

    normalize_states = cli.normalize_states
    monkeypatch.setattr(cli, "normalize_states", moved)
    assert main(["verify", "--n", "1"]) == 1
    captured = capsys.readouterr()
    assert "normalize-oracle: FAIL (42 states)" in captured.out
    assert f"  counterexample: {quotient.states[41].canonical()}\n" in captured.err


def test_verify_perturbed_fails(capsys):
    assert main(["verify", "--n", "1", "--perturb"]) != 0
    captured = capsys.readouterr()
    assert "strong-lumpability: FAIL" in captured.out
    system = build_npl_sys(1, 2, 2)
    quotient = explore(system, production_rules(), mode="quotient")
    ordinary = explore(system, production_rules(), mode="ordinary")
    partition = cli.quotient_partition(ordinary, quotient)
    gen = cli._perturbed(cli.build_generator(ordinary), partition)
    ok, detail = check_strong_lumpability(gen, partition, tol=1e-9)
    assert not ok
    assert captured.err == f"  counterexample: {detail}\n"


def test_verify_perturbed_reports_the_doubled_rate(capsys):
    # the partition is lumpable before one entry is doubled, so the worst
    # deviation is that entry's rate before the doubling
    assert main(["verify", "--n", "1", "--perturb"]) == 1
    detail = ast.literal_eval(capsys.readouterr().err.split("counterexample: ", 1)[1])
    system = build_npl_sys(1, 2, 2)
    ordinary = explore(system, production_rules(), mode="ordinary")
    partition = cli.quotient_partition(ordinary, explore(system, production_rules(), mode="quotient"))
    gen = cli.build_generator(ordinary)
    (doubled,) = np.flatnonzero(cli._perturbed(gen, partition).data != gen.data)
    assert detail["max_deviation"] == gen.data[doubled] > 0


def test_solve_writes_measures(tmp_path, capsys):
    out = tmp_path / "s"
    assert main(["solve", "--n", "1", "--grid", "1:1000:12", "--out", str(out)]) == 0
    fields = dict(f.split("=") for f in capsys.readouterr().out.split() if "=" in f)
    assert fields["states"] == "42" and fields["grid"] == "12"
    assert 0 <= float(fields["mass_defect"]) < 1e-6
    csv = (out / "measures.csv").read_text().splitlines()
    assert csv[0] == "t,throughput,reliability,conditional"
    assert len(csv) == 13
    rel = [float(row.split(",")[2]) for row in csv[1:]]
    assert rel == sorted(rel, reverse=True)
    assert (out / "generator.coo").exists()


@pytest.mark.parametrize("eps", ["0", "nan", "inf", "1e-17", "2"])
def test_solve_rejects_eps_it_cannot_honor(tmp_path, capsys, eps):
    out = tmp_path / "se"
    assert main(["solve", "--n", "1", "--eps", eps, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: eps must lie in (2**-54, 1)")
    assert not out.exists()


def test_solve_rejects_bad_grid(tmp_path):
    with pytest.raises(SystemExit):
        main(["solve", "--n", "1", "--grid", "10:1:5", "--out", str(tmp_path)])


@pytest.mark.parametrize(
    "argv",
    [
        ["explore", "--n", "0"],
        ["explore", "--n", "1", "--k", "0"],
        ["explore", "--n", "1", "--m", "-1"],
        ["explore", "--n", "one"],
        ["verify", "--n", "0"],
        ["export-net", "--n", "0"],
        ["solve", "--n", "1", "--grid", "10:1:5"],
        ["solve", "--n", "1", "--grid", "1:10"],
        ["solve", "--n", "1", "--grid", "1:inf:5"],
        ["solve", "--n", "1", "--grid", "1:1.0000000000000002:100"],
    ],
)
def test_bad_sizes_and_grids_are_usage_errors(tmp_path, capsys, monkeypatch, argv):
    # argparse refuses them before any model is built
    monkeypatch.setattr(cli, "build_npl_sys", lambda *args: pytest.fail("model built"))
    out = tmp_path / "u"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(out)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: rwspn")
    assert f"argument {argv[-2]}: " in captured.err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["explore", "--n", "1", "--budget", "-3"],
        ["explore", "--n", "1", "--budget", "0"],
        ["explore", "--n", "1", "--budget", "many"],
        ["solve", "--n", "1", "--budget", "0"],
    ],
)
def test_budgets_below_one_are_usage_errors(tmp_path, capsys, monkeypatch, argv):
    # no state space fits in a budget below 1 state
    test_bad_sizes_and_grids_are_usage_errors(tmp_path, capsys, monkeypatch, argv)


def test_empty_warehouse_is_a_model(tmp_path, capsys):
    out = tmp_path / "m0"
    assert main(["export-net", "--n", "1", "--m", "0", "--out", str(out)]) == 0
    assert (out / "net.txt").exists()


def test_export_net(tmp_path, capsys):
    out = tmp_path / "n"
    assert main(["export-net", "--n", "2", "--out", str(out)]) == 0
    text = (out / "net.txt").read_text()
    assert '|-> << "ld", 0, 0.5 >>' in text
    assert "\n\n" in text  # net, blank line, marking
    assert '4 . p(< "s" ; 0 >)' in text


def test_generator_coo_format(tmp_path):
    out = tmp_path / "g"
    main(["explore", "--n", "1", "--out", str(out)])
    lines = (out / "generator.coo").read_text().splitlines()
    assert lines[0] == "42"
    i, j, q = lines[1].split(" ")
    int(i), int(j), float(q)

import pytest

from rwspn import cli
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


def test_explore_verify_symmetry(tmp_path):
    out = tmp_path / "vs"
    assert main(["explore", "--n", "1", "--verify-symmetry", "--out", str(out)]) == 0


def test_verify_passes(capsys):
    assert main(["verify", "--n", "1"]) == 0
    out = capsys.readouterr().out
    assert "normalize-oracle: PASS" in out
    assert "strong-lumpability: PASS" in out
    assert "lumped-vs-quotient: PASS" in out


def test_verify_perturbed_fails(capsys):
    assert main(["verify", "--n", "1", "--perturb"]) != 0
    assert "strong-lumpability: FAIL" in capsys.readouterr().out


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

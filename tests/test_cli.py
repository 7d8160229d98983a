import json

import pytest

from netbargain.cli import main
from netbargain.instance import dumps, loads


@pytest.fixture
def e2_file(tmp_path, e2):
    path = tmp_path / "e2.json"
    path.write_text(dumps(e2))
    return str(path)


def test_generate_e2_document(capsys):
    rc = main(["generate", "--topology", "path", "--len", "3", "--weights", "2,1"])
    assert rc == 0
    inst = loads(capsys.readouterr().out)
    assert inst.edges == ((0, 1, 2.0), (1, 2, 1.0))


def test_generate_deterministic(capsys):
    args = ["generate", "--topology", "blossom", "--stem", "2", "--cycle", "5", "--seed", "7"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first


def test_generate_bad_topology():
    assert main(["generate", "--topology", "moebius"]) == 2


def test_run_writes_snapshot_and_trace(tmp_path, e2_file, capsys):
    trace = tmp_path / "trace.csv"
    out = tmp_path / "snap.json"
    rc = main(
        ["run", "--input", e2_file, "--kappa", "0.5", "--trace", str(trace),
         "--output", str(out), "--margin", "0.1667"]
    )
    assert rc == 0
    lines = trace.read_text().splitlines()
    assert lines[0] == "t,step_change,u_g,u_gf"
    snap = json.loads(out.read_text())
    assert snap["converged"] is True
    alpha = {(rec["from"], rec["to"]): float(rec["value"]) for rec in snap["alpha"]}
    assert alpha[(1, 0)] == pytest.approx(1.0, abs=1e-6)
    assert "pairs=[(0, 1)]" in capsys.readouterr().out


def test_verify_e2(e2_file, capsys):
    assert main(["verify", "--input", e2_file]) == 0
    out = capsys.readouterr().out
    assert "gamma: [0.5, 1.5, 0.0]" in out
    assert "gap: 0.5" in out
    assert "pairs=[(0, 1)]" in out


def test_verify_triangle(tmp_path, t1, capsys):
    path = tmp_path / "t1.json"
    path.write_text(dumps(t1))
    assert main(["verify", "--input", str(path)]) == 0
    out = capsys.readouterr().out
    assert "pointed, not tight" in out


def test_verify_degenerate(tmp_path, capsys):
    doc = {"nodes": 3, "edges": [{"u": 0, "v": 1, "w": 1}, {"u": 1, "v": 2, "w": 1}]}
    path = tmp_path / "deg.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", "--input", str(path)]) == 0
    out = capsys.readouterr().out
    assert "degenerate LP" in out


def test_verify_bad_instance(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"nodes": 2, "edges": [{"u": 0, "v": 1, "w": 0}]}')
    assert main(["verify", "--input", str(path)]) == 2


@pytest.mark.parametrize(
    "doc",
    [
        '{"nodes": 2, "edges": [{"u": 0.9, "v": 1.7, "w": 1}]}',
        '{"nodes": true, "edges": []}',
        '{"nodes": 2, "edges": [{"u": false, "v": true, "w": 1}]}',
        '{"nodes": 2, "edges": 5}',
        '{"nodes": 2, "edges": [{"u": 0, "v": 1, "w": 5e-324}]}',  # subnormal weight
    ],
)
def test_verify_rejects_mistyped_document(tmp_path, capsys, doc):
    path = tmp_path / "bad.json"
    path.write_text(doc)
    assert main(["verify", "--input", str(path)]) == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.fixture
def blossom_file(tmp_path):
    path = tmp_path / "blossom.json"
    args = ["generate", "--topology", "blossom", "--stem", "2", "--cycle", "5", "--seed", "3"]
    assert main(args + ["--output", str(path)]) == 0
    return str(path)


@pytest.mark.parametrize(
    "flags,rc,lines",
    [
        # the audit's residual bound follows --eps; a coarser state fails named checks
        (["--eps", "1e-7"], 0, ["dynamics: converged", "[pass] dual_optimal"]),
        (["--eps", "1e-6"], 1, ["dynamics: converged", "[FAIL] unique_partner"]),
        (["--eps", "1e-4"], 1, ["dynamics: converged", "[FAIL] balance_everywhere"]),
        (["--max-iters", "5"], 1, ["NOT CONVERGED after 5 steps", "audit skipped"]),
    ],
)
def test_verify_reports_numerical_failures(blossom_file, capsys, flags, rc, lines):
    assert main(["verify", "--input", blossom_file] + flags) == rc
    out, err = capsys.readouterr()
    assert err == "" and all(line in out for line in lines)


def test_verify_bad_kappa_is_a_usage_error(blossom_file, capsys):
    assert main(["verify", "--input", blossom_file, "--kappa", "2"]) == 2
    assert "kappa" in capsys.readouterr().err


def test_verify_missing_file():
    assert main(["verify", "--input", "/nonexistent/x.json"]) == 2


def test_decompose_report(e2_file, capsys):
    assert main(["decompose", "--input", e2_file]) == 0
    out = capsys.readouterr().out
    assert "sigma=0.5" in out and "gap: 0.5" in out


def test_experiment_csv(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    rc = main(
        ["experiment", "--topology", "path", "--sizes", "3,5", "--eps", "1e-3",
         "--output", str(out), "--seed", "1"]
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,W,sigma,eps,iterations_to_eps,t_star_reference,seed,converged"
    assert len(lines) == 3
    assert "log-log fit" in capsys.readouterr().out


def test_experiment_fit_keeps_rows_converged_in_zero_steps(capsys):
    # bicycle size 3 earns within eps of its reference from the zero start: 0 steps
    assert main(["experiment", "--topology", "bicycle", "--sizes", "3,7"]) == 0
    out = capsys.readouterr().out
    first = out.splitlines()[1].split(",")
    assert (first[4], first[-1]) == ("0", "True")
    assert "slope=" in out and "not enough converged rows" not in out


def test_bipartite_report(tmp_path, b1, capsys):
    path = tmp_path / "b1.json"
    path.write_text(dumps(b1))
    assert main(["bipartite", "--input", str(path)]) == 0
    out = capsys.readouterr().out
    assert "buyer-optimal: gamma=[9.0, 1.0, 9.0, 1.0]" in out
    assert "seller-optimal: gamma=[1.0, 9.0, 1.0, 9.0]" in out
    assert "dominates" in out


def test_bipartite_rejects_triangle(tmp_path, t1, capsys):
    path = tmp_path / "t1.json"
    path.write_text(dumps(t1))
    assert main(["bipartite", "--input", str(path)]) == 1
    assert "witness odd cycle" in capsys.readouterr().err


def test_pathlab_on_e2(e2_file, capsys):
    rc = main(["pathlab", "--input", e2_file, "--horizon", "400"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "sandwich holds" in out
    assert "mass stationary: True" in out
    assert "dominated by mass: True" in out


def test_verify_beyond_cap(tmp_path, capsys):
    from netbargain.experiment import family_spec
    from netbargain.instance import generate

    inst = generate(family_spec("path", 20, seed=1))
    path = tmp_path / "big.json"
    path.write_text(dumps(inst))
    assert main(["verify", "--input", str(path)]) == 0
    out = capsys.readouterr().out
    assert "beyond enumeration cap" in out and "dual feasibility: pass" in out


def test_pathlab_csv_exports(tmp_path, e2_file):
    decay = tmp_path / "decay.csv"
    dom = tmp_path / "dom.csv"
    rc = main(
        ["pathlab", "--input", e2_file, "--horizon", "200",
         "--decay-csv", str(decay), "--domination-csv", str(dom)]
    )
    assert rc == 0
    assert decay.read_text().splitlines()[0] == "t,value"
    lines = dom.read_text().splitlines()
    assert lines[0] == "t,value" and len(lines) == 202


@pytest.mark.parametrize("n,seed", [(5, 30), (9, 10)])
def test_pathlab_on_path_anchored_twice_at_one_node(tmp_path, capsys, n, seed):
    # both ends of a path structure hang off the same unmatched node
    path = tmp_path / "er.json"
    args = ["generate", "--topology", "erdos_renyi", "--n", str(n), "--seed", str(seed),
            "--base", "1.0,1.6,2.3", "--jitter", "0.15", "--output", str(path)]
    assert main(args) == 0
    rc = main(["pathlab", "--input", str(path), "--horizon", "100", "--big-delta", "0.05", "--delta", "0.01"])
    out, err = capsys.readouterr()
    assert rc in (0, 1) and "Traceback" not in err
    assert "structure 0: sandwich" in out

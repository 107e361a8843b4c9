import json

import numpy as np
import pytest

from diffkin import bench, cli, kinematics, transforms, urdf

from conftest import ARM2R, CAM_ARM, MIXED


@pytest.fixture
def arm2r_file(tmp_path):
    p = tmp_path / "arm2r.urdf"
    p.write_text(ARM2R)
    return str(p)


@pytest.fixture
def configs_file(tmp_path):
    p = tmp_path / "configs.csv"
    p.write_text("0.0,0.0\n1.5707963267948966,0.0\n0.3,0.7\n")
    return str(p)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_document(capsys, arm2r_file):
    code, out, err = run_cli(capsys, "validate", arm2r_file)
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["name"] == "arm2r"
    assert doc["root"] == "base"
    assert doc["dof_total"] == 2
    names = [j["name"] for j in doc["joints"]]
    assert names == ["shoulder", "elbow", "wrist"]
    assert doc["leaf_chains"] == [["base", "upper", "lower", "tip"]]


def test_fk_json_values(capsys, arm2r_file, configs_file):
    code, out, _ = run_cli(capsys, "fk", arm2r_file, "base", "tip", configs_file, "--no-timing")
    assert code == 0
    doc = json.loads(out)
    assert doc["seed"] == 0
    assert len(doc["results"]) == 3
    first = doc["results"][0]
    np.testing.assert_allclose(
        np.array(first["transform"]).reshape(4, 4),
        [[1, 0, 0, 2], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        atol=1e-15,
    )
    np.testing.assert_allclose(first["pose"][:3], [2, 0, 0], atol=1e-15)
    assert first["degenerate"] is False
    assert "timing" not in doc["diagnostics"]


def test_fk_byte_identical_reruns(capsys, arm2r_file, configs_file):
    _, out1, _ = run_cli(capsys, "fk", arm2r_file, "base", "tip", configs_file, "--seed", "0", "--no-timing")
    _, out2, _ = run_cli(capsys, "fk", arm2r_file, "base", "tip", configs_file, "--seed", "0", "--no-timing")
    assert out1 == out2


def test_fk_floats_roundtrip_exactly(capsys, arm2r_file, tmp_path):
    cfg = tmp_path / "c.csv"
    thetas = [0.12345678901234567, -2.7182818284590451]
    cfg.write_text(",".join(repr(v) for v in thetas) + "\n")
    _, out, _ = run_cli(capsys, "fk", arm2r_file, "base", "tip", str(cfg), "--no-timing")
    doc = json.loads(out)
    chain = urdf.extract_chain(urdf.parse_urdf(ARM2R), "base", "tip")
    eng = kinematics.FkEngine(chain, batch_size=1)
    want = eng.forward(thetas)[0]
    got = np.array(doc["results"][0]["transform"]).reshape(4, 4)
    np.testing.assert_array_equal(got, want)  # 17 significant digits: exact


def test_fk_csv_output(capsys, arm2r_file, configs_file):
    code, out, _ = run_cli(capsys, "fk", arm2r_file, "base", "tip", configs_file, "--format", "csv", "--no-timing")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "index,x,y,z,alpha,beta,gamma"
    assert len(lines) == 4
    row0 = [float(v) for v in lines[1].split(",")[1:]]
    np.testing.assert_allclose(row0, [2, 0, 0, 0, 0, 0], atol=1e-15)


def test_fk_intermediates(capsys, arm2r_file, configs_file):
    _, out, _ = run_cli(capsys, "fk", arm2r_file, "base", "tip", configs_file, "--intermediates", "--no-timing")
    doc = json.loads(out)
    inter = doc["results"][0]["intermediates"]
    assert len(inter) == 3  # one per chain joint
    np.testing.assert_array_equal(inter[-1]["transform"], doc["results"][0]["transform"])
    assert [e["joint"] for e in inter] == ["shoulder", "elbow", "wrist"]


def test_fk_intermediates_need_json(capsys, arm2r_file, configs_file):
    """The CSV output holds only the poses, so it would drop every
    intermediate that --intermediates asks for."""
    code, out, err = run_cli(
        capsys, "fk", arm2r_file, "base", "tip", configs_file, "--intermediates", "--format", "csv", "--no-timing"
    )
    assert code == 4 and out == ""
    assert "--format json" in err


def test_fk_json_configs(capsys, arm2r_file, tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text("[[0.0, 0.0], [0.1, 0.2]]")
    code, out, _ = run_cli(capsys, "fk", arm2r_file, "base", "tip", str(cfg), "--no-timing")
    assert code == 0
    assert len(json.loads(out)["results"]) == 2


def test_jacobian_matches_library(capsys, arm2r_file, configs_file):
    code, out, _ = run_cli(capsys, "jacobian", arm2r_file, "base", "tip", configs_file, "--no-timing")
    assert code == 0
    doc = json.loads(out)
    chain = urdf.extract_chain(urdf.parse_urdf(ARM2R), "base", "tip")
    eng = kinematics.FkEngine(chain, batch_size=3)
    thetas = np.array([[0.0, 0.0], [np.pi / 2, 0.0], [0.3, 0.7]])
    jacs = kinematics.pose_jacobian(eng, thetas.ravel())
    for entry, want in zip(doc["results"], jacs):
        assert entry["shape"] == [6, 2]
        np.testing.assert_allclose(np.array(entry["jacobian"]).reshape(6, 2), want, atol=1e-12)


def test_identify_roundtrip(capsys, tmp_path):
    urdf_path = tmp_path / "cam.urdf"
    urdf_path.write_text(CAM_ARM)
    cfg = tmp_path / "id.json"
    cfg.write_text(json.dumps({"target_link": "camera", "base": "base", "end": "camera", "batch_size": 10, "max_steps": 600}))
    code, out, _ = run_cli(capsys, "identify", str(urdf_path), str(cfg), "--no-timing")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "converged"
    np.testing.assert_allclose(doc["init_hint"], [0.3, 0, 0.1, 0, 0, np.pi / 4], atol=1e-12)
    assert max(doc["param_error"]) < 1e-3


def test_identify_budget_exit_code(capsys, tmp_path):
    urdf_path = tmp_path / "cam.urdf"
    urdf_path.write_text(CAM_ARM)
    cfg = tmp_path / "id.json"
    cfg.write_text(json.dumps({"target_link": "camera", "base": "base", "end": "camera", "batch_size": 4, "max_steps": 2}))
    code, out, _ = run_cli(capsys, "identify", str(urdf_path), str(cfg), "--no-timing")
    assert code == 5
    assert json.loads(out)["status"] == "budget_exhausted"


def test_identify_missing_keys(capsys, tmp_path):
    urdf_path = tmp_path / "cam.urdf"
    urdf_path.write_text(CAM_ARM)
    cfg = tmp_path / "id.json"
    cfg.write_text(json.dumps({"target_link": "camera"}))
    code, _, err = run_cli(capsys, "identify", str(urdf_path), str(cfg))
    assert code == 4
    assert "error:" in err


def test_identify_rejects_num_configurations(capsys, tmp_path):
    urdf_path = tmp_path / "cam.urdf"
    urdf_path.write_text(CAM_ARM)
    cfg = tmp_path / "id.json"
    cfg.write_text(json.dumps({"target_link": "camera", "base": "base", "end": "camera", "num_configurations": 12}))
    code, _, err = run_cli(capsys, "identify", str(urdf_path), str(cfg))
    assert code == 4
    assert "num_configurations" in err


def test_identify_rejects_optimizer(capsys, tmp_path):
    urdf_path = tmp_path / "cam.urdf"
    urdf_path.write_text(CAM_ARM)
    cfg = tmp_path / "id.json"
    cfg.write_text(json.dumps({"target_link": "camera", "base": "base", "end": "camera", "optimizer": "adam"}))
    code, _, err = run_cli(capsys, "identify", str(urdf_path), str(cfg))
    assert code == 4
    assert "optimizer" in err


@pytest.mark.parametrize(
    "key, value",
    [
        ("batch_size", "10"),
        ("max_steps", "5"),
        ("seed", "x"),
        ("batch_size", None),
        ("batch_size", 2.5),
        ("max_steps", True),
        ("batch_size", 0),
        ("max_steps", -3),
        ("seed", -1),
        ("learning_rate", 0.02),
        ("epsilon", 1e-8),
        ("grad_epsilon", 1e-10),
        ("rotation_weight", 1.0),
    ],
)
def test_identify_rejects_malformed_or_retired_key(key, value, capsys, tmp_path):
    urdf_path = tmp_path / "cam.urdf"
    urdf_path.write_text(CAM_ARM)
    cfg = tmp_path / "id.json"
    cfg.write_text(json.dumps({"target_link": "camera", "base": "base", "end": "camera", key: value}))
    code, out, err = run_cli(capsys, "identify", str(urdf_path), str(cfg))
    assert code == 4 and out == ""
    assert key in err


def test_exit_code_json_integer_beyond_float_range(capsys, arm2r_file, tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text("[[0.1, 0.2], [1" + "0" * 400 + ", 0.0]]")
    code, out, err = run_cli(capsys, "fk", arm2r_file, "base", "tip", str(cfg))
    assert code == 4 and out == ""
    assert "configuration 1 has an entry beyond float range" in err


def test_identify_rejects_negative_seed_flag(capsys, tmp_path):
    urdf_path = tmp_path / "cam.urdf"
    urdf_path.write_text(CAM_ARM)
    cfg = tmp_path / "id.json"
    cfg.write_text(json.dumps({"target_link": "camera", "base": "base", "end": "camera"}))
    code, out, err = run_cli(capsys, "identify", str(urdf_path), str(cfg), "--seed", "-1")
    assert code == 4 and out == ""
    assert "--seed -1" in err and "'seed' must be non-negative" in err


def test_bench_rejects_negative_seed(capsys, arm2r_file):
    code, out, err = run_cli(capsys, "bench", arm2r_file, "base", "tip", "--batch-sizes", "1", "--seed", "-1")
    assert code == 4 and out == ""
    assert "seed must be non-negative" in err


@pytest.mark.parametrize("option, value", [("--seconds", "inf"), ("--seconds", "-3"), ("--repeats", "-2")])
def test_bench_rejects_unbounded_or_empty_timing(capsys, monkeypatch, arm2r_file, option, value):
    """Refused before anything is timed: --seconds inf never returned, and
    --repeats -2 ran once and exited 0."""
    monkeypatch.setattr(bench, "_timed_loop", None)
    code, out, err = run_cli(capsys, "bench", arm2r_file, "base", "tip", "--batch-sizes", "1", option, value)
    assert code == 4 and out == ""
    assert ("min_seconds" if option == "--seconds" else "repeats") in err


def test_bench_document(capsys, arm2r_file):
    code, out, _ = run_cli(
        capsys,
        "bench", arm2r_file, "base", "tip",
        "--batch-sizes", "1,8",
        "--seconds", "0.02",
        "--repeats", "1",
        "--no-timing",
    )
    assert code == 0
    doc = json.loads(out)
    assert [r["batch_size"] for r in doc["results"]] == [1, 8]
    assert doc["baseline_ops_per_sec"] > 0
    assert len(doc["ratios"]) == 2
    assert doc["threads"]


def test_exit_code_missing_file(capsys):
    code, _, err = run_cli(capsys, "validate", "/nonexistent/robot.urdf")
    assert code == 2 and "error:" in err


def test_exit_code_bad_urdf(capsys, tmp_path):
    p = tmp_path / "bad.urdf"
    p.write_text("<robot name='r'><link name='a'/><link name='a'/></robot>")
    code, _, err = run_cli(capsys, "validate", str(p))
    assert code == 2 and "error:" in err


def test_exit_code_non_finite_urdf_number(capsys, tmp_path):
    p = tmp_path / "nan.urdf"
    p.write_text(ARM2R.replace('<origin xyz="1 0 0"/>', '<origin xyz="nan 0 0"/>', 1))
    assert p.read_text() != ARM2R
    code, out, err = run_cli(capsys, "validate", str(p))
    assert code == 2 and out == "" and "origin xyz: non-finite" in err


def test_exit_code_unknown_link(capsys, arm2r_file, configs_file):
    code, _, err = run_cli(capsys, "fk", arm2r_file, "base", "nosuch", configs_file)
    assert code == 3 and "nosuch" in err


def test_exit_code_wrong_width(capsys, arm2r_file, tmp_path):
    cfg = tmp_path / "c.csv"
    cfg.write_text("0.1,0.2,0.3\n")
    code, _, err = run_cli(capsys, "fk", arm2r_file, "base", "tip", str(cfg))
    assert code == 4 and "error:" in err


@pytest.mark.parametrize("entry", [None, [1], "x", True, False, "0.5"])
def test_exit_code_non_numeric_json_entry(entry, capsys, arm2r_file, tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps([[0.1, 0.2], [entry, 0.0]]))
    for command in ("fk", "jacobian"):
        code, out, err = run_cli(capsys, command, arm2r_file, "base", "tip", str(cfg))
        assert code == 4 and out == ""
        assert "configuration 1 has a non-numeric entry" in err


def test_exit_code_bad_batch_sizes(capsys, arm2r_file):
    code, _, err = run_cli(capsys, "bench", arm2r_file, "base", "tip", "--batch-sizes", "1,x")
    assert code == 4 and "batch-sizes" in err


def test_csv_header_skipped(capsys, arm2r_file, tmp_path):
    cfg = tmp_path / "c.csv"
    cfg.write_text("shoulder,elbow\n0.0,0.0\n")
    code, out, _ = run_cli(capsys, "fk", arm2r_file, "base", "tip", str(cfg), "--no-timing")
    assert code == 0
    assert len(json.loads(out)["results"]) == 1


def test_zero_dof_chain_configs(capsys, tmp_path):
    text = """
    <robot name="r"><link name="a"/><link name="b"/>
    <joint name="j" type="fixed"><parent link="a"/><child link="b"/>
    <origin xyz="1 2 3"/></joint>
    </robot>"""
    up = tmp_path / "r.urdf"
    up.write_text(text)
    cfg = tmp_path / "c.csv"
    cfg.write_text("\n\n")  # two empty configurations
    code, out, _ = run_cli(capsys, "fk", str(up), "a", "b", str(cfg), "--no-timing")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["results"]) == 2
    np.testing.assert_allclose(doc["results"][0]["pose"][:3], [1, 2, 3])


def test_seed_echoed(capsys, arm2r_file, configs_file):
    _, out, _ = run_cli(capsys, "fk", arm2r_file, "base", "tip", configs_file, "--seed", "42", "--no-timing")
    assert json.loads(out)["seed"] == 42


def test_mixed_chain_fk_against_library(capsys, tmp_path, rng):
    up = tmp_path / "m.urdf"
    up.write_text(MIXED)
    model = urdf.parse_urdf(MIXED)
    chain = urdf.extract_chain(model, "base", "l6")
    thetas = rng.uniform(-1, 1, size=(2, chain.m))
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(thetas.tolist()))
    _, out, _ = run_cli(capsys, "fk", str(up), "base", "l6", str(cfg), "--no-timing")
    doc = json.loads(out)
    eng = kinematics.FkEngine(chain, batch_size=2)
    want = eng.forward(thetas.ravel())
    for k, entry in enumerate(doc["results"]):
        np.testing.assert_array_equal(np.array(entry["transform"]).reshape(4, 4), want[k])


_PRISMATIC2 = """
<robot name="p"><link name="a"/><link name="b"/><link name="c"/>
<joint name="j1" type="prismatic"><parent link="a"/><child link="b"/><axis xyz="1 0 0"/></joint>
<joint name="j2" type="prismatic"><parent link="b"/><child link="c"/><axis xyz="1 0 0"/></joint>
</robot>"""


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("argv", [["fk"], ["fk", "--format", "csv"], ["jacobian"]], ids=["fk", "fk_csv", "jacobian"])
def test_fk_refuses_overflowing_configs(argv, capsys, tmp_path):
    """Finite configurations whose transform overflows are a shape error with
    nothing on stdout, for fk as for jacobian: no bare inf that JSON cannot
    hold."""
    up = tmp_path / "p.urdf"
    up.write_text(_PRISMATIC2)
    cfg = tmp_path / "c.csv"
    cfg.write_text("1e308,1e308\n")
    code, out, err = run_cli(capsys, *argv, str(up), "a", "c", str(cfg), "--no-timing")
    assert code == 4 and out == ""
    assert f"non-finite value in {argv[0]} output" in err


_CHAIN_DOC = ["schema", "command", "seed", "chain", "results", "diagnostics"]
_ENVELOPES = {
    "validate": (
        ["validate", "{arm2r}"],
        ["schema", "command", "name", "root", "links", "joints", "dof_total", "leaf_chains"],
        None,
        None,
    ),
    "fk": (
        ["fk", "{arm2r}", "base", "tip", "{configs}"],
        _CHAIN_DOC,
        ["index", "transform", "pose", "degenerate"],
        ["degenerate_count"],
    ),
    "fk_intermediates": (
        ["fk", "{arm2r}", "base", "tip", "{configs}", "--intermediates"],
        _CHAIN_DOC,
        ["index", "transform", "pose", "degenerate", "intermediates"],
        ["degenerate_count"],
    ),
    "jacobian": (
        ["jacobian", "{arm2r}", "base", "tip", "{configs}"],
        _CHAIN_DOC,
        ["index", "shape", "jacobian"],
        [],
    ),
    "identify": (
        ["identify", "{cam}", "{identify}"],
        ["schema", "command", "seed", "target_link", "chain", "status", "steps", "final_loss",
         "params", "init_hint", "pose_error", "param_error", "diagnostics"],
        None,
        [],
    ),
    "bench": (
        ["bench", "{arm2r}", "base", "tip", "--batch-sizes", "1", "--seconds", "0.02", "--repeats", "1"],
        ["schema", "command", "seed", "chain", "results", "baseline_ops_per_sec", "ratios", "machine", "threads"],
        ["batch_size", "iterations", "seconds", "ops_per_sec"],
        None,
    ),
}


@pytest.mark.parametrize("no_timing", [False, True], ids=["timing", "no_timing"])
@pytest.mark.parametrize("case", list(_ENVELOPES))
def test_document_keys_in_order(case, no_timing, capsys, tmp_path, arm2r_file, configs_file):
    """Every document's top-level keys, a result entry's keys and the
    diagnostics' keys, in their printed order; the timing is last and only
    without --no-timing."""
    argv, keys, entry_keys, diagnostics = _ENVELOPES[case]
    cam = tmp_path / "cam.urdf"
    cam.write_text(CAM_ARM)
    identify_cfg = tmp_path / "id.json"
    identify_cfg.write_text(json.dumps({"target_link": "camera", "base": "base", "end": "camera", "max_steps": 2}))
    paths = {"arm2r": arm2r_file, "configs": configs_file, "cam": str(cam), "identify": str(identify_cfg)}
    argv = [arg.format(**paths) for arg in argv] + (["--no-timing"] if no_timing else [])
    code, out, err = run_cli(capsys, *argv)
    assert code == (5 if case == "identify" else 0) and err == ""
    doc = json.loads(out)
    assert list(doc) == keys
    assert (doc["schema"], doc["command"]) == (1, argv[0])
    if entry_keys is not None:
        assert [list(entry) for entry in doc["results"]] == [entry_keys] * len(doc["results"])
    if diagnostics is not None:
        assert list(doc["diagnostics"]) == diagnostics + ([] if no_timing else ["timing"])
        if not no_timing:
            assert list(doc["diagnostics"]["timing"]) == ["seconds"]

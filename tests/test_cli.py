import json

import pytest
from conftest import twobypass_chain_text

from bqkit import homotopy
from bqkit.cli import compute_example_report, cover_to_text, main
from bqkit.cover import universal_cover
from bqkit.dsl import parse_source
from bqkit.homotopy import fingerprint_key, homotopy_relation
from bqkit.ideal import ideals_equal

EXAMPLES = "src/bqkit/data/examples"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check(capsys):
    code, out, _ = run(capsys, "check", f"{EXAMPLES}/exple1.bq")
    assert code == 0
    assert "quiver exple1" in out
    assert "ideal I" in out


def test_paths(capsys):
    code, out, _ = run(capsys, "paths", f"{EXAMPLES}/exple1.bq")
    assert code == 0
    assert "d*c*b: 1 -> 4" in out


def test_paths_without_a_quiver_is_an_input_error(capsys, tmp_path):
    src = tmp_path / "empty.bq"
    src.write_text("# no declarations\n")
    code, out, err = run(capsys, "paths", str(src))
    assert code == 3 and not out
    assert err == "error: %s declares no quiver\n" % src


def test_pi1_json(capsys):
    code, out, _ = run(capsys, "pi1", f"{EXAMPLES}/exple1.bq", "--ideal", "I",
                       "--json")
    assert code == 0
    assert json.loads(out) == {"abelian_rank": 1, "torsion": []}


def test_homotopic_exit_codes(capsys):
    code, out, _ = run(capsys, "homotopic", f"{EXAMPLES}/exple1.bq",
                       "--ideal", "J", "a", "c*b")
    assert code == 0
    assert "Homotopic" in out
    code, out, _ = run(capsys, "homotopic", f"{EXAMPLES}/exple1.bq",
                       "--ideal", "I", "a", "c*b")
    assert code == 1
    assert "NotHomotopic" in out


def test_homotopic_unknown_names_the_cap(capsys, tmp_path, monkeypatch):
    # pi1 of two glued I0 units is Z2 * Z2: no certifier decides this
    # pair, the search runs out of walks within the length cap, and the
    # group is infinite, so the coset enumeration stops at its cap
    src = tmp_path / "chain.bq"
    src.write_text(twobypass_chain_text(2))
    code, out, _ = run(capsys, "homotopic", str(src), "--ideal", "I",
                       "--cap", "1", "d0^-1*b1^-1*c1^-1*a1*f0*e0*a0",
                       "e0^-1*f0^-1*b1^-1*c1^-1*a1*d0*a0")
    assert code == 2
    assert out == ("Unknown (the walk_length cap ended the search)\n"
                   "  the coset enumeration stopped at its cap of 10000 "
                   "cosets\n")
    monkeypatch.setattr(homotopy, "DEFAULT_MAX_STATES", 0)
    code, out, _ = run(capsys, "homotopic", str(src), "--ideal", "I",
                       "d0^-1*b1^-1*c1^-1*a1*f0*e0*a0",
                       "e0^-1*f0^-1*b1^-1*c1^-1*a1*d0*a0")
    assert code == 2
    assert out == ("Unknown (the max_states cap ended the search)\n"
                   "  the coset enumeration stopped at its cap of 10000 "
                   "cosets\n")


def test_gamma_and_source(capsys, tmp_path):
    dot = tmp_path / "g.dot"
    code, out, _ = run(capsys, "gamma", f"{EXAMPLES}/exple1.bq",
                       "--ideal", "I", "--dot", str(dot))
    assert code == 0
    assert "2 vertices, 1 edges, 1 source(s)" in out
    assert "digraph gamma" in dot.read_text()
    code, out, _ = run(capsys, "source", f"{EXAMPLES}/twobypass.bq",
                       "--ideal", "I1", "--char", "2")
    assert code == 0
    assert out.count("source:") == 2
    assert "warning" in out


def test_representative_cap_reaches_gamma_and_source(capsys):
    line = "vertex 0: representatives past the cap of 16 were not probed"
    code, out, _ = run(capsys, "gamma", f"{EXAMPLES}/twobypass.bq",
                       "--ideal", "I2", "--json")
    assert code == 0
    assert line in json.loads(out)["diagnostics"]
    code, out, _ = run(capsys, "source", f"{EXAMPLES}/twobypass.bq",
                       "--ideal", "I2")
    assert code == 0
    assert "warning: %s" % line in out.splitlines()


def test_surjection(capsys):
    code, out, _ = run(capsys, "surjection", f"{EXAMPLES}/exple1.bq", "I", "J")
    assert code == 0
    code, out, _ = run(capsys, "surjection", f"{EXAMPLES}/exple1.bq", "J", "I")
    assert code == 1


def test_cover_smash_lift_pipeline(capsys, tmp_path):
    code, out, _ = run(capsys, "cover", f"{EXAMPLES}/twobypass.bq",
                       "--ideal", "I0", "--radius", "8", "--json")
    assert code == 0
    assert json.loads(out) == {
        "action_generators": ["g_c", "g_f"],
        "arrows": 12,
        "complete": True,
        "covering_ok": True,
        "fibers": {"1": 2, "2": 2, "3": 2, "4": 2, "5": 2},
        "galois": "galois",
        "group_order": 2,
        "kind": "universal",
        "radius": 8,
        "rim_lifts": 0,
        "vertices": 10,
        "violations": [],
    }

    code, out, _ = run(capsys, "cover", f"{EXAMPLES}/exple1.bq",
                       "--ideal", "I", "--radius", "5")
    assert code == 2  # truncated

    code, out, _ = run(capsys, "smash", f"{EXAMPLES}/exple1.bq", "--ideal", "I",
                       "--group", "Z2", "--degrees", "a=1", "--json")
    assert code == 0
    assert json.loads(out) == {
        "action_generators": ["g_1"],
        "arrows": 8,
        "complete": True,
        "covering_ok": True,
        "fibers": {"1": 2, "2": 2, "3": 2, "4": 2},
        "galois": "galois",
        "group_order": 2,
        "kind": "smash",
        "radius": None,
        "rim_lifts": 0,
        "vertices": 8,
        "violations": [],
    }

    code, out, _ = run(capsys, "lift", f"{EXAMPLES}/exple1.bq", "--ideal", "I",
                       "--transvection", "a:c*b:-1", "--radius", "6", "--json")
    assert code == 0
    assert json.loads(out) == {
        "base_map": "phi(a, c*b, -1)",
        "checks": {
            "equivariance": 13,
            "fiber_sizes": {"w0": 5, "w1": 4, "w2": 4, "w3": 4},
            "kernel_abelianized": {"source_invariants": [1, []],
                                   "target_invariants": [0, []]},
            "relations": 4,
            "skipped_arrows": [],
            "squares": 16,
        },
        "target_complete": True,
    }

    code, out, _ = run(capsys, "pipeline", f"{EXAMPLES}/exple1.bq",
                       "--ideal", "I", "--group", "Z2", "--degrees", "a=1",
                       "--radius", "6", "--json")
    assert code == 0
    assert json.loads(out) == {
        "chain": [],
        "chord_images": {"c": "deck_1_1"},
        "commutes": True,
        "group_order": 2,
        "kernel": {"abelianized_index": 2, "group_order": 2, "image_order": 2,
                   "source_invariants": [1, []]},
        "surjective": True,
    }


def test_truncated_free_cover_exits_unknown(capsys, tmp_path):
    # a tree cut off at the radius has relation lifts running off its rim,
    # and a ball of radius 0 or 1 does not reach every vertex of the base:
    # no violation, so the verdict is "truncated", not "refuted"
    with open(f"{EXAMPLES}/twobypass.bq", encoding="utf-8") as fh:
        text = fh.read()
    src = tmp_path / "free.bq"
    src.write_text(text + "ideal F over twobypass(0) { rel d*a; rel f*e*c*b; }\n")
    for ideal, radius in (("F", "4"), ("I0", "0"), ("I0", "1")):
        code, out, _ = run(capsys, "cover", str(src), "--ideal", ideal,
                           "--radius", radius, "--json")
        assert code == 2
        payload = json.loads(out)
        assert payload["covering_ok"] is True
        assert payload["violations"] == []
        if ideal == "F":
            assert payload["rim_lifts"] > 0
        else:
            assert 0 in payload["fibers"].values()


def test_examples_golden(capsys):
    code, out, _ = run(capsys, "examples")
    assert code == 0
    assert "match" in out


def test_examples_report_deterministic():
    assert compute_example_report() == compute_example_report()


def test_input_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.bq"
    bad.write_text("quiver x { vertices 1; }")
    code, _, err = run(capsys, "check", str(bad))
    assert code == 3
    assert "error" in err


@pytest.mark.parametrize("argv", [
    ["lift", "--radius", "6"],
    ["lift", "--transvection", "a:c*b:-1", "--dilatation", "a=2"],
    ["lift", "--transvection", "a:c*b", "--radius", "6"],
    ["smash", "--group", "Zx", "--degrees", "a=1"],
    ["smash", "--group", "Z2", "--degrees", "a"],
    ["cover", "--radius", "-1"],
    ["lift", "--dilatation", "a=2", "--radius", "-1"],
    ["pipeline", "--radius", "-1"],
])
def test_malformed_arguments_are_input_errors(capsys, argv):
    """Malformed input exits 3 with a message, not 1 (refuted) through a
    traceback."""
    try:
        code = main(argv[:1] + [f"{EXAMPLES}/exple1.bq", "--ideal", "I"]
                    + argv[1:])
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    assert code == 3
    assert "error" in capsys.readouterr().err


def test_cover_export_round_trip(ideal_I0, tmp_path):
    cov = universal_cover(ideal_I0, radius=8)
    text = cover_to_text(cov)
    ws = parse_source(text)
    total_name = cov.total.name
    assert ws.quiver(total_name) == cov.total
    reimported = ws.ideal(total_name + "_ideal")
    assert ideals_equal(reimported, cov.total_ideal)
    assert ws.projections[total_name]["w0"] == cov.vertex_map["w0"]
    # fingerprints of the re-ingested bound quiver match the original's
    h1 = homotopy_relation(cov.total_ideal)
    h2 = homotopy_relation(reimported)
    assert fingerprint_key(h1) == fingerprint_key(h2)


def test_groebner_and_base_flag(capsys):
    code, out, _ = run(capsys, "groebner", f"{EXAMPLES}/twobypass.bq",
                       "--ideal", "I0")
    assert code == 0
    assert "hom(1, 5):" in out
    assert "f*e*a + d*c*b" in out
    code, out, _ = run(capsys, "groebner", f"{EXAMPLES}/exple1.bq",
                       "--ideal", "J", "--json")
    assert code == 0
    assert json.loads(out) == {"1->4": ["d*c*b - d*a"]}
    code, out, _ = run(capsys, "pi1", f"{EXAMPLES}/exple1.bq", "--ideal", "I",
                       "--base", "3", "--json")
    assert code == 0
    assert json.loads(out) == {"abelian_rank": 1, "torsion": []}

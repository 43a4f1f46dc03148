"""The pin manifest, tests/pins.json, is consistent with itself and with the goldens."""

import collections
import json
import os
import re
import subprocess
import sys

import pytest

import pins


def test_pin_ids_are_unique():
    ids = [pin["id"] for pin in pins.PINS]
    assert len(ids) == len(set(ids)), sorted(i for i, n in collections.Counter(ids).items() if n > 1)


def test_every_golden_hash_is_referenced_by_exactly_one_entry():
    references = collections.Counter(
        tuple(digest)
        for pin in pins.PINS
        for digest in pin["outputs"].values()
        if isinstance(digest, list)
    )
    golden = {(workload, name) for workload, names in pins.GOLDEN.items() for name in names}
    assert set(references) == golden
    assert all(count == 1 for count in references.values()), references


def test_every_hashed_output_has_a_digest_or_a_golden_reference():
    for pin in pins.PINS:
        assert pin["outputs"], pin["id"]
        for output, digest in pin["outputs"].items():
            if isinstance(digest, list):
                workload, name = digest
                assert name in pins.GOLDEN.get(workload, {}), (pin["id"], output)
            else:
                assert re.fullmatch("[0-9a-f]{64}", digest), (pin["id"], output)


def test_moves_name_only_known_levels_and_inputs_only_known_files():
    for pin in pins.PINS:
        assert set(pin["moves"]) <= set(pins.LEVELS), pin["id"]
        assert all(reason for reason in pin["moves"].values()), pin["id"]
        assert set(pin.get("inputs", [])) <= set(pins.MANIFEST["inputs"]), pin["id"]


def test_report_of_a_tree_against_itself_is_empty():
    assert pins.report(pins.SOURCE, pins.SOURCE, ["gate-5-3", "carpet-csv-program"]) == []


def test_report_command_ends_with_a_summary_and_exits_0_when_nothing_moved():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [pins.SOURCE, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, str(pins.HERE / "pins.py"), pins.SOURCE,
                             pins.SOURCE, "gate-5-3"], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "entries run: 1, outputs moved: 0\n"


def test_report_refuses_an_unknown_entry():
    with pytest.raises(ValueError, match="no pin entry gate-0"):
        pins.report(pins.SOURCE, pins.SOURCE, ["gate-0"])


def _gate_json(im: float) -> bytes:
    return json.dumps({"dim": 1, "entries": [[{"re": 0.5, "im": im}]]}, indent=2).encode()


def _pgm(width: int, levels: list) -> bytes:
    return f"P5\n{width} {len(levels) // width}\n255\n".encode() + bytes(levels)


@pytest.mark.parametrize("old,new,change", [
    (_gate_json(-0.25), _gate_json(-0.2505), "largest numeric change 0.0005"),
    (b"zeta,x,intensity\n0.0,0.0,0.25\n0.5,0.5,1.0\n",
     b"zeta,x,intensity\n0.0,0.0,0.25\n0.5,0.5,0.9999999999999998\n",
     "largest numeric change 2.22e-16"),
    (b"zeta,x,intensity\n0.0,0.0,0.25\n",
     b"zeta,x,intensity\n0.0,0.0,0.25\n0.5,0.0,1.0\n", "line count changed: 2 -> 3"),
    (b"zeta,x,intensity\n0.0,0.0,0.25\n", b"zeta,x,level\n0.0,0.0,0.25\n",
     "line 1 changed beyond its numbers"),
    (_pgm(2, [0, 10, 20, 255]), _pgm(2, [0, 13, 20, 251]), "largest level change 4"),
    (_pgm(2, [0, 10, 20, 255]), _pgm(4, [0, 10, 20, 255]), "shape changed: 2 2 -> 4 1"),
], ids=["json", "csv", "csv-row-count", "csv-header", "pgm", "pgm-shape"])
def test_largest_change(old, new, change):
    assert pins.largest_change(old, new) == change

"""The pin manifest, tests/pins.json, is consistent with itself and with the goldens."""

import collections
import re

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

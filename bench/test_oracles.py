"""Self-tests of the benchmark's oracles.

The benchmark runs these before every measurement; they also run under
pytest from the repository root:

    python3 -m pytest bench/test_oracles.py
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import qcondprob as qc  # noqa: E402

import inputs  # noqa: E402
import oracles  # noqa: E402


def test_forward_pass_gives_bayes_on_the_dim3_chain():
    value, survival = oracles.chain_pass(*inputs.dim3_chain_with_block_after_detector())
    assert math.isclose(value, 0.5, abs_tol=1e-12)
    assert math.isclose(survival, 2.0 / 3.0, abs_tol=1e-12)


def test_forward_pass_on_the_spin_fixtures():
    prep, final = inputs.spin_projector("z", "+"), inputs.spin_projector("z", "+")
    x = inputs.spin_projector("x", "+")
    for kind, expected in (("rejoin", 1.0), ("block", 0.5), ("detector", 0.5)):
        value, _ = oracles.chain_pass(prep, [(kind, x)], final)
        assert math.isclose(value, expected, abs_tol=1e-12), kind


def test_forward_pass_reads_the_spin_fixture_files():
    expected = {"chain_rejoined.json": 1.0, "chain_blocked.json": 0.5, "chain_detector.json": 0.5}
    for name, value in expected.items():
        got, _ = oracles.chain_pass(*inputs.chain_from_json(json.loads((ROOT / "fixtures" / name).read_text())))
        assert math.isclose(got, value, abs_tol=1e-12), name


def test_meet_oracle_matches_lattice_meet_where_it_converges():
    rng = np.random.default_rng(7)
    for d, theta in ((4, 0.3), (4, 1.2), (16, 0.5), (16, 1.0)):
        e, f, planted = inputs.meet_pair(rng, d, theta)
        expected = oracles.meet(e, f)
        assert np.linalg.norm(expected - planted) < 1e-9
        got = qc.lattice_meet(qc.validate_event(e), qc.validate_event(f)).matrix
        assert np.linalg.norm(got - expected) < 1e-6, (d, theta)


def test_meet_oracle_resolves_small_angles():
    rng = np.random.default_rng(8)
    e, f, planted = inputs.meet_pair(rng, 4, 1e-4)
    assert np.linalg.norm(oracles.meet(e, f) - planted) < 1e-9


def test_ks18_is_unsat():
    rays = [inputs.ray_projector(np.array(v, dtype=float)) for v in inputs.KS18_RAYS]
    pairs = oracles.orthogonal_pairs(rays)
    assert sorted(oracles.orthogonal_bases(rays)) == sorted(inputs.KS18_BASES)
    assert oracles.parity_unsat(len(rays), inputs.KS18_BASES)
    assert oracles.find_valuation(len(rays), inputs.KS18_BASES, pairs) is None
    dropped = inputs.KS18_BASES[1:]
    found = oracles.find_valuation(len(rays), dropped, pairs)
    assert found is not None and oracles.verify_valuation(found, dropped, pairs)


def test_peres33_has_16_bases_and_is_unsat():
    rays = [inputs.ray_projector(v) for v in inputs.peres33_rays()]
    bases = oracles.orthogonal_bases(rays)
    assert len(rays) == 33 and len(bases) == 16
    assert oracles.find_valuation(len(rays), bases, oracles.orthogonal_pairs(rays)) is None


def test_two_slit_coherent_profile_vanishes_on_odd_modes():
    obj = json.loads((ROOT / "fixtures" / "double_slit_dim8.json").read_text())
    prep = inputs.event_from_json(obj["preparation"])
    e1, e2 = inputs.event_from_json(obj["slit1"]), inputs.event_from_json(obj["slit2"])
    for k, det in enumerate(obj["detectors"]):
        terms = oracles.split_terms(prep, inputs.event_from_json(det), e1, e2)
        expected = math.cos(math.pi * k / 8) ** 2 * (1 + (-1) ** k) / 4
        assert math.isclose(terms["total"], expected, abs_tol=1e-12), k
        assert math.isclose(terms["incoherent"], math.cos(math.pi * k / 8) ** 2 / 4, abs_tol=1e-12), k


def test_binomial_check():
    assert oracles.binomial_ok(5000, 10000, 0.5)
    assert not oracles.binomial_ok(5300, 10000, 0.5)
    assert oracles.binomial_ok(10000, 10000, 1.0) and not oracles.binomial_ok(9998, 10000, 1.0)

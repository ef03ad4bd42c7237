"""The workloads: their inputs, their requests and their checks.

``acceptance`` is ``statgeom verify-all --seed S``.  The pair workloads
are closed loops whose inputs are made from the seed with numpy alone
(Ginibre matrices mixed toward I/N), never with ``statgeom.sampling``, so
a change there cannot alter them.  Every request gets inputs of its own,
drawn from the seed, its round and its dimension, so a run never repeats
an input.  Requests call the library through the ``statgeom`` package
namespace, looked up at call time, so the traced run's wrappers see them.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

ACCEPTANCE_WHY = (
    "the headline end-to-end number, and the only workload that runs the "
    "ten acceptance criteria"
)
SCHEMA = Path(__file__).resolve().parent.parent / "src/statgeom/schemas/verify-all.schema.json"


def verify_all_validator():
    import jsonschema

    return jsonschema.Draft202012Validator(json.loads(SCHEMA.read_text()))


def verify_all_passed(code: int, text, validator) -> bool:
    """A verify-all run passes: exit code 0, stdout valid against the
    schema, and every criterion passed."""
    try:
        report = json.loads(text)
    except ValueError:
        return False
    return code == 0 and validator.is_valid(report) and report["all_passed"]


def random_state(dim: int, rng: np.random.Generator, mix: float) -> np.ndarray:
    """Full-rank density matrix: a Ginibre state mixed toward I/N."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    rho = (1.0 - mix) * rho / np.trace(rho).real + mix * np.eye(dim) / dim
    return (rho + rho.conj().T) / 2


class PairWorkload:
    """A closed loop with one caller, fed state pairs at several dimensions.

    One round issues one request at each dimension in ascending order, so
    the dimensions have equal shares.
    """

    name = ""
    why = ""
    dims: tuple = ()
    small: tuple = ()
    large: tuple = ()
    mix = 0.0
    # Rounds of the traced run; fixed, so its counts repeat exactly.
    trace_rounds = 0

    def inputs(self, seed: int, round_: int, dim: int) -> tuple:
        """The arguments of one request after ``sg``: a state pair and the
        generator it was drawn from, which a request may draw on further."""
        rng = np.random.default_rng((seed, round_, dim))
        return random_state(dim, rng, self.mix), random_state(dim, rng, self.mix), rng

    def request(self, sg, rho1, rho2, rng):
        raise NotImplementedError

    def check(self, sg, rho1, rho2, out) -> bool:
        raise NotImplementedError


class StatePairs(PairWorkload):
    name = "state_pairs"
    why = (
        "the library path users call directly; lapack and linalg do most of "
        "its self time and billiard none, and small dimensions are bound by "
        "wrapper overhead while d=32 is bound by LAPACK"
    )
    dims = (2, 4, 8, 16, 32)
    small = (2, 4)
    large = (16, 32)
    mix = 0.10
    trace_rounds = 100

    def request(self, sg, rho1, rho2, rng):
        sg.fidelity(rho1, rho2)
        angle = sg.bures_angle(rho1, rho2)
        elements = sg.optimal_measurement(rho1, rho2)
        classical = sg.povm_classical_angle(elements, rho1, rho2)
        path = sg.geodesic(rho1, rho2)
        mid = path.state(path.t_star / 2)
        return angle, classical, path.t_star, mid

    def check(self, sg, rho1, rho2, out) -> bool:
        angle, classical, t_star, mid = out
        if abs(classical - angle) > 1e-9 or abs(t_star - angle) > 1e-9:
            return False
        try:
            mid = sg.density_matrix(mid)
        except sg.ValidationError:
            return False
        return abs(sg.bures_angle(rho1, mid) - t_star / 2) <= 1e-8


class Billiard(PairWorkload):
    name = "billiard"
    why = (
        "bounce_points is nearly all of each call and grows steeply with "
        "dimension, so billiard changes show here and not on state_pairs"
    )
    dims = (2, 4, 8, 12)
    small = (2, 4)
    large = (8, 12)
    mix = 0.15
    trace_rounds = 24

    def request(self, sg, rho1, rho2, rng):
        return sg.verify_billiard_theorem(rho1, rho2)

    def check(self, sg, rho1, rho2, out) -> bool:
        return out["matched"] and len(out["bounce_ts"]) == out["dim"] == len(rho1)


class MeansClassical(PairWorkload):
    """The layers only ``verify-all`` reached before: operator means,
    classical Fisher-Rao geometry, sampling and canonical serialization.

    Each request takes the three operator means of its pair, measures both
    states with a random POVM (``sampling``), pushes the outcome
    distributions through a random stochastic map and compares their
    Fisher-Rao distances before and after (``classical``), and writes the
    geometric mean and the distances as canonical JSON and parses the mean
    back (``serialize``).  The POVM and the map are drawn from the
    request's own numpy generator.
    """

    name = "means_classical"
    why = (
        "operator means, Fisher-Rao distances, random POVMs and canonical "
        "JSON: the means, classical, sampling and serialize layers, which "
        "the other workloads never call"
    )
    dims = (2, 3, 4, 6)
    small = (2, 3)
    large = (4, 6)
    mix = 0.10
    trace_rounds = 100

    def request(self, sg, rho1, rho2, rng):
        harmonic = sg.harmonic_mean(rho1, rho2)
        geometric = sg.geometric_mean(rho1, rho2)
        arithmetic = sg.arithmetic_mean(rho1, rho2)
        outcomes = len(rho1) + 1
        povm = sg.random_povm(len(rho1), outcomes, rng)
        p = sg.probability_vector(np.einsum("kij,ji->k", povm, rho1).real)
        q = sg.probability_vector(np.einsum("kij,ji->k", povm, rho2).real)
        channel = sg.random_stochastic_matrix(outcomes - 1, outcomes, rng)
        before = sg.fr_geodesic_distance(p, q)
        after = sg.fr_geodesic_distance(
            sg.apply_stochastic(channel, p), sg.apply_stochastic(channel, q)
        )
        text = sg.serialize.dumps_canonical({"geometric_mean": geometric, "fr": [before, after]})
        parsed = sg.serialize.parse_complex_matrix(json.loads(text)["geometric_mean"])
        return harmonic, geometric, arithmetic, p, q, before, after, parsed

    def check(self, sg, rho1, rho2, out) -> bool:
        """H <= G <= A in the PSD order, G solves G A^-1 G = B, the
        distance is the arc between the sphere embeddings and does not
        grow under the map, and the mean survives its JSON round trip."""
        harmonic, geometric, arithmetic, p, q, before, after, parsed = out
        slack = min(
            np.linalg.eigvalsh(geometric - harmonic).min(),
            np.linalg.eigvalsh(arithmetic - geometric).min(),
        )
        riccati = geometric @ np.linalg.solve(rho1, geometric) - rho2
        arc = np.arccos(np.clip(np.dot(np.sqrt(p), np.sqrt(q)), 0.0, 1.0))
        return bool(
            slack >= -1e-12
            and np.linalg.norm(riccati) <= 1e-9 * np.linalg.norm(rho2)
            and abs(before - arc) <= 1e-12
            and after <= before + 1e-12
            and np.array_equal(parsed, geometric)
        )


PAIR_WORKLOADS = {w.name: w for w in (StatePairs(), Billiard(), MeansClassical())}

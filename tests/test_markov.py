import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptmarkov import (
    ClassicalProcess,
    DimensionMismatch,
    Instrument,
    NotPositive,
    ProcessTensor,
    QuantumMap,
    SEModel,
    ValidationError,
    bond_dimension,
    build_process_tensor,
    classical_markov_check,
    classical_process,
    confusion_probability,
    divisibility_test,
    markov_test,
    model_b2,
    model_markov,
    non_markovianity,
    partial_trace,
    tensor_product,
    trace_norm_distance,
)
from ptmarkov.random_ops import (
    computational_reprepare_instrument,
    random_control_sequence,
    random_cptp,
    random_density,
    random_unitary,
)

from oracles import (
    P0,
    P1,
    PP,
    apply_local_channel,
    b3_choi_analytic,
    b3_classical_table,
    bloch_vectors,
    bond_dimension_unfoldings,
    classical_process_einsum,
    closest_markov,
    conditional_output_loop,
    diameter_bloch_all_pairs,
    diameter_general_batched,
    diameter_general_loop,
    diameter_qubit_all_pairs,
    markov_test_loop,
    random_reprepare_instrument,
    relative_entropy_eig,
    schmidt_rank_across,
    traced_peak,
    unfolding_singular_values,
)

IDENT = QuantumMap.identity(2)


# ---------------------------------------------------------------------------
# markov_test
# ---------------------------------------------------------------------------

def test_markov_test_passes_on_product(markov_pt2, markov_pt3):
    for pt in (markov_pt2, markov_pt3):
        rep = markov_test(pt)
        assert rep.is_markov
        assert rep.max_deviation <= 1e-9
        assert rep.witness is None
        assert not rep.inconclusive_groups


def test_markov_test_flags_b3_with_witness(b3_pt):
    rep = markov_test(b3_pt, exhaustive=True)
    assert not rep.is_markov
    assert rep.max_deviation > 0.1
    a, b = rep.witness
    # the memory enters through the past controls, not the break outcome
    assert a.past != b.past
    assert a.preparation == b.preparation


def test_markov_test_flags_b2_with_closed_form_deviation(b2_pt):
    from ptmarkov import b2_conditional_output, default_break
    rep = markov_test(b2_pt, exhaustive=True)
    assert not rep.is_markov
    assert rep.max_deviation > 10 * rep.tolerance
    # cross-check the scale of the deviation against the closed form for
    # prepared initial states and all break outcomes
    theta = math.pi / 4
    brk = default_break(2)
    closed = []
    for rho_n in brk.preparations:
        for r in range(4):
            closed.append(b2_conditional_output(
                brk.preparations[0], rho_n, brk.effects[r], theta, theta))
    spread = max(trace_norm_distance(a, b)
                 for i, a in enumerate(closed) for b in closed[i + 1:])
    assert rep.max_deviation >= spread - 1e-9


def test_markov_test_flags_b1(b1_pt):
    rep = markov_test(b1_pt)
    assert not rep.is_markov
    assert rep.max_deviation > 0.1


def test_one_step_process_is_vacuously_markov():
    """A single step from an uncorrelated initial state has one causal
    break, at slot 0, that finds no memory, and no triple of times."""
    model = model_markov([IDENT], P0)
    pt = build_process_tensor(model, (0.0, 1.0))
    rep = markov_test(pt)
    assert rep.is_markov
    assert rep.max_deviation == 0.0
    assert rep.breaks_tested == ((0, 1),)
    assert rep.witness is None
    div = divisibility_test(pt)
    assert div.triple_defects == ()
    assert div.max_defect == 0.0


def test_markov_test_breaks_scanned(b3_pt):
    rep = markov_test(b3_pt, exhaustive=True)
    assert rep.breaks_tested == ((1, 2), (0, 1), (0, 2))


def test_markov_test_inconclusive_on_degenerate_data(b3_pt):
    """When every conditional at some group falls below the probability
    floor, the report is marked inconclusive rather than guessed."""
    from ptmarkov import ProcessTensor
    degenerate = ProcessTensor(np.zeros_like(b3_pt.choi), 2, b3_pt.times)
    rep = markov_test(degenerate, exhaustive=True)
    assert rep.inconclusive_groups
    assert rep.skipped_conditionals > 0


def _states_from_bloch(b):
    """Qubit states (I + b.sigma) / 2 for the rows of b."""
    b = np.asarray(b, dtype=float)
    out = np.empty((len(b), 2, 2), dtype=complex)
    out[:, 0, 0] = (1 + b[:, 2]) / 2
    out[:, 1, 1] = (1 - b[:, 2]) / 2
    out[:, 0, 1] = (b[:, 0] - 1j * b[:, 1]) / 2
    out[:, 1, 0] = (b[:, 0] + 1j * b[:, 1]) / 2
    return out


def _points_of(states):
    """``_points`` of normalized states, handed over as raw outputs of
    probability 1 with every row kept; a copy, since for d > 2 it divides
    its outputs in place."""
    from ptmarkov.markov import _points
    n = len(states)
    return _points(states.copy(), np.ones(n), np.arange(n))


def _spy_points(monkeypatch):
    """Record each group that markov_test hands ``_points``: its kept
    outputs normalized as ``outs[rows] / probs[rows]``, the states its
    points stand for, and the points ``_points`` makes of them."""
    import ptmarkov.markov as markov
    groups, points = [], markov._points

    def spy(outs, probs, rows):
        states = outs[rows] / probs[rows, None, None]
        groups.append((states, points(outs, probs, rows)))
        return groups[-1][1]
    monkeypatch.setattr(markov, "_points", spy)
    return groups


def _ball(rng, n):
    """n points filling the unit ball evenly."""
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True) \
        * rng.uniform(size=(n, 1)) ** (1 / 3)


def _cloud(kind, rng):
    if kind == "ball":
        return _ball(rng, 2000)
    if kind == "shell":
        v = rng.normal(size=(1500, 3))
        return v / np.linalg.norm(v, axis=1, keepdims=True)
    if kind == "ball-multiblock":  # the oracle scans it in several blocks
        return 0.9 * _ball(rng, 5000)
    if kind == "cluster-1e-15":
        return np.array([0.3, -0.2, 0.5]) + 1e-15 * rng.normal(size=(1024, 3))
    if kind == "identical":
        return np.tile([0.1, 0.2, -0.3], (300, 1))
    if kind == "duplicates":
        return rng.normal(size=(7, 3))[rng.integers(0, 7, size=900)] / 3
    if kind == "axis-copies":
        # only exact copies of +-e_x, +-e_y, +-e_z: every box is a point,
        # every bound between opposite copies equals the diameter, and
        # more than one batch of cell pairs ties with it. Extra +e_y
        # copies put the seed on the y axis; the first pair is (0, first
        # -e_x copy).
        axes = np.concatenate([np.eye(3), -np.eye(3)])
        pick = rng.choice(6, size=4000, p=[1 / 7, 2 / 7] + [1 / 7] * 4)
        pick[0] = 0
        return axes[pick]
    if kind == "ties":
        # +-e_x, +-e_y, +-e_z, 48 copies each, scattered among interior
        # points: thousands of pairs at distance 2, and the farthest-point
        # seed need not be the first of them
        pts = 0.5 * rng.uniform(-1, 1, size=(600, 3))
        slots = rng.permutation(600)[:288].reshape(6, 48)
        for axis in range(3):
            for sign in (0, 1):
                pts[slots[2 * axis + sign]] = 0.0
                pts[slots[2 * axis + sign], axis] = 1.0 - 2.0 * sign
        return pts
    if kind in ("near-tie", "near-tie-multiblock"):
        # |q - (-q)| and |q' - (-q')| for a permutation q' of q round to the
        # same distance, but their squared distances differ in the last
        # bit; the smaller one comes first, and 2998 interior points push
        # the larger one into a later block of the oracle's scan, where it
        # still wins: the larger squared distance wins in any block
        q = np.array([0.34, 0.39, 0.2])
        n_fill = 196 if kind == "near-tie" else 2996
        return np.concatenate([[q, -q], 0.1 * rng.uniform(-1, 1, (n_fill, 3)),
                               [q[[0, 2, 1]], -q[[0, 2, 1]]]])
    if kind == "overflow":
        # radii below 1.34e154 keep finite squares, but the squared
        # distances across the ball overflow to inf: the seed distance is
        # not finite, and the radial prefilter keeps every point
        return 1e154 * _ball(rng, 300)
    if kind == "one":
        return np.array([[0.1, 0.2, 0.3]])
    if kind == "two":
        return np.array([[0.1, 0.2, 0.3], [-0.4, 0.0, 0.2]])
    raise ValueError(kind)


@pytest.mark.parametrize("kind", ["ball", "shell", "ball-multiblock",
                                  "cluster-1e-15", "identical", "duplicates",
                                  "axis-copies", "ties", "near-tie",
                                  "near-tie-multiblock", "overflow", "one",
                                  "two"])
def test_bloch_diameter_bit_identical_to_all_pairs(kind):
    from ptmarkov.markov import _diameter
    states = _states_from_bloch(_cloud(kind, np.random.default_rng(71)))
    b = _points_of(states)
    if kind.startswith("near-tie"):
        d2 = [float(((b[i] - b[i + 1]) ** 2).sum()) for i in (0, len(b) - 2)]
        assert d2[0] < d2[1] and math.sqrt(d2[0]) == math.sqrt(d2[1])
    with np.errstate(over="ignore"):
        got = _diameter(b)
        assert got == diameter_qubit_all_pairs(states)
    assert type(got[0]) is float


@st.composite
def _tie_clouds(draw):
    """Up to 3000 points: a ball, a shell or a rounding-level cluster with
    antipodal pairs planted on its circumscribed sphere about 0 (about its
    mean for a cluster), optionally copied from a pool of a few points
    that holds the planted ones. The planted pairs are signed coordinate
    permutations of one vector, so their squared distances are the
    largest and tie or differ in the last bits; copies fill whole cells,
    whose box bounds then equal them."""
    n = draw(st.integers(1, 3000))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["ball", "shell", "cluster"]))
    if kind == "cluster":
        b = rng.uniform(-0.5, 0.5, 3) + 1e-15 * rng.normal(size=(n, 3))
    else:
        b = rng.normal(size=(n, 3))
        b /= np.linalg.norm(b, axis=1, keepdims=True)
        if kind == "ball":
            b *= rng.uniform(size=(n, 1)) ** (1 / 3)
    center = b.mean(axis=0) if kind == "cluster" else np.zeros(3)
    q = rng.normal(size=3)
    q *= np.linalg.norm(b - center, axis=1).max() / np.linalg.norm(q)
    slots = rng.permutation(n)[:2 * draw(st.integers(0, 6))]
    for i, j in zip(slots[0::2], slots[1::2]):
        v = q[rng.permutation(3)] * rng.choice([-1.0, 1.0], size=3)
        b[i], b[j] = center + v, center - v
    pool = draw(st.sampled_from([0, 4, n // 16]))
    if pool:
        b = b[rng.choice(np.concatenate([slots, rng.permutation(n)[:pool]]),
                         size=n)]
    return b


@settings(max_examples=40, deadline=None)
@given(_tie_clouds())
def test_bloch_diameter_matches_all_pairs_property(cloud):
    from ptmarkov.markov import _diameter
    states = _states_from_bloch(cloud)
    assert _diameter(_points_of(states)) == \
        diameter_qubit_all_pairs(states)


def test_bloch_diameter_bounds_stay_linear(monkeypatch):
    """Design tripwire: the search bounds only the child pairs of the cell
    pairs that survive the level above, never a table of every cell pair.
    On a shell of 2**14 points (512 leaf cells, a full table of 262 144
    ordered cell pairs) it bounds fewer than 4 times as many box pairs as
    there are points, summed over all levels."""
    import ptmarkov.markov as markov
    v = np.random.default_rng(73).normal(size=(2 ** 14, 3))
    b = v / np.linalg.norm(v, axis=1, keepdims=True)
    pairs = []
    bound = markov._box_bound

    def counted(*boxes):
        out = bound(*boxes)  # one bound per box pair
        pairs.append(out.size)
        return out

    monkeypatch.setattr(markov, "_box_bound", counted)
    markov._diameter(b)
    assert 0 < sum(pairs) < 4 * len(b)


def test_bloch_diameter_bit_identical_on_b2_groups(monkeypatch):
    """Every group of a three-step B.2 sweep; several hold pairs whose
    distances round to the same maximum while their squared distances
    differ in the last bit. The points made from the raw outputs are the
    Bloch vectors of the normalized states, bit for bit."""
    from ptmarkov.markov import _diameter
    rng = np.random.default_rng(1)
    theta = rng.uniform(0.6, 1.0)
    model = model_b2(1.0, rho_s=random_density(2, rng))
    pt = build_process_tensor(model, [j * theta for j in range(4)])
    groups = _spy_points(monkeypatch)
    markov_test(pt, exhaustive=True)
    monkeypatch.undo()
    assert groups
    for states, points in groups:
        assert np.array_equal(points, bloch_vectors(states))
        assert _diameter(points) == diameter_qubit_all_pairs(states)


def _kept_counts(monkeypatch):
    """Record how many points each ``_diameter`` call hands to its
    dual tree, after the radial prefilter."""
    import ptmarkov.markov as markov
    counts = []
    tree = markov._dual_tree
    monkeypatch.setattr(markov, "_dual_tree", lambda b, kept, *seed: (
        counts.append(kept.size) or tree(b, kept, *seed)))
    return counts


@pytest.mark.parametrize("kind", ["ball", "ball-off-centre", "cluster-1e-15",
                                  "cluster-1e-160"])
@pytest.mark.parametrize("seed", range(3))
def test_bloch_diameter_planted_far_pairs(kind, seed, monkeypatch):
    """A ball-filling cloud of 3000 points with far pairs planted on its
    circumscribed sphere: antipodal signed permutations of one vector,
    whose squared distances tie or differ in the last bits, and points one
    ulp inside them. The radial prefilter drops most of the ball, and the
    first pair at the largest squared distance survives it. On a cluster
    of spread 1e-160, whose squares underflow, the absolute floor keeps
    every point."""
    from ptmarkov.markov import _diameter
    rng = np.random.default_rng(seed)
    scale, centre = {"ball": (1.0, np.zeros(3)),
                     "ball-off-centre": (0.4, np.array([0.3, -0.2, 0.1])),
                     "cluster-1e-15": (1e-15, np.array([0.3, -0.2, 0.5])),
                     "cluster-1e-160": (1e-160, np.zeros(3))}[kind]
    b = centre + scale * _ball(rng, 3000)
    q = rng.normal(size=3)
    q *= scale / np.linalg.norm(q)
    slots = rng.permutation(len(b))[:16]
    for i, j in zip(slots[0:8:2], slots[1:8:2]):
        v = q[rng.permutation(3)] * rng.choice([-1.0, 1.0], size=3)
        b[i], b[j] = centre + v, centre - v
    b[slots[8:]] = np.nextafter(b[slots[:8]], centre)
    counts = _kept_counts(monkeypatch)
    assert _diameter(b) == diameter_bloch_all_pairs(b)
    if kind == "cluster-1e-160":
        assert counts == [len(b)]
    else:
        assert 16 <= counts[0] < len(b)


def test_bloch_diameter_at_radial_threshold(monkeypatch):
    """Points at the prefilter's threshold: on the ray from the point m
    farthest from the box midpoint c through c, at the computed radius
    sqrt(best) - r_m, so that in exact arithmetic each lies at the seed
    distance from m and ties with the seed pair. Rounding alone decides
    whether it wins; placed first in index order it wins the tie too. In
    1000 seeded clouds of 64 points, the point sits at the threshold or one
    ulp per coordinate toward or away from c, inside the bounding box,
    which it leaves unchanged. Each cloud of 65 points is one above the
    all-pairs threshold, so every call runs the prefilter and the tree. A
    filter comparing r_x + r_max with sqrt(best) with no rounding margin
    drops the winner in seven of these 3000 clouds."""
    from ptmarkov.markov import _diameter
    counts = _kept_counts(monkeypatch)
    for seed in range(1000):
        rng = np.random.default_rng(seed)
        a, h = rng.uniform(0.6, 1.0), rng.uniform(0.2, 0.8)
        base = rng.uniform(-0.3, 0.3, 3) + np.concatenate([
            [[a, 0, 0], [-a, 0, 0], [0, h, 0]],
            [0, h / 2, 0] + 0.2 * h * _ball(rng, 61)])
        base = base[:, rng.permutation(3)]
        lo, hi = base.min(axis=0), base.max(axis=0)
        c = (lo + hi) / 2
        r = np.sqrt(((base - c) ** 2).sum(axis=-1))
        m = int(np.argmax(r))
        best = diameter_bloch_all_pairs(base)[0]
        x = c + (best - r[m]) / r[m] * (c - base[m])
        for ulps in (-1, 0, 1):
            b = np.concatenate([[np.nextafter(x, x + ulps * (x - c))], base])
            assert (b.min(axis=0) == lo).all() and (b.max(axis=0) == hi).all()
            assert _diameter(b) == diameter_bloch_all_pairs(b), seed
    assert len(counts) == 3000


def test_bloch_diameter_prefilter_shrinks_b2_group(monkeypatch):
    """Design tripwire: on the first group of a seeded four-step B.2 sweep
    (16 256 states), the dual tree sees at most 10 % of the points; the
    radial prefilter drops the rest."""
    rng = np.random.default_rng(1)
    theta = rng.uniform(0.6, 1.0)
    model = model_b2(1.0, rho_s=random_density(2, rng))
    pt = build_process_tensor(model, [j * theta for j in range(5)])
    groups = _spy_points(monkeypatch)
    counts = _kept_counts(monkeypatch)
    assert not markov_test(pt).is_markov
    sizes = [len(states) for states, _ in groups]
    assert sizes[0] > 10 ** 4
    assert 0 < counts[0] <= sizes[0] // 10


def _small_cloud(kind, n, rng):
    """n Bloch vectors of one kind, for groups near the all-pairs
    threshold of 64 points."""
    if kind == "ties":
        # +-e_x, +-e_y, +-e_z in turn among interior points: from n = 4 on,
        # several pairs tie at distance 2
        pts = 0.5 * rng.uniform(-1, 1, size=(n, 3))
        axes = np.concatenate([np.eye(3), -np.eye(3)])[[0, 3, 1, 4, 2, 5]]
        for m, slot in enumerate(rng.permutation(n)[:12]):
            pts[slot] = axes[m % 6]
        return pts
    if kind == "duplicates":
        return rng.normal(size=(3, 3))[rng.integers(0, 3, size=n)] / 3
    if kind == "identical":
        return np.tile([0.1, 0.2, -0.3], (n, 1))
    if kind == "cluster-1e-15":
        return np.array([0.3, -0.2, 0.5]) + 1e-15 * rng.normal(size=(n, 3))
    if kind == "cluster-1e-160":  # some squared distances underflow to 0
        return 1e-160 * rng.normal(size=(n, 3))
    if kind == "overflow":  # squared distances across the ball are inf
        return 1e154 * _ball(rng, n)
    raise ValueError(kind)


@pytest.mark.parametrize("kind", ["ties", "duplicates", "identical",
                                  "cluster-1e-15", "cluster-1e-160",
                                  "overflow"])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 32, 63, 64, 65])
def test_bloch_diameter_bit_identical_at_all_pairs_threshold(kind, n,
                                                            monkeypatch):
    """Up to 64 points take one all-pairs leaf call, 65 the prefilter and
    the tree; on both sides the value and the first pair equal the
    all-pairs scan's, bit for bit."""
    from ptmarkov.markov import _diameter
    b = _small_cloud(kind, n, np.random.default_rng(n))
    counts = _kept_counts(monkeypatch)
    with np.errstate(over="ignore"):
        got = _diameter(b)
        assert got == diameter_bloch_all_pairs(b)
    assert type(got[0]) is float
    if kind == "identical":
        assert got == (0.0, 0, 0)
    assert len(counts) == (n > 64 and kind != "identical")


def test_memoryless_two_step_sweep_skips_the_tree(markov_pt2, monkeypatch):
    """Design tripwire: the groups of a memoryless two-step sweep hold 64
    states (16 pasts times 4 outcomes, break at slot 1) or 4 (break at
    slot 0), so no diameter reaches the dual tree."""
    groups = _spy_points(monkeypatch)
    counts = _kept_counts(monkeypatch)
    assert markov_test(markov_pt2).is_markov
    assert max(len(states) for states, _ in groups) == 64 and counts == []


def _qutrit_group(kind, rng):
    if kind == "random":
        return np.stack([random_density(3, rng) for _ in range(150)])
    if kind == "duplicates":
        pool = np.stack([random_density(3, rng) for _ in range(6)])
        return pool[rng.integers(0, 6, size=120)]
    if kind == "identical":
        return np.tile(random_density(3, rng), (40, 1, 1))
    if kind == "one":
        return random_density(3, rng)[None]
    if kind.startswith("cluster-"):
        # noise that is neither Hermitian nor trace-free, as rounding leaves
        # in markov_test's outs / probs groups; eight entries of |0><0| are
        # zero, so a spread of 1e-160 survives in them
        scale = float(kind[len("cluster-"):])
        base = random_density(3, rng) if scale > 1e-100 else \
            np.diag([1.0, 0.0, 0.0]).astype(complex)
        noise = rng.normal(size=(2, 200, 3, 3))
        return base + scale * (noise[0] + 1j * noise[1])
    raise ValueError(kind)


@pytest.mark.parametrize("kind", ["random", "duplicates", "identical", "one",
                                  "cluster-1e-15", "cluster-1e-160"])
def test_general_diameter_bit_identical_to_loop(kind):
    """The d > 2 diameter: same value and same first pair as the pairwise
    loop, bit for bit, on rounding-level clusters too."""
    from ptmarkov.markov import _diameter
    states = _qutrit_group(kind, np.random.default_rng(72))
    got = _diameter(_points_of(states))
    assert got == diameter_general_loop(states)
    assert type(got[0]) is float
    if kind == "duplicates":
        assert got[0] > 0.0
    if kind in ("identical", "one"):
        assert got == (0.0, 0, 0)
    if kind.startswith("cluster-"):
        scale = float(kind[len("cluster-"):])
        assert scale < got[0] < 100 * scale


@pytest.mark.parametrize("kind", ["random", "duplicates", "identical",
                                  "cluster-1e-15", "cluster-1e-160"])
@pytest.mark.parametrize("n", [9, 10, 11])
def test_general_diameter_bit_identical_at_all_pairs_threshold(kind, n,
                                                              monkeypatch):
    """Up to 10 qutrit states take one all-pairs leaf call, 11 the
    prefilter and the tree; on both sides the value and the first pair
    equal the batched all-pairs scan's, bit for bit."""
    from ptmarkov.markov import _diameter
    states = _qutrit_group(kind, np.random.default_rng(n))[:n]
    counts = _kept_counts(monkeypatch)
    got = _diameter(_points_of(states))
    assert got == diameter_general_batched(states)
    assert type(got[0]) is float
    assert len(counts) == (n > 10 and kind != "identical")


def _qutrit_dilation(kind, k=2):
    """A seeded qutrit K-step dilation: memoryless (``model_markov``) or a
    random joint unitary on a qubit environment from a random joint
    state, which carries memory."""
    rng = np.random.default_rng(15)
    if kind == "markov":
        model = model_markov(random_control_sequence(3, k, rng, kraus_rank=2),
                             random_density(3, rng))
    else:
        model = SEModel(system_dim=3, env_dim=2,
                        initial_joint=random_density(6, rng),
                        step_unitaries=tuple(random_unitary(6, rng)
                                             for _ in range(k)))
    return build_process_tensor(model, range(k + 1))


@pytest.fixture(scope="module")
def qutrit_sweeps():
    """Every group of the causal-break sweeps of both seeded dilations,
    captured on their way to the diameter as (points, the batched
    all-pairs scan's diameter of its states): the memoryless one as it
    runs by default, the joint unitary exhaustively."""
    sweeps = {}
    for kind in ("markov", "joint"):
        pt = _qutrit_dilation(kind)
        with pytest.MonkeyPatch.context() as mp:
            groups = _spy_points(mp)
            report = markov_test(pt, exhaustive=kind == "joint")
        sweeps[kind] = pt, report, [
            (points, diameter_general_batched(states))
            for states, points in groups]
    return sweeps


@pytest.mark.parametrize("kind", ["markov", "joint"])
def test_general_diameter_bit_identical_on_qutrit_sweeps(kind, qutrit_sweeps):
    """On every group of a qutrit K = 2 sweep (729 states each at break
    slot 1, the 9 break outcomes at slot 0), the value and the first pair
    equal the batched all-pairs scan's, bit for bit."""
    from ptmarkov.markov import _diameter
    _, report, groups = qutrit_sweeps[kind]
    assert len(groups) == 27 and report.is_markov is (kind == "markov")
    assert [len(points) for points, _ in groups] == [729] * 9 + [9] * 18
    for points, want in groups:
        assert _diameter(points) == want


def test_diameter_bit_identical_with_small_bound_chunks(qutrit_sweeps,
                                                        monkeypatch):
    """The cell-pair bounds run _PAIRS pairs at a time, the leaves whole
    cell pairs of at most _PAIRS point pairs, and the Bloch points _ROWS
    states at a time. With 7 pairs per call, one cell pair per leaf call
    for cells of three points or more, and 7 states per block, the
    diameter stays bit-identical to the oracles on every qutrit sweep
    group and on the qubit clouds."""
    import ptmarkov.markov as markov
    monkeypatch.setattr(markov, "_PAIRS", 7)
    monkeypatch.setattr(markov, "_ROWS", 7)
    for kind in ("markov", "joint"):
        for points, want in qutrit_sweeps[kind][2]:
            assert markov._diameter(points) == want
    for kind in ("ball", "shell", "ties", "axis-copies", "near-tie"):
        states = _states_from_bloch(_cloud(kind, np.random.default_rng(71)))
        assert markov._diameter(_points_of(states)) == \
            diameter_qubit_all_pairs(states)


def test_bloch_diameter_reads_the_last_cell_pair_of_a_leaf_batch(
        monkeypatch):
    """On a shell of 600 Bloch vectors the leaf batch that holds the
    diameter is full, 22 cell pairs of 19 points each, and the diameter
    lies in its last cell pair and in no other: the value and the first
    pair are still the all-pairs scan's. A batch that dropped its last
    cell pair would miss the diameter."""
    import ptmarkov.markov as markov
    calls, tree = [], markov._dual_tree

    def spy_tree(p, kept, leaf, *args):
        def spy_leaf(i, j):
            calls.append(np.broadcast_arrays(i, j))
            return leaf(i, j)
        return tree(p, kept, spy_leaf, *args)
    monkeypatch.setattr(markov, "_dual_tree", spy_tree)
    v = np.random.default_rng(0).normal(size=(600, 3))
    states = _states_from_bloch(v / np.linalg.norm(v, axis=1, keepdims=True))
    got = markov._diameter(_points_of(states))
    assert got == diameter_qubit_all_pairs(states)
    _, wi, wj = got
    hits = [((i == wi) & (j == wj) | (i == wj) & (j == wi)).any(axis=(1, 2))
            for i, j in calls]
    (hit,) = [h for h in hits if h.any()]
    assert len(hit) == markov._PAIRS // calls[0][0].shape[1] ** 2 == 22
    assert np.flatnonzero(hit).tolist() == [len(hit) - 1]


def test_general_diameter_bit_identical_on_qutrit_k3_group(monkeypatch):
    """On 1 000 states drawn from the first group of the seeded qutrit
    K = 3 joint unitary (59 049 states, diameter 1.946), the value and the
    first pair equal the batched all-pairs scan's, bit for bit."""
    import ptmarkov.markov as markov

    class Captured(Exception):
        pass

    groups = []

    def capture(outs, probs, rows):
        groups.append((outs[rows], probs[rows]))
        raise Captured

    monkeypatch.setattr(markov, "_points", capture)
    with pytest.raises(Captured):
        markov_test(_qutrit_dilation("joint", k=3))
    monkeypatch.undo()
    outs, probs = groups[0]
    assert len(outs) == 59049
    pick = np.random.default_rng(3).choice(len(outs), 1000, replace=False)
    outs, probs = outs[pick], probs[pick]
    states = outs / probs[:, None, None]
    got = markov._diameter(markov._points(outs, probs, np.arange(1000)))
    assert got == diameter_general_batched(states)
    assert got[0] > 1.9


def test_general_diameter_seed_runs_one_svd(monkeypatch):
    """Design tripwire: the d > 2 seed decomposes one matrix, the pair it
    picks by Euclidean distance, not a row of n."""
    import ptmarkov.markov as markov
    states = _qutrit_group("random", np.random.default_rng(72))
    svd, matrices = np.linalg.svd, []
    monkeypatch.setattr(np.linalg, "svd", lambda a, *args, **kwargs: (
        matrices.append(math.prod(a.shape[:-2])) or svd(a, *args, **kwargs)))
    markov._diameter(_points_of(states))
    assert matrices[0] == 1 and len(states) == 150


def test_qutrit_markov_test_runs_few_svds(monkeypatch):
    """Design tripwire: the exhaustive causal-break test of the seeded
    qutrit joint unitary decomposes fewer than a quarter of the matrices
    an all-pairs scan of its groups would."""
    import ptmarkov.markov as markov
    pt = _qutrit_dilation("joint")
    svd, matrices = np.linalg.svd, []
    groups = _spy_points(monkeypatch)
    monkeypatch.setattr(np.linalg, "svd", lambda a, *args, **kwargs: (
        matrices.append(math.prod(a.shape[:-2])) or svd(a, *args, **kwargs)))
    markov_test(pt, exhaustive=True)
    sizes = [len(states) for states, _ in groups]
    all_pairs = sum(n * (n - 1) // 2 for n in sizes)
    assert len(sizes) == 27 and 0 < sum(matrices) < all_pairs / 4


@pytest.mark.parametrize("kind", ["markov", "joint"])
def test_theorem_verdicts_agree_on_qutrit_dilations(kind, qutrit_sweeps):
    """The paper's theorem at d = 3: the causal-break test, N <= 1e-8 and
    unit bond dimensions agree, and Markovian implies divisible."""
    pt, report, _ = qutrit_sweeps[kind]
    rep = non_markovianity(pt)
    small_n = rep.n_value <= 1e-8
    assert report.is_markov is small_n is (kind == "markov")
    assert small_n == all(b == 1 for b in rep.bond_dims)
    if report.is_markov:
        assert divisibility_test(pt).max_defect <= 10 * report.tolerance


def _trace_norm_eig(a, b):
    """||a - b||_1 of Hermitian a, b, the unit of ``max_deviation``."""
    return float(np.abs(np.linalg.eigvalsh(a - b)).sum())


@pytest.mark.parametrize("exhaustive", [False, True])
@pytest.mark.parametrize("name", ["b1_pt", "b2_pt", "b3_pt", "markov_pt2",
                                  "markov_pt3", "b2_pure_pt3"])
def test_markov_test_matches_per_past_loop(name, exhaustive, basis2, request):
    pt = request.getfixturevalue(name)
    rep = markov_test(pt, exhaustive=exhaustive)
    ref = markov_test_loop(pt, basis2, exhaustive=exhaustive)
    _assert_matches_loop(pt, rep, ref, basis2)
    if name == "b2_pure_pt3":
        assert rep.skipped_conditionals > 0


def _assert_matches_loop(pt, rep, ref, basis2):
    """``rep`` agrees with the per-past loop's report ``ref``: the same
    verdict, breaks, counts and inconclusive groups, the deviation within
    1e-12, and a witness pair of one group whose states, recomputed one
    past at a time, lie at that deviation."""
    from ptmarkov import default_break
    assert abs(rep.max_deviation - ref.max_deviation) <= 1e-12
    assert rep.is_markov == ref.is_markov
    assert rep.breaks_tested == ref.breaks_tested
    assert rep.skipped_conditionals == ref.skipped_conditionals
    assert rep.inconclusive_groups == ref.inconclusive_groups
    assert (rep.witness is None) == (ref.witness is None)
    if rep.witness is None:
        return
    a, b = rep.witness
    assert (a.break_slot, a.readout_step, a.preparation) == \
        (b.break_slot, b.readout_step, b.preparation)
    states = []
    for w in (a, b):
        out = conditional_output_loop(pt, basis2, default_break(2),
                                      w.break_slot, w.readout_step, w.past,
                                      w.povm_outcome, w.preparation)
        states.append(out / np.trace(out).real)
    assert abs(_trace_norm_eig(*states) - rep.max_deviation) <= 1e-12


def _b2_steps(k=4):
    """A seeded memoryful k-step B.2 tensor drawn like memory-k4 (k = 4),
    its contraction forms cached as ``ptf.load`` leaves them."""
    rng = np.random.default_rng(1)
    theta = rng.uniform(0.6, 1.0)
    model = model_b2(1.0, rho_s=random_density(2, rng))
    pt = build_process_tensor(model, [j * theta for j in range(k + 1)])
    pt.causality_defect()
    return pt


def test_markov_test_contracts_one_group_before_its_stop(monkeypatch):
    """A spy on ``ProcessTensor.contract`` while a memoryful four-step B.2
    sweep stops at its first group: the one contraction holds only the
    n_out realizations of one preparation at the break slot, and the
    three untested groups are counted without another."""
    pt = _b2_steps()
    contract, calls = ProcessTensor.contract, []

    def spy(self, stacks, l=None):
        calls.append((l, [len(s) for s in stacks]))
        return contract(self, stacks, l)
    monkeypatch.setattr(ProcessTensor, "contract", spy)
    rep = markov_test(pt)
    assert not rep.is_markov and rep.breaks_tested == ((3, 4),)
    assert rep.witness[0].preparation == 0
    assert calls == [(4, [16, 16, 16, 4])]


def test_stop_at_a_later_group_counts_the_groups_after_it(basis2):
    """A two-step swap-then-CZ dilation stops at preparation 2 of its
    first break, with one untested group: the report counts that group's
    conditionals at or below the floor once, as the per-past loop does,
    not once for each group after the first."""
    from ptmarkov.models import swap_unitary
    model = SEModel(system_dim=2, env_dim=2, initial_joint=np.kron(P0, P0),
                    step_unitaries=(swap_unitary(2),
                                    np.diag([1, 1, 1, -1]).astype(complex)))
    pt = build_process_tensor(model, [0, 1, 2])
    rep = markov_test(pt)
    ref = markov_test_loop(pt, basis2)
    assert rep.breaks_tested == ((1, 2),)
    assert rep.witness[0].preparation == 2
    assert rep.skipped_conditionals == ref.skipped_conditionals == 64
    _assert_matches_loop(pt, rep, ref, basis2)


def test_early_exit_counts_the_untested_groups(b2_pure_pt3, basis2):
    """b2_pure_pt3 stops after the first group of its first break, and
    each of that break's three untested groups holds 256 conditionals
    below the probability floor: the report counts them, and its breaks
    and inconclusive groups are the per-past loop's."""
    from ptmarkov import default_break
    rep = markov_test(b2_pure_pt3)
    ref = markov_test_loop(b2_pure_pt3, basis2)
    assert rep.breaks_tested == ref.breaks_tested == ((2, 3),)
    assert rep.witness[0].preparation == 0
    brk = default_break(2)
    past = np.stack([e.superoperator.reshape(-1) for e in basis2.elements])
    # r-major, as the oracles' break vectors
    breaks = np.stack([brk.map(r, s).superoperator.reshape(-1)
                       for r in range(4) for s in range(4)])
    outs = b2_pure_pt3.contract([past] * 2 + [breaks], 3)
    probs = np.einsum("prsaa->prs", outs.reshape(-1, 4, 4, 2, 2)).real
    assert (probs[:, :, 1:] <= 1e-10).sum(axis=(0, 1)).tolist() == [256] * 3
    assert rep.skipped_conditionals == ref.skipped_conditionals == 1024
    assert rep.inconclusive_groups == ref.inconclusive_groups == ()


@pytest.mark.parametrize("k", [4, 5])
def test_markov_test_keeps_one_group_array_alive(k, basis2, tmp_path,
                                                 monkeypatch):
    """Tripwire: on a loaded B.2 tensor drawn like memory-k4, the sweep
    peaks at most 0.6 tensor sizes above what was live before the call,
    which leaves room for the contraction of one group and nothing else
    of its size, and when ``_diameter`` starts less than 0.2 are live: the
    points and rows of the group (0.13), not its raw outputs (0.25 more).
    Keeping the raw and normalized outputs through the diameter, with its
    batches of up to 256 cell pairs, and counting the untested groups in
    one contraction peaked at 1.49. At K = 4 the report is the per-past
    loop's; at K = 5 that loop's all-pairs diameter of 262 144 states is
    out of reach."""
    import ptmarkov.markov as markov
    _b2_steps(k).save(tmp_path / "b2.ptf")
    pt = ProcessTensor.load(tmp_path / "b2.ptf")
    markov_test(pt)  # the lazily built module state
    live, diameter = [], markov._diameter
    monkeypatch.setattr(markov, "_diameter", lambda p: (
        live.append(tracemalloc.get_traced_memory()[0]) or diameter(p)))
    rep, peak, _ = traced_peak(lambda: markov_test(pt))
    assert peak <= 0.6 * pt.choi.nbytes
    assert len(live) == 1 and live[0] < 0.2 * pt.choi.nbytes
    assert not rep.is_markov and rep.breaks_tested == ((k - 1, k),)
    if k == 4:
        _assert_matches_loop(pt, rep, markov_test_loop(pt, basis2), basis2)


BAD_TOLS = (math.nan, -1e-9, math.inf)
BAD_CUTOFFS = (math.nan, -0.1, 1.0, 2.0, math.inf)


@pytest.mark.parametrize("analysis, value", [
    *[(a, v) for a in ("markov", "divisibility", "classical") for v in BAD_TOLS],
    *[(a, v) for a in ("bonddim", "measure") for v in BAD_CUTOFFS],
])
def test_out_of_range_tol_and_cutoff_are_refused(analysis, value, b2_pt):
    """A tolerance must be finite and >= 0 and a bond cutoff must lie in
    [0, 1); anything else, NaN included, is refused instead of giving a
    verdict."""
    table = ClassicalProcess(table=np.full((2, 2, 2), 1 / 8),
                             outcome_labels=(("0", "1"),) * 3)
    run = {
        "markov": lambda: markov_test(b2_pt, tol=value),
        "divisibility": lambda: divisibility_test(b2_pt, tol=value),
        "classical": lambda: classical_markov_check(table, tol=value),
        "bonddim": lambda: bond_dimension(b2_pt, cutoff=value),
        "measure": lambda: non_markovianity(b2_pt, bond_cutoff=value),
    }[analysis]
    with pytest.raises(ValidationError, match="tol|cutoff"):
        run()


# ---------------------------------------------------------------------------
# divisibility
# ---------------------------------------------------------------------------

def test_divisibility_of_product_tensor(markov_pt3, basis2):
    rep = divisibility_test(markov_pt3)
    assert rep.max_defect <= 1e-9
    assert rep.is_divisible
    assert all(defect <= 1e-8 for _, _, defect in rep.pair_cp_defects)


def test_b1_divisible_but_non_markov(b1_pt):
    """The standing counterexample: CP-divisible dynamics with memory."""
    div = divisibility_test(b1_pt)
    assert div.max_defect <= 1e-6
    mk = markov_test(b1_pt)
    assert not mk.is_markov
    assert mk.max_deviation > 0.1


def test_b3_divisibility_structure(b3_pt, b3_states, basis2):
    """The extracted pair maps: (0,2) is the identity channel, (0,1)
    prepares the environment state, (1,2) prepares the swapped-out state
    (identity on slot 0); their composition defect is large."""
    rho_s, rho_e = b3_states
    lam_02 = b3_pt.marginal_map(0, 2)
    assert np.abs(lam_02.choi - IDENT.choi).max() <= 1e-9
    lam_01 = b3_pt.marginal_map(0, 1)
    assert np.abs(lam_01.choi - QuantumMap.prepare(rho_e).choi).max() <= 1e-9
    lam_12 = b3_pt.marginal_map(1, 2)
    assert np.abs(lam_12.choi - QuantumMap.prepare(rho_s).choi).max() <= 1e-9
    rep = divisibility_test(b3_pt)
    assert rep.max_defect > 0.1


# ---------------------------------------------------------------------------
# closest memoryless tensor
# ---------------------------------------------------------------------------

def test_closest_markov_fixes_products(markov_pt2):
    cm = closest_markov(markov_pt2)
    assert trace_norm_distance(cm.choi, markov_pt2.choi) <= 1e-9


def test_closest_markov_preserves_marginals(b3_pt):
    cm = closest_markov(b3_pt)
    dims = (2,) * 5
    k = b3_pt.n_steps
    blocks = [(0, 1), (2, 3), (4,)]
    assert k == 2
    for block in blocks:
        ma = partial_trace(b3_pt.choi, dims, block)
        mb = partial_trace(cm.choi, dims, block)
        assert np.abs(ma - mb).max() <= 1e-12


def test_closest_markov_idempotent(b3_pt):
    cm = closest_markov(b3_pt)
    cm2 = closest_markov(cm)
    assert np.abs(cm.choi - cm2.choi).max() <= 1e-12


# ---------------------------------------------------------------------------
# the measure
# ---------------------------------------------------------------------------

def test_measure_zero_on_memoryless(markov_pt2, markov_pt3):
    for pt in (markov_pt2, markov_pt3):
        rep = non_markovianity(pt)
        assert 0.0 <= rep.n_value <= 1e-9
        assert all(b == 1 for b in rep.bond_dims)


def test_measure_b3_matches_independent_eigensolver(b3_pt):
    """Frozen expected value: for pure initial and environment states the
    two-swap tensor sits at exactly 2 ln 2 nats from its marginal product
    (entropy bookkeeping: ln 2 from the discarded slot output plus ln 4
    from the duplicated-output block, minus the ln 2 the tensor itself
    carries)."""
    rep = non_markovianity(b3_pt)
    rho = b3_pt.choi / b3_pt.trace
    sigma = closest_markov(b3_pt).choi
    sigma = sigma / np.trace(sigma).real
    oracle = relative_entropy_eig(rho, sigma)
    assert abs(rep.n_value - oracle) <= 1e-9
    assert abs(rep.n_value - 2 * math.log(2)) <= 1e-9


def test_measure_monotone_under_local_channels(b3_pt, b2_pt):
    rng = np.random.default_rng(61)
    for pt in (b3_pt, b2_pt):
        base = non_markovianity(pt).n_value
        for _ in range(10):
            leg = int(rng.integers(0, 2 * pt.n_steps + 1))
            chan = random_cptp(2, rng)
            post = apply_local_channel(pt, leg, chan)
            assert non_markovianity(post).n_value <= base + 1e-9


def test_closed_form_measure_matches_eigen_route(b1_pt, b2_pt, b3_pt,
                                                 markov_pt2, markov_pt3,
                                                 b2_pure_pt3):
    """The multi-information equals the relative entropy to the normalized
    product of marginals, computed from two eigendecompositions."""
    rng = np.random.default_rng(64)
    corpus = [b1_pt, b2_pt, b3_pt, markov_pt2, markov_pt3, b2_pure_pt3]
    for _ in range(5):
        leg = int(rng.integers(0, 2 * b2_pt.n_steps + 1))
        corpus.append(apply_local_channel(b2_pt, leg, random_cptp(2, rng)))
    for pt in corpus:
        rho = pt.choi / pt.trace
        sigma = closest_markov(pt).choi
        eigen_route = relative_entropy_eig(rho, sigma / np.trace(sigma).real)
        assert abs(non_markovianity(pt).n_value - eigen_route) <= 1e-12


def test_measure_rejects_non_hermitian_tensor(b2_pt):
    """A non-Hermitian Choi cannot reach the measure: the tensor that
    would carry it is refused at construction."""
    choi = b2_pt.choi.copy()
    choi[0, 1] += 1e-6
    with pytest.raises(ValidationError, match="choi asymmetry"):
        ProcessTensor(choi, 2, b2_pt.times)


def test_measure_rejects_non_psd_tensor(b2_pt):
    w, v = np.linalg.eigh(b2_pt.choi)
    w[0] = -1e-6 * b2_pt.trace
    pt = ProcessTensor((v * w) @ v.conj().T, 2, b2_pt.times)
    assert pt.min_eigenvalue < -1e-7
    with pytest.raises(NotPositive):
        non_markovianity(pt)


def test_measure_rejects_zero_trace_tensor():
    """A zero tensor has no state to normalize; the measure says so
    instead of eigensolving NaNs (`ptf.load` refuses such a file first)."""
    pt = ProcessTensor(np.zeros((8, 8)), 2, (0.0, 1.0))
    with pytest.raises(ValidationError,
                       match="measure needs a positive finite trace"):
        non_markovianity(pt)


def test_relative_entropy_support_violation():
    rho = np.diag([0.5, 0.5, 0.0]).astype(complex)
    sigma = np.diag([1.0, 0.0, 0.0]).astype(complex)
    assert relative_entropy_eig(rho, sigma) == math.inf


def test_relative_entropy_of_commuting_states_is_classical():
    """The eigen-route oracle on states diagonal in one random basis gives
    the Kullback-Leibler divergence of their spectra."""
    rng = np.random.default_rng(62)
    for _ in range(5):
        u = random_unitary(4, rng)
        p, q = rng.dirichlet(np.ones(4)), rng.dirichlet(np.ones(4))
        rho = (u * p) @ u.conj().T
        sigma = (u * q) @ u.conj().T
        assert abs(relative_entropy_eig(rho, sigma)
                   - float((p * np.log(p / q)).sum())) <= 1e-9


def test_minimizer_probe_random_product_perturbations(b3_pt):
    """Falsification probe for the discard-the-correlations minimizer: no
    random product candidate beats the marginal product."""
    rng = np.random.default_rng(63)
    rho = b3_pt.choi / b3_pt.trace
    sigma = closest_markov(b3_pt).choi
    sigma = sigma / np.trace(sigma).real
    base = relative_entropy_eig(rho, sigma)
    dims = (2,) * 5
    blocks = [(0, 1), (2, 3), (4,)]
    marginals = [partial_trace(rho, dims, b) for b in blocks]
    for _ in range(200):
        factors = []
        for m in marginals:
            d = m.shape[0]
            eps = rng.uniform(0.0, 0.3)
            cand = (1 - eps) * m + eps * random_density(d, rng)
            factors.append(cand / np.trace(cand).real)
        candidate = tensor_product(*factors)
        assert relative_entropy_eig(rho, candidate) >= base - 1e-9


# ---------------------------------------------------------------------------
# confusion probability
# ---------------------------------------------------------------------------

def test_confusion_probability_values():
    assert confusion_probability(0.0, 5) == 1.0
    assert confusion_probability(1.3, 0) == 1.0
    assert abs(confusion_probability(math.log(2), 10) - 2.0 ** -10) <= 1e-15
    with pytest.raises(ValidationError):
        confusion_probability(-1.0, 1)
    with pytest.raises(ValidationError):
        confusion_probability(1.0, -1)


@pytest.mark.parametrize("n_value, n", [(math.nan, 5), (0.1, math.nan)])
def test_confusion_probability_refuses_nan(n_value, n):
    with pytest.raises(ValidationError):
        confusion_probability(n_value, n)


# ---------------------------------------------------------------------------
# bond dimension
# ---------------------------------------------------------------------------

def test_bond_dimension_memoryless(markov_pt2, markov_pt3):
    assert bond_dimension(markov_pt2) == [1, 1]
    assert bond_dimension(markov_pt3) == [1, 1, 1]


def test_bond_dimension_b3(b3_pt, b3_states):
    dims = bond_dimension(b3_pt)
    assert dims[1] > 1
    # independent SVD oracle on the analytic tensor
    rho_s, rho_e = b3_states
    analytic = b3_choi_analytic(rho_s, rho_e)
    t = analytic.reshape([2] * 10)
    chrono = [4, 3, 2, 1, 0]
    mat = t.transpose([*chrono, *[c + 5 for c in chrono]]).reshape(32, 32)
    assert dims[1] == schmidt_rank_across(mat, [2] * 3, [2] * 2)
    assert dims[1] == 4


def test_bond_dimension_monotone_in_cutoff(b3_pt):
    loose = bond_dimension(b3_pt, cutoff=1e-2)
    tight = bond_dimension(b3_pt, cutoff=1e-12)
    assert all(a <= b for a, b in zip(loose, tight))


def _memoryless_four_steps():
    """A seeded memoryless four-step dilation of Kraus rank 2, of the
    memoryless-k4 kind."""
    rng = np.random.default_rng(57)
    return build_process_tensor(
        model_markov(random_control_sequence(2, 4, rng), random_density(2, rng)),
        range(5))


def test_bond_dimension_matches_unfoldings(b1_pt, b2_pt, b3_pt, markov_pt2,
                                           markov_pt3, b2_pure_pt3,
                                           b2_model):
    """The one-sweep ranks equal the ranks of each cut's own unfolding,
    on four-step tensors too, whose cuts are read in slabs, and on qutrit
    tensors, whose future row counts (81 at K = 2) are not powers of
    two."""
    rng = np.random.default_rng(55)
    corpus = [b1_pt, b2_pt, b3_pt, markov_pt2, markov_pt3, b2_pure_pt3,
              _memoryless_four_steps(), _b2_steps(),
              _qutrit_dilation("markov")]
    for _ in range(5):
        leg = int(rng.integers(0, 2 * b2_pt.n_steps + 1))
        corpus.append(apply_local_channel(b2_pt, leg, random_cptp(2, rng)))
    qutrit = SEModel(system_dim=3, env_dim=2,
                     initial_joint=random_density(6, rng),
                     step_unitaries=(random_unitary(6, rng),
                                     random_unitary(6, rng)))
    corpus.append(build_process_tensor(qutrit, (0.0, 1.0, 2.0)))
    corpus.append(build_process_tensor(b2_model, (0.0, 1.0)))
    corpus.append(ProcessTensor(np.zeros((32, 32)), 2, (0.0, 1.0, 2.0)))
    for pt in corpus:
        for cutoff in (1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12):
            assert bond_dimension(pt, cutoff) == \
                bond_dimension_unfoldings(pt, cutoff)
    assert bond_dimension(corpus[-1]) == [0, 0]


@pytest.mark.parametrize("d, k", [(2, 4), (3, 2)])
def test_bond_dimension_resolves_every_gap(d, k):
    """A cutoff between two singular values 5 % or more apart of a cut's
    own unfolding counts exactly the values above it, on a sum of five
    random Hermitian product operators weighted 1, 0.1, ..., 1e-4, whose
    cuts are read in slabs (of uneven length at d = 3). The second term
    lives only on the first final-output row, which the last slabs miss,
    and the third only on the last initial-input column: leaving out a
    slab's rows of the R factor, or a column's part of the carry, moves a
    count."""
    rng = np.random.default_rng(58)

    def factor(t, leg):
        if (t, leg) in ((1, 0), (2, 2 * k)):
            return np.diag(np.eye(d)[0 if t == 1 else d - 1])
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        return a + a.conj().T
    choi = sum(10.0 ** -t * tensor_product(*[factor(t, leg)
                                             for leg in range(2 * k + 1)])
               for t in range(5))
    pt = ProcessTensor(choi, d, range(k + 1))
    checked = 0
    for j, s in enumerate(unfolding_singular_values(pt)):
        for i in range(min(len(s) - 1, 12)):
            if s[i + 1] > 1e-9 * s[0] and s[i] >= 1.05 * s[i + 1]:
                cutoff = math.sqrt(s[i] * s[i + 1]) / s[0]
                assert bond_dimension(pt, cutoff)[j] == i + 1
                checked += 1
    assert checked >= k


def test_bond_dimension_and_measure_make_no_large_temporary(tmp_path):
    """Tripwire: on a loaded memoryless K = 4 file (4 MiB), the sweep and
    the measure each peak within 0.3 tensor sizes above their start, the
    first cut's carry of a quarter included; the chronological copy of
    the tensor alone was one tensor size."""
    path = tmp_path / "k4.ptf"
    _memoryless_four_steps().save(path)
    pt = ProcessTensor.load(path)
    size = pt.choi.nbytes
    dims = bond_dimension(pt)  # the lazily built module state
    assert dims == [1, 1, 1, 1]
    got, peak, _ = traced_peak(lambda: bond_dimension(pt))
    assert got == dims and peak <= 0.3 * size
    got, peak, _ = traced_peak(lambda: non_markovianity(pt))
    assert got.bond_dims == tuple(dims) and peak <= 0.3 * size


def test_bond_dimension_decomposes_only_small_matrices(monkeypatch):
    """No SVD in the sweep is larger than the carried rank times the d**4
    entries of the two legs between cuts: on a memoryless K = 4 tensor
    every input has min(shape) <= d**4."""
    rng = np.random.default_rng(56)
    pt = build_process_tensor(
        model_markov(random_control_sequence(2, 4, rng), random_density(2, rng)),
        (0.0, 1.0, 2.0, 3.0, 4.0))
    shapes = []
    svd = np.linalg.svd

    def recording_svd(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    assert bond_dimension(pt) == [1, 1, 1, 1]
    assert shapes and all(min(s) <= 2 ** 4 for s in shapes)


def test_measure_faithfulness_on_corpus(markov_pt2, markov_pt3, b1_pt, b2_pt,
                                        b3_pt):
    """N <= 1e-8, unit bond dims, and a passing causal-break test coincide
    across the corpus."""
    for pt in (markov_pt2, markov_pt3, b1_pt, b2_pt, b3_pt):
        rep = non_markovianity(pt)
        mk = markov_test(pt)
        small_n = rep.n_value <= 1e-8
        unit_bonds = all(b == 1 for b in rep.bond_dims)
        assert small_n == unit_bonds == mk.is_markov


def test_lemma_direction_on_corpus(markov_pt2, markov_pt3, b1_pt, b2_pt,
                                   b3_pt):
    """Markovian => divisible (never the converse; the b1 tensor is the
    counterexample exercised above)."""
    for pt in (markov_pt2, markov_pt3, b1_pt, b2_pt, b3_pt):
        mk = markov_test(pt)
        if mk.is_markov:
            div = divisibility_test(pt)
            assert div.max_defect <= 10 * mk.tolerance


def _random_dilation(kind, size, k, rng):
    """A memoryless dilation of Kraus rank ``size``, or ``k`` random joint
    unitaries on an environment of dimension ``size`` from a random,
    generally correlated, initial joint state."""
    if kind == "markov":
        return model_markov(random_control_sequence(2, k, rng, kraus_rank=size),
                            random_density(2, rng))
    return SEModel(system_dim=2, env_dim=size,
                   initial_joint=random_density(2 * size, rng),
                   step_unitaries=tuple(random_unitary(2 * size, rng)
                                        for _ in range(k)))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(1, 3),
       kind=st.sampled_from(("markov", "joint")), size=st.integers(1, 3))
def test_theorem_verdicts_agree_on_random_dilations(seed, k, kind,
                                                    size):
    """The paper's theorem: a process is operationally Markovian iff its
    tensor is a product of step Chois. So the causal-break test, N <= 1e-8
    and unit bond dimensions agree, and Markovian implies divisible. At
    K = 3 the entropy S(rho) comes from the sketch when the tensor's rank
    is at most 16 and from the dense eigensolve otherwise; at K <= 2 it is
    always dense. A one-step process is tested by its causal break at
    slot 0, which sees initial system-environment correlations."""
    pt = build_process_tensor(
        _random_dilation(kind, size, k, np.random.default_rng(seed)),
        range(k + 1))
    mk = markov_test(pt)
    rep = non_markovianity(pt)
    small_n = rep.n_value <= 1e-8
    assert small_n == all(b == 1 for b in rep.bond_dims)
    assert mk.is_markov == small_n
    if mk.is_markov:
        assert divisibility_test(pt).max_defect <= 10 * mk.tolerance


def test_markov_test_sees_initial_correlations_at_one_step():
    """A correlated initial joint state makes the one-step tensor differ
    from Lambda (x) rho_0: N > 0 and the bond dimension is 4. The paper's
    causal break at slot 0, the only one a single step has, shows the
    memory."""
    pt = build_process_tensor(
        _random_dilation("joint", 2, 1, np.random.default_rng(3)), (0.0, 1.0))
    rep = non_markovianity(pt)
    assert rep.n_value > 1e-2 and rep.bond_dims == (4,)
    assert not markov_test(pt).is_markov


@pytest.mark.parametrize("kind", ["b2", "markov"])
def test_theorem_verdicts_agree_at_five_steps(kind):
    """The theorem at K = 5, where the causal-break groups hold 16**4 pasts
    times 4 outcomes: on a seeded B.2 process the causal-break test, N > 0
    and a bond dimension above 1 all report memory, and on a seeded
    memoryless dilation all three report none."""
    rng = np.random.default_rng(5)
    if kind == "b2":
        theta = rng.uniform(0.6, 1.0)
        pt = build_process_tensor(
            model_b2(1.0, rho_s=random_density(2, rng)),
            [j * theta for j in range(6)])
    else:
        pt = build_process_tensor(_random_dilation("markov", 2, 5, rng),
                                  range(6))
    mk = markov_test(pt)
    rep = non_markovianity(pt)
    memory = kind == "b2"
    assert mk.is_markov is not memory
    assert (rep.n_value > 1e-8) is memory
    assert any(b > 1 for b in rep.bond_dims) is memory


# ---------------------------------------------------------------------------
# classical limit
# ---------------------------------------------------------------------------

def test_classical_table_b3_matches_enumeration(b3_pt, b3_states):
    rho_s, rho_e = b3_states
    inst = computational_reprepare_instrument(2)
    final = [P0, P1]
    cp = classical_process(b3_pt, [inst, inst], final_povm=final)
    assert np.abs(cp.table - b3_classical_table(rho_s, rho_e)).max() <= 1e-9
    chk = classical_markov_check(cp)
    assert not chk.is_markov
    assert chk.max_violation > 0.1
    assert chk.kolmogorov_ok


def test_classical_markov_process_satisfies_condition(markov_pt3, basis2):
    rng = np.random.default_rng(64)
    final = [P0, P1]
    for _ in range(20):
        instruments = [random_reprepare_instrument(2, 2, rng)
                       for _ in range(3)]
        cp = classical_process(markov_pt3, instruments, final_povm=final)
        chk = classical_markov_check(cp, tol=1e-9)
        assert chk.is_markov
        assert chk.max_violation <= 1e-9


def test_classical_process_matches_einsum_oracle(markov_pt3, b3_pt):
    """The batched contraction and one trace give the table of the one
    labelled einsum, on the acceptance cases, with and without a final
    readout."""
    rng = np.random.default_rng(70)
    final = [P0, P1]
    cases = [(markov_pt3, [random_reprepare_instrument(2, 2, rng)
                           for _ in range(3)]) for _ in range(20)]
    inst = computational_reprepare_instrument(2)
    cases.append((b3_pt, [inst, inst]))
    for pt, instruments in cases:
        for povm in (final, None):
            got = classical_process(pt, instruments, final_povm=povm).table
            want = classical_process_einsum(pt, instruments, povm)
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-12


def test_classical_single_step_trivially_markov():
    model = model_markov([IDENT], PP)
    pt = build_process_tensor(model, (0.0, 1.0))
    inst = computational_reprepare_instrument(2)
    cp = classical_process(pt, [inst], final_povm=[P0, P1])
    chk = classical_markov_check(cp)
    assert chk.is_markov
    assert chk.max_violation == 0.0


def test_classical_check_iid_coin():
    table = np.full((2, 2, 2), 1 / 8)
    cp = ClassicalProcess(table=table,
                          outcome_labels=(("0", "1"),) * 3)
    chk = classical_markov_check(cp)
    assert chk.is_markov and chk.max_violation <= 1e-12


def test_classical_check_copy_chain():
    table = np.zeros((2, 2, 2))
    table[0, 0, 0] = 0.4
    table[1, 1, 1] = 0.6
    cp = ClassicalProcess(table=table, outcome_labels=(("0", "1"),) * 3)
    chk = classical_markov_check(cp)
    assert chk.is_markov


def test_classical_check_violating_table(b3_states):
    rho_s, rho_e = b3_states
    table = b3_classical_table(rho_s, rho_e)
    cp = ClassicalProcess(table=table, outcome_labels=(("0", "1"),) * 3)
    chk = classical_markov_check(cp)
    assert not chk.is_markov
    assert chk.max_violation > 0.1


def test_classical_kolmogorov_marginals(b3_pt):
    inst = computational_reprepare_instrument(2)
    cp = classical_process(b3_pt, [inst, inst], final_povm=[P0, P1])
    good = {(0, 1): cp.table.sum(axis=2)}
    assert classical_markov_check(cp, marginal_tables=good).kolmogorov_ok
    bad = {(0, 1): np.full((2, 2), 0.25)}
    assert not classical_markov_check(cp, marginal_tables=bad).kolmogorov_ok


def test_classical_kolmogorov_nan_marginal_fails(b3_pt):
    inst = computational_reprepare_instrument(2)
    cp = classical_process(b3_pt, [inst, inst], final_povm=[P0, P1])
    nan = {(0, 1): np.full((2, 2), math.nan)}
    assert not classical_markov_check(cp, marginal_tables=nan).kolmogorov_ok


def test_classical_kolmogorov_wrong_shape_raises(b3_pt):
    """A marginal table of the wrong shape is refused, not broadcast."""
    inst = computational_reprepare_instrument(2)
    cp = classical_process(b3_pt, [inst, inst], final_povm=[P0, P1])
    with pytest.raises(DimensionMismatch, match="shape"):
        classical_markov_check(cp, marginal_tables={(0,): [0.5]})


@pytest.mark.parametrize("key", [(7,), (-1,), (0, 5), (0, 0)],
                         ids=["past-end", "negative", "extra", "repeated"])
def test_classical_kolmogorov_key_outside_the_table_raises(key, b3_pt):
    """A marginal key must name distinct time indices of the table: one
    past its last axis, a negative one or a repeated one is refused, not
    read as the grand total or as a shorter key."""
    inst = computational_reprepare_instrument(2)
    cp = classical_process(b3_pt, [inst, inst], final_povm=[P0, P1])
    drop = tuple(i for i in range(3) if i not in key)
    sub = cp.table.sum(axis=drop) if drop else cp.table
    with pytest.raises(DimensionMismatch, match=re.escape(str(key))):
        classical_markov_check(cp, marginal_tables={key: sub})


@pytest.mark.parametrize("kraus", [[np.eye(3, 2)],
                                   [np.eye(2, 3), np.eye(2, 3, 2)[::-1]]],
                         ids=["out-dim-3", "in-dim-3"])
def test_classical_process_refuses_an_instrument_of_another_dim(kraus, b3_pt):
    """A qubit-to-qutrit isometry or a qutrit-to-qubit channel, as a
    one-member instrument on a qubit tensor, is refused, naming the
    instrument, before any contraction."""
    other = Instrument(members=(QuantumMap.from_kraus(kraus),))
    inst = computational_reprepare_instrument(2)
    with pytest.raises(DimensionMismatch, match="instrument 1"):
        classical_process(b3_pt, [inst, other])


@pytest.mark.parametrize("table", [[math.nan, 1.0], []], ids=["nan", "empty"])
def test_classical_process_refuses_bad_table(table):
    with pytest.raises(ValidationError):
        ClassicalProcess(table=table, outcome_labels=(("0", "1"),))


def test_classical_without_final_measurement(b3_pt):
    inst = computational_reprepare_instrument(2)
    cp = classical_process(b3_pt, [inst, inst])
    assert cp.table.shape == (2, 2)
    assert abs(cp.table.sum() - 1.0) <= 1e-9

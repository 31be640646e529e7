"""Dataset construction, design weights, de-clustering, constraint matrices."""

import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dataset_from, traced_peak
from oracles import constraint_rows, decluster_rows
from elsurvey.cli import run_command
from elsurvey.data import (
    RANK_RTOL,
    ConstraintEntry,
    ConstraintSpec,
    Dataset,
    build_constraint_matrix,
    decluster,
    load_dataset,
    make_dataset,
)
from elsurvey.errors import DataError


# ---------------------------------------------------------------------------
# Design weights: a Dataset derives d from its weight source


def _weights(source, mode):
    """The design weights ``d`` of a dataset whose weight column ``w``, read per ``mode``, holds ``source``."""
    return Dataset({"w": np.asarray(source, dtype=float)}, {"weight": "w", "weight_mode": mode}).d


def test_inverse_probability_mode_closed_form():
    d = _weights([0.5, 0.25, 0.25], "inverse-probability")
    np.testing.assert_allclose(d, [0.2, 0.4, 0.4], rtol=0, atol=1e-15)


def test_equal_probabilities_give_uniform_weights():
    d = _weights([0.3] * 5, "inverse-probability")
    np.testing.assert_allclose(d, np.full(5, 0.2), rtol=0, atol=1e-15)


def test_direct_mode_normalizes():
    d = _weights([2.0, 3.0, 5.0], "direct")
    np.testing.assert_allclose(d, [0.2, 0.3, 0.5], rtol=0, atol=1e-15)


@pytest.mark.parametrize("bad", [[1.0, 0.0, 2.0], [1.0, -0.5], [np.nan, 1.0]])
def test_nonpositive_or_nonfinite_source_rejected(bad):
    with pytest.raises(DataError, match="weight column 'w'"):
        _weights(bad, "direct")


def test_unknown_mode_rejected():
    with pytest.raises(DataError, match="mode"):
        _weights([1.0, 2.0], "geometric")


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=1, max_size=30),
    st.floats(min_value=1e-6, max_value=1e6),
    st.sampled_from(["direct", "inverse-probability"]),
)
def test_weight_normalization_scale_invariant_and_simplex(vals, c, mode):
    base = _weights(vals, mode)
    scaled = _weights([c * v for v in vals], mode)
    assert abs(base.sum() - 1.0) <= 1e-12
    assert np.all(base > 0.0)
    np.testing.assert_allclose(scaled, base, rtol=1e-9, atol=1e-15)


# ---------------------------------------------------------------------------
# Dataset / make_dataset / load_dataset


def test_make_dataset_precedence_weight_over_pi():
    data = dataset_from(
        {"y": [1.0, 0.0], "w": [3.0, 1.0], "pi": [0.5, 0.5]},
        response="y", weight="w", pi="pi",
    )
    np.testing.assert_allclose(data.d, [0.75, 0.25], atol=1e-15)


def test_make_dataset_pi_fallback_and_uniform_default():
    with_pi = dataset_from({"y": [1.0, 0.0], "pi": [0.5, 0.25]}, response="y", pi="pi")
    np.testing.assert_allclose(with_pi.d, [1 / 3, 2 / 3], atol=1e-15)
    bare = dataset_from({"y": [1.0, 0.0, 1.0]}, response="y")
    np.testing.assert_allclose(bare.d, np.full(3, 1 / 3), atol=1e-15)


@pytest.mark.parametrize("roles, raw", [
    ({"weight": "w"}, lambda columns: columns["w"]),
    ({"weight": "w", "weight_mode": "inverse-probability"}, lambda columns: 1.0 / columns["w"]),
    ({"pi": "pi"}, lambda columns: 1.0 / columns["pi"]),
    ({}, lambda columns: np.ones(7)),
], ids=["weight direct", "weight inverse-probability", "pi", "none"])
def test_a_dataset_without_d_derives_it_from_its_weight_source_as_make_dataset_does(roles, raw):
    rng = np.random.default_rng(17)
    columns = {"y": rng.normal(size=7), "w": rng.uniform(0.2, 0.9, 7), "pi": rng.uniform(0.1, 1.0, 7)}
    roles = {"response": "y", **roles}
    base = raw(columns)
    want = (base / base.sum()).tobytes()
    assert Dataset(columns, roles).d.tobytes() == make_dataset(columns, roles).d.tobytes() == want


def test_dataset_simplex_invariant_enforced():
    with pytest.raises(DataError, match="sum"):
        from elsurvey.data import Dataset

        Dataset(columns={"y": np.array([1.0, 2.0])}, roles={}, d=np.array([0.7, 0.7]))


def test_pi_outside_unit_interval_rejected():
    with pytest.raises(DataError, match="probabilit"):
        dataset_from({"y": [1.0, 0.0], "pi": [0.5, 1.5]}, response="y", pi="pi")


def test_load_dataset_parses_three_row_csv(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text("y,a,pi\n1,0.1,0.5\n0,0.2,0.25\n1,0.3,0.25\n")
    data = load_dataset(str(path), {"response": "y", "covariates": ["a"], "pi": "pi"})
    assert data.n == 3
    np.testing.assert_allclose(data.d, [0.2, 0.4, 0.4], atol=1e-15)
    np.testing.assert_allclose(data.y, [1.0, 0.0, 1.0])


def test_load_dataset_zero_pi_rejected(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text("y,pi\n1,0.5\n0,0\n")
    with pytest.raises(DataError, match=r"probabilities in 'pi' must lie in \(0, 1\]"):
        load_dataset(str(path), {"response": "y", "pi": "pi"})


NOT_POSITIVE = "Dataset: weight column 'p' must be strictly positive"


@pytest.mark.parametrize("roles, values, message", [
    ({"pi": "p"}, [0.5, 0.0, 0.25], r"Dataset: inclusion probabilities in 'p' must lie in \(0, 1\]"),
    ({"weight": "p"}, [2.0, 0.0, 1.0], NOT_POSITIVE),
    ({"weight": "p"}, [2.0, -2.0, 1.0], NOT_POSITIVE),
    ({"weight": "p", "weight_mode": "inverse-probability"}, [0.5, 0.0, 0.25], NOT_POSITIVE),
    ({"weight": "p", "weight_mode": "inverse-probability"}, [0.5, -2.0, 0.25], NOT_POSITIVE),
], ids=["pi 0", "weight 0", "weight -2", "inverse-probability weight 0", "inverse-probability weight -2"])
@pytest.mark.parametrize("entry", ["make_dataset", "load_dataset", "fit"])
def test_a_bad_weight_source_is_named_by_its_column(tmp_path, capsys, roles, values, message, entry):
    columns = {"y": [1.0, 0.0, 1.0], "x": [0.1, 0.2, 0.3], "p": values}
    schema = {"response": "y", "covariates": ["x"], **roles}
    path = tmp_path / "sample.csv"
    path.write_text("y,x,p\n" + "".join(f"{y},{x},{p}\n" for y, x, p in zip(*columns.values())))
    if entry == "fit":
        cfg = {"data": {"path": str(path), "schema": schema}, "model": {"family": "bernoulli-logit", "terms": ["x"]},
               "estimators": ["pl"], "output": {"path": str(tmp_path / "run")}}
        (tmp_path / "fit.json").write_text(json.dumps(cfg))
        assert run_command(["fit", "--config", str(tmp_path / "fit.json")]) == 1
        assert re.search(message, capsys.readouterr().err)
        return
    with pytest.raises(DataError, match=message):
        if entry == "make_dataset":
            make_dataset({name: np.array(col) for name, col in columns.items()}, schema)
        else:
            load_dataset(str(path), schema)


def test_load_dataset_missing_tagged_column_named(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text("a,pi\n0.1,0.5\n")
    with pytest.raises(DataError, match="'y'"):
        load_dataset(str(path), {"response": "y", "pi": "pi"})


def test_load_dataset_rejects_blank_and_non_numeric_cells(tmp_path):
    blank = tmp_path / "blank.csv"
    blank.write_text("y,pi\n1,0.5\n,0.25\n")
    with pytest.raises(DataError, match="row 3"):
        load_dataset(str(blank), {"response": "y", "pi": "pi"})
    text = tmp_path / "text.csv"
    text.write_text("y,pi\n1,0.5\noops,0.25\n")
    with pytest.raises(DataError, match="'oops'"):
        load_dataset(str(text), {"response": "y", "pi": "pi"})


# ---------------------------------------------------------------------------
# decluster


def _family_toy():
    return dataset_from(
        {
            "y": [1.0, 0.0, 1.0, 0.0],
            "fam": [7.0, 7.0, 7.0, 2.0],
            "w": [1.0, 1.0, 1.0, 1.0],
        },
        response="y", family="fam", weight="w",
    )


def test_decluster_one_row_per_family_and_size_reweighting():
    out = decluster(_family_toy(), seed=5)
    assert out.n == 2
    fam = out.columns["fam"]
    nf = out.columns["nf"]
    raw = out.columns["declustered_weight"]
    by_family = dict(zip(fam, zip(nf, raw)))
    assert by_family[7.0] == (3.0, 3.0)  # survivor carries weight 1 * 3
    assert by_family[2.0] == (1.0, 1.0)
    np.testing.assert_allclose(out.d, [0.75, 0.25], atol=1e-15)


def test_decluster_singleton_families_change_nothing_material():
    data = dataset_from(
        {"y": [1.0, 0.0], "fam": [1.0, 2.0], "w": [2.0, 6.0]},
        response="y", family="fam", weight="w",
    )
    out = decluster(data, seed=0)
    assert out.n == 2
    np.testing.assert_allclose(out.columns["y"], data.columns["y"])
    np.testing.assert_allclose(out.d, data.d, atol=1e-15)


@pytest.mark.parametrize("seed, rows, nf", [(0, [4, 6, 8, 9], [3, 2, 1, 4]), (1, [2, 4, 6, 8], [4, 3, 2, 1]),
                                             (4, [5, 6, 7, 8], [3, 2, 4, 1])])
def test_decluster_keeps_the_pinned_rows_of_interleaved_unsorted_families(seed, rows, nf):
    # Regression guard for the draw order: one draw per family, in order of first appearance (5, 2, 9, 1).
    data = dataset_from({"y": [1.0, 0.0] * 5, "fam": [5.0, 2.0, 5.0, 9.0, 2.0, 2.0, 9.0, 5.0, 1.0, 5.0],
                         "w": [1.0] * 10, "rowid": np.arange(10.0)}, response="y", family="fam", weight="w")
    out = decluster(data, seed=seed)
    assert out.columns["rowid"].tolist() == rows and out.columns["nf"].tolist() == nf


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from([-3.5, -0.0, 0.0, 2.0, 7.0, 1e9]), min_size=1, max_size=40),
       st.integers(0, 2**32 - 1))
def test_decluster_keeps_the_rows_of_the_row_loop_reference(fam, seed):
    n = len(fam)
    data = dataset_from({"y": np.arange(n) % 2.0, "fam": fam, "w": np.linspace(1.0, 2.0, n), "rowid": np.arange(n)},
                        response="y", family="fam", weight="w")
    out = decluster(data, seed=seed)
    rows, sizes = decluster_rows(fam, seed)
    assert out.columns["rowid"].tolist() == rows and out.columns["nf"].tolist() == sizes
    np.testing.assert_array_equal(out.columns["declustered_weight"], data.columns["w"][rows] * sizes)


def test_decluster_requires_family_role_and_integer_seed():
    data = dataset_from({"y": [1.0, 0.0]}, response="y")
    with pytest.raises(DataError, match="family"):
        decluster(data, seed=1)
    with pytest.raises(DataError, match="seed"):
        decluster(_family_toy(), seed=1.5)


def test_decluster_selection_frequencies_uniform_over_seeds():
    # Each member of the size-3 family should survive about 1/3 of the time.
    data = _family_toy()
    data = dataset_from(
        {**{k: v for k, v in data.columns.items()}, "rowid": [0.0, 1.0, 2.0, 3.0]},
        **data.roles,
    )
    counts = np.zeros(3)
    reps = 10_000
    for seed in range(reps):
        out = decluster(data, seed=seed)
        survivor = out.columns["rowid"][out.columns["fam"] == 7.0]
        counts[int(survivor[0])] += 1
    freqs = counts / reps
    np.testing.assert_allclose(freqs, np.full(3, 1 / 3), atol=0.02)


def test_decluster_preserves_expected_total_raw_weight():
    # Raw weights differ per row, so the expected survivor weight must be
    # checked over many seeds: E[raw_survivor * n_f] = sum of family weights.
    data = dataset_from(
        {
            "y": [1.0, 0.0, 1.0, 0.0],
            "fam": [7.0, 7.0, 7.0, 2.0],
            "w": [0.5, 1.0, 4.5, 2.0],
        },
        response="y", family="fam", weight="w",
    )
    reps = 10_000
    totals = np.empty(reps)
    for seed in range(reps):
        out = decluster(data, seed=seed)
        totals[seed] = out.columns["declustered_weight"].sum()
    # family 7 contributes weights {0.5, 1.0, 4.5} each w.p. 1/3, times n_f=3.
    # One total has SD ~5.3, so the mean over 10^4 seeds has SE ~0.053.
    expected = (0.5 + 1.0 + 4.5) + 2.0
    assert abs(totals.mean() - expected) < 0.2


# ---------------------------------------------------------------------------
# constraint matrices


def test_subgroup_constraint_rows():
    data = dataset_from(
        {"y": [1.0, 0.0, 1.0], "age": [20.0, 20.0, 30.0]},
        response="y",
    )
    spec = ConstraintSpec((
        ConstraintEntry("subgroup-moment", "y", gamma=0.1, group_column="age", group_value=20.0),
    ))
    cm = build_constraint_matrix(data, spec)
    np.testing.assert_allclose(cm.H[:, 0], [0.9, -0.1, 0.0], atol=1e-15)
    assert cm.q == 1 and not cm.vacuous[0]


def test_general_moment_constraint_column():
    data = dataset_from({"x": [1.0, 2.0, 3.0]})
    spec = ConstraintSpec((ConstraintEntry("general-moment", "x", gamma=2.0),))
    cm = build_constraint_matrix(data, spec)
    np.testing.assert_allclose(cm.H[:, 0], [-1.0, 0.0, 1.0], atol=1e-15)


def test_empty_spec_gives_zero_width_matrix():
    data = dataset_from({"x": [1.0, 2.0]})
    cm = build_constraint_matrix(data, ConstraintSpec(()))
    assert cm.H.shape == (2, 0) and cm.q == 0


def test_unknown_columns_and_kind_rejected():
    data = dataset_from({"x": [1.0, 2.0]})
    with pytest.raises(DataError, match="'z'"):
        build_constraint_matrix(data, ConstraintSpec((ConstraintEntry("general-moment", "z", gamma=0.0),)))
    with pytest.raises(DataError, match="kind"):
        ConstraintEntry("ratio-moment", "x", gamma=0.0)
    with pytest.raises(DataError, match="group"):
        ConstraintEntry("subgroup-moment", "x", gamma=0.0)


def test_constraint_entry_takes_config_values():
    entry = ConstraintEntry("subgroup-moment", "y", gamma="0.25", group_column="v", group_value=1)
    assert (entry.gamma, entry.group_value) == (0.25, 1.0) and isinstance(entry.group_value, float)
    general = ConstraintEntry("general-moment", "y", gamma=1, group_column=None, group_value=None)
    assert (general.gamma, general.group_column, general.group_value) == (1.0, None, None)
    for group_column, group_value in (("v", 1), ("v", None), (None, 1), ("zz", "abc")):
        with pytest.raises(DataError, match="constraint on 'y': a general-moment takes no group_column or group_value"):
            ConstraintEntry("general-moment", "y", gamma=1, group_column=group_column, group_value=group_value)
    with pytest.raises(ValueError):
        ConstraintEntry("general-moment", "y", gamma="abc")
    for gamma in (True, float("inf")):
        with pytest.raises(DataError, match="constraint on 'y': gamma must be a finite number"):
            ConstraintEntry("general-moment", "y", gamma=gamma)


def test_vacuous_constraint_warned_and_flagged():
    data = dataset_from({"x": [1.0, 2.0], "g": [0.0, 0.0]})
    spec = ConstraintSpec((
        ConstraintEntry("subgroup-moment", "x", gamma=0.5, group_column="g", group_value=1.0),
    ))
    with pytest.warns(UserWarning, match="vacuous"):
        cm = build_constraint_matrix(data, spec)
    assert cm.vacuous == (True,)
    np.testing.assert_allclose(cm.H[:, 0], [0.0, 0.0])


def _general_moments(columns):
    data = dataset_from(columns)
    return data, ConstraintSpec(tuple(ConstraintEntry("general-moment", name, gamma=0.0) for name in columns))


def _scaled_singular_ratio(H):
    s = np.linalg.svd(H / np.sqrt((H * H).sum(axis=0)), compute_uv=False)
    return s[-1] / s[0]


def test_dependent_constraints_rejected_on_either_side_of_the_rank_tolerance():
    rng = np.random.default_rng(7)
    a, z, c = rng.normal(size=(3, 500))

    def columns(eps):
        return {"a": a, "b": a + eps * z, "c": c}

    ratio = _scaled_singular_ratio(np.column_stack(list(columns(1e-6).values())))
    below, above = (1e-6 * f * RANK_RTOL / ratio for f in (0.5, 2.0))
    assert _scaled_singular_ratio(np.column_stack(list(columns(below).values()))) < RANK_RTOL
    assert _scaled_singular_ratio(np.column_stack(list(columns(above).values()))) > RANK_RTOL
    cm = build_constraint_matrix(*_general_moments(columns(above)))
    assert cm.labels == ("a", "b", "c")
    with pytest.raises(DataError, match=r"constraints #0 a, #1 b are linearly dependent"):
        build_constraint_matrix(*_general_moments(columns(below)))


def test_dependent_constraints_named_and_vacuous_ones_skipped():
    rng = np.random.default_rng(8)
    a, b, c = rng.normal(size=(3, 200))
    with pytest.raises(DataError, match=r"constraints #0 a, #1 b, #3 ab are linearly dependent"):
        build_constraint_matrix(*_general_moments({"a": a, "b": b, "c": c, "ab": a - 2.0 * b}))
    data = dataset_from({"x": [1.0, -1.0, 2.0, 0.5], "g": [0.0, 0.0, 0.0, 0.0]})
    vacuous = ConstraintEntry("subgroup-moment", "x", gamma=0.5, group_column="g", group_value=1.0)
    with pytest.warns(UserWarning, match="vacuous"):
        spec = ConstraintSpec((vacuous, vacuous, ConstraintEntry("general-moment", "x", gamma=0.5)))
        cm = build_constraint_matrix(data, spec)
    assert cm.vacuous == (True, True, False)
    # With no more rows than constraints the columns cannot be told apart; the EL solvers reject that.
    tiny = build_constraint_matrix(*_general_moments({"a": [1.0, -1.0], "b": [2.0, 0.5]}))
    assert tiny.q == 2


TARGETS = st.sampled_from([-2.0, -0.5, -0.0, 0.0, 0.5, 1.0, 3.0])


@st.composite
def constraint_problems(draw):
    """Columns ``a``, ``b`` (targets) and ``g``, ``h`` (groups, with NaN), and up to four entries: general and
    subgroup ones, some vacuous (a group value no row holds, or a target that equals its gamma)."""
    n = draw(st.integers(min_value=1, max_value=12))
    columns = {name: draw(st.lists(TARGETS, min_size=n, max_size=n)) for name in "ab"}
    groups = st.sampled_from([0.0, 1.0, 2.0, float("nan")])
    columns.update({name: draw(st.lists(groups, min_size=n, max_size=n)) for name in "gh"})
    general = st.builds(lambda t, gamma: ConstraintEntry("general-moment", t, gamma=gamma), st.sampled_from("ab"),
                        TARGETS)
    subgroup = st.builds(lambda t, gamma, g, v: ConstraintEntry("subgroup-moment", t, gamma=gamma, group_column=g,
                                                                group_value=v),
                         st.sampled_from("ab"), TARGETS, st.sampled_from("gh"), st.sampled_from([0.0, 1.0, 5.0]))
    return columns, draw(st.lists(st.one_of(general, subgroup), max_size=4))


@settings(max_examples=300, deadline=None)
@given(constraint_problems())
def test_the_constraint_matrix_is_the_row_loop_reference_bit_for_bit_and_column_major(problem):
    columns, entries = problem
    H, vacuous = constraint_rows(columns, entries)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            cm = build_constraint_matrix(dataset_from(columns), ConstraintSpec(entries))
        except DataError as exc:  # the reference's live columns must then be dependent
            assert "are linearly dependent" in str(exc)
            live = H[:, np.logical_not(vacuous)]
            s = np.linalg.svd(live / np.linalg.norm(live, axis=0), compute_uv=False)
            assert s[-1] <= 1e-6 * s[0], s
            return
    assert cm.H.shape == H.shape and cm.H.flags.f_contiguous
    assert cm.H.tobytes(order="F") == H.tobytes(order="F")
    assert cm.vacuous == vacuous and cm.labels == tuple(e.label for e in entries)
    assert [str(w.message) for w in caught] == [
        f"constraint {e.label!r} is identically zero (vacuous)" for e, v in zip(entries, vacuous) if v]


def test_the_constraint_matrix_holds_at_most_four_and_a_half_row_vectors_at_once():
    # At 256,000 rows one n-vector is 1.95 MiB.  H is two of them and np.linalg.qr's copy for the rank
    # check two more; per-entry residuals, their stacked copy and a copy of the live columns took four more.
    n = 256_000
    rng = np.random.default_rng(3)
    data = dataset_from({"y": (rng.random(n) < 0.4).astype(float), "x": rng.normal(size=n),
                         "g": (rng.random(n) < 0.5).astype(float)}, response="y")
    spec = ConstraintSpec((ConstraintEntry("general-moment", "x", gamma=0.1),
                           ConstraintEntry("subgroup-moment", "y", gamma=0.4, group_column="g", group_value=1.0)))
    built = []
    peak = traced_peak(lambda: built.append(build_constraint_matrix(data, spec)))
    assert built[0].H.flags.f_contiguous and built[0].vacuous == (False, False)
    assert peak <= 4.5 * 8 * n, peak / (8 * n)


def test_decluster_reads_the_weight_source_as_make_dataset_does():
    # Regression guard: a pi-tagged dataset and one whose weight column holds the same
    # probabilities in inverse-probability mode decluster to the same weights, bitwise.
    pi = [0.5, 0.25, 0.5, 0.2, 0.5, 0.8]
    cols = {"y": [1.0, 0.0, 1.0, 0.0, 1.0, 0.0], "fam": [7.0, 7.0, 7.0, 2.0, 5.0, 5.0], "p": pi}
    tagged = dataset_from(cols, response="y", family="fam", pi="p")
    weighted = dataset_from(cols, response="y", family="fam", weight="p", weight_mode="inverse-probability")
    np.testing.assert_array_equal(tagged.d, weighted.d)
    a, b = decluster(tagged, seed=4), decluster(weighted, seed=4)
    np.testing.assert_array_equal(a.columns["declustered_weight"], b.columns["declustered_weight"])
    np.testing.assert_array_equal(a.d, b.d)
    np.testing.assert_array_equal(a.columns["declustered_weight"], 1.0 / a.columns["p"] * a.columns["nf"])

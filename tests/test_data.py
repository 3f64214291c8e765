"""Dataset validation, CSV round trips, and the rotated-blobs generator."""
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bjda.data import Dataset, SynthSpec, gen_rotated_blobs, load_csv, save_csv
from bjda.errors import ConfigError, InputError, ParseError, ValidationError
from bjda.train import TrainConfig, evaluate, train


# ---------------------------------------------------------------- dataset

def test_dataset_accepts_unlabeled_rows_and_exposes_shape():
    ds = Dataset(np.zeros((3, 4)), np.array([0, -1, 1]), 2, "d")
    assert len(ds) == 3
    assert ds.dim == 4


def test_dataset_rejects_bad_inputs():
    with pytest.raises(InputError):
        Dataset(np.zeros(3), np.array([0, 0, 0]), 1)
    with pytest.raises(InputError):
        Dataset(np.zeros((3, 2)), np.array([0, 0]), 1)
    with pytest.raises(InputError):
        Dataset(np.array([[np.nan, 0.0]]), np.array([0]), 1)
    with pytest.raises(InputError):
        Dataset(np.zeros((1, 2)), np.array([-2]), 1)
    with pytest.raises(InputError):
        Dataset(np.zeros((1, 2)), np.array([3]), 3)


# ---------------------------------------------------------------- csv io

def test_csv_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(0)
    features = rng.normal(size=(20, 3)) * np.array([1e-12, 1.0, 1e12])
    features[0] = [np.pi, 1.0 / 3.0, 1e-300]
    labels = rng.integers(-1, 4, size=20)
    ds = Dataset(features, labels, 4, "trip")
    path = tmp_path / "trip.csv"
    save_csv(ds, path)
    back = load_csv(path)
    assert np.array_equal(back.features, ds.features)
    assert np.array_equal(back.labels, ds.labels)
    assert back.class_count == 4


def test_csv_empty_dataset_round_trips(tmp_path):
    ds = Dataset(np.zeros((0, 2)), np.zeros(0, dtype=int), 3)
    path = tmp_path / "empty.csv"
    save_csv(ds, path)
    back = load_csv(path)
    assert back.features.shape == (0, 2)
    assert back.class_count == 3


def test_csv_class_count_resolution(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("label,f0\n0,1.0\n2,2.0\n")
    assert load_csv(path).class_count == 3          # fallback: 1 + max label
    assert load_csv(path, class_count=7).class_count == 7
    path.write_text("# classes=5\nlabel,f0\n0,1.0\n2,2.0\n")
    assert load_csv(path).class_count == 5          # file comment
    assert load_csv(path, class_count=4).class_count == 4  # override wins


def test_csv_rejects_label_beyond_declared_classes(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("# classes=2\nlabel,f0\n0,1.0\n2,2.0\n")
    with pytest.raises(ValidationError, match=":4:"):
        load_csv(path)
    path.write_text("label,f0\n0,1.0\n2,2.0\n")
    with pytest.raises(ValidationError, match=":3:"):
        load_csv(path, class_count=2)


def test_csv_rejects_a_negative_class_count(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("# classes=-1\nlabel,f0\n")
    with pytest.raises(ValidationError, match=":1:"):
        load_csv(path)
    path.write_text("label,f0\n")
    with pytest.raises(ValidationError, match="class count -3"):
        load_csv(path, class_count=-3)
    assert load_csv(path, class_count=0).class_count == 0


def test_csv_parse_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.csv"

    path.write_text("label,f0\n0,1.0,9.9\n")
    with pytest.raises(ParseError, match=":2:"):
        load_csv(path)

    path.write_text("# classes=2\nlabel,f0\n0,1.0\nx,2.0\n")
    with pytest.raises(ParseError, match=":4:"):
        load_csv(path)

    path.write_text("label,f0\n0,oops\n")
    with pytest.raises(ParseError, match=":2:"):
        load_csv(path)

    path.write_text("feature,f0\n")
    with pytest.raises(ParseError, match=":1:"):
        load_csv(path)

    path.write_text("# classes=two\nlabel,f0\n")
    with pytest.raises(ParseError, match=":1:"):
        load_csv(path)

    # the class count takes the labels' int64 grammar: one plain integer
    for value in ("1_0", " \u0663", "", "3,4", "3.0", "99999999999999999999"):
        path.write_text(f"# classes={value}\nlabel,f0\n")
        with pytest.raises(ParseError, match=f"{re.escape(str(path))}:1: bad class count"):
            load_csv(path)
    path.write_text("# classes= +4 \nlabel,f0\n3,0.5\n")
    assert load_csv(path).class_count == 4

    path.write_text("")
    with pytest.raises(ParseError):
        load_csv(path)


def test_csv_validation_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.csv"

    path.write_text("label,f0\n-2,1.0\n")
    with pytest.raises(ValidationError, match=":2:"):
        load_csv(path)

    path.write_text("label,f0\n0,inf\n")
    with pytest.raises(ValidationError, match=":2:"):
        load_csv(path)

    path.write_text("# classes=2\nlabel,f0,f1\n0,1.0,nan\n")
    with pytest.raises(ValidationError, match="f1"):
        load_csv(path)


def test_save_csv_writes_one_line_ending(tmp_path):
    ds = Dataset(np.array([[np.pi, 1e-300], [-1.0, 0.5]]), np.array([-1, 1]), 2)
    path = tmp_path / "d.csv"
    save_csv(ds, path)
    assert path.read_bytes() == (b"# classes=2\nlabel,f0,f1\n"
                                 b"-1,3.1415926535897931,1e-300\n1,-1,0.5\n")


def test_csv_with_mixed_line_endings_loads(tmp_path):
    # earlier versions of save_csv ended the header and rows in \r\n
    path = tmp_path / "d.csv"
    path.write_bytes(b"# classes=2\nlabel,f0,f1\r\n-1,3.1415926535897931,-1\r\n"
                     b"1,1e-300,0.5\r\n")
    back = load_csv(path)
    assert np.array_equal(back.features, [[np.pi, -1.0], [1e-300, 0.5]])
    assert np.array_equal(back.labels, [-1, 1])
    assert back.class_count == 2


@pytest.mark.parametrize("text", [
    "label,f0,f1\r\n0,1.5,2.5\r\n1,3,4\r\n",
    '"label","f0","f1"\n"0", 1.5 ,"2.5"\n 1 ,3,4\n',
    "label,f0,f1\n\n0,1.5,2.5\n\n1,3,4\n\n",
])
def test_csv_accepts_crlf_quotes_spaces_and_blank_lines(tmp_path, text):
    path = tmp_path / "d.csv"
    path.write_bytes(text.encode())
    back = load_csv(path)
    assert np.array_equal(back.features, [[1.5, 2.5], [3.0, 4.0]])
    assert np.array_equal(back.labels, [0, 1])


def test_csv_blank_lines_count_in_error_line_numbers(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("# classes=2\nlabel,f0\n0,1.0\n\nx,2.0\n")
    with pytest.raises(ParseError, match=":5:"):
        load_csv(path)
    path.write_text("label,f0\n\n0,1.0\n\n-2,2.0\n")
    with pytest.raises(ValidationError, match=":5:"):
        load_csv(path)


@pytest.mark.parametrize("row", [
    "1.0,1", "1e0,1", "1_0,1", "\u0663,1", "99999999999999999999,1",  # labels
    "0,1_0", "0,\u0661.\u0665", "0,", "0,0x10",                        # features
])
def test_csv_rejects_numbers_outside_the_loadtxt_syntax(tmp_path, row):
    # int() and float() take "1_0" and non-ASCII digits; the loader does not
    path = tmp_path / "d.csv"
    path.write_text(f"label,f0\n0,2.0\n{row}\n", encoding="utf-8")
    with pytest.raises(ParseError, match=":3:"):
        load_csv(path)


_INSTALLED_LOADTXT = np.loadtxt


def _loadtxt_parsing_ints_via_float(fname, dtype, **kwargs):
    """np.loadtxt as older numpy runs it on a float label: it warns, and
    unless the warning is an error (which numpy wraps in a ValueError) it
    truncates the label. The "# classes=C" value holds a plain integer,
    which older numpy parses without the warning."""
    if dtype.names is None:
        return _INSTALLED_LOADTXT(fname, dtype=dtype, **kwargs)
    try:
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                      DeprecationWarning)
    except DeprecationWarning as exc:
        raise ValueError("could not convert string to int64") from exc
    as_float = np.dtype([("label", np.float64), ("features", dtype["features"])])
    return _INSTALLED_LOADTXT(fname, dtype=as_float, **kwargs).astype(dtype)


@pytest.mark.parametrize("numpy_loadtxt", ["installed", "parsing ints via float"])
@pytest.mark.parametrize("label", ["1.0", "1.5", "-1.5"])
def test_csv_rejects_float_labels_with_warnings_ignored(tmp_path, monkeypatch,
                                                        numpy_loadtxt, label):
    # outside pytest a DeprecationWarning is ignored by default
    if numpy_loadtxt != "installed":
        monkeypatch.setattr(np, "loadtxt", _loadtxt_parsing_ints_via_float)
    path = tmp_path / "d.csv"
    path.write_text(f"# classes=3\nlabel,f0\n{label},0.5\n")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(ParseError, match=":3:"):
            load_csv(path)


def test_csv_undecodable_bytes_are_parse_errors_with_line_numbers(tmp_path):
    path = tmp_path / "d.csv"
    path.write_bytes(b"label,f0\n0,1.0\n1,\xff\n")
    with pytest.raises(ParseError, match=":3:"):
        load_csv(path)
    path.write_bytes(b"# classes=2\xff\nlabel,f0\n")
    with pytest.raises(ParseError, match=":1:"):
        load_csv(path)


def test_csv_empty_body_loads_without_warning(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("# classes=3\nlabel,f0,f1\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        back = load_csv(path)
    assert back.features.shape == (0, 2)
    assert back.labels.shape == (0,)
    assert back.class_count == 3


def test_load_csv_peak_memory_stays_near_the_feature_array(tmp_path):
    # the parsed table and its contiguous copy need about 2x features.nbytes;
    # per-row lists of Python floats would need about 8x
    rng = np.random.default_rng(0)
    ds = Dataset(rng.normal(size=(3000, 64)), rng.integers(-1, 4, size=3000), 4)
    path = tmp_path / "d.csv"
    save_csv(ds, path)
    tracemalloc.start()
    try:
        back = load_csv(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.features, ds.features)
    assert peak < 3 * back.features.nbytes


# one corrupted field or field count per case: (where, text, error); a label
# text of None is the class count plus the drawn offset
_CORRUPTIONS = [
    ("label", "1.0", ParseError), ("label", "1.5", ParseError), ("label", "1_0", ParseError),
    ("label", "x", ParseError), ("label", "", ParseError), ("label", "-2", ValidationError),
    ("label", None, ValidationError),
    ("feature", "abc", ParseError), ("feature", "1_0", ParseError),
    ("feature", "0x10", ParseError), ("feature", "", ParseError),
    ("feature", "inf", ValidationError), ("feature", "nan", ValidationError),
    ("missing", None, ParseError), ("extra", None, ParseError),
]


@st.composite
def _table_with_one_bad_line(draw):
    dim = draw(st.integers(1, 4))
    classes = draw(st.integers(1, 5))
    n = draw(st.integers(1, 30))
    floats = st.floats(-1e6, 1e6, allow_nan=False).map(repr)
    rows = [[str(draw(st.integers(-1, classes - 1)))]
            + draw(st.lists(floats, min_size=dim, max_size=dim)) for _ in range(n)]
    bad = draw(st.integers(0, n - 1))
    where, text, error = draw(st.sampled_from(_CORRUPTIONS))
    if where == "label":
        rows[bad][0] = text if text is not None else str(classes + draw(st.integers(0, 3)))
    elif where == "feature":
        rows[bad][1 + draw(st.integers(0, dim - 1))] = text
    elif where == "missing":
        rows[bad].pop()
    else:
        rows[bad].append("0.5")
    declared = draw(st.booleans())
    lines = ([f"# classes={classes}"] if declared else []) \
        + [",".join(["label"] + [f"f{j}" for j in range(dim)])]
    for i, row in enumerate(rows):
        lines += [""] * draw(st.integers(0, 2))
        if i == bad:
            bad_line = len(lines) + 1
        lines.append(",".join(row))
    lines += [""] * draw(st.integers(0, 2))
    text = "\n".join(lines) + "\n"
    return text, None if declared else classes, error, bad_line


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_table_with_one_bad_line())
def test_csv_walk_names_the_one_bad_line(tmp_path, case):
    text, class_count, error, bad_line = case
    path = tmp_path / "d.csv"
    path.write_text(text)
    with pytest.raises(error, match=f":{bad_line}:"):
        load_csv(path, class_count=class_count)


# ---------------------------------------------------------------- synth

def test_synth_spec_validation():
    with pytest.raises(ConfigError):
        SynthSpec(classes=1)
    with pytest.raises(ConfigError):
        SynthSpec(dim=1)
    with pytest.raises(ConfigError):
        SynthSpec(per_class=0)
    with pytest.raises(ConfigError):
        SynthSpec(shift_angle=360.0)
    with pytest.raises(ConfigError):
        SynthSpec(shift_angle=-1.0)
    with pytest.raises(ConfigError):
        SynthSpec(noise_sigma=-0.1)
    with pytest.raises(ConfigError):
        SynthSpec(noise_sigma=float("nan"))


def test_generator_is_bitwise_deterministic():
    spec = SynthSpec(classes=3, dim=6, per_class=10)
    s1, t1 = gen_rotated_blobs(spec)
    s2, t2 = gen_rotated_blobs(spec)
    assert np.array_equal(s1.features, s2.features)
    assert np.array_equal(t1.features, t2.features)
    assert np.array_equal(s1.labels, s2.labels)
    assert np.array_equal(t1.labels, t2.labels)


def test_generator_class_balance_is_exact():
    spec = SynthSpec(classes=5, dim=7, per_class=13)
    source, target = gen_rotated_blobs(spec)
    for ds in (source, target):
        assert np.array_equal(np.bincount(ds.labels, minlength=5),
                              np.full(5, 13))


def test_features_live_in_a_two_dimensional_subspace():
    spec = SynthSpec(classes=4, dim=24, per_class=30)
    source, target = gen_rotated_blobs(spec)
    stacked = np.vstack([source.features, target.features])
    s = np.linalg.svd(stacked, compute_uv=False)
    assert s[2] / s[0] <= 1e-12


def test_projection_is_isometric_on_unit_centers():
    # noiseless blobs are exactly the unit-circle centers; orthonormal
    # columns are equivalent to every projected center keeping norm 1
    spec = SynthSpec(classes=8, dim=16, per_class=1, noise_sigma=0.0)
    source, _ = gen_rotated_blobs(spec)
    norms = np.linalg.norm(source.features, axis=1)
    assert np.abs(norms - 1.0).max() <= 1e-12


def test_half_turn_with_two_classes_swaps_the_blobs():
    spec = SynthSpec(classes=2, dim=5, per_class=1, noise_sigma=0.0,
                     shift_angle=180.0)
    source, target = gen_rotated_blobs(spec)
    assert np.abs(target.features - source.features[::-1]).max() <= 1e-12


def _source_only(spec, seed):
    cfg = TrainConfig(variant="source_only", hidden_dim=32, feat_dim=16,
                      t_max=120, batch_source=32, batch_target=32, seed=seed)
    source, target = gen_rotated_blobs(spec)
    params, _ = train(source, target, cfg)
    return evaluate(params, source).accuracy, evaluate(params, target).accuracy


def test_no_shift_gives_matching_source_and_target_accuracy():
    src_accs, tgt_accs = [], []
    for seed in range(5):
        spec = SynthSpec(classes=3, dim=8, per_class=40, shift_angle=0.0,
                         noise_sigma=0.2, sample_seed=seed)
        s, t = _source_only(spec, seed)
        src_accs.append(s)
        tgt_accs.append(t)
    assert abs(np.mean(src_accs) - np.mean(tgt_accs)) <= 0.05
    assert np.mean(src_accs) > 0.9


def test_half_turn_two_classes_inverts_the_classifier():
    spec = SynthSpec(classes=2, dim=8, per_class=40, shift_angle=180.0,
                     noise_sigma=0.2)
    _, tgt_acc = _source_only(spec, 0)
    assert tgt_acc < 0.2

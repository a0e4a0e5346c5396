import csv

import numpy as np
import pytest

from gemproj import datagen
from gemproj.datagen import (
    ExperienceSplit,
    StreamSpec,
    _split,
    csv_header,
    dump_csv,
    generate_stream,
    ingest_csv,
    split_80_20,
)


def test_uniform_priors_give_near_uniform_frequencies():
    n = 8000
    # with 4 classes, a focus-class share of 0.25 spreads the rest at 0.75 / 3 = 0.25
    spec = StreamSpec(seed=0, n_per_experience=n, prior_concentration=0.25)
    np.testing.assert_array_equal(spec.priors(), np.full((3, 4), 0.25))
    for split in generate_stream(spec):
        y = np.concatenate([split.train_y, split.test_y])
        counts = np.bincount(y, minlength=4)
        # multinomial CLT: sigma = sqrt(n p (1-p))
        sigma = np.sqrt(n * 0.25 * 0.75)
        assert np.all(np.abs(counts - n * 0.25) <= 3 * sigma)


def test_degenerate_prior_concentrates_on_one_class():
    spec = StreamSpec(seed=0, n_per_experience=200, prior_concentration=1.0)
    for split in generate_stream(spec):
        # experience e draws only its focus class, e mod n_classes
        assert set(np.concatenate([split.train_y, split.test_y])) == {split.experience_id}


def test_same_seed_reproduces_stream_bit_for_bit():
    a = generate_stream(StreamSpec(seed=7, n_per_experience=100))
    b = generate_stream(StreamSpec(seed=7, n_per_experience=100))
    for sa, sb in zip(a, b):
        assert sa.experience_id == sb.experience_id
        np.testing.assert_array_equal(sa.train_x, sb.train_x)
        np.testing.assert_array_equal(sa.test_x, sb.test_x)
        np.testing.assert_array_equal(sa.train_y, sb.train_y)


def test_experiences_use_disjoint_rows():
    stream = generate_stream(StreamSpec(seed=3, n_per_experience=50))
    seen = set()
    for s in stream:
        rows = set(s.train_rows.tolist()) | set(s.test_rows.tolist())
        assert not (rows & seen)
        seen |= rows


def test_class_dead_in_every_experience_warns_but_generates(caplog):
    import logging

    # 3 fully concentrated experiences over 4 classes never draw class 3
    spec = StreamSpec(seed=0, n_per_experience=50, prior_concentration=1.0)
    with caplog.at_level(logging.WARNING, logger="gemproj.datagen"):
        stream = generate_stream(spec)
    assert len(stream) == 3
    assert any("zero probability" in r.message for r in caplog.records)


def test_experience_order_is_shuffled_per_seed():
    orders = {
        tuple(s.experience_id for s in generate_stream(StreamSpec(seed=seed, n_per_experience=10)))
        for seed in range(12)
    }
    assert len(orders) > 1  # at least two seeds disagree on the order


def test_priors_must_sum_to_one():
    for n_classes in range(2, 65):
        for p in (0.0, 1e-9, 0.1, 1 / 3, 0.5, 0.7, 0.9, 1 - 1e-9, 1.0):
            P = StreamSpec(n_classes=n_classes, n_experiences=5, prior_concentration=p).priors()
            assert np.abs(P.sum(axis=1) - 1.0).max() <= 1e-12, (n_classes, p)
    # a single class leaves no other class to take the unconcentrated mass
    with pytest.raises(ValueError, match=r"^n_classes must be an integer >= 2, got 1$"):
        StreamSpec(n_classes=1)


def test_split_is_pure_function_of_seed_exp_and_rows():
    rows = np.arange(100, 150)
    a = split_80_20(5, 2, rows)
    b = split_80_20(5, 2, rows)
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])
    c = split_80_20(6, 2, rows)
    assert not np.array_equal(a[1], c[1])  # different seed, different assignment


def test_split_counts_floor_with_minimum_one():
    train, test = split_80_20(0, 0, np.arange(5))
    assert len(test) == 1 and len(train) == 4
    train, test = split_80_20(0, 0, np.arange(3))
    assert len(test) == 1 and len(train) == 2


def test_train_test_do_not_overlap():
    stream = generate_stream(StreamSpec(seed=2, n_per_experience=40))
    for s in stream:
        assert not (set(s.train_rows.tolist()) & set(s.test_rows.tolist()))


def test_drift_is_realized_zero_shot_lower_on_other_experience():
    # a model trained only on experience 0 does worse on experience 1's test
    from gemproj import TrainConfig, prepare_model, run_experiences

    diffs = []
    for seed in (0, 2, 5, 7, 11):
        spec = StreamSpec(seed=seed)
        stream = generate_stream(spec)
        model = prepare_model(spec, seed)
        cfg = TrainConfig(method="naive", seed=seed, optimizer="adamw", n_experiences=3)
        matrix, _ = run_experiences(cfg, stream, model)
        own = matrix.R[1, 0]
        other = matrix.R[1, 1]
        diffs.append(own - other)
    assert np.mean(diffs) > 0.0


# --- CSV ingestion ---------------------------------------------------------------

def write_csv(path, rows, header="f0,f1,label,experience"):
    path.write_text(header + "\n" + "\n".join(rows) + ("\n" if rows else ""))


def test_ten_row_file_two_experiences_splits_4_1(tmp_path):
    rows = [f"{i}.0,{i + 0.5},{i % 2},{0 if i < 5 else 1}" for i in range(10)]
    p = tmp_path / "data.csv"
    write_csv(p, rows)
    splits = ingest_csv(str(p), n_classes=2, seed=0)
    assert len(splits) == 2
    for s in splits:
        assert s.n_train == 4 and s.n_test == 1


def test_empty_file_raises(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("")
    with pytest.raises(ValueError, match="empty"):
        ingest_csv(str(p), n_classes=2)
    p.write_text("f0,f1,label,experience\n")
    with pytest.raises(ValueError, match="no data rows"):
        ingest_csv(str(p), n_classes=2)


def test_non_numeric_cell_names_row_and_column(tmp_path):
    p = tmp_path / "bad.csv"
    write_csv(p, ["1.0,2.0,0,0", "1.0,oops,1,0", "0.0,1.0,0,0"])
    with pytest.raises(ValueError, match=r"bad\.csv:3.*f1.*oops"):
        ingest_csv(str(p), n_classes=2)


def test_label_out_of_range_raises(tmp_path):
    p = tmp_path / "bad.csv"
    write_csv(p, ["1.0,2.0,5,0", "0.0,1.0,0,0"])
    with pytest.raises(ValueError, match=r"bad\.csv:2.*label 5"):
        ingest_csv(str(p), n_classes=2)


def test_wrong_column_count_names_line(tmp_path):
    p = tmp_path / "bad.csv"
    write_csv(p, ["1.0,2.0,0,0", "1.0,0"])
    with pytest.raises(ValueError, match=r"bad\.csv:3"):
        ingest_csv(str(p), n_classes=2)


def test_bad_header_raises(tmp_path):
    p = tmp_path / "bad.csv"
    write_csv(p, ["1.0,2.0,0,0"], header="a,b,c,d")
    with pytest.raises(ValueError, match="header"):
        ingest_csv(str(p), n_classes=2)


def test_dump_then_ingest_round_trips_features(tmp_path):
    stream = generate_stream(StreamSpec(seed=4, n_per_experience=25, feature_dim=6))
    p = tmp_path / "dump.csv"
    dump_csv(stream, str(p))
    loaded = ingest_csv(str(p), n_classes=4, seed=4)
    assert len(loaded) == 3
    by_id = {s.experience_id: s for s in stream}
    for s in loaded:
        orig = by_id[s.experience_id]
        # an experience's rows sit in the file as its train rows, then its
        # test rows; the ingested row ids count them in that order
        file_order = np.argsort(np.concatenate([s.train_rows, s.test_rows]))
        got_x = np.concatenate([s.train_x, s.test_x])[file_order]
        got_y = np.concatenate([s.train_y, s.test_y])[file_order]
        np.testing.assert_array_equal(got_x, np.concatenate([orig.train_x, orig.test_x]))
        np.testing.assert_array_equal(got_y, np.concatenate([orig.train_y, orig.test_y]))


# --- the row-by-row parser ingest_csv replaced, kept as its oracle ----------------

def reference_ingest_csv(path, n_classes, seed=0):
    """csv.reader, then float()/int() per cell, then split per experience."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        dim = len(header) - 2
        by_exp = {}
        row_counter = 0
        for row in reader:
            if not row:
                continue
            assert len(row) == dim + 2
            feats = [float(cell) for cell in row[:dim]]
            label, exp_id = int(row[dim]), int(row[dim + 1])
            assert 0 <= label < n_classes
            by_exp.setdefault(exp_id, []).append((feats, label, row_counter))
            row_counter += 1
    splits = []
    for exp_id in sorted(by_exp):
        rows = by_exp[exp_id]
        X = np.array([r[0] for r in rows], dtype=np.float64)
        y = np.array([r[1] for r in rows], dtype=np.int64)
        idx = np.array([r[2] for r in rows])
        splits.append(_split(seed, exp_id, X, y, idx))
    return splits


def reference_dump_csv(splits, path):
    """csv.writer over repr(float(v)), the writer dump_csv replaced."""
    dim = splits[0].train_x.shape[1]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(csv_header(dim))
        for split in splits:
            for X, y in ((split.train_x, split.train_y), (split.test_x, split.test_y)):
                for xi, yi in zip(X, y):
                    writer.writerow([repr(float(v)) for v in xi] + [int(yi), split.experience_id])


def assert_same_splits(got, want):
    """Bit for bit: arrays, dtypes, shapes, contiguity, row ids, order."""
    assert [s.experience_id for s in got] == [s.experience_id for s in want]
    for g, w in zip(got, want):
        assert type(g.experience_id) is type(w.experience_id)
        for name in ("train_x", "train_y", "test_x", "test_y", "train_rows", "test_rows"):
            a, b = getattr(g, name), getattr(w, name)
            assert (a.dtype, a.shape, a.flags.c_contiguous) == (b.dtype, b.shape, b.flags.c_contiguous), name
            assert a.tobytes() == b.tobytes(), name


def _spell_float(rng, v):
    if rng.random() < 0.1:
        return _pad(rng, rng.choice(["-0.0", "1.", ".5", "7"]))
    return _pad(rng, rng.choice([repr(v), f"{v:.3g}", f"{v:.17e}", f"{v:.6f}", f"{v:+.4E}"]))


def _spell_int(rng, k):
    text = rng.choice([str(k), f"{k:03d}"] + ([f"+{k}"] if k >= 0 else []))
    return _pad(rng, text)


def _pad(rng, text):
    return rng.choice([text, f" {text}", f"{text}  ", f"\t{text} ", f'"{text}"', f'"{text}" '])


def write_messy_csv(path, rng, dim=3, per_exp=12, exp_ids=(7, -3, 0, 2)):
    """A valid data CSV spelt the many ways the schema allows: mixed line
    ends, blank lines, spaces around cells, quoted cells, number spellings
    and negative experience ids in shuffled row order."""
    ends = ("\n", "\r\n", "\r")
    text = ",".join(csv_header(dim)) + rng.choice(ends)
    for exp_id in rng.permutation(np.repeat(exp_ids, per_exp)).tolist():
        if rng.random() < 0.15:
            text += rng.choice(ends)  # blank line
        values = (rng.standard_normal(dim) * 10.0 ** rng.integers(-6, 7, size=dim)).tolist()
        cells = [_spell_float(rng, v) for v in values]
        cells += [_spell_int(rng, int(rng.integers(0, 4))), _spell_int(rng, exp_id)]
        text += ",".join(cells) + rng.choice(ends)
    path.write_bytes(text[: -1 if rng.random() < 0.5 else None].encode())


@pytest.mark.parametrize("corpus_seed", range(12))
def test_ingest_matches_the_row_by_row_parser_bit_for_bit(tmp_path, corpus_seed):
    p = tmp_path / "messy.csv"
    write_messy_csv(p, np.random.default_rng(corpus_seed))
    for seed in (0, 5):
        assert_same_splits(ingest_csv(str(p), n_classes=4, seed=seed),
                           reference_ingest_csv(str(p), n_classes=4, seed=seed))


def test_ingest_of_a_dumped_stream_matches_the_oracle_without_a_second_pass(tmp_path, monkeypatch):
    p = tmp_path / "dump.csv"
    dump_csv(generate_stream(StreamSpec(seed=6, n_per_experience=60, feature_dim=7)), str(p))
    assert b"\r\n" in p.read_bytes()
    monkeypatch.setattr(datagen, "_first_bad_row", None)  # valid input is parsed once
    assert_same_splits(ingest_csv(str(p), n_classes=4, seed=6),
                       reference_ingest_csv(str(p), n_classes=4, seed=6))


def test_a_row_that_is_not_utf8_raises_the_decode_error_without_a_second_pass(tmp_path, monkeypatch):
    p = tmp_path / "dump.csv"
    dump_csv(generate_stream(StreamSpec(seed=6, n_per_experience=500)), str(p))
    head, last = p.read_bytes().rstrip(b"\r\n").rsplit(b"\r\n", 1)
    p.write_bytes(head + b"\r\n\xff" + last + b"\r\n")
    monkeypatch.setattr(datagen, "_first_bad_row", None)  # the codec error is not re-read
    with pytest.raises(UnicodeDecodeError):
        ingest_csv(str(p), n_classes=4)


HEADER = "f0,f1,label,experience"


@pytest.mark.parametrize("body,message", [
    ("1.0,,0,0", r"bad\.csv:2: non-numeric feature in column f1: ''"),
    ("1.0,2.0,1.0,0", r"bad\.csv:2: label/experience must be integers"),
    ("1.0,2.0,0,0.5", r"bad\.csv:2: label/experience must be integers"),
    ("1.0,2.0,0,0\n1.0,2.0,-1,0", r"bad\.csv:3: label -1 outside \[0, 2\)"),
    ("1.0,2.0,0,0\n   \n1.0,2.0,0,0", r"bad\.csv:3: expected 4 columns, got 1"),
    ("1.0,2.0,0,0\n#1.0,2.0,0,0", r"bad\.csv:3: non-numeric feature in column f0: '#1.0'"),
    ("1.0,nan,0,0", r"bad\.csv:2: non-finite feature in column f1: 'nan'"),
    ("-inf,1.0,0,0", r"bad\.csv:2: non-finite feature in column f0: '-inf'"),
    ("1.0,1e999,0,0", r"bad\.csv:2: non-finite feature in column f1: '1e999'"),
    ("1.0,2.0,0,0\n\n\n1.0,oops,0,0", r"bad\.csv:5: non-numeric feature in column f1"),
    # the first bad line wins, whichever check trips first
    ("1.0,2.0,5,0\noops,2.0,0,0", r"bad\.csv:2: label 5"),
    ("nan,2.0,0,0\n1.0,2.0,9,0", r"bad\.csv:2: non-finite feature in column f0"),
    # float()/int() take these, the C parser does not: refused, naming the cell
    ("1_0,2.0,0,0", r"bad\.csv: .*'1_0'"),
    ("1.0,2.0,0,99999999999999999999", r"bad\.csv: .*'99999999999999999999'"),
    ("\r\n\r\n", r"no data rows in CSV file: .*bad\.csv"),
])
def test_malformed_csv_names_line_and_column(tmp_path, body, message):
    p = tmp_path / "bad.csv"
    p.write_text(HEADER + "\n" + body + "\n")
    with pytest.raises(ValueError, match=message):
        ingest_csv(str(p), n_classes=2)


def test_dump_csv_writes_the_bytes_of_the_csv_writer(tmp_path):
    stream = generate_stream(StreamSpec(seed=3, n_per_experience=30, feature_dim=5))
    special = np.array([[-0.0, 5e-324, 1e16, 1.7976931348623157e308, 0.1],
                        [np.nan, np.inf, -np.inf, 123456789.0, 1e-7]])
    stream.append(ExperienceSplit(train_x=special, train_y=np.array([3, 0]),
                                  test_x=special[::-1], test_y=np.array([1, 2]), experience_id=-4))
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    dump_csv(stream, str(got))
    reference_dump_csv(stream, str(want))
    assert got.read_bytes() == want.read_bytes()

"""Data pipeline: ingest, filtering, splitting, augmentation, formats."""

import json

import pytest

from sessrec import dataio
from sessrec.dataio import (DataError, Example, ItemCatalog, Session,
                            ingest, prefix_augment, preprocess, split, stats)


def write_events(tmp_path, rows, name="events.csv"):
    path = tmp_path / name
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path


class TestIngest:
    def test_valid_and_malformed(self, tmp_path):
        path = write_events(tmp_path, [
            "s1,100.0,a",
            "not a line",
            "s1,101.0,b",
        ])
        events, malformed = ingest(path)
        assert [e.item_id for e in events] == ["a", "b"]
        assert malformed == 1

    def test_header_and_delimiter(self, tmp_path):
        path = write_events(tmp_path, [
            "session\tts\titem",
            "s1\t5\tx",
            "s1\t6\ty",
        ])
        events, malformed = ingest(path, delimiter="\t", has_header=True)
        assert len(events) == 2 and malformed == 0

    def test_bad_timestamp_counts(self, tmp_path):
        path = write_events(tmp_path, ["s1,abc,a", "s1,-3,b", "s1,1,c"])
        events, malformed = ingest(path)
        assert len(events) == 1 and malformed == 2

    def test_non_finite_timestamp_counts(self, tmp_path):
        # a session stamped nan would otherwise fall out of both halves of
        # the temporal split without a trace
        path = write_events(tmp_path, ["s1,nan,a", "s1,inf,b", "s2,-inf,c",
                                       "s2,NaN,d", "s3,2,e"])
        events, malformed = ingest(path)
        assert [e.item_id for e in events] == ["e"]
        assert malformed == 4

    def test_missing_file_fatal(self, tmp_path):
        with pytest.raises(DataError):
            ingest(tmp_path / "nope.csv")

    def test_blank_lines_skipped(self, tmp_path):
        path = write_events(tmp_path, ["s1,1,a", "", "  ", "s1,2,b"])
        events, malformed = ingest(path)
        assert [e.item_id for e in events] == ["a", "b"] and malformed == 0


class TestPreprocess:
    def events(self):
        # a,b frequent; z appears once
        rows = []
        for s in range(5):
            rows.append(dataio.RawEvent(f"s{s}", 10.0 * s, "a"))
            rows.append(dataio.RawEvent(f"s{s}", 10.0 * s + 1, "b"))
        rows.append(dataio.RawEvent("s0", 5.0, "z"))
        return rows

    def test_rare_item_removed(self):
        sessions, catalog = preprocess(self.events(), min_item_freq=5)
        assert set(catalog.item_to_index) == {"a", "b"}
        assert all(len(s) == 2 for s in sessions)

    def test_sorted_within_session(self):
        sessions, catalog = preprocess(self.events(), min_item_freq=1)
        # s0 holds a@0, b@1, z@5: timestamp order, not file order
        s0 = sessions[0]
        assert [catalog.index_to_item[i] for i in s0.items] == ["a", "b", "z"]

    def test_short_sessions_dropped(self):
        events = [dataio.RawEvent("s1", 1, "a"), dataio.RawEvent("s1", 2, "b"),
                  dataio.RawEvent("s2", 3, "a")]
        sessions, _ = preprocess(events, min_item_freq=1)
        assert len(sessions) == 1

    def test_filter_reaches_fixed_point(self):
        # c survives the first frequency pass only through a session that
        # the length filter then drops, so a second round must remove it
        events = [
            dataio.RawEvent("s1", 1, "a"), dataio.RawEvent("s1", 2, "b"),
            dataio.RawEvent("s2", 3, "a"), dataio.RawEvent("s2", 4, "b"),
            dataio.RawEvent("s3", 5, "c"), dataio.RawEvent("s3", 6, "q"),
            dataio.RawEvent("s4", 7, "c"),
        ]
        sessions, catalog = preprocess(events, min_item_freq=2)
        assert set(catalog.item_to_index) == {"a", "b"}
        assert len(sessions) == 2

    def test_idempotent_on_own_output(self):
        sessions, catalog = preprocess(self.events(), min_item_freq=2)
        replay = []
        for i, s in enumerate(sessions):
            for t, item in enumerate(s.items):
                replay.append(dataio.RawEvent(
                    f"r{i}", float(t), catalog.index_to_item[item]))
        again, catalog2 = preprocess(replay, min_item_freq=2)
        assert [
            [catalog2.index_to_item[i] for i in s.items] for s in again
        ] == [
            [catalog.index_to_item[i] for i in s.items] for s in sessions
        ]

    def test_truncation_keeps_most_recent(self):
        events = [dataio.RawEvent("s1", float(t), f"i{t}") for t in range(6)]
        sessions, catalog = preprocess(events, min_item_freq=1,
                                       max_session_len=3)
        names = [catalog.index_to_item[i] for i in sessions[0].items]
        assert names == ["i3", "i4", "i5"]

    @pytest.mark.parametrize("max_len", [1, 0, -1])
    def test_max_below_min_rejected(self, max_len):
        # items[-0:] would keep whole sessions, items[-1:] drop all but one
        with pytest.raises(ValueError, match="max_session_len"):
            preprocess(self.events(), min_item_freq=1, max_session_len=max_len)

    def test_max_equal_to_min_allowed(self):
        sessions, _ = preprocess(self.events(), min_item_freq=1,
                                 max_session_len=2)
        assert sessions and all(len(s) == 2 for s in sessions)

    def test_everything_removed_is_fatal(self):
        events = [dataio.RawEvent("s1", 1, "a")]
        with pytest.raises(DataError):
            preprocess(events, min_item_freq=5)

    def test_catalog_is_dense_first_occurrence(self):
        sessions, catalog = preprocess(self.events(), min_item_freq=1)
        n = catalog.count
        assert sorted(catalog.item_to_index.values()) == list(range(n))
        assert catalog.index_to_item[catalog.item_to_index["a"]] == "a"


class TestSplit:
    def test_boundary_and_refilter(self):
        sessions = [
            Session([0, 1], last_timestamp=10.0),
            Session([0, 1, 2], last_timestamp=30.0),   # 2 unseen in train
            Session([2, 2], last_timestamp=40.0),      # only unseen items
        ]
        train, test = split(sessions, boundary=20.0)
        assert len(train) == 1
        assert len(test) == 1
        assert test[0].items == [0, 1]

    def test_boundary_inclusive_on_train_side(self):
        sessions = [Session([0, 1], 10.0), Session([0, 1], 20.0),
                    Session([1, 0], 21.0)]
        train, test = split(sessions, boundary=20.0)
        assert len(train) == 2 and len(test) == 1


class TestPrefixAugment:
    def test_counts_and_content(self):
        examples = prefix_augment([Session([5, 6, 7])])
        assert examples == [Example([5], 6), Example([5, 6], 7)]

    def test_total_count(self):
        sessions = [Session(list(range(n))) for n in (2, 3, 6)]
        assert len(prefix_augment(sessions)) == 1 + 2 + 5

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            prefix_augment([Session([1])])


def test_stats_arithmetic():
    train = [Session([0, 1, 2]), Session([1, 0])]
    test = [Session([2, 1])]
    st = stats(train, test, ItemCatalog({"a": 0, "b": 1, "c": 2}))
    assert st.interactions == 7
    assert st.training_sessions == 2 and st.test_sessions == 1
    assert st.items == 3
    assert st.avg_length == pytest.approx(7 / 3)


class TestRoundTrip:
    def test_examples_jsonl(self, tmp_path):
        examples = [Example([1, 2], 3), Example([4], 5)]
        path = tmp_path / "ex.jsonl"
        dataio.write_examples(path, examples)
        assert dataio.read_examples(path) == examples
        rec = json.loads(path.read_text().splitlines()[0])
        assert rec == {"session": [1, 2], "target": 3}

    @pytest.mark.parametrize("record", [
        '{"session": [1], "target": "x"}', 'session 1 target 2',
        '{"session": [1]}'], ids=["string_target", "not_json", "no_target"])
    def test_bad_example_line_fatal(self, tmp_path, record):
        path = tmp_path / "ex.jsonl"
        path.write_text('{"session": [1], "target": 2}\n' + record + "\n",
                        encoding="utf-8")
        with pytest.raises(DataError, match=f"{path}:2:"):
            dataio.read_examples(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "ex.jsonl"
        path.write_text('\n{"session": [1], "target": 2}\n  \n',
                        encoding="utf-8")
        assert dataio.read_examples(path) == [Example([1], 2)]

    @pytest.mark.parametrize("record", [
        '{"session": "123", "target": 4}',
        '{"session": [1.9, true], "target": 4}',
        '{"session": [1, 2], "target": 2.7}',
        '{"session": [1, "2"], "target": 3}',
        '{"session": [1, 2], "target": false}',
        '{"session": [1, 2.0], "target": 3}',
        '{"session": {"1": 2}, "target": 3}',
    ], ids=["string_session", "float_and_bool_ids", "float_target",
            "string_id", "bool_target", "integral_float", "object_session"])
    def test_non_integer_ids_fatal(self, tmp_path, record):
        path = tmp_path / "ex.jsonl"
        path.write_text('{"session": [1], "target": 2}\n' + record + "\n",
                        encoding="utf-8")
        with pytest.raises(DataError, match=f"{path}:2:"):
            dataio.read_examples(path)

    def test_catalog_json(self, tmp_path):
        catalog = ItemCatalog({"a": 0, "b": 1})
        path = tmp_path / "catalog.json"
        dataio.write_catalog(path, catalog)
        back = dataio.read_catalog(path)
        assert back.item_to_index == catalog.item_to_index
        assert back.index_to_item == ["a", "b"]

    @pytest.mark.parametrize("content", [
        '{"item_to_index": {"a": 0.0, "b": 1.0}}',
        '{"item_to_index": {"a": false, "b": true}}',
        '{"item_to_index": {"a": 0, "b": "1"}}',
        '{"count": 2.0, "item_to_index": {"a": 0, "b": 1}}',
        '{"count": true, "item_to_index": {"a": 0}}',
    ], ids=["float_indices", "bool_indices", "string_index", "float_count",
            "bool_count"])
    def test_catalog_non_integer_fatal(self, tmp_path, content):
        # 0.0 and true compare equal to 0 and 1, so only the JSON type
        # tells them from a dense index
        path = tmp_path / "catalog.json"
        path.write_text(content, encoding="utf-8")
        with pytest.raises(DataError, match=f"{path}: .*JSON integers"):
            dataio.read_catalog(path)

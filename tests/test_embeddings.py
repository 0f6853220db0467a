import base64
import codecs
import hashlib
import io
import json
import os
import threading
import zipfile
import zlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pairrank import embeddings, sidecar
from pairrank.embeddings import (
    BLOCK_LINES,
    EmbeddingError,
    EmbeddingTable,
    EmptyTableError,
    InconsistentDimensionError,
    compose_mean_matrix,
    compose_sentence_vector,
    load_embedding_table,
    tokenize,
)


def table_ab():
    return load_embedding_table(io.StringIO("a 1.0 2.0\nb 3.0 4.0\n"))


def test_basic_load():
    t = table_ab()
    assert t.dimension == 2
    assert len(t) == 2
    assert np.array_equal(t.matrix, [[0.0, 0.0], [1.0, 2.0], [3.0, 4.0]])
    assert t.rows == {"a": 1, "b": 2}


@pytest.mark.parametrize("value", ["nan", "-inf", "Infinity", "1e999"])
def test_non_finite_value_names_its_line(value):
    with pytest.raises(EmbeddingError, match="^line 3: non-finite vector value$"):
        load_embedding_table(io.StringIO(f"a 1 2\n# comment\nthe {value} 1\n"))


def test_field_only_python_reads_is_non_numeric():
    # Vector fields go through numpy's float parser, which, unlike float(),
    # takes no digit-group underscores and no non-ASCII digits.
    for field in ("1_0", "\u0661"):
        with pytest.raises(EmbeddingError, match="^line 2: non-numeric vector field$"):
            load_embedding_table(io.StringIO(f"a 1 2\nb 3 {field}\n"))


def test_inconsistent_dimension():
    with pytest.raises(InconsistentDimensionError):
        load_embedding_table(io.StringIO("a 1.0 2.0\nb 3.0\n"))


def test_non_numeric_field():
    with pytest.raises(ValueError):
        load_embedding_table(io.StringIO("a 1.0 x\n"))


def test_empty_input():
    with pytest.raises(EmptyTableError):
        load_embedding_table(io.StringIO(""))


def test_duplicates_keep_first():
    t = load_embedding_table(io.StringIO("a 1.0 2.0\na 9.0 9.0\n"))
    assert len(t) == 1
    assert np.array_equal(t.matrix[t.rows["a"]], [1.0, 2.0])
    assert t.duplicates_skipped == 1


def test_word2vec_header_and_comments():
    t = load_embedding_table(io.StringIO("2 3\n# comment\na 1 2 3\nb 4 5 6\n"))
    assert t.dimension == 3
    assert len(t) == 2


def test_glove_style_roundtrip():
    # 25-column file of 100 words, generated programmatically; every value
    # must load as the float that was written, bit for bit.
    values = np.random.default_rng(7).normal(size=(100, 25))
    lines = [f"word{i} " + " ".join(map(repr, row.tolist())) for i, row in enumerate(values)]
    t = load_embedding_table(io.StringIO("\n".join(lines)))
    assert t.dimension == 25 and len(t) == 100
    assert t.rows == {f"word{i}": i + 1 for i in range(100)}
    assert t.matrix[1:].tobytes() == values.tobytes()
    assert not t.matrix[0].any()


def test_compose_mean():
    sv = compose_sentence_vector(["a", "b"], table_ab())
    assert np.array_equal(sv.values, [2.0, 3.0])
    assert sv.oov_count == 0


def test_compose_all_oov():
    sv = compose_sentence_vector(["zzz"], table_ab())
    assert np.array_equal(sv.values, [0.0, 0.0])
    assert sv.oov_count == 1


def test_compose_partial_oov():
    # Oracle: mean over the found subset only.
    sv = compose_sentence_vector(["a", "zzz", "b"], table_ab())
    found = [np.array([1.0, 2.0]), np.array([3.0, 4.0])]
    expected = sum(found) / len(found)
    assert np.array_equal(sv.values, expected)
    assert sv.oov_count == 1


def test_compose_empty():
    sv = compose_sentence_vector([], table_ab())
    assert np.array_equal(sv.values, [0.0, 0.0])
    assert sv.oov_count == 0


@given(st.lists(st.sampled_from(["a", "b", "zzz"]), max_size=8), st.randoms())
def test_compose_permutation_invariant(tokens, rnd):
    t = table_ab()
    base = compose_sentence_vector(tokens, t)
    shuffled = list(tokens)
    rnd.shuffle(shuffled)
    assert np.allclose(base.values, compose_sentence_vector(shuffled, t).values, atol=1e-12)
    assert base.oov_count == compose_sentence_vector(shuffled, t).oov_count


@given(st.lists(st.sampled_from(["a", "b", "zzz"]), max_size=8))
def test_compose_duplication_invariant(tokens):
    t = table_ab()
    once = compose_sentence_vector(tokens, t)
    twice = compose_sentence_vector(tokens + tokens, t)
    assert np.allclose(once.values, twice.values, atol=1e-12)


def test_tokenize():
    assert tokenize("The  cat\tSAT ") == ["the", "cat", "sat"]


def sequential_mean(tokens, table):
    """Reference composition: one token at a time, OOV tokens skipped."""
    acc = np.zeros(table.dimension)
    found = 0
    for tok in tokens:
        if tok in table.rows:
            acc += table.matrix[table.rows[tok]]
            found += 1
    values = acc / found if found else np.zeros(table.dimension)
    return values, len(tokens) - found


finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@given(st.lists(st.lists(st.sampled_from(["a", "b", "c", "zzz", "qqq"]), max_size=10), max_size=8),
       st.lists(finite, min_size=9, max_size=9))
@example(sentences=[["a"], ["zzz", "b"], []], values=[-0.0] * 9)
def test_bulk_compose_matches_sequential_mean(sentences, values):
    # Empty and all-OOV sentences come up often with two OOV tokens in five.
    table = EmbeddingTable(np.array([0.0] * 3 + values).reshape(4, 3), ["a", "b", "c"])
    rows = table.rows_of([t for s in sentences for t in s])
    got, oov = compose_mean_matrix(rows, np.array([len(s) for s in sentences], dtype=np.int64), table)
    assert got.shape == (len(sentences), 3)
    for row, n_oov, tokens in zip(got, oov, sentences):
        want, want_oov = sequential_mean(tokens, table)
        assert np.array_equal(row, want)
        assert row.tobytes() == want.tobytes()  # sign of zero too
        assert n_oov == want_oov


TABLE_MATRIX = np.array([[0.0, 0.0], [1.0, 2.0], [3.0, 4.0]])
# A table takes over its matrix and makes it read-only, so the shared one is read-only from the start.
TABLE_MATRIX.flags.writeable = False


def with_value(row, col, value):
    matrix = TABLE_MATRIX.copy()
    matrix[row, col] = value
    return matrix


# Each was built without error before the table checked itself, and composed
# wrong: a row past the matrix read its last row, a non-zero row 0 was added
# for every out-of-vocabulary token. The table numbers its tokens itself, in
# the order given, so a numbering is stated as a token list: a token past the
# matrix is one token too many, and a row without a token one too few.
BAD_TABLES = {
    "row-past-the-matrix": (TABLE_MATRIX, ["a", "b", "c"], 0),
    "row-without-a-token": (TABLE_MATRIX, ["a"], 0),
    "repeated-token": (TABLE_MATRIX, ["a", "a"], 0),
    "empty-token": (TABLE_MATRIX, ["a", ""], 0),
    "token-with-space": (TABLE_MATRIX, ["a", "b c"], 0),
    "token-with-newline": (TABLE_MATRIX, ["a", "b\n"], 0),
    "non-zero-row-0": (with_value(0, 1, 1.0), ["a", "b"], 0),
    "negative-zero-row-0": (with_value(0, 0, -0.0), ["a", "b"], 0),
    "nan": (with_value(2, 1, np.nan), ["a", "b"], 0),
    "infinity": (with_value(1, 0, -np.inf), ["a", "b"], 0),
    "1-d-matrix": (np.zeros(3), ["a", "b"], 0),
    "no-row-0": (np.zeros((0, 2)), [], 0),
    "width-0": (np.zeros((3, 0)), ["a", "b"], 0),
    "negative-duplicates": (TABLE_MATRIX, ["a", "b"], -1),
    "list-token": (TABLE_MATRIX, ["a", ["b"]], 0),
    "tokens-as-one-string": (TABLE_MATRIX, "ab", 0),
    "bool-duplicates": (TABLE_MATRIX, ["a", "b"], True),
    "float-duplicates": (TABLE_MATRIX, ["a", "b"], 1.0),
}


@pytest.mark.parametrize("matrix, tokens, duplicates", BAD_TABLES.values(), ids=BAD_TABLES)
def test_table_refuses_what_no_parse_gives(matrix, tokens, duplicates):
    with pytest.raises(EmbeddingError):
        EmbeddingTable(matrix, tokens, duplicates_skipped=duplicates)


@pytest.mark.parametrize("rows", [[7], [-1, 1]], ids=["past-the-matrix", "negative"])
def test_compose_refuses_rows_outside_the_table(rows):
    # np.take clips: row 7 of a 3-row matrix read its last row, and -1 counted as found and read row 0.
    with pytest.raises(EmbeddingError, match=r"^token rows must lie in \[0, 3\)"):
        compose_mean_matrix(np.array(rows), np.array([len(rows)]), table_ab())


def test_table_keeps_the_rows_it_checked():
    tokens = ["a", "b"]
    table = EmbeddingTable(TABLE_MATRIX.copy(), tokens)
    tokens.append("c")
    assert len(table) == 2 and table.tokens == ("a", "b")
    assert table.rows_of(["c", "b"]).tolist() == [0, 2]


def per_line_load(lines):
    """The line-at-a-time loader that block parsing replaced, kept as the oracle.

    Returns ``{token: (line number, vector)}`` in file order and the number
    of duplicate lines skipped.
    """
    entries = {}
    dimension = None
    duplicates = 0
    first_data_line = True
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if first_data_line and embeddings._is_header(fields):
            first_data_line = False
            continue
        first_data_line = False
        token, raw = fields[0], fields[1:]
        if not raw:
            raise EmbeddingError(f"line {lineno}: token without vector")
        try:
            vec = np.array([float(x) for x in raw], dtype=float)
        except ValueError as exc:
            raise EmbeddingError(f"line {lineno}: non-numeric vector field") from exc
        if dimension is None:
            dimension = len(vec)
        elif len(vec) != dimension:
            raise InconsistentDimensionError(
                f"line {lineno}: expected {dimension} values, got {len(vec)}"
            )
        if token in entries:
            duplicates += 1
            continue
        entries[token] = (lineno, vec)
    if dimension is None or not entries:
        raise EmptyTableError("no embedding entries in input")
    return entries, duplicates


def assert_loads_like_per_line(lines):
    """The block loader gives the oracle's table, or the same error for the same line.

    The oracle reads non-finite values; the block loader must instead name
    the line of the first kept vector that holds one.
    """
    try:
        want = per_line_load(lines)
    except EmbeddingError as exc:
        with pytest.raises(type(exc)) as got:
            load_embedding_table(lines)
        assert type(got.value) is type(exc) and str(got.value) == str(exc)
        return
    entries, duplicates = want
    bad = [lineno for lineno, vec in entries.values() if not np.isfinite(vec).all()]
    if bad:
        with pytest.raises(EmbeddingError, match=f"^line {bad[0]}: non-finite vector value$"):
            load_embedding_table(lines)
        return
    table = load_embedding_table(lines)
    assert list(table.rows) == list(entries)
    assert list(table.rows.values()) == list(range(1, len(entries) + 1))
    assert table.matrix[0].tobytes() == np.zeros(table.dimension).tobytes()
    assert table.matrix[1:].tobytes() == np.array([vec for _, vec in entries.values()]).tobytes()
    assert table.duplicates_skipped == duplicates


GOOD_FIELDS = ["0", "1", "-2.5", "0.1", "1e-3", "+.5", "7.", "-0.0", "4.9e-324", "1.7976931348623157e308"]
BAD_FIELDS = ["x", "1,5", "0x10", "1e", "--1"]
NON_FINITE_FIELDS = ["nan", "-inf", "Infinity", "1e999"]
# Every character Python splits on, except the line breaks a file never
# leaves inside a line; "\r" still can, in lines handed over as strings.
SEPARATORS = [" ", "  ", "\t", " \t ", "\x0b", "\x0c", "\x1c", "\x85", "\xa0", "\u3000", "\r"]


@st.composite
def entry_line(draw, dim):
    token = draw(st.sampled_from(["a", "b", "c", "d", "e", "7", "wörd"]))
    # About one line in ten has a defect: a wrong width, a bad field or a non-finite one.
    width = draw(st.sampled_from([dim] * 60 + [dim - 1, dim + 1, 0]))
    fields = draw(st.lists(st.sampled_from(GOOD_FIELDS * 30 + BAD_FIELDS + NON_FINITE_FIELDS * 2),
                           min_size=width, max_size=width))
    seps = draw(st.lists(st.sampled_from(SEPARATORS), min_size=width, max_size=width))
    body = token + "".join(sep + field for sep, field in zip(seps, fields))
    return draw(st.sampled_from(["", " ", "\t"])) + body + draw(st.sampled_from(["", " ", "\t"]))


@st.composite
def table_files(draw):
    """Lines of a generated table, with ``BLOCK_LINES`` patched to 4."""
    dim = draw(st.integers(1, 3))
    # Just under, at and past one and two blocks of 4.
    n = draw(st.sampled_from([0, 1, 3, 4, 5, 7, 8, 9, 13]))
    # Sometimes every line from one on has another width, at a block boundary or not.
    switch = draw(st.sampled_from([n] * 3 + list(range(1, n))))
    lines = [draw(entry_line(dim if i < switch else dim + 1)) for i in range(n)]
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(lines)))
        lines.insert(at, draw(st.sampled_from(["", "   ", "# comment", "  #x 1 2", "#"])))
    header = draw(st.sampled_from([None, f"{n} {dim}", "2 3", "x 3"]))
    if header is not None:
        lines.insert(draw(st.integers(0, 1)), header)
    return [line + "\n" for line in lines]


@settings(max_examples=400, deadline=None)
@given(table_files())
def test_block_loader_matches_per_line_loader(lines):
    with mock.patch.object(embeddings, "BLOCK_LINES", 4):
        assert_loads_like_per_line(lines)


def numbered_lines(n):
    return [f"w{i} {i}.0 {i}.1 {i}.2\n" for i in range(n)]


@pytest.mark.parametrize("entry_lines", [BLOCK_LINES - 1, BLOCK_LINES, BLOCK_LINES + 1])
def test_block_loader_matches_per_line_loader_around_one_block(entry_lines):
    lines = ["%d 3\n" % entry_lines, "# comment\n", "\n"] + numbered_lines(entry_lines - 1)
    lines[-1] = lines[-1].replace(" ", "\t  ")
    lines.insert(9, lines[5])  # a second w2 line, skipped
    assert_loads_like_per_line(lines)
    assert len(load_embedding_table(lines)) == entry_lines - 1


def test_bad_field_past_first_block_names_its_line():
    lines = ["# comment\n"] + numbered_lines(BLOCK_LINES + 20)
    lines[BLOCK_LINES + 8] = "bad 1.0 2,0 3.0\n"
    with pytest.raises(EmbeddingError, match=f"^line {BLOCK_LINES + 9}: non-numeric vector field$"):
        load_embedding_table(lines)
    assert_loads_like_per_line(lines)


@pytest.mark.parametrize("first, last", [(BLOCK_LINES + 8, BLOCK_LINES + 8), (BLOCK_LINES + 1, BLOCK_LINES + 20)],
                         ids=["one-short-row-mid-block", "short-from-the-second-block-on"])
def test_short_row_past_first_block_names_its_line(first, last):
    # lines[k] is file line k + 1; the second block starts at lines[BLOCK_LINES + 1].
    lines = ["# comment\n"] + numbered_lines(BLOCK_LINES + 20)
    for k in range(first, last + 1):
        lines[k] = lines[k].rsplit(" ", 1)[0] + "\n"
    with pytest.raises(InconsistentDimensionError, match=f"^line {first + 1}: expected 3 values, got 2$"):
        load_embedding_table(lines)
    assert_loads_like_per_line(lines)


# Table files that the path loader must read exactly as an open text file is
# read: a header, comments, a duplicate token, non-ASCII tokens, CRLF and
# lone CR line ends, and a last line without its line end.
SIDECAR_TABLES = {
    "plain": "a 1.0 2.0\nb 3.0 4.0\n",
    "header-comments-duplicate": "3 2\n# comment\na 1 2\n\nb -0.0 4.9e-324\na 9 9\n# end\nc 5 6",
    "non-ascii": "wörd 1 2\n日本 3 4\nçà\t5 6\nwörd 7 8\n",
    "line-ends": "a 1 2\r\nb 3 4\rc 5 6\n",
    "nul-quote-backslash": 'a\x00b 1 2\nsay" 3 4\nc\\d 5 6\n',
}


def table_file(tmp_path, text, name="emb.txt"):
    path = tmp_path / name
    path.write_bytes(text.encode("utf-8"))
    return path


def assert_same_table(got, want):
    assert got.matrix.dtype == want.matrix.dtype and got.matrix.shape == want.matrix.shape
    assert got.matrix.tobytes() == want.matrix.tobytes()
    assert list(got.rows.items()) == list(want.rows.items())
    assert got.duplicates_skipped == want.duplicates_skipped


def parse_only():
    """Loads inside this context may parse no text: they must come from a sidecar."""
    return mock.patch.object(embeddings, "_parse", side_effect=AssertionError("parsed"))


@pytest.mark.parametrize("text", SIDECAR_TABLES.values(), ids=SIDECAR_TABLES)
def test_cold_and_warm_loads_give_the_parsed_table(tmp_path, text):
    path = table_file(tmp_path, text)
    with open(path, encoding="utf-8") as f:
        want = load_embedding_table(f)
    cold = load_embedding_table(path)
    assert sorted(p.name for p in tmp_path.iterdir()) == [".emb.txt.pairrank.npz", "emb.txt"]
    with parse_only():
        warm = load_embedding_table(str(path))
    assert_same_table(cold, want)
    assert_same_table(warm, want)


def test_sidecar_is_one_json_member_and_the_matrix(tmp_path):
    path = table_file(tmp_path, "a 1 2\nb 3 4\nb 5 6\n")
    load_embedding_table(path)
    with zipfile.ZipFile(sidecar.sidecar_path(path)) as zf:
        assert zf.namelist() == ["fields.json", "matrix.npy"]
    assert sidecar_members(path)["fields.json"] == {
        "version": embeddings.SIDECAR_VERSION, "sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
        "tokens": ["a", "b"], "duplicates_skipped": 1}


def test_byte_order_mark_is_dropped(tmp_path):
    # Kept, the mark would open the first token, and "a" would compose as out of the vocabulary.
    want = load_embedding_table(table_file(tmp_path, "a 1 2\nb 3 4\n"))
    path = tmp_path / "bom.txt"
    path.write_bytes(codecs.BOM_UTF8 + b"a 1 2\nb 3 4\n")
    assert_same_table(load_embedding_table(path), want)
    with parse_only():
        assert_same_table(load_embedding_table(path), want)


@pytest.mark.parametrize("served", [False, True], ids=["parsed", "from-sidecar"])
def test_loaded_table_is_read_only(tmp_path, served):
    # Once checked, no write can change what a token composes to or add a token.
    path = table_file(tmp_path, "a 1 2\nb 3 4\n")
    table = load_embedding_table(path)
    if served:
        with parse_only():
            table = load_embedding_table(path)
    with pytest.raises(ValueError, match="read-only"):
        table.matrix[0] = [5, 5]
    with pytest.raises(TypeError):
        table.rows["c"] = 9
    assert compose_sentence_vector(["zzz", "a"], table).values.tolist() == [1.0, 2.0]
    assert len(table) == 2


def test_sidecar_is_keyed_by_content(tmp_path):
    path = table_file(tmp_path, "a 1 2\nb 3 4\n")
    load_embedding_table(path)
    stat = path.stat()
    # The same size and modification time, other bytes.
    path.write_bytes(b"a 1 2\nb 3 5\n")
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert np.array_equal(load_embedding_table(path).matrix[2], [3, 5])
    with parse_only():
        assert np.array_equal(load_embedding_table(path).matrix[2], [3, 5])


@pytest.mark.parametrize("mode", [0o644, 0o600, 0o755])
def test_sidecar_takes_the_tables_read_and_write_bits(tmp_path, mode):
    path = table_file(tmp_path, "a 1 2\n")
    path.chmod(mode)
    load_embedding_table(path)
    assert os.stat(sidecar.sidecar_path(path)).st_mode & 0o777 == mode & 0o666


def sidecar_members(path):
    """The sidecar's members by name: ``fields.json`` as the JSON it holds, each array without its ``.npy``."""
    with np.load(sidecar.sidecar_path(path)) as npz:
        return {name: json.loads(npz[name]) if name == "fields.json" else npz[name] for name in npz.files}


def write_sidecar(path, members):
    """Write ``members`` as the sidecar: ``fields.json`` as JSON (or, given bytes, as they are), each array as ``.npy``."""
    with zipfile.ZipFile(sidecar.sidecar_path(path), "w") as zf:
        for name, value in members.items():
            if name == "fields.json":
                zf.writestr(name, value if isinstance(value, bytes) else json.dumps(value))
            else:
                with zf.open(f"{name}.npy", "w") as out:
                    np.lib.format.write_array(out, np.asanyarray(value))


def rewrite_sidecar(path, **changes):
    """Write the sidecar again with each change: to the key of ``fields.json`` of that name, else to that array."""
    members = sidecar_members(path)
    fields = members["fields.json"]
    for name, value in changes.items():
        (fields if name in fields else members)[name] = value
    write_sidecar(path, members)


def fields_with(change):
    """A spoiler that rewrites the sidecar's ``fields.json`` as ``change`` of the JSON it holds."""
    def spoil(path):
        members = sidecar_members(path)
        write_sidecar(path, {**members, "fields.json": change(members["fields.json"])})
    return spoil


def sidecar_bytes(path):
    with open(sidecar.sidecar_path(path), "rb") as f:
        return f.read()


def replace_bytes(path, data):
    with open(sidecar.sidecar_path(path), "wb") as f:
        f.write(data)


def flip_last_matrix_byte(path):
    data = bytearray(sidecar_bytes(path))
    at = data.index(np.float64(4.0).tobytes())  # the last value of the matrix
    data[at] ^= 1
    replace_bytes(path, bytes(data))


def write_npy(path):
    with open(sidecar.sidecar_path(path), "wb") as f:
        np.save(f, np.zeros(3))


def matrix_with(row, col, value):
    def change(path):
        matrix = sidecar_members(path)["matrix"]
        matrix[row, col] = value
        rewrite_sidecar(path, matrix=matrix)
    return change


def strings_with(name, change):
    """A spoiler that rewrites the sidecar's text field ``name`` as ``change`` of its strings."""
    return fields_with(lambda fields: {**fields, name: change(fields[name])})


# What any sidecar's fields.json may be spoiled to.
BAD_FIELDS_JSON = {
    "fields-not-json": fields_with(lambda fields: b"{not json"),
    "fields-not-an-object": fields_with(lambda fields: list(fields.values())),
    "fields-missing-a-key": fields_with(lambda fields: {k: v for k, v in fields.items() if k != "sha256"}),
    "fields-with-an-extra-key": fields_with(lambda fields: {**fields, "rows": {}}),
    "no-fields-member": lambda p: write_sidecar(p, {k: v for k, v in sidecar_members(p).items() if k != "fields.json"}),
}


BAD_SIDECARS = {
    "truncated": lambda p: replace_bytes(p, sidecar_bytes(p)[:-200]),
    "not-a-zip-file": lambda p: replace_bytes(p, b"not a zip file\n"),
    "a-npy-file": write_npy,
    "corrupt-matrix-byte": flip_last_matrix_byte,
    "other-version": lambda p: rewrite_sidecar(p, version=embeddings.SIDECAR_VERSION + 1),
    "other-digest": lambda p: rewrite_sidecar(p, sha256="0" * 64),
    "missing-member": lambda p: write_sidecar(p, {k: v for k, v in sidecar_members(p).items() if k != "matrix"}),
    "pickled-member": lambda p: rewrite_sidecar(p, matrix=np.array([[0, 0], [1, 2], [3, 4]], dtype=object)),
    "float32-matrix": lambda p: rewrite_sidecar(p, matrix=sidecar_members(p)["matrix"].astype(np.float32)),
    "non-finite-value": matrix_with(1, 0, np.nan),
    "non-zero-row-0": matrix_with(0, 1, 1.0),
    "negative-zero-row-0": matrix_with(0, 0, -0.0),
    "duplicate-tokens": strings_with("tokens", lambda tokens: [tokens[0], tokens[0]]),
    "token-with-space": strings_with("tokens", lambda tokens: [tokens[0], "b c"]),
    "empty-token": strings_with("tokens", lambda tokens: [tokens[0], ""]),
    "list-token": strings_with("tokens", lambda tokens: [tokens[0], [tokens[1]]]),
    "tokens-as-one-string": strings_with("tokens", "".join),
    "wrong-row-count": lambda p: rewrite_sidecar(p, matrix=np.zeros((4, 2))),
    "negative-duplicates": lambda p: rewrite_sidecar(p, duplicates_skipped=-1),
    "true-duplicates": lambda p: rewrite_sidecar(p, duplicates_skipped=True),
    "float-duplicates": lambda p: rewrite_sidecar(p, duplicates_skipped=0.0),
    **BAD_FIELDS_JSON,
}


@pytest.mark.parametrize("spoil", BAD_SIDECARS.values(), ids=BAD_SIDECARS)
def test_bad_sidecar_is_ignored_and_rewritten(tmp_path, spoil):
    path = table_file(tmp_path, "a 1 2\nb 3 4\n")
    want = load_embedding_table(path)
    spoil(path)
    with mock.patch.object(embeddings, "_parse", wraps=embeddings._parse) as parse:
        assert_same_table(load_embedding_table(path), want)
    assert parse.call_count == 1
    with parse_only():
        assert_same_table(load_embedding_table(path), want)
    assert sorted(p.name for p in tmp_path.iterdir()) == [".emb.txt.pairrank.npz", "emb.txt"]


# The version-1 sidecar that the loader wrote for "a 1 2\nb 3 4\nb 5 6\n" before the
# table's constructor took over the sidecar's checks (6de88fa), zlib-compressed:
# its tokens are one newline-joined blob.
EARLIER_SIDECAR = (
    "eNoL8GZm0WWAAEWGJRvnr/oPBdwMIgxlqUXFmfl5enkFlYwMAgwdUIUwerJfqG9AJCNDGUO1ekpqcXKRupWCuk2mhbqOgnpaflFJUWJe"
    "fH5RSipI3C0xpzgVKF6ckViQCuRraOoo1CpQBLgYoe4IQPHEolSjzTBPcAE9AbTRyNQM5ocFUHUL8PmhptSQKD8YG+lQ6A2u6p+d8UVc"
    "axb791dV3c6U+qjIbLh8jYJhcs3hlm65e0cyUf3WMm2CErLfchNLijIrYH7bAFW3AW/8pBEXP8Y6CkaUeY6LASv4YA9lOEAoDigt4IDq"
    "1zOfTbmR/VqSn52aVwzzazNUXTNV4pHSaFTgSuRKCsCZl8SAzk8pLcjJTE4sSS2OL87OLChITRn82YqRSZcZ1UcdUHdyI0VoA1gDUlmB"
    "rhGUIxdA8xwXisajQBKRP9H1gVL7Bmh6RtW3EGglIu2j6wOlnGZo2kDV18vEgJSO8HlQDEWfDzMDjggM8GZlA6lhBUJVoKtkWEA8AKIq"
    "KAc="
)


def test_sidecar_from_the_earlier_loader_is_served(tmp_path):
    # Parsed once and rewritten as version 3, which is then served.
    path = table_file(tmp_path, "a 1 2\nb 3 4\nb 5 6\n")
    with open(sidecar.sidecar_path(path), "wb") as f:
        f.write(zlib.decompress(base64.b64decode(EARLIER_SIDECAR)))
    assert sidecar_members(path)["version"] == 1
    want = EmbeddingTable(TABLE_MATRIX, ["a", "b"], duplicates_skipped=1)
    with mock.patch.object(embeddings, "_parse", wraps=embeddings._parse) as parse:
        assert_same_table(load_embedding_table(path), want)
    assert parse.call_count == 1
    assert sidecar_members(path)["fields.json"]["version"] == embeddings.SIDECAR_VERSION == 3
    with parse_only():
        assert_same_table(load_embedding_table(path), want)


def test_hashing_needs_no_file_digest_and_reads_every_chunk(tmp_path, monkeypatch):
    # hashlib.file_digest is new in Python 3.11.
    monkeypatch.delattr(hashlib, "file_digest", raising=False)
    # Several of the hash's 256 KiB reads.
    text = "".join(f"w{i} {i} 1\n" for i in range(60_000))
    path = table_file(tmp_path, text)
    want = load_embedding_table(path)
    with parse_only():
        assert_same_table(load_embedding_table(path), want)
    # An edit in the last chunk is seen.
    path.write_bytes(text[:-2].encode() + b"2\n")
    assert load_embedding_table(path).matrix[-1, 1] == 2


def owned_by(uids):
    """os.fstat, reporting each file whose inode is a key of ``uids`` as owned by its value."""
    real = os.fstat

    def fstat(fd):
        st = real(fd)
        if st.st_ino not in uids:
            return st
        fields = list(st)
        fields[4] = uids[st.st_ino]  # st_uid
        return os.stat_result(fields)

    return mock.patch.object(sidecar.os, "fstat", fstat)


@pytest.mark.parametrize("sidecar_uid, served", [(1002, False), (1001, True), (1000, True), (0, True)],
                         ids=["another-user", "the-tables-owner", "this-user", "root"])
def test_sidecar_is_served_only_from_a_trusted_owner(tmp_path, sidecar_uid, served):
    # The table is owned by 1001 and read by 1000. A sidecar with the table's
    # digest and other vectors, as anyone who can read the table could plant.
    path = table_file(tmp_path, "a 1 2\nb 3 4\n")
    want = load_embedding_table(path)
    rewrite_sidecar(path, matrix=want.matrix * 2)
    uids = {path.stat().st_ino: 1001, os.stat(sidecar.sidecar_path(path)).st_ino: sidecar_uid}
    with owned_by(uids), mock.patch.object(sidecar.os, "geteuid", return_value=1000):
        got = load_embedding_table(path)
    assert np.array_equal(got.matrix, want.matrix * 2 if served else want.matrix)


def fail_mkstemp(*args, **kwargs):
    raise PermissionError(13, "Permission denied")


class FullDisk(io.FileIO):
    """A file on a disk that fills up after the first few bytes written to it."""

    def write(self, data):
        super().write(bytes(memoryview(data).cast("B")[:4]))
        raise OSError(28, "No space left on device")


@pytest.mark.parametrize("target, name, fake", [(sidecar.tempfile, "mkstemp", fail_mkstemp),
                                                (sidecar.os, "fdopen", FullDisk)],
                         ids=["read-only-directory", "full-disk"])
def test_failed_sidecar_write_still_loads_and_leaves_nothing(tmp_path, target, name, fake):
    path = table_file(tmp_path, "a 1 2\nb 3 4\n")
    with mock.patch.object(target, name, fake):
        table = load_embedding_table(path)
    assert table.rows == {"a": 1, "b": 2}
    assert [p.name for p in tmp_path.iterdir()] == ["emb.txt"]


def test_malformed_table_raises_every_time_and_leaves_no_sidecar(tmp_path):
    path = table_file(tmp_path, "a 1 2\n# comment\nb 3\n")
    for _ in range(2):
        with pytest.raises(InconsistentDimensionError, match="^line 3: expected 2 values, got 1$"):
            load_embedding_table(path)
    assert [p.name for p in tmp_path.iterdir()] == ["emb.txt"]


def test_fifo_is_parsed_and_leaves_no_sidecar(tmp_path):
    fifo = tmp_path / "emb.fifo"
    os.mkfifo(fifo)
    text = SIDECAR_TABLES["header-comments-duplicate"]

    def feed():
        with open(fifo, "w", encoding="utf-8") as f:
            f.write(text)

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    table = load_embedding_table(fifo)
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert_same_table(table, load_embedding_table(io.StringIO(text)))
    assert [p.name for p in tmp_path.iterdir()] == ["emb.fifo"]


def test_file_object_and_lines_write_nothing(tmp_path):
    path = table_file(tmp_path, "a 1 2\nb 3 4\n")
    with open(path, encoding="utf-8") as f:
        from_file = load_embedding_table(f)
    from_lines = load_embedding_table(path.read_text().splitlines(keepends=True))
    assert_same_table(from_file, from_lines)
    assert [p.name for p in tmp_path.iterdir()] == ["emb.txt"]

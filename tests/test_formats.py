"""Grammar properties of the text inputs, one per format of the README's
"File formats": a valid file runs to its documented exit code, and the same
file with one line corrupted exits 1 with one error line that names that
line (a byte that is not UTF-8: the file and the byte's offset), with no
traceback and nothing written. eval-loss is the exception: a corrupted entry
is a ``line N: error:`` line on stdout, and later entries are still
evaluated."""

import contextlib
import io
import re
import shutil
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from spwood import cli
from spwood.layout import write_pgm

BAD_BYTE = "\udc80"  # written as the byte 0x80, which starts no UTF-8 character
FILLER = st.sampled_from(["", "   ", "# a comment", "  # an indented comment"])
NON_NUMBERS = st.sampled_from(["abc", "1,5", "0x10", "--1", "1e"])
NON_FINITE = st.sampled_from(["nan", "inf", "-inf", "NaN", "Infinity"])
UNKNOWN_LEVELS = st.sampled_from(["P2", "P8", "p3", "Q3"])


def run(argv):
    """(exit code, stdout, stderr) of one in-process command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(arg) for arg in argv])
    return code, out.getvalue(), err.getvalue()


def write(path, lines) -> Path:
    path.write_bytes("".join(line + "\n" for line in lines).encode("utf-8", "surrogateescape"))
    return path


@st.composite
def laid_out(draw, content):
    """The lines of ``content`` with blank and whole-line comment lines
    drawn around them, and the 1-based number of each content line."""
    lines, numbers = [], []
    for line in content:
        lines += draw(st.lists(FILLER, max_size=2))
        lines.append(draw(st.sampled_from(["", " "])) + line + draw(st.sampled_from(["", "  "])))
        numbers.append(len(lines))
    return lines + draw(st.lists(FILLER, max_size=2)), numbers


@st.composite
def with_bad_byte(draw, line):
    at = draw(st.integers(0, len(line)))
    return line[:at] + BAD_BYTE + line[at:]


def expected_error(path, lines, k, kind, message=""):
    """The one stderr line a corruption of line ``k`` (0-based) gives."""
    if kind != "utf8":
        return f"error: {path}: line {k + 1}: {message}"
    offset = "".join(line + "\n" for line in lines).encode("utf-8", "surrogateescape").index(b"\x80")
    return f"error: {path}: not UTF-8 text (invalid start byte at offset {offset})"


def assert_one_error_line(result, want, *outputs):
    code, out, err = result
    assert (code, out) == (cli.EXIT_ERROR, "")
    assert err.startswith(want) and err.count("\n") == 1 and err.endswith("\n"), err
    assert "Traceback" not in err and not any(p.exists() for p in outputs)


# --- points (watershed --points) ---------------------------------------------------

points = st.lists(
    st.tuples(st.integers(0, 79), st.integers(0, 79), st.sampled_from(["", "ship", "plane", "small-vehicle"])),
    min_size=1, max_size=4,
).map(lambda rows: [f"{x / 10} {y / 10}" + (f" {cat}" if cat else "") for x, y, cat in rows])


@st.composite
def corrupt_point(draw, line):
    tokens = line.split()
    kind = draw(st.sampled_from(["drop", "add", "number", "finite", "utf8"]))
    if kind == "drop":
        return kind, tokens[0], "expected 'x y [category]'"
    if kind == "add":
        return kind, " ".join(tokens + ["1"] * (4 - len(tokens))), "expected 'x y [category]'"
    if kind == "utf8":
        return kind, draw(with_bad_byte(line)), ""
    tokens[draw(st.integers(0, 1))] = draw(NON_NUMBERS if kind == "number" else NON_FINITE)
    line = " ".join(tokens)
    return kind, line, f"{'bad' if kind == 'number' else 'non-finite'} coordinate in {line!r}"


@given(points.flatmap(laid_out), st.data())
@settings(max_examples=25, deadline=None)
def test_points_grammar(layout, data):
    lines, numbers = layout
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        write_pgm(tmp / "scene.pgm", np.add.outer(np.arange(8), np.arange(8)) / 14.0)
        argv = ["watershed", "--image", tmp / "scene.pgm", "--points", write(tmp / "pts.txt", lines)]
        assert run([*argv, "--out-dir", tmp / "ok"])[0] == cli.EXIT_OK
        assert (tmp / "ok" / "targets.csv").exists()
        k = data.draw(st.sampled_from(numbers)) - 1
        kind, lines[k], message = data.draw(corrupt_point(lines[k].strip()))
        write(tmp / "pts.txt", lines)
        want = expected_error(tmp / "pts.txt", lines, k, kind, message)
        assert_one_error_line(run([*argv, "--out-dir", tmp / "masks"]), want, tmp / "masks")


# --- level scores (fit-gmm) --------------------------------------------------------

score_rows = st.tuples(
    st.lists(st.sampled_from(["P3", "P4", "P5", "P6", "P7"]), min_size=20, max_size=40), st.integers(0, 2**32 - 1)
).map(lambda drawn: [f"{level},{score:.6f}" for level, score in
                     zip(drawn[0], np.random.default_rng(drawn[1]).uniform(0.01, 0.99, len(drawn[0])))])


@st.composite
def corrupt_score(draw, line):
    level, score = line.split(",")
    kind = draw(st.sampled_from(["drop", "add", "number", "finite", "level", "utf8"]))
    if kind in ("drop", "add"):
        line = level if kind == "drop" else f"{line},{score}"
        return kind, line, f"expected 'level,score', got {line!r}"
    if kind == "number":
        bad = draw(NON_NUMBERS.filter(lambda t: "," not in t))
        return kind, f"{level},{bad}", f"bad score {bad!r}"
    if kind == "finite":
        bad = draw(NON_FINITE)
        return kind, f"{level},{bad}", f"score {float(bad)} outside (0, 1)"
    if kind == "level":
        bad = draw(UNKNOWN_LEVELS)
        return kind, f"{bad},{score}", f"unknown level {bad!r}"
    return kind, draw(with_bad_byte(line)), ""


@given(score_rows.flatmap(laid_out), st.booleans(), st.data())
@settings(max_examples=25, deadline=None)
def test_scores_grammar(layout, header, data):
    lines, numbers = layout
    if header:  # the optional header comes first
        lines, numbers = ["level,score", *lines], [n + 1 for n in numbers]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        argv = ["fit-gmm", "--input", write(tmp / "scores.csv", lines), "--out", tmp / "fits.csv"]
        assert run(argv)[0] == cli.EXIT_OK and (tmp / "fits.csv").exists()
        (tmp / "fits.csv").unlink()
        k = data.draw(st.sampled_from(numbers)) - 1
        kind, lines[k], message = data.draw(corrupt_score(lines[k].strip()))
        write(tmp / "scores.csv", lines)
        want = expected_error(tmp / "scores.csv", lines, k, kind, message)
        assert_one_error_line(run(argv), want, tmp / "fits.csv")


# --- scenarios (simulate --scenario) -------------------------------------------------

level_plan = st.fixed_dictionaries(
    {"n_pos": st.integers(10, 30), "n_neg": st.integers(20, 60), "mu_p": st.floats(0.55, 0.9),
     "mu_n": st.floats(0.1, 0.3), "sigma": st.floats(0.02, 0.1)},
    optional={"drift": st.floats(0.0, 0.02)},
)
scenarios = st.tuples(
    st.integers(1, 2), st.none() | st.integers(0, 1000),
    st.dictionaries(st.sampled_from(["P3", "P4", "P5", "P6", "P7"]), level_plan, min_size=1, max_size=2),
).map(lambda s: [f"rounds = {s[0]}"] + ([] if s[1] is None else [f"seed = {s[1]}"]) + [
    f"{level}.{name} = {value:.4g}" for level, plan in s[2].items() for name, value in plan.items()
])


@st.composite
def corrupt_setting(draw, line):
    key, _, value = line.partition(" = ")
    level, _, field = key.rpartition(".")
    kinds = ["drop", "add", "number", "finite", "utf8"] + (["level"] if level else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "drop":
        return kind, key, "expected key = value"
    if kind in ("add", "number"):
        bad = f"{value} {value}" if kind == "add" else draw(NON_NUMBERS)
        return kind, f"{key} = {bad}", f"bad number {bad!r}"
    if kind == "finite":
        bad = draw(NON_FINITE)
        if field in ("mu_p", "mu_n", "sigma", "drift"):  # named by level and field, once all lines are read
            return "field", f"{key} = {bad}", f"error: {level}: {field} must be finite"
        return kind, f"{key} = {bad}", f"{key} must be an integer, got {bad!r}"
    if kind == "level":
        bad = draw(UNKNOWN_LEVELS)
        return kind, f"{bad}.{field} = {value}", f"unknown level {bad!r}"
    return kind, draw(with_bad_byte(line)), ""


@given(scenarios.flatmap(st.permutations).flatmap(laid_out), st.data())
@settings(max_examples=20, deadline=None)
def test_scenario_grammar(layout, data):
    lines, numbers = layout
    if data.draw(st.booleans()):  # a trailing comment on a setting line
        k = data.draw(st.sampled_from(numbers)) - 1
        lines[k] += "  # trailing"
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        argv = ["simulate", "--scenario", write(tmp / "scen.txt", lines), "--out", tmp / "report.csv"]
        assert run(argv)[0] == cli.EXIT_OK and (tmp / "report.csv").exists()
        (tmp / "report.csv").unlink()
        k = data.draw(st.sampled_from(numbers)) - 1
        kind, lines[k], message = data.draw(corrupt_setting(lines[k].split("#")[0].strip()))
        write(tmp / "scen.txt", lines)
        want = message if kind == "field" else expected_error(tmp / "scen.txt", lines, k, kind, message)
        assert_one_error_line(run(argv), want, tmp / "report.csv")


# --- loss entries (eval-loss) ----------------------------------------------------------

unit = st.floats(0.05, 0.95).map("{:.3g}".format)
angle = st.floats(-1.5, 1.5).map("{:.3g}".format)
extent = st.floats(0.5, 5.0).map("{:.3g}".format)
box = st.tuples(angle, angle, extent, extent, angle).map(":".join)
entries = st.one_of(
    st.tuples(st.just("sparse-cls p_t="), unit, st.sampled_from([" kind=positive", " kind=negative thr=0.6"])),
    st.tuples(st.just("angle theta_aug="), angle, st.just(" theta="), angle,
              st.just(" aug=flip") | angle.map(" aug=rotate r={}".format)),
    st.tuples(st.just("overlap boxes="), st.lists(box, min_size=1, max_size=3).map(",".join)),
    st.tuples(st.just("watershed w="), extent, st.just(" h="), extent, st.just(" target_w="), extent,
              st.just(" target_h="), extent),
    st.tuples(st.just("supervised parts="), st.lists(extent, min_size=6, max_size=6).map(",".join)),
    st.tuples(st.just("unsupervised t_conf="), unit, st.just(" t_cen="), unit, st.just(" t_box="),
              st.lists(extent, min_size=4, max_size=4).map(":".join), st.just(" s_conf="), unit,
              st.just(" s_cen="), unit, st.just(" s_box="), st.lists(extent, min_size=4, max_size=4).map(":".join)),
    st.tuples(st.just("total sup="), extent, st.just(" unsup="), extent),
).map("".join)
NUMBER = re.compile(r"(?<=[=,:])-?[0-9.]+(?:e-?[0-9]+)?")


@st.composite
def corrupt_entry(draw, line):
    op, first, *rest = line.split()
    kind = draw(st.sampled_from(["drop", "add", "number", "finite", "utf8"]))
    if kind == "drop":  # the first key is required by every op
        return kind, " ".join([op, *rest])
    if kind == "add":
        return kind, f"{line} bogus=1"
    if kind == "utf8":
        return kind, draw(with_bad_byte(line))
    number = draw(st.sampled_from(list(NUMBER.finditer(line))))
    bad = draw(NON_NUMBERS.filter(lambda t: not set(t) & set(",:")) if kind == "number" else NON_FINITE)
    return kind, line[: number.start()] + bad + line[number.end() :]


@given(st.lists(entries, min_size=1, max_size=5).flatmap(laid_out), st.data())
@settings(max_examples=25, deadline=None)
def test_loss_entry_grammar(layout, data):
    lines, numbers = layout
    with tempfile.TemporaryDirectory() as tmp:
        src = write(Path(tmp) / "entries.txt", lines)
        code, out, err = run(["eval-loss", src])
        assert (code, err) == (cli.EXIT_OK, "")
        assert [line.split(":")[0] for line in out.splitlines()] == [f"line {n}" for n in numbers]
        k = data.draw(st.sampled_from(numbers)) - 1
        kind, lines[k] = data.draw(corrupt_entry(lines[k].strip()))
        write(src, lines)
        if kind == "utf8":
            assert_one_error_line(run(["eval-loss", src]), expected_error(src, lines, k, kind))
            return
        code, bad, err = run(["eval-loss", src])
        assert (code, err) == (cli.EXIT_ERROR, "")
        want = [f"line {n}: error: " if n == k + 1 else line for n, line in zip(numbers, out.splitlines())]
        assert [line[: len(w)] for line, w in zip(bad.splitlines(), want)] == want
        assert len(bad.splitlines()) == len(numbers)


# --- DOTA annotations (sparsify --input) ------------------------------------------------

coordinate = st.integers(0, 5000).map(lambda v: f"{v / 10}")
records = st.tuples(
    st.lists(coordinate, min_size=8, max_size=8), st.sampled_from(["plane", "ship", "small-vehicle"]),
    st.sampled_from(["0", "1"]),
).map(lambda r: " ".join([*r[0], r[1], r[2]]))
annotation_files = st.tuples(
    st.lists(st.sampled_from(["imagesource:GoogleEarth", "gsd:0.146343590398"]), max_size=2),
    st.lists(records, min_size=1, max_size=4),
    st.lists(st.sampled_from(["", "  "]), max_size=3),
)


@st.composite
def corrupt_record(draw, line):
    tokens = line.split()
    kind = draw(st.sampled_from(["drop", "add", "number", "finite", "category", "utf8"]))
    if kind in ("drop", "add"):
        tokens = tokens[:-1] if kind == "drop" else [*tokens, "0"]
        return kind, " ".join(tokens), f"expected 8 coordinates, category, difficulty (10 fields), got {len(tokens)}"
    if kind == "utf8":
        return kind, draw(with_bad_byte(line)), ""
    if kind == "category":
        tokens[8] = draw(st.sampled_from(["5", "1e3", "nan", "-2"]))
        return kind, " ".join(tokens), f"category {tokens[8]!r} looks numeric"
    if kind == "number":  # a non-number first token would make the line a header
        tokens[draw(st.integers(1, 7))] = draw(NON_NUMBERS)
        return kind, " ".join(tokens), f"bad coordinate in {' '.join(tokens)!r}"
    tokens[draw(st.integers(0, 7))] = draw(NON_FINITE)
    return kind, " ".join(tokens), "non-finite corner coordinate"


@given(st.lists(annotation_files, min_size=1, max_size=3), st.data())
@settings(max_examples=20, deadline=None)
def test_dota_annotation_grammar(files, data):
    texts = []  # each file's lines, and the 0-based indices of its records
    for headers, recs, blanks in files:
        lines = data.draw(st.permutations([*headers, *recs, *blanks]))
        texts.append((lines, [i for i, line in enumerate(lines) if line in recs]))
    with tempfile.TemporaryDirectory() as tmp:
        anns, out = Path(tmp) / "anns", Path(tmp) / "out"
        anns.mkdir()
        for i, (lines, _) in enumerate(texts):
            write(anns / f"P{i:04d}.txt", lines)
        argv = ["sparsify", "--input", anns, "--out", out, "--method", "single", "--sparse", "0.5"]
        assert run(argv)[0] == cli.EXIT_OK and (out / "stats.csv").exists()
        shutil.rmtree(out)
        i = data.draw(st.integers(0, len(texts) - 1))
        lines, rows = texts[i]
        k = data.draw(st.sampled_from(rows))
        kind, lines[k], message = data.draw(corrupt_record(lines[k]))
        write(anns / f"P{i:04d}.txt", lines)
        want = expected_error(anns / f"P{i:04d}.txt", lines, k, kind, message)
        assert_one_error_line(run(argv), want, out)

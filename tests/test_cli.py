import gc
import math
import runpy
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

from spwood import cli, filtering, gradcheck
from spwood.dataset import WeakKind, load_dota_dir, round_half_up, weaken_corners
from spwood.geometry import corners_of_boxes
from spwood.layout import write_pgm

DATA = Path(__file__).parent / "data"


@pytest.fixture(autouse=True)
def clean_seed_env(monkeypatch):
    monkeypatch.delenv("SPWOOD_SEED", raising=False)


@pytest.fixture
def corpus_dir(tmp_path):
    rng = np.random.default_rng(0)
    src = tmp_path / "anns"
    src.mkdir()
    for i in range(12):
        lines = []
        for cat, count in (("PL", int(rng.integers(1, 6))), ("BD", int(rng.random() < 0.5))):
            for _ in range(count):
                x, y = rng.uniform(0, 500, 2)
                lines.append(
                    f"{x:.1f} {y:.1f} {x + 8:.1f} {y:.1f} {x + 8:.1f} {y + 4:.1f} "
                    f"{x:.1f} {y + 4:.1f} {cat} 0"
                )
        (src / f"img{i:03d}.txt").write_text("\n".join(lines) + "\n")
    return src


def categories_by_image(ann):
    """Image id -> the set of categories of its records."""
    codes = np.split(ann.codes, ann.offsets[1:-1])
    return {image_id: {ann.names[c] for c in image_codes} for image_id, image_codes in zip(ann.ids, codes)}


def read_tree(root):
    return {
        p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()
    }


SCENARIO = """rounds = 2
seed = 5
P3.n_pos = 60
P3.n_neg = 180
P3.mu_p = 0.74
P3.mu_n = 0.40
P3.sigma = 0.04
P4.n_pos = 60
P4.n_neg = 180
P4.mu_p = 0.50
P4.mu_n = 0.16
P4.sigma = 0.04
"""


# --- sparsify -------------------------------------------------------------------


def test_sparsify_golden_double_run(tmp_path, corpus_dir, capsys):
    out = tmp_path / "out"
    args = [
        "sparsify", "--input", str(corpus_dir), "--out", str(out),
        "--method", "single", "--sparse", "0.3", "--partial", "0.5", "--seed", "7",
    ]
    assert cli.main(args) == 0
    first = read_tree(out)
    assert cli.main(args) == 0
    assert read_tree(out) == first
    assert any(p.name == "stats.csv" for p in first)
    assert any(p.name == "labeled_ids.txt" for p in first)


def test_sparsify_overall_exact_retention(tmp_path, corpus_dir):
    out = tmp_path / "out"
    assert cli.main([
        "sparsify", "--input", str(corpus_dir), "--out", str(out),
        "--method", "overall", "--sparse", "0.4", "--seed", "1",
    ]) == 0
    before = load_dota_dir(corpus_dir).category_counts()
    after = load_dota_dir(out / "annotations").category_counts()
    for cat, n in before.items():
        assert after.get(cat, 0) == round_half_up(0.4 * n)


def test_sparsify_single_keeps_singleton_categories(tmp_path, corpus_dir):
    out = tmp_path / "out"
    assert cli.main([
        "sparsify", "--input", str(corpus_dir), "--out", str(out),
        "--method", "single", "--sparse", "0.1", "--seed", "1",
    ]) == 0
    assert categories_by_image(load_dota_dir(corpus_dir)) == categories_by_image(load_dota_dir(out / "annotations"))


def test_sparsify_weaken_point_output(tmp_path, corpus_dir):
    out = tmp_path / "out"
    assert cli.main([
        "sparsify", "--input", str(corpus_dir), "--out", str(out),
        "--method", "overall", "--sparse", "1.0", "--weaken", "point",
    ]) == 0
    line = next(
        iter((out / "annotations").glob("*.txt"))
    ).read_text().splitlines()[0]
    fields = line.split()
    assert len(fields) == 3
    float(fields[0]), float(fields[1])


def test_sparsify_weaken_hbox_output(tmp_path, corpus_dir):
    out = tmp_path / "out"
    assert cli.main([
        "sparsify", "--input", str(corpus_dir), "--out", str(out),
        "--method", "overall", "--sparse", "1.0", "--weaken", "hbox",
    ]) == 0
    before = load_dota_dir(corpus_dir)
    boxes = weaken_corners(before.corners, WeakKind.HBOX).tolist()
    for image_id, lo, hi in zip(before.ids, before.offsets, before.offsets[1:]):
        lines = (out / "annotations" / f"{image_id}.txt").read_text().splitlines()
        want = [(boxes[r], before.names[before.codes[r]]) for r in range(lo, hi)]
        got = [([float(t) for t in line.split()[:4]], line.split()[4]) for line in lines]
        assert got == want


def test_sparsify_weaken_rbox_output(tmp_path, corpus_dir):
    out = tmp_path / "out"
    assert cli.main([
        "sparsify", "--input", str(corpus_dir), "--out", str(out),
        "--method", "overall", "--sparse", "1.0", "--weaken", "rbox",
    ]) == 0
    before = load_dota_dir(corpus_dir)
    after = load_dota_dir(out / "annotations")
    assert after.ids == before.ids and after.offsets.tolist() == before.offsets.tolist()
    assert [after.names[c] for c in after.codes] == [before.names[c] for c in before.codes]
    assert after.difficulty.tolist() == before.difficulty.tolist()
    assert after.corners.tolist() == corners_of_boxes(weaken_corners(before.corners, WeakKind.RBOX)).tolist()
    # the recovered box has the input rectangle's corners, up to rounding
    assert np.allclose(np.sort(after.corners, axis=1), np.sort(before.corners, axis=1), atol=1e-9)


DEGENERATE = {"img000": "10 10 20 20 30 30 40 40 SH 0", "img001": "7 0 7 5 7 9 7 3 BR 0"}


@pytest.mark.parametrize("weaken, dropped", [("rbox", ["img000", "img001"]), ("hbox", ["img001"]), ("point", [])])
def test_sparsify_weaken_drops_degenerate_records(tmp_path, corpus_dir, capsys, weaken, dropped):
    """A zero-area quad (SH in img000) and a zero-width one (BR in img001)
    lose their weak label: every other record is written, each dropped one
    is named on stderr with a count per category, and the exit code is 3."""
    def run(tag, skip):
        src = tmp_path / f"{tag}_anns"
        src.mkdir()
        for path in corpus_dir.iterdir():
            extra = DEGENERATE.get(path.stem) if path.stem not in skip else None
            (src / path.name).write_text(path.read_text() + (extra + "\n" if extra else ""))
        capsys.readouterr()
        code = cli.main(["sparsify", "--input", str(src), "--out", str(tmp_path / tag), "--method", "overall",
                         "--sparse", "1.0", "--weaken", weaken])
        return code, read_tree(tmp_path / tag / "annotations"), capsys.readouterr().err.splitlines()

    clean = run("clean", dropped)  # without the records that lose their label
    assert clean[0] == cli.EXIT_OK and clean[2] == []
    code, written, err = run("out", [])
    assert code == (cli.EXIT_DEGENERATE if dropped else cli.EXIT_OK)
    assert written == clean[1]
    named = [f"{image_id}: dropped {DEGENERATE[image_id]!r}: no valid {weaken} label" for image_id in dropped]
    assert err[: len(dropped)] == named
    categories = [DEGENERATE[image_id].split()[8] for image_id in dropped]
    counts = [f"{cat}: dropped 1 record(s) with no valid {weaken} label" for cat in sorted(categories)]
    assert err[len(dropped):] == counts  # BR before SH in the DOTA order


def test_seed_env_var_and_flag_precedence(tmp_path, corpus_dir, monkeypatch):
    def run(tag, extra):
        out = tmp_path / tag
        assert cli.main([
            "sparsify", "--input", str(corpus_dir), "--out", str(out),
            "--method", "single", "--sparse", "0.3",
        ] + extra) == 0
        return (out / "annotations").glob("*.txt")

    def tree(files):
        return {f.name: f.read_text() for f in files}

    monkeypatch.setenv("SPWOOD_SEED", "21")
    env_only = tree(run("env", []))
    monkeypatch.delenv("SPWOOD_SEED")
    flag_only = tree(run("flag", ["--seed", "21"]))
    assert env_only == flag_only
    monkeypatch.setenv("SPWOOD_SEED", "99")
    flag_wins = tree(run("both", ["--seed", "21"]))
    assert flag_wins == flag_only


@pytest.mark.parametrize("value", ["abc", "1.5", "", "3.0"])
def test_seed_env_var_must_be_an_integer(tmp_path, corpus_dir, monkeypatch, capsys, value):
    monkeypatch.setenv("SPWOOD_SEED", value)
    out = tmp_path / "out"
    code = cli.main(["sparsify", "--input", str(corpus_dir), "--out", str(out), "--method", "single", "--sparse", "0.3"])
    assert code == cli.EXIT_ERROR
    assert capsys.readouterr().err == f"error: SPWOOD_SEED must be an integer, got {value!r}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["sparsify", "eval-loss", "simulate"])
@pytest.mark.parametrize("source", ["flag", "env"])
def test_negative_seed_is_an_input_error(tmp_path, corpus_dir, monkeypatch, capsys, command, source):
    """numpy's generator takes no negative seed: the command names the value on
    one error line, before it writes anything."""
    out = tmp_path / "out"
    scenario = tmp_path / "scenario.txt"
    scenario.write_text(SCENARIO)
    argv = {
        "sparsify": ["sparsify", "--input", str(corpus_dir), "--out", str(out), "--method", "single",
                     "--sparse", "0.3"],
        "eval-loss": ["eval-loss", "--check-grad", "--random", "2"],
        "simulate": ["simulate", "--scenario", str(scenario), "--out", str(out)],
    }[command]
    if source == "flag":
        argv, want = argv + ["--seed", "-1"], "--seed must be nonnegative, got -1"
    else:
        monkeypatch.setenv("SPWOOD_SEED", "-1")
        want = "SPWOOD_SEED must be nonnegative, got '-1'"
    assert cli.main(argv) == cli.EXIT_ERROR
    assert capsys.readouterr() == ("", f"error: {want}\n")
    assert not out.exists()


@pytest.mark.parametrize("partial, sparse", [
    (partial, sparse) for partial in (None, "0.5", "1.5", "0", "nan") for sparse in ("0.3", "0", "1.5")
    if partial not in (None, "0.5") or sparse != "0.3"
])
def test_sparsify_out_of_range_ratio_errors(tmp_path, corpus_dir, capsys, partial, sparse):
    """A ratio outside (0, 1] is an input error; a bad --partial is named
    first, and a bad --sparse once the labeled ids are written."""
    out = tmp_path / "out"
    code = cli.main([
        "sparsify", "--input", str(corpus_dir), "--out", str(out), "--method", "single",
        "--sparse", sparse, *(["--partial", partial] if partial else []),
    ])
    if partial in (None, "0.5"):
        want = f"sparse_ratio must be in (0, 1], got {float(sparse)}"
        files = ["labeled_ids.txt", "unlabeled_ids.txt"] if partial else []
    else:
        want, files = f"partial_ratio must be in (0, 1], got {float(partial)}", []
    assert code == cli.EXIT_ERROR
    assert capsys.readouterr() == ("", f"error: {want}\n")
    assert sorted(p.name for p in out.iterdir()) == files


def bad_file_corpus(corpus_dir, tmp_path, capsys):
    """corpus_dir with a bad difficulty on line 2 of a file that --partial
    0.5 leaves unlabeled under seed 0; returns the error line."""
    good = tmp_path / "good"
    assert cli.main(["sparsify", "--input", str(corpus_dir), "--out", str(good), "--method", "single",
                     "--sparse", "0.3", "--partial", "0.5"]) == 0
    assert "img010" in (good / "unlabeled_ids.txt").read_text().split()
    capsys.readouterr()
    bad = corpus_dir / "img010.txt"
    bad.write_text(bad.read_text().splitlines()[0] + "\n0 0 2 0 2 1 0 1 PL 1.5\n")
    return f"error: {bad}: line 2: bad difficulty '1.5'\n"


@pytest.mark.parametrize("partial, seed, env", [
    ("0", None, None), ("nan", None, None), ("1.5", None, None), (None, "-1", None), (None, None, "x"),
    ("0.5", None, None), ("0.5", "-1", None), ("0", "-1", None), ("1.5", None, "x"),
])
def test_a_bad_file_is_named_before_a_bad_seed_or_ratio(tmp_path, corpus_dir, monkeypatch, capsys, partial, seed, env):
    """Every file is parsed and checked, also under --partial, before the
    seed and the ratio; nothing is written."""
    want = bad_file_corpus(corpus_dir, tmp_path, capsys)
    if env is not None:
        monkeypatch.setenv("SPWOOD_SEED", env)
    out = tmp_path / "out"
    code = cli.main([
        "sparsify", "--input", str(corpus_dir), "--out", str(out), "--method", "single", "--sparse", "0.3",
        *(["--partial", partial] if partial else []), *(["--seed", seed] if seed else []),
    ])
    assert code == cli.EXIT_ERROR
    assert capsys.readouterr() == ("", want)
    assert not out.exists()


@pytest.mark.parametrize("partial", ["0", "nan", "1.5", "0.5"])
@pytest.mark.parametrize("source", ["flag", "env"])
def test_a_bad_seed_is_named_before_a_bad_ratio(tmp_path, corpus_dir, monkeypatch, capsys, partial, source):
    """The seed is checked before the output directory is made, and so
    before --partial."""
    out = tmp_path / "out"
    argv = ["sparsify", "--input", str(corpus_dir), "--out", str(out), "--method", "single", "--sparse", "0",
            "--partial", partial]
    if source == "flag":
        argv, want = argv + ["--seed", "-1"], "--seed must be nonnegative, got -1"
    else:
        monkeypatch.setenv("SPWOOD_SEED", "x")
        want = "SPWOOD_SEED must be an integer, got 'x'"
    assert cli.main(argv) == cli.EXIT_ERROR
    assert capsys.readouterr() == ("", f"error: {want}\n")
    assert not out.exists()


# --- fit-gmm --------------------------------------------------------------------


def write_scores_csv(path, per_level):
    lines = ["level,score"]
    for level, scores in per_level.items():
        lines.extend(f"{level},{s:.6f}" for s in scores)
    path.write_text("\n".join(lines) + "\n")


def test_fit_gmm_planted_levels(tmp_path):
    # 4-sigma separation keeps scores dense around each boundary
    rng = np.random.default_rng(2)
    per_level = {}
    boundaries = {}
    for i, level in enumerate(("P3", "P4")):
        mu_n, mu_p = 0.20 + 0.15 * i, 0.60 + 0.15 * i
        scores = np.concatenate([
            np.clip(rng.normal(mu_n, 0.1, 400), 0.01, 0.99),
            np.clip(rng.normal(mu_p, 0.1, 400), 0.01, 0.99),
        ])
        per_level[level] = scores
        boundaries[level] = (mu_n + mu_p) / 2
    src = tmp_path / "scores.csv"
    write_scores_csv(src, per_level)
    out = tmp_path / "fits.csv"
    assert cli.main(["fit-gmm", "--input", str(src), "--out", str(out)]) == 0
    rows = [
        line.split(",") for line in out.read_text().splitlines()
        if line and not line.startswith(("#", "level"))
    ]
    assert [r[0] for r in rows] == ["P3", "P4"]
    for r in rows:
        assert abs(float(r[7]) - boundaries[r[0]]) <= 0.05


def test_fit_gmm_constant_scores_degenerate_exit(tmp_path):
    src = tmp_path / "scores.csv"
    src.write_text("level,score\n" + "\n".join(["P3,0.5"] * 40) + "\n")
    out = tmp_path / "fits.csv"
    assert cli.main(["fit-gmm", "--input", str(src), "--out", str(out)]) == cli.EXIT_DEGENERATE


def test_fit_gmm_cpf_single_level_matches_mpf(tmp_path):
    rng = np.random.default_rng(3)
    scores = np.concatenate([
        np.clip(rng.normal(0.2, 0.05, 300), 0.01, 0.99),
        np.clip(rng.normal(0.8, 0.05, 300), 0.01, 0.99),
    ])
    src = tmp_path / "scores.csv"
    write_scores_csv(src, {"P5": scores})

    def tau_of(mode, path):
        assert cli.main(["fit-gmm", "--input", str(src), "--out", str(path), "--mode", mode]) == 0
        row = [l for l in path.read_text().splitlines() if not l.startswith(("#", "level"))][0]
        return float(row.split(",")[7])

    assert tau_of("mpf", tmp_path / "a.csv") == tau_of("cpf", tmp_path / "b.csv")


def test_fit_gmm_sparse_level_inherits_pooled(tmp_path):
    rng = np.random.default_rng(4)
    rich = np.concatenate([
        np.clip(rng.normal(0.3, 0.1, 400), 0.01, 0.99),
        np.clip(rng.normal(0.7, 0.1, 400), 0.01, 0.99),
    ])
    src = tmp_path / "scores.csv"
    write_scores_csv(src, {"P3": rich, "P7": np.array([0.4, 0.5, 0.6])})
    out = tmp_path / "fits.csv"
    assert cli.main(["fit-gmm", "--input", str(src), "--out", str(out)]) == 0
    rows = {
        line.split(",")[0]: line.split(",")
        for line in out.read_text().splitlines()
        if line and not line.startswith(("#", "level"))
    }
    pooled_out = tmp_path / "pooled.csv"
    assert cli.main(["fit-gmm", "--input", str(src), "--out", str(pooled_out), "--mode", "cpf"]) == 0
    pooled_row = [
        l for l in pooled_out.read_text().splitlines() if l.startswith("pooled")
    ][0]
    assert rows["P7"][7] == pooled_row.split(",")[7]  # sparse level inherits pooled tau


def reference_rows(per_level, mode="mpf"):
    """fit-gmm rows as the command built them before it read
    filtering.level_decisions, with its own copy of the inheritance rule:
    under mpf one row per level, under cpf one 'pooled' row."""

    def row(level, fit, tau):
        values = (fit.w_p, fit.mu_p, fit.var_p, fit.w_n, fit.mu_n, fit.var_n, tau)
        return ",".join([level] + [f"{v:.10g}" for v in values] + [str(int(fit.converged))])

    pooled = np.concatenate(list(per_level.values()))
    pooled_fit = filtering.fit_gmm(pooled)
    pooled_tau, _ = filtering.threshold_from_fit(pooled_fit, pooled)
    if mode == "cpf":
        return [row("pooled", pooled_fit, pooled_tau)]
    rows = []
    for level, scores in per_level.items():
        if filtering.is_degenerate_level(scores):
            rows.append(row(level, pooled_fit, pooled_tau))
        else:
            fit = filtering.fit_gmm(scores)
            tau, _ = filtering.threshold_from_fit(fit, scores)
            rows.append(row(level, fit, tau))
    return rows


def inheritance_levels():
    rng = np.random.default_rng(5)

    def two_clusters(mu_n, mu_p):
        scores = np.concatenate([rng.normal(mu_n, 0.06, 300), rng.normal(mu_p, 0.06, 100)])
        return np.clip(scores, 0.01, 0.99)

    return {
        "P3": two_clusters(0.2, 0.6),
        "P5": two_clusters(0.3, 0.7),
        "P7": np.array([0.35, 0.45, 0.55, 0.65]),  # under 20 scores: inherits the pooled fit
    }


def fit_gmm_rows(tmp_path, per_level, mode):
    src = tmp_path / "scores.csv"
    write_scores_csv(src, per_level)
    out = tmp_path / f"fits.{mode}.csv"
    assert cli.main(["fit-gmm", "--input", str(src), "--out", str(out), "--mode", mode]) == 0
    rows = [l for l in out.read_text().splitlines() if not l.startswith(("#", "level"))]
    as_read = {k: np.array([float(f"{s:.6f}") for s in v]) for k, v in per_level.items()}
    return rows, reference_rows(as_read, mode)


def test_fit_gmm_mpf_rows_match_pre_merge_inheritance(tmp_path):
    rows, reference = fit_gmm_rows(tmp_path, inheritance_levels(), "mpf")
    assert rows == reference


def test_fit_gmm_cpf_row_matches_reference(tmp_path):
    rows, reference = fit_gmm_rows(tmp_path, inheritance_levels(), "cpf")
    assert rows == reference and len(rows) == 1


def test_fit_gmm_malformed_csv_reports_line(tmp_path, capsys):
    src = tmp_path / "scores.csv"
    src.write_text("level,score\nP3,0.4\nP3,spam\n")
    assert cli.main(["fit-gmm", "--input", str(src), "--out", str(tmp_path / "o.csv")]) == cli.EXIT_ERROR
    assert "line 3" in capsys.readouterr().err


def test_fit_gmm_header_after_comment_and_blank_lines(tmp_path, capsys):
    """The header is the first non-blank, non-comment line, as in the
    CSVs spwood writes, which start with a '#' line."""
    per_level = inheritance_levels()
    plain, commented = tmp_path / "plain.csv", tmp_path / "commented.csv"
    write_scores_csv(plain, per_level)
    commented.write_text("# spwood scores\n\n" + plain.read_text())
    outs = []
    for src in (plain, commented):
        out = tmp_path / f"{src.stem}.fits.csv"
        assert cli.main(["fit-gmm", "--input", str(src), "--out", str(out)]) == cli.EXIT_OK
        outs.append([l for l in out.read_text().splitlines() if not l.startswith("#")])
    assert outs[0] == outs[1]
    capsys.readouterr()


@pytest.mark.parametrize("text, want", [
    ("level,score\nP3,0.4\nP3,0.5,0.6\n", "line 3: expected 'level,score', got 'P3,0.5,0.6'"),
    ("P3,0.4\nP3\n", "line 2: expected 'level,score', got 'P3'"),
    ("# x\nlevel,score\nP3,0.4\nP9,0.5\n", "line 4: unknown level 'P9'"),
    ("P3,0.4\nlevel,score\n", "line 2: unknown level 'level'"),  # a header only comes first
    ("level,score\nP3,1.5\n", "line 2: score 1.5 outside (0, 1)"),
    ("level,score\nP3,0\n", "line 2: score 0.0 outside (0, 1)"),
])
def test_fit_gmm_bad_rows_name_the_line(tmp_path, capsys, text, want):
    src, out = tmp_path / "scores.csv", tmp_path / "fits.csv"
    src.write_text(text)
    assert cli.main(["fit-gmm", "--input", str(src), "--out", str(out)]) == cli.EXIT_ERROR
    assert capsys.readouterr() == ("", f"error: {src}: {want}\n")
    assert not out.exists()


@pytest.mark.parametrize("text", ["", "# only a comment\n\n", "level,score\n"])
def test_fit_gmm_without_score_rows_is_degenerate(tmp_path, capsys, text):
    src, out = tmp_path / "scores.csv", tmp_path / "fits.csv"
    src.write_text(text)
    assert cli.main(["fit-gmm", "--input", str(src), "--out", str(out)]) == cli.EXIT_DEGENERATE
    assert capsys.readouterr() == ("", f"error: degenerate input: no score rows in {src}\n")
    assert not out.exists()


# --- eval-loss ------------------------------------------------------------------


def test_eval_loss_entries(tmp_path, capsys):
    src = tmp_path / "losses.txt"
    src.write_text(
        "supervised parts=1,1,1,1,1,1\n"
        "sparse-cls p_t=0.5 kind=positive alpha_t=0.25 gamma=2\n"
    )
    assert cli.main(["eval-loss", str(src)]) == 0
    out = capsys.readouterr().out
    assert "value=18.2" in out
    assert "value=0.04332169878" in out


def test_eval_loss_domain_error_line(tmp_path, capsys):
    src = tmp_path / "losses.txt"
    src.write_text("sparse-cls p_t=1.0 kind=positive\nsupervised parts=1,1,1,1,1,1\n")
    assert cli.main(["eval-loss", str(src)]) == cli.EXIT_ERROR
    out = capsys.readouterr().out
    assert "line 1: error:" in out
    assert "value=18.2" in out  # later entries still evaluated


@pytest.mark.parametrize(
    "entry, named",
    [
        ("watershed w=1 h=2 target_w=3 target_h=4 tua=3", ["watershed", "'tua'"]),
        ("sparse-cls p_t=0.3 kind=negative thresh=0.9", ["sparse-cls", "'thresh'"]),
        ("angle theta_aug=0.1 theta=0.2 aug=filp r=0.5", ["angle", "'aug'", "filp"]),
        ("angle theta_aug=0.1 theta=0.2 aug=rotate", ["angle", "'r'"]),
        ("angle theta_aug=0.1 theta=0.2 aug=flip r=0.5", ["angle", "'r'"]),
        ("supervised parts=1,1,1,1,1,1 weights=1,1", ["supervised", "'weights'"]),
        ("supervised parts=1,1,1,1,1,1 weights=1,1,1,1,1,1,1", ["supervised", "'weights'"]),
        ("total sup=1", ["total", "missing", "'unsup'"]),
        ("watershed w=1 h=1 target_w=1 target_h=1 tau=0", ["tau"]),
        ("sparse-cls p_t=0.3 kind=negative gamma=nan", ["gamma"]),
        ("watershed w=1 h=2 target_w=1.5 target_h=2 raw=2", ["watershed", "'raw'", "0 or 1"]),
        ("watershed w=1 h=2 target_w=1.5 target_h=2 raw=-1", ["watershed", "'raw'", "0 or 1"]),
        ("sparse-cls p_t=abc kind=positive", ["sparse-cls", "'p_t'", "'abc'"]),
        ("sparse-cls p_t=0.3 kind=pos", ["sparse-cls", "'kind'", "'pos'"]),
        ("overlap boxes=1:2:3", ["overlap", "'boxes'", "cx:cy:w:h:theta"]),
        ("overlap boxes=0:0:1:2:x", ["overlap", "'boxes'", "'x'"]),
        ("unsupervised t_conf=0.5 t_cen=0.5 t_box=1:2:3 s_conf=0.4 s_cen=0.6 s_box=1:2:3:4",
         ["unsupervised", "'t_box'"]),
        ("angle theta_aug=0.1 theta=0.2 aug=rotate r=nan", ["rotation angle must be finite, got nan"]),
        ("watershed w=1 h=2 target_w=inf target_h=4", ["targets must be finite and positive, got (inf, 4.0)"]),
        ("watershed w=1 h=2 target_w=3 target_h=nan", ["targets must be finite and positive, got (3.0, nan)"]),
    ],
)
def test_eval_loss_invalid_entry_is_a_line_error(tmp_path, capsys, entry, named):
    src = tmp_path / "losses.txt"
    src.write_text(entry + "\nsupervised parts=1,1,1,1,1,1\n")
    assert cli.main(["eval-loss", str(src), "--check-grad"]) == cli.EXIT_ERROR
    first, second = capsys.readouterr().out.splitlines()
    assert first.startswith("line 1: error: ")
    for text in named:
        assert text in first
    assert second.startswith("line 2: supervised value=18.2 ")  # later entries still evaluated


@pytest.mark.parametrize("entry, reason", [
    ("sparse-cls p_t=0.999999 kind=positive", "p_t must lie strictly in (0, 1), got 1.000009"),
    ("watershed w=5e-6 h=2 target_w=3 target_h=4", "box extents must be positive, got w=-5e-06, h=2.0"),
    ("overlap boxes=0:0:1:5e-6:0,1:1:2:1:0", "box extents must be positive, got w=1.0, h=-5e-06"),
    ("unsupervised t_conf=0.5 t_cen=0.5 t_box=0:0:0:0 s_conf=0.999995 s_cen=0.5 s_box=0:0:0:0",
     "conf values must lie strictly in (0, 1)"),
])
def test_eval_loss_check_grad_step_out_of_domain_is_a_line_error(tmp_path, capsys, entry, reason):
    op = entry.split()[0]
    src = tmp_path / "losses.txt"
    src.write_text(f"sparse-cls p_t=0.5 kind=positive\n{entry}\n"
                   "watershed w=1 h=2 target_w=3 target_h=4\nangle theta_aug=0.1 theta=0.2 aug=flip\n")
    assert cli.main(["eval-loss", str(src), "--check-grad"]) == cli.EXIT_ERROR
    out = capsys.readouterr()
    lines = out.out.splitlines()
    assert out.err == "" and len(lines) == 4
    assert lines[0].startswith("line 1: sparse-cls value=")
    assert lines[1] == f"line 2: error: {op}: a finite-difference step left the loss's domain: {reason}"
    assert lines[2].startswith("line 3: watershed value=")  # later entries still evaluated
    assert lines[3].startswith("line 4: angle value=")
    assert cli.main(["eval-loss", str(src)]) == cli.EXIT_OK  # the entry itself is valid


LOSS_ENTRIES = Path(__file__).parent / "data" / "loss_entries.txt"


def test_eval_loss_committed_entry_file(capsys):
    """The entry file CI also runs through the installed console script:
    the README's four examples, then one line per op."""
    lines = [line for line in LOSS_ENTRIES.read_text().splitlines() if line and not line.startswith("#")]
    readme = (Path(__file__).parents[1] / "README.md").read_text().splitlines()
    assert all(line in readme for line in lines[:4])
    assert cli.main(["eval-loss", str(LOSS_ENTRIES), "--check-grad"]) == cli.EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[2] for line in out] == [line.split()[0] for line in lines]
    assert set(line.split()[0] for line in lines[4:]) == set(gradcheck.OPS)
    assert all(float(line.rsplit("fd_max_rel_err=", 1)[1]) < gradcheck.DEFAULT_REL_TOL for line in out)


def test_eval_loss_random_gradient_sweep(capsys):
    assert cli.main(["eval-loss", "--check-grad", "--random", "5", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "overall max_rel_err=" in out


@pytest.mark.parametrize("points", [0, -3])
def test_eval_loss_random_sweep_needs_a_point(capsys, points):
    assert cli.main(["eval-loss", "--check-grad", "--random", str(points)]) == cli.EXIT_ERROR
    assert capsys.readouterr() == ("", f"error: n_points must be at least 1, got {points}\n")


@pytest.mark.parametrize("flags, named", [
    (["--random", "0", "--seed", "3"], "--random"),
    (["--seed", "3"], "--seed"),
    (["--check-grad", "--random", "5"], "--random"),
])
def test_eval_loss_sweep_options_with_an_entry_file_are_an_error(capsys, flags, named):
    """--random and --seed have no effect on an entry file, so giving them
    with one is an input error that names the first, and nothing is printed."""
    assert cli.main(["eval-loss", str(LOSS_ENTRIES), *flags]) == cli.EXIT_ERROR
    assert capsys.readouterr() == ("", f"error: {named} applies only to the random sweep, not to an entry file\n")


def test_eval_loss_random_sweep_defaults_to_100_points(capsys):
    assert cli.main(["eval-loss", "--check-grad"]) == cli.EXIT_OK
    assert "overlap: points=100 " in capsys.readouterr().out


def test_eval_loss_needs_an_input_or_check_grad(capsys):
    assert cli.main(["eval-loss"]) == cli.EXIT_ERROR
    assert capsys.readouterr() == ("", "error: provide an input file or --check-grad\n")


# --- simulate -------------------------------------------------------------------


def test_simulate_reproducible_bytes(tmp_path):
    scen = tmp_path / "scen.txt"
    scen.write_text(SCENARIO)
    out = tmp_path / "report.csv"
    args = ["simulate", "--scenario", str(scen), "--out", str(out), "--mode", "mpf"]
    assert cli.main(args) == 0
    first = out.read_bytes()
    assert cli.main(args) == 0
    assert out.read_bytes() == first
    header = first.decode().splitlines()[1]
    assert header == "round,level,tau,precision,recall,f1,n_selected"


def test_simulate_zero_rounds_rejected(tmp_path, capsys):
    scen = tmp_path / "scen.txt"
    scen.write_text(SCENARIO.replace("rounds = 2", "rounds = 0"))
    assert cli.main([
        "simulate", "--scenario", str(scen), "--out", str(tmp_path / "r.csv")
    ]) == cli.EXIT_ERROR


@pytest.mark.parametrize("line, value", [("seed = nan", "'nan'"), ("seed = 1.5", "'1.5'"), ("rounds = 2.7", "'2.7'"),
                                         ("P3.n_pos = 5.9", "'5.9'")])
def test_simulate_rejects_non_integer_scenario_counts(tmp_path, capsys, line, value):
    key = line.split(" =")[0]
    scenario = tmp_path / "scenario.txt"
    scenario.write_text(SCENARIO + line + "\n")
    out = tmp_path / "report.csv"
    assert cli.main(["simulate", "--scenario", str(scenario), "--out", str(out)]) == cli.EXIT_ERROR
    assert capsys.readouterr().err == f"error: {scenario}: line 13: {key} must be an integer, got {value}\n"
    assert not out.exists()


@pytest.mark.parametrize("line, want", [
    ("P3 sigma", "{scenario}: line 13: expected key = value"),
    ("P3.sigma = inf", "P3: sigma must be finite and positive, got inf"),
    ("P3.sigma = nan", "P3: sigma must be finite and positive, got nan"),
    ("P4.drift = nan", "P4: drift must be finite, got nan"),
    ("P4.mu_p = nan", "P4: mu_p must be finite, got nan"),
])
def test_simulate_scenario_errors_name_the_file_line_or_field(tmp_path, capsys, line, want):
    scenario = tmp_path / "scenario.txt"
    scenario.write_text(SCENARIO + line + "\n")
    out = tmp_path / "report.csv"
    assert cli.main(["simulate", "--scenario", str(scenario), "--out", str(out)]) == cli.EXIT_ERROR
    assert capsys.readouterr() == ("", f"error: {want.format(scenario=scenario)}\n")
    assert not out.exists()


def test_simulate_negative_scenario_seed_is_an_input_error(tmp_path, capsys):
    scenario = tmp_path / "scenario.txt"
    scenario.write_text(SCENARIO.replace("seed = 5", "seed = -4"))
    out = tmp_path / "report.csv"
    assert cli.main(["simulate", "--scenario", str(scenario), "--out", str(out)]) == cli.EXIT_ERROR
    assert capsys.readouterr() == ("", "error: scenario seed must be nonnegative, got -4\n")
    assert not out.exists()


def test_simulate_paired_footer(tmp_path, capsys):
    scen = tmp_path / "scen.txt"
    scen.write_text(SCENARIO)
    out = tmp_path / "report.csv"
    assert cli.main([
        "simulate", "--scenario", str(scen), "--out", str(out),
        "--mode", "paired", "--repeats", "6",
    ]) == 0
    mpf_csv = (tmp_path / "report.mpf.csv").read_text()
    cpf_csv = (tmp_path / "report.cpf.csv").read_text()
    assert "# paired summary:" in mpf_csv and "# paired summary:" in cpf_csv
    assert "mpf_mean_f1=" in capsys.readouterr().out


def test_simulate_paired_reports_match_single_mode_runs(tmp_path):
    scen = tmp_path / "scen.txt"
    scen.write_text(SCENARIO)

    def body(path):
        return [l for l in path.read_text().splitlines() if not l.startswith("#")]

    base = ["simulate", "--scenario", str(scen), "--seed", "9"]
    paired = tmp_path / "report.csv"
    assert cli.main(base + ["--out", str(paired), "--mode", "paired", "--repeats", "3"]) == 0
    for mode in ("mpf", "cpf"):
        single = tmp_path / f"{mode}.csv"
        assert cli.main(base + ["--out", str(single), "--mode", mode]) == 0
        assert body(tmp_path / f"report.{mode}.csv") == body(single)


@pytest.mark.parametrize("mode, repeats", [("mpf", "0"), ("cpf", "3")])
def test_simulate_repeats_outside_paired_mode_is_an_error(tmp_path, capsys, mode, repeats):
    """--repeats has no effect outside paired mode, so giving it there is an
    input error that names it, whatever its value, and nothing is written."""
    scen = tmp_path / "scen.txt"
    scen.write_text(SCENARIO)
    argv = ["simulate", "--scenario", str(scen), "--out", str(tmp_path / "report.csv"),
            "--mode", mode, "--repeats", repeats]
    assert cli.main(argv) == cli.EXIT_ERROR
    assert capsys.readouterr() == ("", f"error: --repeats applies only to --mode paired, not to --mode {mode}\n")
    assert list(tmp_path.iterdir()) == [scen]


def test_simulate_paired_repeats_default_to_one(tmp_path, capsys):
    scen = tmp_path / "scen.txt"
    scen.write_text(SCENARIO)
    outputs = []
    for name, repeats in (("default", []), ("one", ["--repeats", "1"])):
        argv = ["simulate", "--scenario", str(scen), "--out", str(tmp_path / f"{name}.csv"), "--mode", "paired"]
        assert cli.main(argv + repeats) == cli.EXIT_OK
        reports = [(tmp_path / f"{name}.{mode}.csv").read_text().split("\n", 1)[1] for mode in ("mpf", "cpf")]
        outputs.append((capsys.readouterr().out, reports))
    assert outputs[0] == outputs[1]
    assert "repeats=1 " in outputs[0][0]


# --- report ---------------------------------------------------------------------


def test_report_compares_directories(tmp_path, corpus_dir, capsys):
    single = tmp_path / "single"
    overall = tmp_path / "overall"
    for method, out in (("single", single), ("overall", overall)):
        assert cli.main([
            "sparsify", "--input", str(corpus_dir), "--out", str(out),
            "--method", method, "--sparse", "0.3", "--seed", "2",
        ]) == 0
    stats = tmp_path / "stats.csv"
    assert cli.main([
        "report", "--single", str(single / "annotations"),
        "--overall", str(overall / "annotations"), "--out", str(stats),
    ]) == 0
    text = stats.read_text()
    assert text.splitlines()[1] == "category,count_single,count_overall,relative_difference_percent"
    single_counts = load_dota_dir(single / "annotations").category_counts()
    for line in text.splitlines()[2:]:
        cat, cs, _, _ = line.split(",")
        assert int(cs) == single_counts.get(cat, 0)


BAD_FILES = {
    "line": (b"0 0 4 0 4 2 0 2 PL 0\n0 0 4 0 4 x 0 2 PL 0\n", "line 2: bad coordinate in '0 0 4 0 4 x 0 2 PL 0'"),
    "nan": (b"0 0 4 0 4 2 0 2 PL 0\n\n0 0 4 0 4 nan 0 2 PL 0\n", "line 3: non-finite corner coordinate"),
    "utf8": (b"hdr:\xff\n0 0 4 0 4 2 0 2 PL 0\n", "not UTF-8 text (invalid start byte at offset 4)"),
}


@pytest.mark.parametrize("fault", sorted(BAD_FILES))
@pytest.mark.parametrize("command", ["sparsify", "report"])
def test_load_errors_name_the_file(tmp_path, corpus_dir, capsys, command, fault):
    """One bad file among twelve: the error names it, nothing is written,
    and the exit code is 1."""
    content, message = BAD_FILES[fault]
    bad = corpus_dir / "img005.txt"
    bad.write_bytes(content)
    good = tmp_path / "good"
    good.mkdir()
    (good / "x.txt").write_text("0 0 4 0 4 2 0 2 PL 0\n")
    out = tmp_path / "out"
    argv = {
        "sparsify": ["sparsify", "--input", str(corpus_dir), "--out", str(out), "--method", "single",
                     "--sparse", "0.5"],
        "report": ["report", "--single", str(good), "--overall", str(corpus_dir), "--out", str(out)],
    }[command]
    assert cli.main(argv) == cli.EXIT_ERROR
    assert capsys.readouterr() == ("", f"error: {bad}: {message}\n")
    assert not out.exists()


README_DOTA = {
    "overall": ["sparsify", "--input", "anns/", "--out", "out_overall/", "--method", "overall", "--sparse", "0.1",
                "--seed", "7"],
    "single": ["sparsify", "--input", "anns/", "--out", "out_single/", "--method", "single", "--sparse", "0.1",
               "--partial", "0.3"],
    "rbox": ["sparsify", "--input", "anns/", "--out", "out_rbox/", "--method", "single", "--sparse", "0.1",
             "--weaken", "rbox"],
    "hbox": ["sparsify", "--input", "anns/", "--out", "out_hbox/", "--method", "single", "--sparse", "0.1",
             "--weaken", "hbox"],
    "point": ["sparsify", "--input", "anns/", "--out", "out_point/", "--method", "overall", "--sparse", "0.1",
              "--weaken", "point"],
    "partial_rbox": ["sparsify", "--input", "anns/", "--out", "out_partial_rbox/", "--method", "single",
                     "--sparse", "0.1", "--partial", "0.5", "--weaken", "rbox"],
    "report": ["report", "--single", "out_single/annotations", "--overall", "out_overall/annotations",
               "--out", "stats.csv"],
}


def test_dota_readme_examples_match_golden_outputs(tmp_path, monkeypatch, capsys):
    """The README's sparsify and report examples on the committed 14-image
    corpus, run in their own directory as CI runs them through the console
    script. The corpus has a header mid-file, the ids a and a-b (whose file
    order is not their id order) and a zero-area quad that --weaken rbox
    drops (exit 3). Each command's stdout, stderr and exit code, and every
    file it writes, must equal the committed golden bytes."""
    readme = " ".join((Path(__file__).parents[1] / "README.md").read_text().replace("\\\n", " ").split())
    for argv in README_DOTA.values():
        assert " ".join(["spwood", *argv]) in readme
    shutil.copytree(DATA / "dota_14", tmp_path / "anns")
    (tmp_path / "log").mkdir()
    monkeypatch.chdir(tmp_path)
    for name, argv in README_DOTA.items():
        code = cli.main(argv)
        out, err = capsys.readouterr()
        for suffix, text in (("stdout", out), ("stderr", err), ("exit", f"{code}\n")):
            (tmp_path / "log" / f"{name}.{suffix}").write_text(text)
    shutil.rmtree(tmp_path / "anns")
    assert read_tree(tmp_path) == read_tree(DATA / "dota_14_golden")


README_GMM_SIMULATE = {
    "fit_mpf": ["fit-gmm", "--input", "scores.csv", "--out", "fits.csv", "--mode", "mpf"],
    "fit_cpf": ["fit-gmm", "--input", "scores.csv", "--out", "fits.csv", "--mode", "cpf"],
    "simulate": ["simulate", "--scenario", "scen.txt", "--out", "report.csv", "--mode", "paired", "--repeats", "50"],
    "simulate_mpf": ["simulate", "--scenario", "scen.txt", "--out", "mpf.csv", "--mode", "mpf"],
    "simulate_cpf": ["simulate", "--scenario", "scen.txt", "--out", "cpf.csv", "--mode", "cpf"],
}


def test_fit_gmm_and_simulate_readme_examples_match_golden_outputs(tmp_path, monkeypatch, capsys):
    """The README's fit-gmm example, under --mode mpf and cpf, and its
    simulate example, paired and under each single mode, on the committed
    planted scores and scenario, run in their own directory as CI runs them
    through the console script. Each fit is renamed fits_<mode>.csv before
    the next command writes fits.csv.
    Each command's stdout, stderr and exit code, and every file it writes,
    must equal the committed golden bytes, which pin the EM's output. P7
    has five scores, too few for a fit of its own, so under mpf it inherits
    the pooled fit."""
    readme = " ".join((Path(__file__).parents[1] / "README.md").read_text().replace("\\\n", " ").split())
    for name in ("fit_mpf", "simulate"):
        assert " ".join(["spwood", *README_GMM_SIMULATE[name]]) in readme
    for name in ("scores.csv", "scen.txt"):
        shutil.copy(DATA / name, tmp_path / name)
    (tmp_path / "log").mkdir()
    monkeypatch.chdir(tmp_path)
    for name, argv in README_GMM_SIMULATE.items():
        code = cli.main(argv)
        out, err = capsys.readouterr()
        for suffix, text in (("stdout", out), ("stderr", err), ("exit", f"{code}\n")):
            (tmp_path / "log" / f"{name}.{suffix}").write_text(text)
        if name.startswith("fit_"):
            (tmp_path / "fits.csv").rename(tmp_path / f"fits_{argv[-1]}.csv")
    for name in ("scores.csv", "scen.txt"):
        (tmp_path / name).unlink()
    assert read_tree(tmp_path) == read_tree(DATA / "gmm_simulate_golden")


# --- watershed ------------------------------------------------------------------


def test_watershed_command(tmp_path):
    img = np.zeros((48, 48))
    img[18:30, 12:36] = 1.0  # 24 x 12 rectangle
    write_pgm(tmp_path / "scene.pgm", img)
    (tmp_path / "pts.txt").write_text("24 24 ship\n")
    out = tmp_path / "masks"
    assert cli.main([
        "watershed", "--image", str(tmp_path / "scene.pgm"),
        "--points", str(tmp_path / "pts.txt"), "--out-dir", str(out),
    ]) == 0
    assert (out / "mask_000.pgm").exists()
    rows = [
        l for l in (out / "targets.csv").read_text().splitlines()
        if l and not l.startswith(("#", "seed_index"))
    ]
    _, _, _, cat, w_t, h_t, valid = rows[0].split(",")
    assert cat == "ship" and valid == "1"
    assert abs(float(w_t) - 24) <= 2 and abs(float(h_t) - 12) <= 2


README_WATERSHED = ["watershed", "--image", "scene.pgm", "--points", "pts.txt", "--out-dir", "masks/",
                    "--theta", "0.5"]


def test_watershed_readme_example_matches_golden_outputs(tmp_path, monkeypatch, capsys):
    """The README's watershed example on the committed 48 x 48 scene, run in
    its own directory as CI runs it through the console script. Every mask,
    targets.csv (whose header names the version and command line) and stdout
    must equal the committed golden bytes."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    assert "spwood " + " ".join(README_WATERSHED) in readme
    (tmp_path / "scene.pgm").write_bytes((DATA / "scene_48.pgm").read_bytes())
    (tmp_path / "pts.txt").write_bytes((DATA / "scene_48_points.txt").read_bytes())
    monkeypatch.chdir(tmp_path)
    assert cli.main(README_WATERSHED) == cli.EXIT_OK
    assert capsys.readouterr().out == (DATA / "watershed_48_stdout.txt").read_text()
    assert read_tree(tmp_path / "masks") == read_tree(DATA / "watershed_48")


@pytest.mark.parametrize(
    "content",
    [b"P5\n4 4\n255\n" + bytes(10), b"P5\n4 4\n255\n", b"P5\n4 4\n255"],
    ids=["short", "empty", "no-separator"],
)
def test_watershed_pgm_payload_too_short(tmp_path, capsys, content):
    image = tmp_path / "short.pgm"
    image.write_bytes(content)
    (tmp_path / "pts.txt").write_text("1 1\n")
    code = cli.main(["watershed", "--image", str(image), "--points", str(tmp_path / "pts.txt"),
                     "--out-dir", str(tmp_path / "masks")])
    assert code == cli.EXIT_ERROR
    assert capsys.readouterr().err == f"error: PGM payload too short in {image}\n"
    assert not (tmp_path / "masks").exists()


def test_watershed_pgm_bad_header_number(tmp_path, capsys):
    image = tmp_path / "bad.pgm"
    image.write_bytes(b"P5\nfour 4\n255\n" + bytes(16))
    (tmp_path / "pts.txt").write_text("1 1\n")
    code = cli.main(["watershed", "--image", str(image), "--points", str(tmp_path / "pts.txt"),
                     "--out-dir", str(tmp_path / "masks")])
    assert code == cli.EXIT_ERROR
    assert capsys.readouterr().err == f"error: bad PGM size or maxval in {image}\n"


def test_watershed_pgm_pixel_above_maxval(tmp_path, capsys):
    image = tmp_path / "bright.pgm"
    image.write_bytes(b"P5\n4 4\n100\n" + bytes(15) + bytes([101]))
    (tmp_path / "pts.txt").write_text("1 1\n")
    code = cli.main(["watershed", "--image", str(image), "--points", str(tmp_path / "pts.txt"),
                     "--out-dir", str(tmp_path / "masks")])
    assert code == cli.EXIT_ERROR
    assert capsys.readouterr().err == f"error: PGM pixel value 101 above maxval 100 in {image}\n"
    assert not (tmp_path / "masks").exists()


def test_watershed_negative_scientific_theta_as_separate_token(tmp_path):
    img = np.zeros((32, 32))
    img[10:22, 6:26] = 1.0
    write_pgm(tmp_path / "scene.pgm", img)
    (tmp_path / "pts.txt").write_text("16 16 ship\n")
    rows = {}
    for name, theta in (("split", ["--theta", "-5.8e-05"]), ("joined", ["--theta=-5.8e-05"])):
        out = tmp_path / name
        assert cli.main([
            "watershed", "--image", str(tmp_path / "scene.pgm"),
            "--points", str(tmp_path / "pts.txt"), "--out-dir", str(out), *theta,
        ]) == 0
        rows[name] = [
            l for l in (out / "targets.csv").read_text().splitlines() if not l.startswith("#")
        ]
    assert rows["split"] == rows["joined"]


def watershed_inputs(tmp_path, points):
    img = np.zeros((16, 16))
    img[4:12, 2:14] = 1.0
    write_pgm(tmp_path / "scene.pgm", img)
    (tmp_path / "pts.txt").write_text(points)
    return ["watershed", "--image", str(tmp_path / "scene.pgm"), "--points", str(tmp_path / "pts.txt"),
            "--out-dir", str(tmp_path / "masks")]


@pytest.mark.parametrize("line", ["a b", "8 y ship", "1,5 3"])
def test_watershed_bad_point_coordinate_names_the_line(tmp_path, capsys, line):
    argv = watershed_inputs(tmp_path, f"# x y\n8 8 ship\n{line}\n")
    assert cli.main(argv) == cli.EXIT_ERROR
    assert capsys.readouterr().err == f"error: {tmp_path / 'pts.txt'}: line 3: bad coordinate in {line!r}\n"
    assert not (tmp_path / "masks").exists()


def test_watershed_point_line_needs_two_coordinates(tmp_path, capsys):
    argv = watershed_inputs(tmp_path, "8 8 ship\n\n8\n")
    assert cli.main(argv) == cli.EXIT_ERROR
    assert capsys.readouterr() == ("", f"error: {tmp_path / 'pts.txt'}: line 3: expected 'x y [category]'\n")
    assert not (tmp_path / "masks").exists()


def test_watershed_point_line_takes_at_most_a_category(tmp_path, capsys):
    argv = watershed_inputs(tmp_path, "8 8 ship\n\n10 10 ship extra\n")
    assert cli.main(argv) == cli.EXIT_ERROR
    assert capsys.readouterr() == ("", f"error: {tmp_path / 'pts.txt'}: line 3: expected 'x y [category]'\n")
    assert not (tmp_path / "masks").exists()


@pytest.mark.parametrize("theta", ["inf", "-inf", "nan"])
def test_watershed_rejects_non_finite_theta(tmp_path, capsys, theta):
    argv = watershed_inputs(tmp_path, "8 8 ship\n")
    assert cli.main([*argv, f"--theta={theta}"]) == cli.EXIT_ERROR
    assert capsys.readouterr().err == f"error: theta must be finite, got {float(theta)}\n"
    assert not (tmp_path / "masks").exists()


def test_watershed_reports_a_bad_points_file_before_a_bad_theta(tmp_path, capsys):
    argv = watershed_inputs(tmp_path, "8 nan\n")
    assert cli.main([*argv, "--theta=nan"]) == cli.EXIT_ERROR
    assert capsys.readouterr().err == f"error: {tmp_path / 'pts.txt'}: line 1: non-finite coordinate in '8 nan'\n"
    assert not (tmp_path / "masks").exists()


# --- text inputs ------------------------------------------------------------------


@pytest.mark.parametrize("command", ["watershed", "fit-gmm", "simulate", "eval-loss"])
def test_input_that_is_not_utf8_is_one_error_line(tmp_path, capsys, command):
    """A byte that is not UTF-8, even in a comment, is one error line that
    names the file and the byte's offset: exit 1, nothing printed or
    written before it."""
    src, out = tmp_path / "input.txt", tmp_path / "out"
    image = watershed_inputs(tmp_path, "")[2]
    valid, argv = {
        "watershed": (b"8 8 ship\n", ["watershed", "--image", image, "--points", str(src), "--out-dir", str(out)]),
        "fit-gmm": ((DATA / "scores.csv").read_bytes(), ["fit-gmm", "--input", str(src), "--out", str(out)]),
        "simulate": ((DATA / "scen.txt").read_bytes(), ["simulate", "--scenario", str(src), "--out", str(out)]),
        "eval-loss": (LOSS_ENTRIES.read_bytes(), ["eval-loss", str(src)]),
    }[command]
    src.write_bytes(valid + b"# caf\xe9\n")
    assert cli.main(argv) == cli.EXIT_ERROR
    reason = f"invalid continuation byte at offset {len(valid) + 5}"
    assert capsys.readouterr() == ("", f"error: {src}: not UTF-8 text ({reason})\n")
    assert not out.exists()


# --- help surfaces ----------------------------------------------------------------


@pytest.mark.parametrize(
    "command,flags",
    [
        ("sparsify", ["--method", "--partial", "--sparse", "--seed", "--weaken", "--out"]),
        ("fit-gmm", ["--mode", "--input", "--out"]),
        ("eval-loss", ["--check-grad", "--random", "--seed"]),
        ("simulate", ["--scenario", "--mode", "--repeats", "--seed", "--out"]),
        ("report", ["--single", "--overall", "--out"]),
        ("watershed", ["--image", "--points", "--out-dir", "--theta"]),
    ],
)
def test_help_lists_flags(command, flags, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    for flag in flags:
        assert flag in text


def test_sparsify_help_lists_no_stats_path(capsys):
    """stats.csv always goes to OUT/stats.csv."""
    with pytest.raises(SystemExit):
        cli.main(["sparsify", "--help"])
    assert "--stats" not in capsys.readouterr().out


def test_main_leaves_no_reference_cycles(capsys):
    """main parses with one parser per process: a parser is a reference cycle
    that only a full collection frees. build_parser still builds a new one."""
    argv = ["eval-loss", "--check-grad", "--random", "2"]
    assert cli.main(argv) == 0  # builds the parser, if no earlier test did
    assert cli.build_parser() is not cli.build_parser()
    gc.collect()
    gc.disable()
    try:
        assert cli.main(argv) == 0 and cli.main(argv) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()


# --- scripts --------------------------------------------------------------------


@pytest.mark.parametrize("images", ["0", "-3"])
def test_sparsify_comparison_script_needs_an_image(monkeypatch, capsys, images):
    script = Path(__file__).parents[1] / "scripts" / "sparsify_comparison.py"
    monkeypatch.setattr(sys, "argv", [str(script), "--images", images])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(script), run_name="__main__")
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.endswith(f"error: --images must be at least 1, got {images}\n")


@pytest.mark.parametrize("args, want", [
    (["--seed", "-1"], "--seed must be nonnegative, got -1"),
    (["--sparse", "0"], "sparse_ratio must be in (0, 1], got 0.0"),
])
def test_sparsify_comparison_script_input_errors(monkeypatch, capsys, args, want):
    """An error line and exit code 1, as the command line gives, not a traceback."""
    script = Path(__file__).parents[1] / "scripts" / "sparsify_comparison.py"
    monkeypatch.setattr(sys, "argv", [str(script), *args])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(script), run_name="__main__")
    assert exc.value.code == 1
    assert capsys.readouterr() == ("", f"error: {want}\n")


@pytest.mark.parametrize("args, want", [
    (["--seed", "-1"], "--seed must be nonnegative, got -1"),
    (["--repeats", "0"], "need at least one repeat"),
    (["--rounds", "0"], "scenario needs at least one round"),
    (["--n-pos", "-1"], "sample counts must be nonnegative"),
])
def test_mpf_vs_cpf_script_input_errors(monkeypatch, capsys, args, want):
    """An error line and exit code 1 before any output, not a traceback."""
    script = Path(__file__).parents[1] / "scripts" / "mpf_vs_cpf_experiment.py"
    monkeypatch.setattr(sys, "argv", [str(script), *args])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(script), run_name="__main__")
    assert exc.value.code == 1
    assert capsys.readouterr() == ("", f"error: {want}\n")

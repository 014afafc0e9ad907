import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings, strategies as st
import scipy.stats

from seldeval._tquantile import T975
from seldeval.errors import (
    DegenerateRanks,
    LengthMismatch,
    TooFewFiles,
    UndefinedPartial,
    UndefinedValue,
)
from seldeval.stats import (
    build_rank_table,
    cumulative_rank,
    jackknife_ci,
    _average_ranks,
    metric_ranks,
    rank_correlation,
    rank_moments,
    spearman,
)


def leave_one_out_means(values):
    """The mean of (name, value) pairs, and the mean without each name."""
    def mean(subset):
        vals = [v for _, v in subset]
        return sum(vals) / len(vals)

    return mean(values), {name: mean(values[:i] + values[i + 1:])
                          for i, (name, _) in enumerate(values)}


class TestJackknife:
    def test_constant_partials_zero_width(self):
        files = [("f%d" % i, 0.5) for i in range(10)]
        est = jackknife_ci(*leave_one_out_means(files))
        assert est.point == 0.5
        assert est.low == pytest.approx(0.5, abs=1e-12)
        assert est.high == pytest.approx(0.5, abs=1e-12)

    def test_three_file_pinned_fixture(self):
        # partial estimates {0.4, 0.5, 0.6} with theta_all = 0.5 give
        # pseudo-values {0.7, 0.5, 0.3}: mean 0.5, sd 0.2. Bounds were
        # computed independently at 40-digit precision with the Student-t
        # quantile t_{0.975,2} = 4.302652729749464.
        est = jackknife_ci(0.5, {"a": 0.4, "b": 0.5, "c": 0.6}, confidence=0.95)
        assert est.point == 0.5
        assert est.low == pytest.approx(0.0031724576499337857, abs=1e-9)
        assert est.high == pytest.approx(0.9968275423500662, abs=1e-9)

    def test_two_files_wide_but_valid(self):
        files = [("a", 0.2), ("b", 0.8)]
        est = jackknife_ci(*leave_one_out_means(files))
        assert est.n == 2
        assert est.low < est.point < est.high
        assert est.high - est.low > 1.0  # t with 1 dof is ~12.7

    def test_too_few_files(self):
        # checked first: leaving out the only file leaves an undefined metric
        with pytest.raises(TooFewFiles):
            jackknife_ci(1.0, {"only": None}, 0.95)

    def test_undefined_partial_reported(self):
        with pytest.raises(UndefinedPartial, match="^metric undefined when leaving out 'b'$"):
            jackknife_ci(1.0, {"a": 1.0, "b": None, "c": 1.0})

    @pytest.mark.parametrize("seed", range(20))
    def test_interval_contains_point_for_means(self, seed):
        rng = random.Random(seed)
        files = [(f"f{i}", rng.uniform(0, 1)) for i in range(rng.randint(3, 30))]
        est = jackknife_ci(*leave_one_out_means(files))
        assert est.low <= est.point <= est.high

    def test_width_scales_with_dispersion(self):
        tight = [("f%d" % i, 0.5 + 0.001 * i) for i in range(10)]
        wide = [("f%d" % i, 0.1 * i) for i in range(10)]
        w_tight = jackknife_ci(*leave_one_out_means(tight))
        w_wide = jackknife_ci(*leave_one_out_means(wide))
        assert (w_wide.high - w_wide.low) > (w_tight.high - w_tight.low)


def run_fresh(code: str, *args: str, options: tuple = (), env: dict | None = None) -> str:
    """Stdout of `python options -c code args` in a fresh interpreter on this
    checkout's sources, which must exit 0 with nothing on stderr. `env`
    overrides this process's environment; a variable it maps to None is unset."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    environ = {**os.environ, "PYTHONPATH": path, **(env or {})}
    proc = subprocess.run([sys.executable, *options, "-c", code, *args], capture_output=True,
                          text=True, env={k: v for k, v in environ.items() if v is not None})
    assert (proc.returncode, proc.stderr) == (0, "")
    return proc.stdout


class TestTQuantile:
    """The jackknife's t quantile is ``scipy.special.stdtrit(n - 1, (1 + c) / 2)``.

    When (1 + c) / 2 is exactly 0.975 and n - 1 <= 200 it is read from the
    table `seldeval._tquantile.T975`, which stores those values bit for bit;
    otherwise `jackknife_ci` imports ``stdtrit``. The table spares the default
    jackknife the ~0.33 s import of ``scipy.special``. The n = 2..101 cases
    below run through the table, n = 301 and every other level through scipy.
    """

    CONFIDENCES = (0.5, 0.8, 0.9, 0.95, 0.975, 0.99, 0.995, 0.999)

    @pytest.mark.parametrize("n", [2, 3, 4, 6, 11, 31, 101, 301])
    def test_interval_matches_scipy_stats_t_ppf(self, n):
        rng = random.Random(n)
        files = [(f"f{i}", rng.uniform(0, 1)) for i in range(n)]
        theta_all, partials = leave_one_out_means(files)
        pseudo = [n * theta_all - (n - 1) * partial for partial in partials.values()]
        mean = sum(pseudo) / n
        var = sum((p - mean) ** 2 for p in pseudo) / (n - 1)
        for confidence in self.CONFIDENCES:
            t = float(scipy.stats.t.ppf((1.0 + confidence) / 2.0, n - 1))
            half = t * math.sqrt(var / n)
            est = jackknife_ci(theta_all, partials, confidence)
            assert (est.low, est.high) == (mean - half, mean + half)

    def test_stdtrit_equals_t_ppf(self):
        df = np.arange(1, 2001, dtype=float)[:, None]
        q = (1.0 + np.array(self.CONFIDENCES)) / 2.0
        assert np.array_equal(scipy.special.stdtrit(df, q), scipy.stats.t.ppf(q, df))

    def test_table_equals_stdtrit_bit_for_bit(self):
        # the lookup key: the default confidence maps to exactly 0.975
        assert (1.0 + 0.95) / 2.0 == 0.975
        assert len(T975) >= 99  # the 100 files of the DCASE2019 evaluation set
        for df, t in enumerate(T975, start=1):
            assert t == float(scipy.special.stdtrit(df, 0.975)), df

    # sha256 of the JSON reports on the corpus below before the table existed,
    # when every quantile came from stdtrit
    REPORTS = {"0.95": "e94eb2c27cf0fa1706614017ea9f7ab263bf7de9edc631e019727669da0179a1",
               "0.9": "2df6392f3a1e4c6d4eba9d10b186c1af072b935ac04a8d842b4bbd90e7b3c00a"}

    @pytest.mark.parametrize("confidence", ["0.95", "0.9"])
    def test_jackknife_command_loads_scipy_only_off_the_table(self, tmp_path, confidence):
        files = {"ref/a.csv": "dog,0.0,1.0,10.0,0.0\n",
                 "ref/b.csv": "dog,0.0,1.0,10.0,0.0\ncat,0.5,1.5,-40.0,20.0\n",
                 "ref/vocabulary.txt": "dog\ncat\n",
                 "pred/a.csv": "0,0,12.0,0.0\n10,0,15.0,5.0\n",
                 "pred/b.csv": "0,0,30.0,0.0\n30,1,-20.0,10.0\n60,0,0.0,0.0\n"}
        for name, text in files.items():
            (tmp_path / name).parent.mkdir(exist_ok=True)
            (tmp_path / name).write_text(text, encoding="utf-8")
        script = ("import contextlib, hashlib, io, sys; from seldeval.cli import main\n"
                  "out = io.StringIO()\n"
                  "with contextlib.redirect_stdout(out):\n"
                  "    code = main(sys.argv[1:])\n"
                  "print(code, hashlib.sha256(out.getvalue().encode()).hexdigest(),\n"
                  "      *sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        code, digest, *scipy_modules = run_fresh(
            script, "jackknife", "--ref", str(tmp_path / "ref"), "--pred", str(tmp_path / "pred"),
            "--format", "json", "--confidence", confidence).split()
        assert (code, digest) == ("0", self.REPORTS[confidence])
        if confidence == "0.95":
            assert scipy_modules == []
        else:
            assert "scipy.special" in scipy_modules

    @pytest.mark.parametrize("module", ["seldeval", "seldeval.cli"])
    def test_import_loads_no_scipy(self, module):
        # a fresh interpreter, since this one has imported scipy already
        code = (f"import sys, {module}; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        assert run_fresh(code).strip() == "[]"


def numpy_blas() -> str:
    """The name of the BLAS numpy was built with, or "" where numpy does not say."""
    return getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get(
        "blas", {}).get("name", "")


class TestStartup:
    """Every command starts with `import seldeval.cli`; it loads only the
    modules the scoring pipeline runs, and no BLAS worker threads."""

    NOT_LOADED = ("scipy", "concurrent.futures", "multiprocessing", "seldeval.synth",
                  "seldeval.joint", "seldeval.localization", "seldeval.detection", "dataclasses")
    # what `seldeval` exported when it imported every submodule eagerly, less
    # the names deleted since
    EXPORTED = """
        EventRecord FrameSnapshot SegmentView Vocabulary densify parse_prediction
        parse_reference rasterize segmentize write_reference
        Assignment DistanceMatrix build_distance_matrix hungarian
        DetectionCounts detection_counts SeldEvalError
        EvaluationConfig EvaluationResult FileContribution compute_metrics
        correlate_systems evaluate_directory metric_directions rank_systems score_file
        Direction angular_distance spherical_mean ClassCounts segment_class_counts
        JackknifeEstimate RankTable build_rank_table cumulative_rank jackknife_ci metric_ranks
        spearman PerturbationSpec grid_directions jitter_direction perturb serialize_prediction
    """.split()

    def test_setup_probe_loads_only_the_pipeline(self, tmp_path):
        vocab = tmp_path / "vocabulary.txt"
        vocab.write_text("dog\ncat\n")
        # the benchmark's set-up probe, then the modules it left loaded
        code = ("import sys; from seldeval.cli import main; "
                "from seldeval.annotations import Vocabulary; Vocabulary.from_file(sys.argv[1]); "
                "print(' '.join(sorted(sys.modules)))")
        loaded = run_fresh(code, str(vocab)).split()
        assert [m for m in loaded if m.startswith(tuple(p + "." for p in self.NOT_LOADED))
                or m in self.NOT_LOADED] == []
        assert [m for m in loaded if m.split(".")[0] == "seldeval"] == [
            "seldeval", "seldeval.annotations", "seldeval.assignment", "seldeval.cli",
            "seldeval.errors", "seldeval.evaluation", "seldeval.geometry", "seldeval.stats"]

    @pytest.mark.parametrize("collecting", [True, False])
    def test_import_freezes_and_restores_the_collector(self, collecting):
        code = ("import gc; " + ("" if collecting else "gc.disable(); ")
                + "import seldeval.cli; print(gc.isenabled(), gc.get_freeze_count() > 0)")
        assert run_fresh(code).split() == [str(collecting), "True"]

    # the variable as a fresh interpreter sees it once `imports` have run
    BLAS_SETTING = "import os; {imports}; print(os.environ.get('OPENBLAS_NUM_THREADS'))"

    def test_cli_limits_openblas_to_one_thread(self):
        code = self.BLAS_SETTING.format(imports="import seldeval.cli")
        assert run_fresh(code, env={"OPENBLAS_NUM_THREADS": None}).split() == ["1"]

    @pytest.mark.skipif(sys.platform != "linux" or "openblas" not in numpy_blas(),
                        reason="counts OpenBLAS's threads in /proc/self/task")
    def test_cli_starts_no_openblas_worker_thread(self):
        # numpy's OpenBLAS otherwise starts a worker for each core beyond the first
        code = "import os, seldeval.cli; print(len(os.listdir('/proc/self/task')))"
        assert run_fresh(code, env={"OPENBLAS_NUM_THREADS": None}).split() == ["1"]

    def test_openblas_setting_of_the_user_kept(self):
        code = self.BLAS_SETTING.format(imports="import seldeval.cli")
        assert run_fresh(code, env={"OPENBLAS_NUM_THREADS": "2"}).split() == ["2"]

    def test_library_leaves_openblas_setting_alone(self):
        code = self.BLAS_SETTING.format(imports="import seldeval, seldeval.evaluation")
        assert run_fresh(code, env={"OPENBLAS_NUM_THREADS": None}).split() == ["None"]

    def test_exported_names_resolve(self):
        import seldeval

        assert sorted(self.EXPORTED) == seldeval.__all__
        for name in self.EXPORTED:
            value = getattr(seldeval, name)
            assert value is getattr(sys.modules[value.__module__], name)
        for name in ("UnitVector3", "cartesian_distance", "ThresholdMask", "threshold_mask",
                     "error_rate", "f1_score", "ClassSlice", "class_aware_localization",
                     "class_slices", "joint_counts", "location_aware_detection",
                     "LocalizationReport", "localization_metrics"):
            assert not hasattr(seldeval, name)


class TestMetricRanks:
    def test_f1_descending(self):
        # three F1 values; the highest gets rank 1
        assert metric_ranks([96.7, 94.7, 95.5], higher_better=True) == [1, 3, 2]

    def test_lower_better_with_ties(self):
        assert metric_ranks([0.08, 0.08, 0.06], higher_better=False) == [2.5, 2.5, 1]

    def test_single_system(self):
        assert metric_ranks([42.0], higher_better=True) == [1]

    def test_undefined_value(self):
        with pytest.raises(UndefinedValue):
            metric_ranks([1.0, None], higher_better=True)
        with pytest.raises(UndefinedValue):
            metric_ranks([1.0, float("nan")], higher_better=True)

    def test_rank_attaches_to_value_not_position(self):
        values = [3.0, 1.0, 2.0]
        base = metric_ranks(values, higher_better=False)
        perm = [2, 0, 1]
        permuted = metric_ranks([values[i] for i in perm], higher_better=False)
        assert [base[i] for i in perm] == permuted

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_scipy_rankdata(self, seed):
        rng = random.Random(seed)
        values = [rng.choice([0.1, 0.2, 0.3, 0.4]) for _ in range(rng.randint(2, 12))]
        got = metric_ranks(values, higher_better=False)
        expect = scipy.stats.rankdata(values, method="average")
        assert got == pytest.approx(list(expect))


class TestCumulativeRank:
    def test_all_firsts_wins(self):
        sums, final = cumulative_rank([[1, 2], [1, 2], [1, 2], [1, 2]])
        assert sums == [4, 8]
        assert final == [1, 2]

    def test_tie_rule(self):
        sums, final = cumulative_rank([[1, 4, 2.5, 2.5], [3, 6, 7.5, 9.5]])
        assert sums == [4, 10, 10, 12]
        assert final == [1, 2.5, 2.5, 4]

    def test_three_system_fixture(self):
        # rank sums {6, 5, 13} -> final order (2nd, 1st, 3rd)
        _, final = cumulative_rank([[3, 1, 5], [3, 4, 8]])
        assert final == [2, 1, 3]

    def test_mismatched_lengths(self):
        with pytest.raises(LengthMismatch):
            cumulative_rank([[1, 2], [1, 2, 3]])


def pearson_of_ranks(values_a, values_b):
    # Spearman's rho as one direct formula: each column ranked again for each pair.
    n = len(values_a)
    ra, rb = _average_ranks(list(values_a)), _average_ranks(list(values_b))
    mean_a, mean_b = sum(ra) / n, sum(rb) / n
    var_a = sum((x - mean_a) ** 2 for x in ra)
    var_b = sum((x - mean_b) ** 2 for x in rb)
    if var_a == 0 or var_b == 0:
        return None
    return sum((x - mean_a) * (y - mean_b) for x, y in zip(ra, rb)) / math.sqrt(var_a * var_b)


class TestSpearman:
    @given(st.integers(2, 12).flatmap(lambda n: st.lists(
        st.lists(st.sampled_from([0.0, 1.0, 1.5, 2.0, -3.0, 1e-9]), min_size=n, max_size=n),
        min_size=2, max_size=5)))
    @settings(max_examples=200, deadline=None)
    def test_columns_ranked_once_equal_the_direct_formula(self, columns):
        # correlate_systems ranks each column once and pairs the moments
        moments = [rank_moments(col) for col in columns]
        for a, ma in zip(columns, moments):
            for b, mb in zip(columns, moments):
                want = pearson_of_ranks(a, b)
                if want is None:
                    with pytest.raises(DegenerateRanks):
                        rank_correlation(ma, mb)
                    with pytest.raises(DegenerateRanks):
                        spearman(a, b)
                else:
                    assert rank_correlation(ma, mb).hex() == spearman(a, b).hex() == want.hex()

    @given(st.integers(2, 10).flatmap(lambda n: st.lists(
        st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1.0, 1.5, -3.0, 1e-300]),
                           st.floats(allow_nan=False)), min_size=n, max_size=n),
        min_size=4, max_size=4)), st.lists(st.booleans(), min_size=4, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_metric_ranks_correlate_as_direction_adjusted_values(self, columns, higher):
        # correlate_systems correlates metric_ranks columns and their cumulative rank
        def bits(moments):
            return [x.hex() for x in moments[0]], moments[1].hex()

        for vals, hb in zip(columns, higher):
            adjusted = [-v if hb else v for v in vals]
            assert bits(rank_moments(metric_ranks(vals, hb))) == bits(rank_moments(adjusted))
        official = dict(zip(("er", "f1", "le", "ecr"), columns))
        directions = dict(zip(official, higher))
        final = cumulative_rank([metric_ranks(official[k], directions[k]) for k in official])[1]
        table = build_rank_table(["s"] * len(columns[0]), official, directions)
        assert [x.hex() for x in final] == [x.hex() for x in table.final_ranks]

    def test_identical_rankings(self):
        assert spearman([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)

    def test_reversed_rankings(self):
        assert spearman([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0)

    def test_no_tie_closed_form_fixture(self):
        # 1 - 6*4 / (4 * 15) = 0.6
        assert spearman([1, 2, 3, 4], [2, 1, 4, 3]) == pytest.approx(0.6, abs=1e-12)

    def test_degenerate(self):
        with pytest.raises(DegenerateRanks):
            spearman([1.0, 1.0, 1.0], [1, 2, 3])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            spearman([1, 2], [1, 2, 3])

    def test_invariant_under_monotone_transform(self):
        a = [0.5, 1.3, 2.2, 9.0, 4.4]
        b = [3, 1, 4, 1.5, 9]
        base = spearman(a, b)
        assert spearman([math.exp(x) for x in a], b) == pytest.approx(base, abs=1e-12)
        assert spearman(a, [x ** 3 + 5 for x in b]) == pytest.approx(base, abs=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_scipy_with_ties(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 20))
        a = list(rng.choice([1.0, 2.0, 3.0, 4.0, 5.0], size=n))
        b = list(rng.choice([1.0, 2.0, 3.0, 4.0, 5.0], size=n))
        try:
            got = spearman(a, b)
        except DegenerateRanks:
            return
        expect = scipy.stats.spearmanr(a, b).statistic
        assert got == pytest.approx(expect, abs=1e-12)


class TestRankTable:
    def test_official_style_table(self):
        table = build_rank_table(
            ["he", "kapka", "cao"],
            {
                "f1": [96.7, 94.7, 95.5],
                "er": [0.06, 0.08, 0.08],
                "le": [22.4, 3.7, 5.5],
                "ecr": [94.1, 96.8, 92.2],
            },
            {"f1": True, "er": False, "le": False, "ecr": True},
        )
        assert table.ranks["f1"] == [1, 3, 2]
        assert table.ranks["er"] == [1, 2.5, 2.5]
        assert table.ranks["le"] == [3, 1, 2]
        assert table.ranks["ecr"] == [2, 1, 3]
        assert table.rank_sums == [7, 7.5, 9.5]
        assert table.final_ranks == [1, 2, 3]

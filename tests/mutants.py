"""Mutation checks: each mutant must be killed by the tests named for it.

Usage (from the repository root)::

    python tests/mutants.py            # run every mutant
    python tests/mutants.py --list     # print the table
    python tests/mutants.py warmup-floor den-at-zero   # run only these

Each entry of ``MUTANTS`` names a source file, an exact text that must occur
in it once, the text that replaces it, and the test ids that must fail on
the mutated copy.  The runner copies ``src/`` and ``tests/`` into a temporary
directory, first checks that every named test passes unmutated, then applies
each mutant to a fresh copy and runs only its tests there.  It exits nonzero
when a mutant's old text no longer matches exactly once, when a named test
fails unmutated, or when a mutant survives (its tests pass, or pytest stops
for another reason than failing tests, such as a collection error).  A
refactor that moves mutated code must carry its entries forward.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


ORACLE = "tests/test_server.py::test_deferred_measurement_matches_eager_oracle"
ELAPSED = "tests/test_server.py::test_a_rounds_elapsed_time_includes_its_measurement"
EVAL_ORACLE = "tests/test_model.py::test_evaluate_equals_row_wise_reference_bitwise"
GRAD_ORACLE = "tests/test_model.py::test_gradient_equals_row_wise_reference_bitwise"
RAGGED_EVAL_ORACLE = "tests/test_model.py::test_evaluate_on_a_ragged_stack_equals_each_block_alone_bitwise"
RAGGED_GRAD_ORACLE = "tests/test_model.py::test_gradient_on_a_ragged_stack_equals_each_block_alone_bitwise"
SGD_ORACLE = "tests/test_model.py::test_cohort_sgd_equals_plain_per_client_loop"
SHARD_BYTES = "tests/test_cli.py::test_partition_shard_bytes_are_pinned"
NONEQUAL_GOLDEN = "tests/test_golden.py::test_golden_outputs_unchanged[softmax/s60-nonequal/fedclf]"
CLASS_SUM_ORACLE = "tests/test_model.py::test_class_sum_is_numpy_row_sum_bitwise_at_every_class_count"
WIDE_EVAL_ORACLE = "tests/test_model.py::test_evaluate_equals_row_wise_reference_at_wide_class_counts"
GROUP_FORK = "tests/test_server.py::test_a_cell_built_in_a_battery_group_equals_the_cell_alone"
REPORT_ORACLE = "tests/test_dataset.py::test_partition_report_equals_per_client_loop"
REPORT_BYTES = "tests/test_cli.py::test_partition_report_bytes_are_pinned"
REFERENCE = "tests/test_reference.py::test_a_run_equals_the_reference_simulator"
BATTERY_REFERENCE = "tests/test_reference.py::test_every_battery_cell_equals_its_reference_run"
BUDGET = "tests/test_work_budget.py::test_work_counts_match_the_budget"
COMPOUND_ANCHORS = "tests/test_server.py::test_only_compound_mode_evaluates_the_initial_model"
ONE_COPY_PEAK = "tests/test_server.py::test_build_partition_peaks_near_one_copy_of_the_features"
FILE_PEAK = "tests/test_server.py::test_build_partition_of_a_file_gathers_its_training_rows_once"
PLAIN_BUILD = "tests/test_server.py::test_build_partition_equals_the_plain_composition_byte_for_byte"
GRADIENT_VIEWS = (
    "tests/test_model.py::test_gradient_writes_each_layer_through_views_of_the_block_it_returns"
)
STEP_PEAK = (
    "tests/test_work_budget.py::test_a_cohort_step_holds_one_gradient_block_beside_the_start_stack"
)
ORDERED_SYNTHETIC = (
    "tests/test_dataset.py::test_make_synthetic_in_chunks_and_in_a_given_order_is_the_whole_draw"
)

MUTANTS = (
    Mutant(
        "measure-at-aggregated-model",
        "src/fedclf/server.py",
        "measure_utilities(self.shards, ids, received,",
        "measure_utilities(self.shards, ids, self.params,",
        (f"{ORACLE}[fedclf-feedback]",),
    ),
    Mutant(
        "random-and-newt-measured-again",
        "src/fedclf/server.py",
        "                if measured:\n",
        "                if True:\n",
        (f"{ORACLE}[random-no-feedback]", f"{ORACLE}[newt-no-feedback]"),
    ),
    Mutant(
        "rawloss-unmeasured",
        "src/fedclf/selection.py",
        'Strategy.RAW_LOSS: ("loss_utility",),',
        "Strategy.RAW_LOSS: (),",
        (f"{ORACLE}[rawloss-feedback]",),
    ),
    Mutant(
        "no-run-end-measurement",
        "src/fedclf/server.py",
        "if round_index == cfg.rounds or feedback_gate(",
        "if feedback_gate(",
        (
            f"{ORACLE}[fedclf-feedback]",
            ELAPSED,
            "tests/test_server.py::test_non_finite_utility_names_training_round_and_clients[run-end]",
        ),
    ),
    Mutant(
        "no-measurement-when-gate-opens",
        "src/fedclf/server.py",
        "            if round_index == cfg.rounds or feedback_gate(\n"
        "                self.history, round_index + 1, cfg.feedback_enabled, self.selector.warmup\n"
        "            ):\n",
        "            if round_index == cfg.rounds:\n",
        (f"{ORACLE}[fedclf-feedback]",),
    ),
    Mutant(
        "reuse-round-keeps-older-measurement",
        "src/fedclf/server.py",
        "if round_index == cfg.rounds or feedback_gate(",
        "if round_index == cfg.rounds or gate and feedback_gate(",
        (f"{ORACLE}[fedclf-feedback]",),
    ),
    Mutant(
        "gate-of-this-round",
        "src/fedclf/server.py",
        "self.history, round_index + 1,",
        "self.history, round_index,",
        (f"{ORACLE}[fedclf-feedback]", ELAPSED),
    ),
    Mutant(
        "elapsed-without-measurement",
        "src/fedclf/server.py",
        "                self.history[-1] = record\n",
        "",
        (ELAPSED,),
    ),
    Mutant(
        "anchor-one-round-late",
        "src/fedclf/server.py",
        "self.history[round_index - 2]",
        "self.history[round_index - 1]",
        (f"{ORACLE}[fedclf-compound]", REFERENCE),
    ),
    Mutant(
        "round-1-anchors-to-the-aggregated-model",
        "src/fedclf/server.py",
        "anchor = self._test_metrics(received)",
        "anchor = self._test_metrics(self.params)",
        (COMPOUND_ANCHORS, f"{ORACLE}[fedclf-compound]", REFERENCE),
    ),
    Mutant(
        "plain-round-1-evaluates-the-initial-model",
        "src/fedclf/server.py",
        "                elif cfg.compound_factors:\n",
        "                else:\n",
        (COMPOUND_ANCHORS, f"{BUDGET}[paper-default]"),
    ),
    Mutant(
        "gate-resamples-on-a-tie",
        "src/fedclf/server.py",
        "return acc_prev < acc_prev2",
        "return acc_prev <= acc_prev2",
        (REFERENCE, f"{BATTERY_REFERENCE}[battery]"),
    ),
    Mutant(
        # Reuse rounds overwrite what they measure, so only the counts show it.
        "measure-on-every-round",
        "src/fedclf/server.py",
        "if round_index == cfg.rounds or feedback_gate(",
        "if True or feedback_gate(",
        (f"{BUDGET}[paper-default]",),
    ),
    Mutant(
        "train-a-reuse-cohort-twice",
        "src/fedclf/server.py",
        "            trained, deltas = client_update(self.shards, ids, received, self.train_cfg, seeds)\n",
        "            trained, deltas = client_update(self.shards, ids, received, self.train_cfg, seeds)\n"
        "            if not gate:\n"
        "                trained, deltas = client_update(self.shards, ids, received, self.train_cfg, seeds)\n",
        (f"{BUDGET}[paper-default]",),
    ),
    Mutant(
        # Round W measures only if the next gate opens, which depends on
        # the cell's feedback setting.
        "group-shares-the-last-warmup-round",
        "src/fedclf/server.py",
        "min(experiment.selector.warmup - 1, experiment.cfg.rounds - 1)",
        "min(experiment.selector.warmup, experiment.cfg.rounds - 1)",
        (GROUP_FORK, f"{BATTERY_REFERENCE}[battery]"),
    ),
    Mutant(
        "fork-keeps-an-unmeasured-utility",
        "src/fedclf/server.py",
        "getattr(shared, name) if kept else np.nan",
        "getattr(shared, name)",
        (GROUP_FORK,),
    ),
    Mutant(
        # The group's experiment measures every utility column, so this
        # gives every cell every column.
        "every-cell-gets-every-utility-column",
        "src/fedclf/server.py",
        "kept = name in MEASURED_UTILITIES[experiment.cfg.strategy]",
        "kept = name in MEASURED_UTILITIES[self.shared.cfg.strategy]",
        (GROUP_FORK,),
    ),
    Mutant(
        "group-measures-only-its-key-strategys-utilities",
        "src/fedclf/server.py",
        "key = replace(cfg, strategy=Strategy.GRAD_NORM,",
        "key = replace(cfg, strategy=Strategy.FEDCLF,",
        (GROUP_FORK,),
    ),
    Mutant(
        "fork-aliases-the-prefix-columns",
        "src/fedclf/server.py",
        "            getattr(state, name)[:] = getattr(shared, name)\n",
        "            setattr(state, name, getattr(shared, name))\n",
        (GROUP_FORK,),
    ),
    Mutant(
        "fork-shares-the-group-history",
        "src/fedclf/server.py",
        "experiment.history = list(self.shared.history)",
        "experiment.history = self.shared.history",
        (GROUP_FORK,),
    ),
    Mutant(
        # Every cell then runs its shared rounds itself: the outputs stay
        # right and only the round counts show it.
        "run-experiment-skips-the-fork",
        "src/fedclf/server.py",
        "    if _open:\n        _open[0].start(experiment)\n",
        "",
        (
            GROUP_FORK,
            "tests/test_cli.py::test_battery_builds_each_groups_data_once_and_shares_its_warmup_rounds",
            f"{BUDGET}[battery]",
        ),
    ),
    Mutant(
        "next-group-built-while-the-last-is-kept",
        "src/fedclf/server.py",
        "        _open.clear()  # the last group's data goes before the next is built\n",
        "",
        ("tests/test_server.py::test_a_battery_group_builds_its_data_once_and_keeps_one_group",),
    ),
    Mutant(
        "warmup-floor",
        "src/fedclf/selection.py",
        "math.ceil(num_clients / k)",
        "num_clients // k",
        ("tests/test_selection.py::test_warmup_rounds_ceil",),
    ),
    Mutant(
        "unstable-ranking-sort",
        "src/fedclf/selection.py",
        'kind="stable"',
        'kind="quicksort"',
        ("tests/test_selection.py::test_ties_among_many_clients_break_toward_lower_id",),
    ),
    Mutant(
        "calibrate-last-round-clients",
        "src/fedclf/selection.py",
        "np.where(stale & ~undefined, loss * factor, loss)",
        "np.where(~undefined, loss * factor, loss)",
        ("tests/test_selection.py::test_fedclf_last_round_clients_not_calibrated",),
    ),
    Mutant(
        "den-at-zero",
        "src/fedclf/selection.py",
        "(den > 0.0)",
        "(den >= 0.0)",
        ("tests/test_selection.py::test_calibrate_guard_returns_raw_and_warns",),
    ),
    Mutant(
        "compound-ignores-anchors",
        "src/fedclf/selection.py",
        "factor = _ratio(trend.loss_prev, state.loss_anchor)",
        "factor = _ratio(trend.loss_prev, trend.loss_prev2)",
        ("tests/test_selection.py::test_compound_mode_uses_loss_at_last_training",),
    ),
    Mutant(
        "loss-anchor-in-acc-mode",
        "src/fedclf/selection.py",
        "factor = _ratio(trend.acc_prev, state.acc_anchor)",
        "factor = _ratio(trend.acc_prev, state.loss_anchor)",
        ("tests/test_selection.py::test_compound_acc_mode_uses_accuracy_at_last_training",),
    ),
    Mutant(
        "unmeasured-ranked-at-zero",
        "src/fedclf/selection.py",
        "np.where(unmeasured, np.inf, utility)",
        "np.where(unmeasured, 0.0, utility)",
        ("tests/test_selection.py::test_untrained_clients_forced_when_warmup_disabled",),
    ),
    Mutant(
        "one-seed-for-the-cohort",
        "src/fedclf/model.py",
        "rng = np.random.default_rng(seeds[i])",
        "rng = np.random.default_rng(seeds[0])",
        (SGD_ORACLE,),
    ),
    Mutant(
        "one-hot-as-wide-as-the-data-classes",
        "src/fedclf/model.py",
        "targets = np.eye(dims[-1])",
        "targets = np.eye(num_classes)",
        (SGD_ORACLE,),
    ),
    Mutant(
        # Runs looked up per model count: a step whose sizes differ from an
        # earlier step's with as many models takes that step's runs.
        "step-reuses-an-earlier-steps-runs",
        "src/fedclf/model.py",
        "num_classes, runs[sizes], targets[start:end]",
        "num_classes, runs.setdefault(len(sizes), runs[sizes]), targets[start:end]",
        (SGD_ORACLE,),
    ),
    Mutant(
        # Each schedule shifted by the rows of the shards trained before it,
        # as if the cohort had been gathered first, not by its global start.
        "sgd-at-cohort-local-offsets",
        "src/fedclf/model.py",
        "perm = rng.permutation(n) + starts[i]",
        "perm = rng.permutation(n) + sum(counts[j] for j in order[: order.index(i)])",
        (SGD_ORACLE, NONEQUAL_GOLDEN),
    ),
    Mutant(
        "negative-label-in-a-shard-accepted",
        "src/fedclf/model.py",
        "if y.min() < 0:",
        "if y.min() < -1:",
        ("tests/test_model.py::test_bad_label_in_a_shard_raises_before_any_sgd_step",),
    ),
    Mutant(
        "gradient-without-lse",
        "src/fedclf/model.py",
        "np.exp(shifted - lse[..., None])",
        "np.exp(shifted)",
        (GRAD_ORACLE,),
    ),
    Mutant(
        "every-row-divided-by-one-run-size",
        "src/fedclf/model.py",
        "np.divide(delta_rows[rows], size, out=delta_rows[rows])",
        "np.divide(delta_rows[rows], stack.runs[0][2], out=delta_rows[rows])",
        (RAGGED_GRAD_ORACLE, SGD_ORACLE),
    ),
    Mutant(
        "singleton-block-joins-the-run-before-it",
        "src/fedclf/model.py",
        "self.sizes[end] != self.sizes[first]:",
        "self.sizes[end] not in (self.sizes[first], 1):",
        (RAGGED_EVAL_ORACLE, "tests/test_model.py::test_sample_stack_runs"),
    ),
    Mutant(
        "bias-repeated-by-sorted-sizes",
        "src/fedclf/model.py",
        "return bias if shared else np.repeat(bias, self.sizes, axis=0)",
        "return bias if shared else np.repeat(bias, sorted(self.sizes), axis=0)",
        (RAGGED_EVAL_ORACLE,),
    ),
    Mutant(
        "first-model-weights-for-every-run",
        "src/fedclf/model.py",
        "w[0] if shared else w[models]",
        "w[0]",
        (RAGGED_EVAL_ORACLE,),
    ),
    Mutant(
        "argmax-hits-flattened-column-major",
        "src/fedclf/model.py",
        "hits = (np.argmax(out + bias, axis=-1) == y).reshape(-1)",
        'hits = (np.argmax(out + bias, axis=-1) == y).reshape(-1, order="F")',
        (EVAL_ORACLE,),
    ),
    Mutant(
        "test-loss-read-from-hits",
        "src/fedclf/server.py",
        "float(np.mean(result.per_sample_losses))",
        "float(np.mean(result.per_sample_hits))",
        ("tests/test_server.py::test_each_round_reduces_the_test_accuracy_once",),
    ),
    Mutant(
        "test-stack-rebuilt-each-round",
        "src/fedclf/server.py",
        "evaluate(params, self.test_stack)",
        "evaluate(params, replace(self.test_stack))",
        ("tests/test_server.py::test_each_round_reduces_the_test_accuracy_once",),
    ),
    Mutant(
        "mean-read-from-neighbouring-segment",
        "src/fedclf/model.py",
        "np.add.reduce(per_row[rows].reshape(",
        "np.add.reduce(np.roll(per_row, -size)[rows].reshape(",
        (
            RAGGED_EVAL_ORACLE,
            "tests/test_client.py::test_ragged_cohort_utilities_equal_plain_rms_of_each_client",
        ),
    ),
    Mutant(
        "means-divided-by-reversed-sizes",
        "src/fedclf/model.py",
        "means /= self.sizes",
        "means /= self.sizes[::-1]",
        (RAGGED_EVAL_ORACLE,),
    ),
    Mutant(
        "model-stack-over-unstacked-data",
        "src/fedclf/model.py",
        "    if len(values) not in (1, g):\n",
        "    if False:\n",
        ("tests/test_model.py::test_parameter_stack_over_unstacked_data_raises",),
    ),
    Mutant(
        "negative-label-accepted",
        "src/fedclf/model.py",
        "self.labels.min() < 0:",
        "self.labels.min() < -1:",
        ("tests/test_model.py::test_negative_label_in_a_sample_stack_raises",),
    ),
    Mutant(
        "accuracy-guard-without-tie-count",
        "src/fedclf/model.py",
        "np.isfinite(row_max).all() and np.count_nonzero(shifted == 0.0) == y.size",
        "np.isfinite(row_max).all()",
        (
            EVAL_ORACLE,
            "tests/test_model.py::test_evaluate_zero_params_gives_log_c_and_class0_accuracy",
        ),
    ),
    Mutant(
        "accuracy-guard-without-finite-check",
        "src/fedclf/model.py",
        "np.isfinite(row_max).all() and ",
        "",
        (EVAL_ORACLE,),
    ),
    Mutant(
        "label-entry-from-logits",
        "src/fedclf/model.py",
        "at_label = shifted.reshape(",
        "at_label = (shifted + row_max).reshape(",
        (EVAL_ORACLE,),
    ),
    Mutant(
        "sequential-class-sum",
        "src/fedclf/model.py",
        "    if c < 8:\n",
        "    if True:\n",
        (CLASS_SUM_ORACLE, WIDE_EVAL_ORACLE),
    ),
    Mutant(
        "class-sum-tree-mispaired",
        "src/fedclf/model.py",
        "pairs = acc[::2] + acc[1::2]",
        "pairs = acc[:4] + acc[4:]",
        (CLASS_SUM_ORACLE, WIDE_EVAL_ORACLE),
    ),
    Mutant(
        "class-sum-without-identity",
        "src/fedclf/model.py",
        "rows[0] + 0.0",
        "rows[0].copy()",
        (CLASS_SUM_ORACLE,),
    ),
    Mutant(
        "label-index-with-class-stride",
        "src/fedclf/model.py",
        "return self.labels * n + np.arange(n)",
        "return self.labels + np.arange(n) * self.num_classes",
        (WIDE_EVAL_ORACLE,),
    ),
    Mutant(
        "leftover-dealt-backwards",
        "src/fedclf/dataset.py",
        "np.arange(np.count_nonzero(leftover)) % k",
        "np.arange(np.count_nonzero(leftover))[::-1] % k",
        ("tests/test_dataset.py::test_partition_equal_deal_matches_round_robin_reference",),
    ),
    Mutant(
        "nonequal-cut-bounds-shifted",
        "src/fedclf/dataset.py",
        "counts = _nonequal_counts(total, spec, rng)",
        "counts = np.roll(_nonequal_counts(total, spec, rng), 1)",
        ("tests/test_dataset.py::test_partition_nonequal_cut_matches_plain_reference",),
    ),
    Mutant(
        "int16-label-keys-past-32767",
        "src/fedclf/dataset.py",
        "num_classes <= 2**15",
        "num_classes <= 2**16",
        ("tests/test_dataset.py::test_partition_label_sort_matches_int64_argsort_at_any_class_count",),
    ),
    Mutant(
        "dealt-rows-gathered-uncomposed",
        "src/fedclf/dataset.py",
        "        index = rows[index]\n",
        "        pass\n",
        ("tests/test_dataset.py::test_partition_of_given_rows_equals_partition_of_their_subset",),
    ),
    Mutant(
        "views-start-one-client-late",
        "src/fedclf/dataset.py",
        "i = range(len(self))[i]",
        "i = range(len(self))[i - len(self) + 1]",
        (SHARD_BYTES,),
    ),
    Mutant(
        "shards-materialise-every-view",
        "src/fedclf/dataset.py",
        '        object.__setattr__(self, "n_k", n_k)\n',
        '        object.__setattr__(self, "n_k", n_k)\n'
        '        object.__setattr__(self, "views", [self[i] for i in range(len(self))])\n',
        ("tests/test_server.py::test_no_per_client_object_is_built_at_setup_or_in_a_round",),
    ),
    Mutant(
        "synthetic-leftover-rows-get-last-means",
        "src/fedclf/dataset.py",
        "z[whole:] += means[: rows - whole]",
        "z[whole:] += means[num_classes - (rows - whole) :]",
        ("tests/test_dataset.py::test_make_synthetic_features_are_means_plus_scaled_noise_bitwise",),
    ),
    Mutant(
        "synthetic-means-through-a-temporary",
        "src/fedclf/dataset.py",
        "        cycles = z[:whole].reshape(-1, num_classes, num_features)\n"
        "        cycles += means\n"
        "        z[whole:] += means[: rows - whole]\n"
        "        if order is not None:\n"
        "            features.view(row)[dest[start : start + rows], 0] = z.view(row)[:, 0]\n"
        "    return",
        "        if order is not None:\n"
        "            features.view(row)[dest[start : start + rows], 0] = z.view(row)[:, 0]\n"
        "    features += means[labels]\n"
        "    return",
        ("tests/test_server.py::test_build_partition_peaks_near_one_copy_of_the_features",),
    ),
    Mutant(
        "training-split-copied-before-the-deal",
        "src/fedclf/server.py",
        "partition(full, spec, train_rows)",
        "partition(full.subset(train_rows), spec)",
        (FILE_PEAK,),
    ),
    Mutant(
        "synthetic-rows-drawn-whole-then-gathered",
        "src/fedclf/server.py",
        " order=order,\n    )\n",
        "\n    ).subset(order)\n",
        (ONE_COPY_PEAK,),
    ),
    Mutant(
        "rows-written-through-the-order-not-its-inverse",
        "src/fedclf/dataset.py",
        "features.view(row)[dest[start : start + rows], 0]",
        "features.view(row)[order[start : start + rows], 0]",
        (PLAIN_BUILD, ORDERED_SYNTHETIC),
    ),
    Mutant(
        "chunk-off-a-class-cycle",
        "src/fedclf/dataset.py",
        "(8 * num_features * num_classes)) * num_classes",
        "(8 * num_features * num_classes)) * num_classes + 1",
        (PLAIN_BUILD, ORDERED_SYNTHETIC),
    ),
    Mutant(
        "test-rows-from-the-training-end",
        "src/fedclf/server.py",
        "LabeledDataset(features[n:], labels[n:], num_classes)",
        "LabeledDataset(features[: num_samples - n], labels[: num_samples - n], num_classes)",
        (PLAIN_BUILD,),
    ),
    Mutant(
        "report-divides-by-the-total",
        "src/fedclf/dataset.py",
        "counts / n_k[:, None]",
        "counts / labels.size",
        (REPORT_ORACLE, REPORT_BYTES),
    ),
    Mutant(
        "report-reference-from-client-0",
        "src/fedclf/dataset.py",
        "reference = np.bincount(labels, minlength=num_classes) / labels.size",
        "reference = np.bincount(labels[: n_k[0]], minlength=num_classes) / n_k[0]",
        (REPORT_ORACLE, REPORT_BYTES),
    ),
    Mutant(
        "report-through-client-views",
        "src/fedclf/dataset.py",
        "labels, n_k = shards.data.labels, shards.n_k",
        "labels, n_k = np.concatenate([v.labels for v in shards]), shards.n_k",
        ("tests/test_dataset.py::test_partition_report_builds_no_client_view",),
    ),
    Mutant(
        "gradient-views-in-forward-order",
        "src/fedclf/model.py",
        "views = reversed(_layers(dims, grad))",
        "views = _layers(dims, grad)",
        (GRADIENT_VIEWS, GRAD_ORACLE),
    ),
    Mutant(
        "learning-rate-scale-dropped",
        "src/fedclf/model.py",
        "        grad *= cfg.learning_rate\n",
        "",
        (SGD_ORACLE,),
    ),
    Mutant(
        "learning-rate-scale-through-a-temporary",
        "src/fedclf/model.py",
        "        grad *= cfg.learning_rate\n",
        "        grad = cfg.learning_rate * grad\n",
        (STEP_PEAK,),
    ),
    Mutant(
        "step-gradient-held-across-the-next-step",
        "src/fedclf/model.py",
        "        del grad  ",
        "        #  ",
        (STEP_PEAK,),
    ),
    Mutant(
        "init-bound-from-fan-out",
        "src/fedclf/model.py",
        "bound = 1.0 / np.sqrt(w.shape[1])",
        "bound = 1.0 / np.sqrt(w.shape[2])",
        ("tests/test_model.py::test_init_params_equals_the_plain_offset_loop",),
    ),
)


def _copy(dest: Path) -> None:
    for part in ("src", "tests"):
        shutil.copytree(
            ROOT / part, dest / part, ignore=shutil.ignore_patterns("__pycache__")
        )


def _pytest(copy: Path, tests: tuple[str, ...]) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=copy,
        env=env,
        capture_output=True,
        text=True,
    )


def _mutate(copy: Path, mutant: Mutant) -> str | None:
    """Apply ``mutant`` to the copy; an error message if its old text does
    not occur exactly once."""
    path = copy / mutant.path
    text = path.read_text()
    count = text.count(mutant.old)
    if count != 1:
        return f"old text found {count} times in {mutant.path}: {mutant.old!r}"
    path.write_text(text.replace(mutant.old, mutant.new))
    return None


def run(mutants: tuple[Mutant, ...]) -> int:
    failures = 0
    with tempfile.TemporaryDirectory(prefix="fedclf-mutants-") as tmp:
        clean = Path(tmp) / "clean"
        _copy(clean)
        imported = subprocess.run(
            [sys.executable, "-c", "import fedclf; print(fedclf.__file__)"],
            env={**os.environ, "PYTHONPATH": str(clean / "src")},
            capture_output=True,
            text=True,
        ).stdout.strip()
        if not imported.startswith(str(clean)):
            print(f"FAIL: the copy imports fedclf from {imported or 'nowhere'}")
            return 1
        named = tuple(dict.fromkeys(t for m in mutants for t in m.tests))
        result = _pytest(clean, named)
        if result.returncode != 0:
            print(result.stdout[-3000:])
            print("FAIL: the named tests do not pass unmutated")
            return 1
        for mutant in mutants:
            copy = Path(tmp) / mutant.name
            _copy(copy)
            error = _mutate(copy, mutant)
            if error is None:
                result = _pytest(copy, mutant.tests)
                # pytest exits 1 when tests ran and some failed; any other
                # code (collection error, no tests collected) is no kill.
                if result.returncode != 1:
                    error = f"not killed (pytest exit {result.returncode})"
            shutil.rmtree(copy)
            if error:
                failures += 1
                print(f"FAIL   {mutant.name}: {error}")
            else:
                print(f"killed {mutant.name}")
    print(f"{len(mutants) - failures}/{len(mutants)} mutants killed")
    return int(failures > 0)


def main(argv: list[str]) -> int:
    if argv == ["--list"]:
        for m in MUTANTS:
            print(f"{m.name}: {m.path}: {m.old.strip()!r} -> {m.new.strip()!r}")
        return 0
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutant(s): {', '.join(sorted(unknown))}")
        return 2
    return run(tuple(m for m in MUTANTS if not argv or m.name in argv))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

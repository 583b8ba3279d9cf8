"""Checks every results.csv row a pass produced.

A cell fails when its row is missing, is flagged `failed`, or differs
from a reference:
  - the committed reference (`reference.json`, written at the default
    seed by make_reference.py) or, for another seed, the rows a
    previous run at that seed left in out/rows/: training columns and
    Kalman- or no-oracle error columns must match bit for bit; the
    Metropolis-derived `mean_error`/`sd_error` must fall within
    `metropolis_tolerance` of the reference;
  - the first pass of the same run: every column must match, so traced
    and untraced passes must produce identical rows.
"""

from __future__ import annotations

import math

TRAINING_COLUMNS = ("final_neg_elbo", "iterations", "converged", "failed")
ERROR_COLUMNS = ("mean_error", "sd_error")
ALL_COLUMNS = TRAINING_COLUMNS + ERROR_COLUMNS + ("oracle_reliable",)

# standard errors of the Metropolis estimate a replacement oracle may move
# each posterior mean and SD by
SE_MULTIPLE = 4.0


def cell_key(row):
    return (row["task"], row["surrogate"], row["seed"])


def by_cell(rows):
    return {cell_key(r): r for r in rows}


def metropolis_tolerance(ref_row, se):
    """Largest change of (mean_error, sd_error) an exact oracle can cause.

    `se` holds the mean and max over latents of r = mean_se / sd of the
    Metropolis oracle.  With mean_error = avg_i |q_i - m_i| / s_i, moving
    m_i by k*se_i and s_i by a factor (1 +- e_i), e_i = k*r_i/sqrt(2) (the
    SE of an SD estimate from the same draws), changes term i by at most
    k*r_i*(1 + a_i/sqrt(2)) / (1 - e_i), where a_i is the term itself.
    Averaging and bounding r_i by its max gives the first bound; sd_error
    = avg_i |qs_i/s_i - 1| gives the second the same way.
    """
    k, root2 = SE_MULTIPLE, math.sqrt(2.0)
    shrink = 1.0 - k * se["ratio_max"] / root2
    if shrink <= 0.0:
        return math.inf, math.inf
    mean_tol = k * (se["ratio_mean"] + se["ratio_max"] * float(ref_row["mean_error"]) / root2)
    sd_tol = k / root2 * (se["ratio_mean"] + se["ratio_max"] * float(ref_row["sd_error"]))
    return mean_tol / shrink, sd_tol / shrink


def reference_mismatches(row, ref, oracle_se):
    """Columns of `row` that disagree with the reference row `ref`."""
    bad = [c for c in TRAINING_COLUMNS if row[c] != ref[c]]
    se = oracle_se.get(row["task"])
    if se is None or ref["mean_error"] == "" or row["mean_error"] == "":
        bad += [c for c in ERROR_COLUMNS + ("oracle_reliable",) if row[c] != ref[c]]
        return bad
    for column, tol in zip(ERROR_COLUMNS, metropolis_tolerance(ref, se)):
        if not abs(float(row[column]) - float(ref[column])) <= tol:
            bad.append(column)
    return bad


def exact_mismatches(row, ref, oracle_se=None):
    return [c for c in ALL_COLUMNS if row[c] != ref[c]]


def row_problem(row):
    """Why a row fails on its own, or None."""
    if row["failed"] != "false":
        return "flagged failed"
    try:
        value = float(row["final_neg_elbo"])
    except ValueError:
        return "final_neg_elbo not a number"
    if not math.isfinite(value):
        return "final_neg_elbo not finite"
    return None


def check_pass(rows, cells, references, oracle_se):
    """Count failed cells of one pass.

    `references` is a list of (label, {cell key: row}, compare) where
    compare is `reference_mismatches` or `exact_mismatches`.  Returns
    (attempted, failed, problems) with one problem string per failure.
    """
    by_key = by_cell(rows)
    problems = []
    for key in cells:
        row = by_key.get(key)
        label = "/".join(key)
        if row is None:
            problems.append(f"{label}: no results.csv row")
            continue
        problem = row_problem(row)
        for ref_label, ref_rows, compare in references:
            if problem is not None:
                break
            ref = ref_rows.get(key)
            if ref is None:
                problem = f"no {ref_label} row"
                continue
            bad = compare(row, ref, oracle_se)
            if bad:
                problem = f"differs from {ref_label} in {', '.join(bad)}"
        if problem is not None:
            problems.append(f"{label}: {problem}")
    return len(cells), len(problems), problems

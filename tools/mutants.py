"""Mutation check: each mutant below breaks one contract of the package on purpose,
and the test ids listed with it must catch it.

Run from anywhere with ``python tools/mutants.py``.  Each mutant is an exact text
replacement that must match once.  The script copies ``src/``, ``tests/`` and
``pyproject.toml`` to a temporary directory per mutant, applies the mutant there
and runs only its test ids with ``-x``; one more copy checks that every listed
id passes unmutated.  Two copies run at a time.  It exits 1 if a mutant
survives, if its old text no longer matches, or if the unmutated tests fail.
Standard library and pytest only; it is not part of the Tier-1 collection
(``testpaths = ["tests"]``).
"""

from __future__ import annotations

import concurrent.futures
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = "src/entropic_uncertainty/"

# (name, file, exact old text, new text, test ids expected to catch it)
MUTANTS = [
    (
        "plain min in place of the NaN-aware minimum in linalg._spectrum",
        PACKAGE + "linalg.py",
        "low = math.nan if any(map(math.isnan, vals)) else min(vals)",
        "low = min(vals)",
        ("tests/test_bounds.py::test_chain_errors_are_pinned[nan-eigenvalue]",),
    ),
    (
        "math.fsum in linalg._ordered_sum",
        PACKAGE + "linalg.py",
        "    total = 0.0\n    for v in values:\n        total += v\n    return total\n",
        "    return math.fsum(values)\n",
        ("tests/test_bounds.py::test_chain_errors_are_pinned[trace-off]",),
    ),
    (
        "bounds._stacked_u without its np.errstate",
        PACKAGE + "bounds.py",
        'with np.errstate(over="ignore", invalid="ignore"):  # a non-finite row fails its own check',
        "with np.errstate():",
        ("tests/test_bounds.py::test_a_stack_with_an_infinite_row_flags_only_that_row",),
    ),
    (
        "bounds._stacked_u subtracts the memory entropy only once",
        PACKAGE + "bounds.py",
        "return (jx - s_b) + (jz - s_b), x_ok & z_ok",
        "return jx + (jz - s_b), x_ok & z_ok",
        ("tests/test_bounds.py::test_uncertainty_lhs_is_the_one_row_stack",),
    ),
    (
        "bounds.PointQuantities.u gives the stack S(A) as its memory entropy",
        PACKAGE + "bounds.py",
        "_stacked_u(self.rho, self.s_b)",
        "_stacked_u(self.rho, self.s_a)",
        ("tests/test_sweep.py::test_batched_u_equals_dense",),
    ),
    (
        "bounds.uncertainty_lhs subtracts the memory entropy only once",
        PACKAGE + "bounds.py",
        "    return (jx - s_b) + (jz - s_b)\n",
        "    return (jx - s_b) + jz\n",
        ("tests/test_bounds.py::test_uncertainty_lhs_reads_one_memory_entropy",),
    ),
    (
        "bounds._measured_blocks reads rho_A in place of the memory rho_B",
        PACKAGE + "bounds.py",
        "memory = (a + a1, d + d1, r[0][1] + r[2][3])",
        "memory = (a + d, a1 + d1, r[0][2] + r[1][3])",
        ("tests/test_bounds.py::test_uncertainty_lhs_reads_one_memory_entropy",),
    ),
    (
        "bounds._measured_blocks flips the sign of R01 + R10 in sigma_x's + block",
        PACKAGE + "bounds.py",
        "x = [(0.5 * (m0 + c0), 0.5 * (m1 + c1), 0.5 * (m01 + c01)),",
        "x = [(0.5 * (m0 - c0), 0.5 * (m1 - c1), 0.5 * (m01 - c01)),",
        ("tests/test_bounds.py::test_u_of_a_non_x_state_is_its_one_row_stack_without_jacobi",),
    ),
    (
        "sigma_z's branch_masks swapped in measures._branches",
        PACKAGE + "measures.py",
        "[states * m for m in basis.branch_masks]",
        "[states * m for m in basis.branch_masks[::-1]]",
        ("tests/test_measures.py"
         "::test_sigma_z_mask_dephasing_equals_the_projector_sandwich",),
    ),
    (
        "measures.SIGMA_X along (1, 0, 0) in place of the direction (pi/2, 0)",
        PACKAGE + "measures.py",
        "SIGMA_X = _Basis((1.0, 0.0, math.cos(math.pi / 2)))",
        "SIGMA_X = _Basis((1.0, 0.0, 0.0))",
        ("tests/test_measures.py::test_sigma_x_projectors_are_pinned_bit_for_bit",),
    ),
    (
        "channels.weak_op without its type check of s",
        PACKAGE + "channels.py",
        'if not 0.0 <= _of_type("s", s, Real) < 1.0:',
        "if not 0.0 <= s < 1.0:",
        ("tests/test_channels.py::test_a_wrongly_typed_argument_is_named[weak-op-string]",),
    ),
    (
        "bounds.witnessed without BOUND_ORDER_ATOL",
        PACKAGE + "bounds.py",
        "return u < math.log2(1.0 / C) - BOUND_ORDER_ATOL",
        "return u < math.log2(1.0 / C)",
        ("tests/test_cli.py::test_witness_stdout_is_pinned[AD-s0.999999]",),
    ),
    (
        "the refined theta without the endpoint values in measures._minimize_x_states",
        PACKAGE + "measures.py",
        "value, theta = min(*ends, (at_refined, refined))",
        "value, theta = (at_refined, refined)",
        ("tests/test_measures.py::test_a_flat_profile_reports_no_more_than_its_exact_endpoints",),
    ),
    (
        "measures._minimize_x_states skips the refinement at an endpoint without its probe",
        PACKAGE + "measures.py",
        "if row[2 + i // 90] >= row[i // 90]:",
        "if True:",
        ("tests/test_measures.py::test_endpoint_guard_refines_a_minimum_half_a_step_inside",),
    ),
    (
        "measures._minimize_avg_branch_entropy without its X-shape check",
        PACKAGE + "measures.py",
        "    if not is_x_patterned(rho):\n"
        '        raise ValueError("the measurement optimizer takes X-shaped states only")\n',
        "",
        ("tests/test_measures.py::test_non_x_state_is_refused_by_the_optimizer",),
    ),
    (
        "measures._x_moments reads the coherence (1, 2) in place of (2, 1) when measuring A",
        PACKAGE + "measures.py",
        '"B": ((0, 2), (1, 3), (2, 1))',
        '"B": ((0, 2), (1, 3), (1, 2))',
        ("tests/test_measures.py::test_x_moments_are_the_general_moments_that_are_not_zero",),
    ),
    (
        "measures._avg_branch_entropy_grid drops its second outcome",
        PACKAGE + "measures.py",
        "    total += kept[1]\n",
        "",
        ("tests/test_measures.py::test_both_grids_equal_the_per_sign_loop_bitwise",),
    ),
    (
        "measures.stacked_holevo weighs each branch by the entropy of the branch before it",
        PACKAGE + "measures.py",
        "np.where(kept, prob * entropy, 0.0)",
        "np.where(kept, prob * np.roll(entropy, n), 0.0)",
        ("tests/test_measures.py::test_holevo_and_dephasing_stacks_equal_one_row_calls",),
    ),
    (
        "math.log2 per value in place of one np.log2 call in measures._entropies",
        PACKAGE + "measures.py",
        "logs = iter(np.log2([x if x > 0.0 else 1.0 for p in spectra for x in p]).tolist())",
        "logs = iter([math.log2(x) if x > 0.0 else 0.0 for p in spectra for x in p])",
        ("tests/test_measures.py::test_one_log2_call_gives_each_spectrum_its_own_bits",),
    ),
    (
        "linalg._sandwiches' flat path associated as e (rho e^dagger)",
        PACKAGE + "linalg.py",
        "np.matmul(left.reshape(k, 4, n, 4), adjoint[:, None], out=terms.swapaxes(1, 2))",
        "terms[:] = embedded[:, None] @ (rho @ adjoint[:, None])",
        ("tests/test_linalg.py::test_batched_sandwiches_are_the_per_operator_loop",),
    ),
    (
        "sweep._grid_points without its check of rho0",
        PACKAGE + "sweep.py",
        "    validate_two_qubit(rho0)  # apply_one_sided's input check, once for the grid\n",
        "",
        ("tests/test_sweep.py::test_grid_points_check_rho0_once_before_evolving",),
    ),
    (
        "sweep._grid_points steers a whole block with the operator of its first row",
        PACKAGE + "sweep.py",
        "_steer(steering_ops[k].operator, states[run])",
        "_steer(steering_ops[first // n].operator, states[run])",
        ("tests/test_sweep.py::test_steered_sweep_is_one_stack_in_blocks",),
    ),
    (
        "applications.witness_threshold without its check of rho0",
        PACKAGE + "applications.py",
        "    validate_two_qubit(rho0)  # _evolve's input check, once per solve\n",
        "",
        ("tests/test_applications.py::test_witness_checks_rho0_once_per_solve[0.0]",),
    ),
    (
        "applications.witness_threshold without its straddle check",
        PACKAGE + "applications.py",
        "    if not (witnessed(below) and not witnessed(above)):\n"
        '        raise ArithmeticError(f"threshold bracketing check failed around {critical!r}")\n',
        "",
        ("tests/test_applications.py::test_a_failed_straddle_check_raises_and_exits_3[AD]",),
    ),
    (
        "< in place of <= against X_PATTERN_ATOL in linalg.is_x_patterned",
        PACKAGE + "linalg.py",
        "abs(m[i][j]) <= X_PATTERN_ATOL",
        "abs(m[i][j]) < X_PATTERN_ATOL",
        ("tests/test_states.py::test_x_pattern_tolerance_is_one_definition",),
    ),
    (
        "< in place of <= against X_PATTERN_ATOL in linalg.stacked_density_spectra",
        PACKAGE + "linalg.py",
        "np.abs(m[:, rows, cols]) <= X_PATTERN_ATOL",
        "np.abs(m[:, rows, cols]) < X_PATTERN_ATOL",
        ("tests/test_states.py::test_x_pattern_tolerance_is_one_definition",),
    ),
    (
        "measures.binary_entropy without its NaN rejection",
        PACKAGE + "measures.py",
        "if not -PSD_ATOL <= q <= 1.0 + PSD_ATOL:",
        "if q < -PSD_ATOL or q > 1.0 + PSD_ATOL:",
        ("tests/test_input_checks.py"
         "::test_input_check_names_the_problem[binary-entropy-nan]",),
    ),
    (
        "errata's --points lower bound 2 in place of 1 in cli._flag_problems",
        PACKAGE + "cli.py",
        'least = {"capacity": 2, "errata": 1}.get(args.command)',
        'least = {"capacity": 2, "errata": 2}.get(args.command)',
        ("tests/test_cli.py::test_grid_limits_exit_2_with_every_problem",),
    ),
    (
        "channels._kraus_stack without its channel-family check",
        PACKAGE + "channels.py",
        "    if family not in CHANNEL_FAMILIES:\n"
        '        raise ValueError(f"unknown channel family {family!r}")\n'
        "    with np.errstate",
        "    with np.errstate",
        ("tests/test_sweep.py::test_grid_and_witness_routes_refuse_an_unknown_family[ad]",),
    ),
    (
        "sweep.SweepConfig.validate without its integer check of param_points",
        PACKAGE + "sweep.py",
        "points = index(self.param_points)",
        "points = self.param_points",
        ("tests/test_input_checks.py"
         "::test_input_check_names_the_problem[param-points-not-integer]",),
    ),
    (
        "bounds.BoundReport's ordering check without BOUND_ORDER_ATOL",
        PACKAGE + "bounds.py",
        "if lo > hi + BOUND_ORDER_ATOL:",
        "if lo > hi:",
        ("tests/test_bounds.py::test_adabi_saturates_under_bpf",),
    ),
    (
        "sweep.errata_report passes the closed-form discord S(A) in place of S(AB)",
        PACKAGE + "sweep.py",
        "discord_xstate_closed(state, s_ab)",
        "discord_xstate_closed(state, s_a)",
        ("tests/test_sweep.py::test_errata_discord_is_the_dense_discord_on_b",),
    ),
    (
        "sweep.errata_report counts the scored points as skipped",
        PACKAGE + "sweep.py",
        "{len(points) - len(scored)}",
        "{len(scored)}",
        ("tests/test_cli.py::test_errata_stdout_sha256_is_pinned[AD]",),
    ),
]


def run_tests(tree: pathlib.Path, ids) -> tuple[int, str]:
    """pytest on ``ids`` in ``tree``, stopping at the first failure: (exit code, first failure)."""
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "--tb=no", "-rf", *ids],
        cwd=tree, env={**os.environ, "PYTHONPATH": "src"}, capture_output=True, text=True,
    )
    failed = [line.split()[1] for line in result.stdout.splitlines() if line.startswith("FAILED ")]
    return result.returncode, failed[0] if failed else result.stdout[-500:]


def copy_tree(tree: pathlib.Path) -> None:
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, tree / part, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "pyproject.toml", tree / "pyproject.toml")


def run_unmutated(tree: pathlib.Path, ids) -> tuple[int, str]:
    copy_tree(tree)
    return run_tests(tree, ids)


def try_mutant(tree: pathlib.Path, mutant) -> tuple[bool, str]:
    """Apply one mutant to its own copy of the tree and run its test ids: (killed, report)."""
    name, rel, old, new, ids = mutant
    copy_tree(tree)
    path = tree / rel
    original = path.read_text(encoding="utf-8")
    if original.count(old) != 1:
        return False, f"STALE     {name}: old text matches {original.count(old)} times in {rel}"
    path.write_text(original.replace(old, new), encoding="utf-8")
    code, detail = run_tests(tree, ids)
    if code == 1:
        return True, f"killed    {name}\n          by {detail}"
    verdict = "SURVIVED" if code == 0 else f"ERROR {code}"
    return False, f"{verdict:<9} {name}: {' '.join(ids)}\n          {detail}"


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="eur-mutants-") as tmp:
        trees = [pathlib.Path(tmp) / str(i) for i in range(len(MUTANTS) + 1)]
        every_id = sorted({i for *_, ids in MUTANTS for i in ids})
        # two at a time: the unmutated run, then the mutants, each in its own copy
        with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
            clean = pool.submit(run_unmutated, trees[0], every_id)
            results = list(pool.map(try_mutant, trees[1:], MUTANTS))
        code, detail = clean.result()
    if code != 0:
        print(f"unmutated tests fail (exit {code}): {detail}")
        return 1
    for _, report in results:
        print(report)
    killed = sum(k for k, _ in results)
    print(f"{killed} of {len(MUTANTS)} mutants killed")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())

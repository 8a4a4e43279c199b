"""Registry of named faults (mutants) of ``nshard``, each with the tests that must catch it.

A check is evidence only if some fault makes it fail.  Each ``Mutant`` names the ``src`` object it replaces,
as ``unittest.mock.patch`` names it, and how the replacement is made from the original: a constant, a wrapper,
or, for a one-line mutant, the function recompiled from its source with one snippet replaced (``edit``); no
file is rewritten.  As an edit of the source would, the patch replaces the object in every module of the
repository that binds it under its name (``from ... import`` copies included), or on its class for a method;
a ``site`` mutant replaces only the one name, a fault at one call site.  Its status says what the suite
makes of it:

* ``killed``: every test in ``kills`` fails under the patch.  ``test_kill_matrix.py`` runs each list in
  process, in tier-1.
* ``equivalent``: no input tells the mutant apart from the program; ``reason`` says why.
* ``survivor``: the whole suite passes under it; ``reason`` says what decides whether a test or a deletion
  resolves it.

``sweep_mutants.py`` runs every mutant against the whole suite and prints the tests that kill it, so that the
lists here can be checked.  References: DeMillo, Lipton and Sayward, "Hints on test data selection", IEEE
Computer 11(4), 1978; Jia and Harman, "An analysis and survey of the development of mutation testing",
IEEE TSE 37(5), 2011.
"""

from __future__ import annotations

import __future__
import contextlib
import inspect
import pkgutil
import sys
import textwrap
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Sequence, Tuple
from unittest import mock

import pytest

from nshard import hard1d

REPO = Path(__file__).resolve().parents[1]
STATUSES = ("killed", "equivalent", "survivor")


@dataclass(frozen=True)
class Mutant:
    name: str
    target: str  # the src object that the patch replaces
    make: Callable  # the original object -> its replacement
    status: str
    reason: str
    kills: Tuple[str, ...] = ()  # node ids, from the repository root, that fail under the patch
    site: bool = False  # replace the target name only, not every binding of the object

    def bindings(self) -> list:
        """(owner, name) of each binding that the patch replaces."""
        owner, name = self.target.rsplit(".", 1)
        parent, original = pkgutil.resolve_name(owner), pkgutil.resolve_name(self.target)
        if self.site or inspect.isclass(parent):
            return [(parent, name)]
        return [(m, name) for m in list(sys.modules.values())
                if REPO in Path(getattr(m, "__file__", None) or "/").parents and vars(m).get(name) is original]

    def patch(self) -> contextlib.ExitStack:
        """The patch as one context manager; entering it builds the replacement from the current source."""
        replacement = self.make(pkgutil.resolve_name(self.target))
        stack = contextlib.ExitStack()
        for owner, name in self.bindings():
            stack.enter_context(mock.patch.object(owner, name, replacement))
        return stack


def edit(old: str, new: str) -> Callable:
    """A one-line mutant: the function recompiled from its source, with ``old``, which must occur exactly once,
    replaced by ``new``, in its own module's globals and at its own line numbers."""

    def make(fn):
        lines, first = inspect.getsourcelines(fn)
        source = textwrap.dedent("".join(lines))
        if source.count(old) != 1:
            raise ValueError(f"{fn.__qualname__} holds {old!r} {source.count(old)} times, not once")
        code = compile("\n" * (first - 1) + source.replace(old, new), inspect.getsourcefile(fn), "exec",
                       flags=__future__.annotations.compiler_flag, dont_inherit=True)
        scope = {}
        exec(code, fn.__globals__, scope)
        return scope[fn.__name__]

    return make


def constant(value) -> Callable:
    return lambda _: value


def bump_first_equal_slopes(build_r):
    """``build_r`` whose tables have the first slope of their first equal-slope adjacent pair raised by 1e-3.

    Such a pair always exists (a tail continues collinearly into the first wedge branch on one side), and the
    bump inverts the slope order there, so ``r-convexity`` fails."""

    def bumped(bits, sched):
        table = build_r(bits, sched)
        slopes = list(table.slopes)
        j = next((j for j in range(len(slopes) - 1) if slopes[j] == slopes[j + 1]), 0)
        slopes[j] += 1e-3
        return hard1d.PiecewiseAffine1D(list(table.breakpoints), list(table.values), slopes)

    return bumped


EMBED, VERIFY = "nshard.embed", "nshard.verify"
KERNEL, CHAIN = f"{EMBED}.HardInstance._kernel", f"{VERIFY}._Chain"
MARGIN = "-(1e-9 + 1e-15 * d) * (1.0 + w_norm + off + pnb)"
CLI, FUSED = "tests/test_cli.py", "tests/test_fused_oracle.py"
LOCKSTEP, VERIFY_TESTS = "tests/test_lockstep.py", "tests/test_verify.py"

REGISTRY: Sequence[Mutant] = (
    Mutant("table-slope-bump", f"{VERIFY}.build_r", bump_first_equal_slopes, "killed",
           "a slope of each table the suite builds rises by 1e-3: the tables lose convexity, r-convexity fails",
           (f"{VERIFY_TESTS}::test_invariant_suite_passes",), site=True),
    Mutant("chain-chi-square-d-2", f"{CHAIN}.draw", edit("chisquare(self.d - 3, R)", "chisquare(self.d - 2, R)"),
           "killed", "the folded noise has one degree of freedom too many: the chain leaves the full path's law",
           (f"{LOCKSTEP}::test_chain_agrees_with_the_full_path_in_law[random-5-10]",
            f"{LOCKSTEP}::test_chain_agrees_with_the_full_path_in_law[pgd-50-24]")),
    Mutant("chain-random-radius-d-1", f"{CHAIN}.draw", edit("1.0 / self.d)", "1.0 / (self.d - 1))"), "killed",
           "random search's step length is drawn as in d - 1 dimensions",
           (f"{LOCKSTEP}::test_concentration_check_matches_serial_reference[random-12]",)),
    Mutant("stationarity-c-half", f"{EMBED}.STATIONARITY_C", constant(1.0 / 200.0), "killed",
           "the certificate's target drop halves; only output bytes and the saved instance's c see it, no "
           "property test", ("tests/test_embed.py::test_save_load_roundtrip",
                             f"{CLI}::test_run_summary_matches_golden_digest[sgd]")),
    Mutant("flow-never-steps", f"{VERIFY}.FLOW_HALT_NORM", constant(1e9), "killed",
           "the flow stalls at its start; the witnesses still certify every run iterate, so c10 passes",
           (f"{VERIFY_TESTS}::test_flow_radial_decrease",
            f"{VERIFY_TESTS}::test_flow_drop_stops_at_first_point_below")),
    Mutant("no-third-witness", f"{VERIFY}._witnesses",
           edit("_shorten(lead, r / math.sqrt(2.0)) + _shorten(last, r / math.sqrt(2.0)), ", ""), "survivor",
           "item 1 deletes it unless item 18 shows a point that needs it"),
    Mutant("cone-filter-no-margin", KERNEL, edit(MARGIN, "0.0"), "killed",
           "one ulp of each w_i from the anchor toward w, q rounds above 0 while reach rounds below it, so the "
           "filter without its margin skips a cap whose slope is positive",
           (f"{FUSED}::test_cone_filter_keeps_every_row_bit_for_bit[0.25-3]",
            f"{FUSED}::test_stacked_cone_filter_keeps_every_row_bit_for_bit[0.25-3]")),
    Mutant("wilson-z-1.645", f"{VERIFY}.wilson_interval", edit("z = 1.96", "z = 1.645"), "killed",
           "the 95 % interval narrows to 90 %",
           (f"{VERIFY_TESTS}::test_wilson_interval_values", f"{CLI}::test_mc_report_matches_golden_digest[sgd]")),
    Mutant("jump-band-2-se", f"{VERIFY}.mc_hitting",
           edit("freq - 3 * se), min(1.0, freq + 3 * se)", "freq - 2 * se), min(1.0, freq + 2 * se)"), "killed",
           "the jump rows' band narrows to 2 standard errors; only output bytes and the serial reference see it",
           (f"{LOCKSTEP}::test_mc_hitting_matches_serial_reference[sgd-cfg0]",
            f"{CLI}::test_mc_report_matches_golden_digest[sgd]")),
    Mutant("cap-slope-0.2501", f"{EMBED}.cap_slope", edit("z / (4.0 * mu), 0.25)", "z / (4.0 * mu), 0.2501)"),
           "killed", "the row kernel's cap gradient leaves the scalar pass's, which writes 1/4 itself",
           ("tests/test_embed.py::test_cap_slopes", f"{FUSED}::test_cap_offset_is_one_addition[3]")),
    Mutant("cone-filter-0.51", KERNEL, edit("reach = xw + w_norm - 0.5 *", "reach = xw + w_norm - 0.51 *"),
           "killed", "the filter skips rows that the cone reaches",
           (f"{FUSED}::test_stacked_cone_filter_keeps_every_row_bit_for_bit[0.25-3]",
            "tests/test_oracles.py::test_lockstep_on_a_stacked_instance_equals_the_row_loop[pgd-noisy-9]")),
    Mutant("fd-step-1e-3", f"{VERIFY}._fd_gap", edit("h: float = 1e-6", "h: float = 1e-3"), "killed",
           "forward differences step across kinks and the cap's curvature",
           (f"{VERIFY_TESTS}::test_directional_derivative_steps_short_of_a_near_breakpoint",
            "tests/test_streams.py::test_suite_equals_the_one_call_reference[one row-2]")),
    Mutant("kernel-keeps-flat-ramp-terms", KERNEL, edit("Z[slope == 0.0] = 0.0", "pass"), "killed",
           "beside a cone row, a near row with slope 0 subtracts -0.0 and turns a -0.0 leading entry +0.0",
           (f"{FUSED}::test_kernel_keeps_the_signed_zeros_of_flat_rows_beside_a_cone_row[3-0]",
            f"{FUSED}::test_kernel_keeps_the_signed_zeros_of_flat_rows_beside_a_cone_row[5-1]")),
    Mutant("norm-weight-1/31", f"{EMBED}.NORM_WEIGHT", constant(1.0 / 31.0), "killed",
           "h's leading norm weighs 1/31 where the support function, the minimizer set and the bytes expect 1/32",
           ("tests/test_embed.py::test_fd_matches_support_random",
            "tests/test_embed.py::test_minimizer_set_structure")),
    Mutant("progress-one-step-early", f"{VERIFY}.progress_process",
           edit("Z[..., 1:] = np.maximum", "Z[..., :-1] = np.maximum"), "killed",
           "Z_t reads the depth entered by t + 1, and the last Z is 0",
           (f"{VERIFY_TESTS}::test_progress_process_monotone_random",
            f"{VERIFY_TESTS}::test_progress_process_reaches_full_depth_at_minimizer")),
    Mutant("suite-builtin-max", f"{VERIFY}.invariant_suite",
           edit("worst_lip = np.maximum(worst_lip, ", "worst_lip = max(worst_lip, "), "killed",
           "builtin max drops a NaN Lipschitz ratio (max(0.0, nan) is 0.0), so f-lipschitz passes on a NaN row",
           (f"{VERIFY_TESTS}::test_a_nan_row_of_the_kernel_fails_the_embedded_rows",)),
    Mutant("chain-noise-into-a", f"{CHAIN}.propose",
           edit("X[:, 1] = np.hypot(X[:, 1], draw[1])", "X[:, 0] = np.hypot(X[:, 0], draw[1])"), "killed",
           "the chain's orthogonal noise lands on a, the alignment axis, and a loses its sign",
           (f"{LOCKSTEP}::test_chain_agrees_with_the_full_path_in_law[pgd-50-10]",
            f"{VERIFY_TESTS}::test_concentration_check_small")),
)
BY_NAME: Dict[str, Mutant] = {m.name: m for m in REGISTRY}


class _Session:
    """pytest plugin: the mutant's patch from the end of collection, which imports the test modules and so
    binds their names first, to the end of the session; and each test's outcome, "failed" if any phase failed."""

    def __init__(self, mutant):
        self.mutant, self.patched, self.outcomes = mutant, contextlib.ExitStack(), {}

    def pytest_collection_finish(self):
        if self.mutant:
            self.patched.enter_context(self.mutant.patch())

    def pytest_sessionfinish(self):
        self.patched.close()

    def pytest_runtest_logreport(self, report):
        if report.failed:
            self.outcomes[report.nodeid] = "failed"
        elif report.when == "call" or report.skipped:
            self.outcomes.setdefault(report.nodeid, report.outcome)

    def pytest_collectreport(self, report):
        if report.failed:
            self.outcomes[report.nodeid] = "failed"


def run_tests(node_ids: Sequence[str], mutant: Mutant = None, *args: str) -> Dict[str, str]:
    """Run the tests (node ids from the repository root) in this process, under the mutant's patch if one is
    given; returns each test's outcome, "passed", "failed" or "skipped"."""
    session = _Session(mutant)
    pytest.main(["-p", "no:cacheprovider", "-p", "no:terminal", f"--rootdir={REPO}", *args,
                 *(str(REPO / n) for n in node_ids)], plugins=[session])
    return session.outcomes

"""Every metric the benchmark reports, with its unit and direction.

END_TO_END metrics come from untraced passes (``--trace 0``), PER_LAYER
metrics from a traced run (``--trace 1``).  Each per-layer entry names the
end-to-end metric and the workload it should move.  ``rate_grid`` is not
declared in BENCHMARK.json (its run-to-run spread is wider than any bound
allowed there) and is run by hand.  ``kernels.*`` is the module
``freestein._kernels`` (a metric name must start with a letter).
BENCHMARK.json declares the same names, units and directions; the
self-tests hold the two together.
"""

END_TO_END = {
    "setup_s": ("s", "lower"),
    "pass_s": ("s", "lower"),
    "stein_check_s": ("s", "lower"),
    "lattice_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

_RATE = "pass_s on rate_atomic (and on rate_grid, run by hand)"
_ATOMIC = "pass_s on rate_atomic"
_GRID = "pass_s on rate_grid (run by hand), less on rate_atomic"
_STEIN = "stein_check_s on algebra"
_LATTICE = "lattice_s on algebra"
_ALGEBRA = "pass_s on algebra"

# name -> (unit, better, the end-to-end metric and workload it should move)
PER_LAYER = {
    "kernels.nfold_omega.busy_s": ("s", "lower", _RATE),
    "kernels.nfold_omega.calls": ("count", "lower", _ATOMIC),
    "kernels.nfold_omega.points": ("count", "lower", _RATE),
    "kernels.nfold_omega.iters_mean": ("count", "lower", _RATE),
    "kernels.nfold_omega.iters_max": ("count", "lower", _RATE),
    "kernels.nfold_omega.resid_reject_frac": ("ratio", "lower", "fail_frac on rate_atomic (and on rate_grid, run by hand)"),
    "kernels.nfold_omega.point_node_iters": ("count", "lower", _GRID + " (computed, not measured)"),
    "kernels.cauchy_vals.busy_s": ("s", "lower", _GRID),
    "kernels.cauchy_vals.point_nodes": ("count", "lower", _GRID + " (computed, not measured)"),
    "kernels.pair_omega.busy_s": ("s", "lower", _ALGEBRA),
    "kernels.pair_omega.iters_mean": ("count", "lower", _ALGEBRA),
    "kernels.pair_omega.iters_max": ("count", "lower", _ALGEBRA),
    "analytic.stieltjes_density.self_s": ("s", "lower", _ATOMIC),
    "analytic.stieltjes_density.calls": ("count", "lower", _ATOMIC),
    "analytic.stieltjes_density.mass_warnings": ("count", "lower", _ATOMIC),
    "analytic.moments_from_evaluator.self_s": ("s", "lower", _ALGEBRA),
    "metrics.distance_report.busy_s": ("s", "lower", _ATOMIC),
    "metrics.distance_report.calls": ("count", "lower", _ATOMIC),
    "experiment.run_experiment.self_s": ("s", "lower", _ATOMIC + " (CSV read, parse and write)"),
    "experiment.compute_row.busy_s": ("s", "lower", _ATOMIC),
    "experiment.compute_row.calls": ("count", "lower", _ATOMIC),
    "experiment.rows_resumed": ("count", "higher", _ATOMIC),
    "experiment.rows_failed": ("count", "lower", "fail_frac on rate_atomic"),
    "experiment.fit_rate.busy_s": ("s", "lower", _ATOMIC),
    "experiment.discretization_floor.busy_s": ("s", "lower", _ATOMIC),
    "stein.dual_stein_pairing.self_s": ("s", "lower", _STEIN),
    "stein.dual_stein_pairing.calls": ("count", "lower", _STEIN),
    "stein.generator_finite_difference.self_s": ("s", "lower", _STEIN),
    "momentalg.cumulants_to_moments.calls": ("count", "lower", _STEIN),
    "momentalg.cumulants_to_moments.busy_s": ("s", "lower", _STEIN),
    "momentalg.moments_to_cumulants.busy_s": ("s", "lower", _STEIN),
    "momentalg.mixed_moment.self_s": ("s", "lower", _LATTICE),
    "ncpart.enumerate_nc.busy_s": ("s", "lower", _LATTICE),
    "ncpart.kreweras.calls": ("count", "lower", _LATTICE),
    "ncpart.kreweras.busy_s": ("s", "lower", _LATTICE),
    "ncpart.mobius.busy_s": ("s", "lower", _LATTICE),
    "ncsymb.expand_power.busy_s": ("s", "lower", _ALGEBRA),
    "ncsymb.resolvent_lemma_check.busy_s": ("s", "lower", _ALGEBRA),
    "cli.main.self_s": ("s", "lower", "stein_check_s and lattice_s on algebra"),
    "trace.pass_s": ("s", "lower", "pass_s on every workload (traced; the spans' self times sum to it)"),
    "trace.self_sum_s": ("s", "lower", "pass_s on every workload (sum of self times inside the pass)"),
    "trace.overhead_s": ("s", "lower", "none: traced minus untraced pass_s"),
    "fail_frac": ("ratio", "lower", "correctness on every workload: failed / attempted operations"),
}

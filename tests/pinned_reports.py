"""maximize_G reports of the solve battery and the AC5 set, as exact literals.

The seven models are the AC5 battery (test_acceptance.py), which the solve
benchmark also runs.  Keys are (restarts, seed, model index): (8, 0) is the
benchmark's search and (16, 5) the acceptance test's.  The values were
captured from the row-by-row solver that scattered every mean-field step and
Newton iteration back into the full restart array; the compact-batch solver
must reproduce every float bit for bit.

Models 0, 2, 4 and 6 (rho < 1) were captured again when restarts began to
stop at the flat point once inside its contraction ball: their phase and
maximizers are those of the first capture, their iteration counts,
handoffs and margins are the new search's, and model 6's sup_G is now G at
the exact flat point, the last bit below the polished near-flat root it
used to be.

The search diagnostics of models 1 to 5 were captured again when restarts
began to stop in the certified basins of the closed-form nu^i too, and a
two-column restart whose Newton handoff converged to a lower G stopped
trying handoffs; flat_stops became basin_stops, now in every report.
Their phase, sup_G and maximizers are unchanged bit for bit.  The
uniform models 1 to 4 stop restarts at nu^i, so their steps, handoffs and
basin stops moved, and the margins of models 1, 3 and 4 moved by one or
two ulps of G since the best restart now ends on nu^i itself.  Model 5
(gamma = (0.4, 0.6)) has no basin; with one refused handoff not retried
it takes 4 more steps at (8, 0), and it is unchanged at (16, 5).  Models
0 and 6 are unchanged.

The closed-form nu^i of models 1 to 4 were captured again when their
small entries began to take 1 - u as q e^{-gu} / (1 + (q-1) e^{-gu}),
free of cancellation: each small entry moved by one or two ulps, sup_G of
models 1 to 3 by one ulp and the margins of models 1, 2 and 4 by one or
two ulps of G.  Every search diagnostic is unchanged.

The entries of models 0, 2, 4 and 5 were captured again when the Newton
polish moved to the log ratios t = log(mu_plus / mu_minus), with an
undamped step, no box and a stop within NEWTON_ULPS of max|t|.  Handoffs
now succeed where the box refused them, also at the flat root (t = 0), so
the steps, handoffs and basin stops of the uniform models 0, 2 and 4
moved, and at (16, 5) model 0's margin by one ulp of G; their phase,
sup_G and maximizers are unchanged bit for bit.  Model 5's polished roots
moved by at most 5.6e-15 (residual_max 3.4e-14 -> 4.7e-15 at (8, 0)), its
sup_G and diagnostics not at all.  Models 1, 3 and 6 are unchanged.

Seven entries were captured again when the closed-form nu^i began to be
built as the r = 1 log-ratio point at t = g u, and the Newton polish began
at the field difference of each endpoint instead of the log of its
entries.  The large entry of model 4's nu^i and the small entries of
model 2's moved in their last bits, and with them model 2's sup_G by one
ulp; the margins of models 0, 2 and 4 at (8, 0) and of models 2 and 4 at
(16, 5) moved by one or two ulps of G.  Model 5's polished roots moved by
at most 1e-15 (residual_max 4.7e-15 -> 4.4e-16 at (8, 0)).  Every search
diagnostic and every phase is unchanged, and models 1, 3 and 6 are
unchanged bit for bit.
"""

REPORTS = {
    (8, 0, 0): dict(
        phase='SUBCRITICAL', sup_G=2.2084261358947215,
        certificate_margin=-4.440892098500626e-16,
        restarts=24, ascent_iterations=264, max_ascent_iterations=18,
        restarts_converged=24, newton_handoffs=7, basin_stops=17,
        newton_failures=0,
        maximizers=[
            [
                [0.16666666666666666, 0.16666666666666666, 0.16666666666666666],
                [0.16666666666666666, 0.16666666666666666, 0.16666666666666666],
            ],
        ]),
    (8, 0, 1): dict(
        phase='SUPERCRITICAL', sup_G=2.322293955926971,
        certificate_margin=-4.440892098500626e-16,
        restarts=24, ascent_iterations=402, max_ascent_iterations=83,
        restarts_converged=24, newton_handoffs=8, basin_stops=16,
        newton_failures=0,
        maximizers=[
            [
                [0.40545842221189593, 0.04727078889405207, 0.04727078889405207],
                [0.40545842221189593, 0.04727078889405207, 0.04727078889405207],
            ],
            [
                [0.04727078889405207, 0.40545842221189593, 0.04727078889405207],
                [0.04727078889405207, 0.40545842221189593, 0.04727078889405207],
            ],
            [
                [0.04727078889405207, 0.04727078889405207, 0.40545842221189593],
                [0.04727078889405207, 0.04727078889405207, 0.40545842221189593],
            ],
        ]),
    (8, 0, 2): dict(
        phase='CRITICAL', sup_G=2.253857589601352,
        certificate_margin=-4.440892098500626e-16,
        restarts=24, ascent_iterations=688, max_ascent_iterations=81,
        restarts_converged=24, newton_handoffs=14, basin_stops=10,
        newton_failures=0,
        maximizers=[
            [
                [0.16666666666666666, 0.16666666666666666, 0.16666666666666666],
                [0.16666666666666666, 0.16666666666666666, 0.16666666666666666],
            ],
            [
                [0.33333333333333365, 0.0833333333333332, 0.0833333333333332],
                [0.33333333333333365, 0.0833333333333332, 0.0833333333333332],
            ],
            [
                [0.0833333333333332, 0.33333333333333365, 0.0833333333333332],
                [0.0833333333333332, 0.33333333333333365, 0.0833333333333332],
            ],
            [
                [0.0833333333333332, 0.0833333333333332, 0.33333333333333365],
                [0.0833333333333332, 0.0833333333333332, 0.33333333333333365],
            ],
        ]),
    (8, 0, 3): dict(
        phase='SUPERCRITICAL', sup_G=2.7627095210818293,
        certificate_margin=0.0,
        restarts=24, ascent_iterations=318, max_ascent_iterations=28,
        restarts_converged=24, newton_handoffs=8, basin_stops=16,
        newton_failures=0,
        maximizers=[
            [
                [0.28054635964274294, 0.026393486845295192, 0.026393486845295192],
                [0.28054635964274294, 0.026393486845295192, 0.026393486845295192],
                [0.28054635964274294, 0.026393486845295192, 0.026393486845295192],
            ],
            [
                [0.026393486845295192, 0.28054635964274294, 0.026393486845295192],
                [0.026393486845295192, 0.28054635964274294, 0.026393486845295192],
                [0.026393486845295192, 0.28054635964274294, 0.026393486845295192],
            ],
            [
                [0.026393486845295192, 0.026393486845295192, 0.28054635964274294],
                [0.026393486845295192, 0.026393486845295192, 0.28054635964274294],
                [0.026393486845295192, 0.026393486845295192, 0.28054635964274294],
            ],
        ]),
    (8, 0, 4): dict(
        phase='SUPERCRITICAL', sup_G=2.556850210385142,
        certificate_margin=0.0,
        restarts=32, ascent_iterations=470, max_ascent_iterations=42,
        restarts_converged=32, newton_handoffs=7, basin_stops=25,
        newton_failures=0,
        maximizers=[
            [
                [0.41875930267823286, 0.027080232440589054,
                 0.027080232440589054, 0.027080232440589054],
                [0.41875930267823286, 0.027080232440589054,
                 0.027080232440589054, 0.027080232440589054],
            ],
            [
                [0.027080232440589054, 0.41875930267823286,
                 0.027080232440589054, 0.027080232440589054],
                [0.027080232440589054, 0.41875930267823286,
                 0.027080232440589054, 0.027080232440589054],
            ],
            [
                [0.027080232440589054, 0.027080232440589054,
                 0.41875930267823286, 0.027080232440589054],
                [0.027080232440589054, 0.027080232440589054,
                 0.41875930267823286, 0.027080232440589054],
            ],
            [
                [0.027080232440589054, 0.027080232440589054,
                 0.027080232440589054, 0.41875930267823286],
                [0.027080232440589054, 0.027080232440589054,
                 0.027080232440589054, 0.41875930267823286],
            ],
        ]),
    (8, 0, 5): dict(
        phase='SUPERCRITICAL', sup_G=2.387365056240365,
        certificate_margin=0.0,
        restarts=24, ascent_iterations=745, max_ascent_iterations=68,
        restarts_converged=24, newton_handoffs=15, basin_stops=0,
        newton_failures=0,
        maximizers=[
            [
                [0.340204197376295, 0.02989790131185253, 0.02989790131185253],
                [0.5307034849723622, 0.034648257513818885, 0.034648257513818885],
            ],
            [
                [0.02989790131185253, 0.340204197376295, 0.02989790131185253],
                [0.034648257513818885, 0.5307034849723622, 0.034648257513818885],
            ],
            [
                [0.02989790131185253, 0.02989790131185253, 0.340204197376295],
                [0.034648257513818885, 0.034648257513818885, 0.5307034849723622],
            ],
        ]),
    (8, 0, 6): dict(
        phase='SUBCRITICAL', sup_G=1.8411432573896696,
        certificate_margin=0.0,
        restarts=24, ascent_iterations=24, max_ascent_iterations=1,
        restarts_converged=24, newton_handoffs=0, basin_stops=24,
        newton_failures=0,
        maximizers=[
            [
                [0.09999999999999999, 0.09999999999999999, 0.09999999999999999],
                [0.2333333333333333, 0.2333333333333333, 0.2333333333333333],
            ],
        ]),
    (16, 5, 0): dict(
        phase='SUBCRITICAL', sup_G=2.2084261358947215,
        certificate_margin=-4.440892098500626e-16,
        restarts=48, ascent_iterations=568, max_ascent_iterations=23,
        restarts_converged=48, newton_handoffs=14, basin_stops=34,
        newton_failures=0,
        maximizers=[
            [
                [0.16666666666666666, 0.16666666666666666, 0.16666666666666666],
                [0.16666666666666666, 0.16666666666666666, 0.16666666666666666],
            ],
        ]),
    (16, 5, 1): dict(
        phase='SUPERCRITICAL', sup_G=2.322293955926971,
        certificate_margin=-4.440892098500626e-16,
        restarts=48, ascent_iterations=837, max_ascent_iterations=145,
        restarts_converged=48, newton_handoffs=16, basin_stops=32,
        newton_failures=0,
        maximizers=[
            [
                [0.40545842221189593, 0.04727078889405207, 0.04727078889405207],
                [0.40545842221189593, 0.04727078889405207, 0.04727078889405207],
            ],
            [
                [0.04727078889405207, 0.40545842221189593, 0.04727078889405207],
                [0.04727078889405207, 0.40545842221189593, 0.04727078889405207],
            ],
            [
                [0.04727078889405207, 0.04727078889405207, 0.40545842221189593],
                [0.04727078889405207, 0.04727078889405207, 0.40545842221189593],
            ],
        ]),
    (16, 5, 2): dict(
        phase='CRITICAL', sup_G=2.253857589601352,
        certificate_margin=0.0,
        restarts=48, ascent_iterations=1282, max_ascent_iterations=87,
        restarts_converged=48, newton_handoffs=27, basin_stops=21,
        newton_failures=0,
        maximizers=[
            [
                [0.16666666666666666, 0.16666666666666666, 0.16666666666666666],
                [0.16666666666666666, 0.16666666666666666, 0.16666666666666666],
            ],
            [
                [0.33333333333333365, 0.0833333333333332, 0.0833333333333332],
                [0.33333333333333365, 0.0833333333333332, 0.0833333333333332],
            ],
            [
                [0.0833333333333332, 0.33333333333333365, 0.0833333333333332],
                [0.0833333333333332, 0.33333333333333365, 0.0833333333333332],
            ],
            [
                [0.0833333333333332, 0.0833333333333332, 0.33333333333333365],
                [0.0833333333333332, 0.0833333333333332, 0.33333333333333365],
            ],
        ]),
    (16, 5, 3): dict(
        phase='SUPERCRITICAL', sup_G=2.7627095210818293,
        certificate_margin=0.0,
        restarts=48, ascent_iterations=603, max_ascent_iterations=38,
        restarts_converged=48, newton_handoffs=16, basin_stops=32,
        newton_failures=0,
        maximizers=[
            [
                [0.28054635964274294, 0.026393486845295192, 0.026393486845295192],
                [0.28054635964274294, 0.026393486845295192, 0.026393486845295192],
                [0.28054635964274294, 0.026393486845295192, 0.026393486845295192],
            ],
            [
                [0.026393486845295192, 0.28054635964274294, 0.026393486845295192],
                [0.026393486845295192, 0.28054635964274294, 0.026393486845295192],
                [0.026393486845295192, 0.28054635964274294, 0.026393486845295192],
            ],
            [
                [0.026393486845295192, 0.026393486845295192, 0.28054635964274294],
                [0.026393486845295192, 0.026393486845295192, 0.28054635964274294],
                [0.026393486845295192, 0.026393486845295192, 0.28054635964274294],
            ],
        ]),
    (16, 5, 4): dict(
        phase='SUPERCRITICAL', sup_G=2.556850210385142,
        certificate_margin=0.0,
        restarts=64, ascent_iterations=984, max_ascent_iterations=46,
        restarts_converged=64, newton_handoffs=16, basin_stops=48,
        newton_failures=0,
        maximizers=[
            [
                [0.41875930267823286, 0.027080232440589054,
                 0.027080232440589054, 0.027080232440589054],
                [0.41875930267823286, 0.027080232440589054,
                 0.027080232440589054, 0.027080232440589054],
            ],
            [
                [0.027080232440589054, 0.41875930267823286,
                 0.027080232440589054, 0.027080232440589054],
                [0.027080232440589054, 0.41875930267823286,
                 0.027080232440589054, 0.027080232440589054],
            ],
            [
                [0.027080232440589054, 0.027080232440589054,
                 0.41875930267823286, 0.027080232440589054],
                [0.027080232440589054, 0.027080232440589054,
                 0.41875930267823286, 0.027080232440589054],
            ],
            [
                [0.027080232440589054, 0.027080232440589054,
                 0.027080232440589054, 0.41875930267823286],
                [0.027080232440589054, 0.027080232440589054,
                 0.027080232440589054, 0.41875930267823286],
            ],
        ]),
    (16, 5, 5): dict(
        phase='SUPERCRITICAL', sup_G=2.387365056240365,
        certificate_margin=0.0,
        restarts=48, ascent_iterations=1316, max_ascent_iterations=69,
        restarts_converged=48, newton_handoffs=32, basin_stops=0,
        newton_failures=0,
        maximizers=[
            [
                [0.3402041973762949, 0.029897901311852534, 0.029897901311852534],
                [0.5307034849723622, 0.0346482575138189, 0.0346482575138189],
            ],
            [
                [0.029897901311852534, 0.3402041973762949, 0.029897901311852534],
                [0.0346482575138189, 0.5307034849723622, 0.0346482575138189],
            ],
            [
                [0.029897901311852534, 0.029897901311852534, 0.3402041973762949],
                [0.0346482575138189, 0.0346482575138189, 0.5307034849723622],
            ],
        ]),
    (16, 5, 6): dict(
        phase='SUBCRITICAL', sup_G=1.8411432573896696,
        certificate_margin=0.0,
        restarts=48, ascent_iterations=48, max_ascent_iterations=1,
        restarts_converged=48, newton_handoffs=0, basin_stops=48,
        newton_failures=0,
        maximizers=[
            [
                [0.09999999999999999, 0.09999999999999999, 0.09999999999999999],
                [0.2333333333333333, 0.2333333333333333, 0.2333333333333333],
            ],
        ]),
}

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
"""

REPORTS = {
    (8, 0, 0): dict(
        phase='SUBCRITICAL', sup_G=2.2084261358947215,
        certificate_margin=0.0,
        restarts=24, ascent_iterations=303, max_ascent_iterations=25,
        restarts_converged=24, newton_handoffs=0, basin_stops=24,
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
        phase='CRITICAL', sup_G=2.2538575896013517,
        certificate_margin=-8.881784197001252e-16,
        restarts=24, ascent_iterations=709, max_ascent_iterations=81,
        restarts_converged=24, newton_handoffs=12, basin_stops=12,
        newton_failures=0,
        maximizers=[
            [
                [0.16666666666666666, 0.16666666666666666, 0.16666666666666666],
                [0.16666666666666666, 0.16666666666666666, 0.16666666666666666],
            ],
            [
                [0.33333333333333365, 0.08333333333333322, 0.08333333333333322],
                [0.33333333333333365, 0.08333333333333322, 0.08333333333333322],
            ],
            [
                [0.08333333333333322, 0.33333333333333365, 0.08333333333333322],
                [0.08333333333333322, 0.33333333333333365, 0.08333333333333322],
            ],
            [
                [0.08333333333333322, 0.08333333333333322, 0.33333333333333365],
                [0.08333333333333322, 0.08333333333333322, 0.33333333333333365],
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
        certificate_margin=8.881784197001252e-16,
        restarts=32, ascent_iterations=514, max_ascent_iterations=42,
        restarts_converged=32, newton_handoffs=1, basin_stops=31,
        newton_failures=0,
        maximizers=[
            [
                [0.4187593026782328, 0.027080232440589054,
                 0.027080232440589054, 0.027080232440589054],
                [0.4187593026782328, 0.027080232440589054,
                 0.027080232440589054, 0.027080232440589054],
            ],
            [
                [0.027080232440589054, 0.4187593026782328,
                 0.027080232440589054, 0.027080232440589054],
                [0.027080232440589054, 0.4187593026782328,
                 0.027080232440589054, 0.027080232440589054],
            ],
            [
                [0.027080232440589054, 0.027080232440589054,
                 0.4187593026782328, 0.027080232440589054],
                [0.027080232440589054, 0.027080232440589054,
                 0.4187593026782328, 0.027080232440589054],
            ],
            [
                [0.027080232440589054, 0.027080232440589054,
                 0.027080232440589054, 0.4187593026782328],
                [0.027080232440589054, 0.027080232440589054,
                 0.027080232440589054, 0.4187593026782328],
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
                [0.3402041973762993, 0.029897901311850356, 0.029897901311850356],
                [0.5307034849723687, 0.03464825751381562, 0.03464825751381562],
            ],
            [
                [0.029897901311850356, 0.3402041973762993, 0.029897901311850356],
                [0.03464825751381562, 0.5307034849723687, 0.03464825751381562],
            ],
            [
                [0.029897901311850356, 0.029897901311850356, 0.3402041973762993],
                [0.03464825751381562, 0.03464825751381562, 0.5307034849723687],
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
        certificate_margin=0.0,
        restarts=48, ascent_iterations=638, max_ascent_iterations=25,
        restarts_converged=48, newton_handoffs=0, basin_stops=48,
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
        phase='CRITICAL', sup_G=2.2538575896013517,
        certificate_margin=-8.881784197001252e-16,
        restarts=48, ascent_iterations=1292, max_ascent_iterations=87,
        restarts_converged=48, newton_handoffs=26, basin_stops=22,
        newton_failures=0,
        maximizers=[
            [
                [0.16666666666666666, 0.16666666666666666, 0.16666666666666666],
                [0.16666666666666666, 0.16666666666666666, 0.16666666666666666],
            ],
            [
                [0.33333333333333365, 0.08333333333333322, 0.08333333333333322],
                [0.33333333333333365, 0.08333333333333322, 0.08333333333333322],
            ],
            [
                [0.08333333333333322, 0.33333333333333365, 0.08333333333333322],
                [0.08333333333333322, 0.33333333333333365, 0.08333333333333322],
            ],
            [
                [0.08333333333333322, 0.08333333333333322, 0.33333333333333365],
                [0.08333333333333322, 0.08333333333333322, 0.33333333333333365],
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
        certificate_margin=8.881784197001252e-16,
        restarts=64, ascent_iterations=1076, max_ascent_iterations=46,
        restarts_converged=64, newton_handoffs=1, basin_stops=63,
        newton_failures=0,
        maximizers=[
            [
                [0.4187593026782328, 0.027080232440589054,
                 0.027080232440589054, 0.027080232440589054],
                [0.4187593026782328, 0.027080232440589054,
                 0.027080232440589054, 0.027080232440589054],
            ],
            [
                [0.027080232440589054, 0.4187593026782328,
                 0.027080232440589054, 0.027080232440589054],
                [0.027080232440589054, 0.4187593026782328,
                 0.027080232440589054, 0.027080232440589054],
            ],
            [
                [0.027080232440589054, 0.027080232440589054,
                 0.4187593026782328, 0.027080232440589054],
                [0.027080232440589054, 0.027080232440589054,
                 0.4187593026782328, 0.027080232440589054],
            ],
            [
                [0.027080232440589054, 0.027080232440589054,
                 0.027080232440589054, 0.4187593026782328],
                [0.027080232440589054, 0.027080232440589054,
                 0.027080232440589054, 0.4187593026782328],
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
                [0.34020419737629537, 0.029897901311852326, 0.029897901311852326],
                [0.5307034849723629, 0.03464825751381856, 0.03464825751381856],
            ],
            [
                [0.029897901311852326, 0.34020419737629537, 0.029897901311852326],
                [0.03464825751381856, 0.5307034849723629, 0.03464825751381856],
            ],
            [
                [0.029897901311852326, 0.029897901311852326, 0.34020419737629537],
                [0.03464825751381856, 0.03464825751381856, 0.5307034849723629],
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

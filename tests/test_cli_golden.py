"""Golden outputs of the seed-independent CLI paths, byte for byte.

Analytic-only sweeps over each axis (order 3, lp3 and gauss_approx) and a
literal-moment fit. Any change to a printed number fails here; when such a
change is intended, regenerate the text with the same commands and say why
in the change log. Monte-Carlo rows are left out (their BLAS summation
order depends on the machine), and so are shot/thermal rows (seconds each).
"""

import pytest

from cubicber.cli import EXIT_OK, main

SWEEP = "orders = 3\nvariants = lp3, gauss_approx\n"
HEAD = ("# schema=1\n"
        "x_value,x_kind,prd,rl_ohm,variant,th_opt,ber,order,error\n")

GOLDEN_SWEEPS = {
    "prd = 10\nsweep_p_r_dbm = 31:35:2\n": HEAD + """\
31,p_r_dbm,10,1000,gauss_approx,6.9050882983263481e-06,0.13867467719823717,3,
31,p_r_dbm,10,1000,lp3,4.2035956667598131e-06,0.10061530286581787,3,
33,p_r_dbm,10,1000,gauss_approx,7.7184927598166316e-06,0.099760614804087586,3,
33,p_r_dbm,10,1000,lp3,7.2318075183344869e-06,0.028907664060914703,3,
35,p_r_dbm,10,1000,gauss_approx,8.5347106878251974e-06,0.067367398873448864,3,
35,p_r_dbm,10,1000,lp3,1.4826253222923644e-05,0.0034167528080100915,3,
""",
    "p_r = 33dBm\nsweep_sigma0_sq_dbm = 16:20:2\n": HEAD + """\
16,sigma0_sq_dbm,10,1000,gauss_approx,1.5734699058099706e-06,0.060319754569153866,3,
16,sigma0_sq_dbm,10,1000,lp3,3.2574851163831587e-06,0.001702068952902434,3,
18,sigma0_sq_dbm,10,1000,gauss_approx,5.6766468186740055e-06,0.091483367612527136,3,
18,sigma0_sq_dbm,10,1000,lp3,6.0670567172590687e-06,0.019055148287627451,3,
20,sigma0_sq_dbm,10,1000,gauss_approx,2.02769057075252e-05,0.12852690068665087,3,
20,sigma0_sq_dbm,10,1000,lp3,1.3462931446718769e-05,0.079207827211858206,3,
""",
    "p_r = 33dBm\nsweep_prd = 10, 25\n": HEAD + """\
10,prd,10,1000,gauss_approx,7.7184927598166316e-06,0.099760614804087586,3,
10,prd,10,1000,lp3,7.2318075183344869e-06,0.028907664060914703,3,
25,prd,25,1000,gauss_approx,5.2694443174433324e-06,0.1049888723892401,3,
25,prd,25,1000,lp3,4.6823072067785691e-06,0.047384219311965195,3,
""",
}

GOLDEN_FIT = """\
alpha = 1.4520074984208453
beta  = -0.60624383525675773
gamma = 1.3812512568514799
mu1: input 2  readback 1.9999999999999998
mu2: input 5  readback 4.9999999999999982
mu3: input 14  readback 14.000000000000004
fit_result alpha=1.4520074984208453 beta=-0.60624383525675773 \
gamma=1.3812512568514799
"""


@pytest.mark.parametrize("axis", sorted(GOLDEN_SWEEPS))
def test_analytic_sweep_bytes(tmp_path, capsys, axis):
    cfg = tmp_path / "golden.cfg"
    cfg.write_text(axis + SWEEP, encoding="utf-8")
    assert main(["ber-sweep", "--config", str(cfg),
                 "--analytic-only"]) == EXIT_OK
    got = capsys.readouterr()
    assert got.err == ""
    assert got.out == GOLDEN_SWEEPS[axis]


def test_fit_from_moments_bytes(capsys):
    assert main(["fit", "--moments", "2.0", "5.0", "14.0"]) == EXIT_OK
    got = capsys.readouterr()
    assert got.err == ""
    assert got.out == GOLDEN_FIT

"""Golden outputs of the seed-independent CLI paths, byte for byte.

Analytic-only sweeps over each axis (order 3, lp3 and gauss_approx), one
analytic-only lp3_shot_thermal sweep (two powers, about a second), an
analytic-only sweep at g_amp = 1 (no ASE noise, so every row fails with
"moments must be positive"), a literal-moment fit, and `fit --samples` and
`gof --samples` (with their --out files) at orders 1 and 3 on a sample CSV
written here from closed-form values: 10k quantiles exp(a + b z + c z^2) of
a standard normal z per group, computed in pure Python. Any change to a
printed number fails here; when such a change is intended, regenerate the
text with the same commands and say why in the change log. Monte-Carlo
rows are left out: their BLAS summation order depends on the machine. The
th_opt column is the root where the two bit densities cross, bisected to
adjacent floats: a few-ulp change of p_r moves it by about 1e-14 relative.
"""

import math
import statistics

import pytest

from cubicber.cli import EXIT_OK, main

SWEEP = "orders = 3\nvariants = lp3, gauss_approx\n"
HEAD = ("# schema=1\n"
        "x_value,x_kind,prd,rl_ohm,variant,th_opt,ber,order,error\n")

GOLDEN_SWEEPS = {
    "prd = 10\nsweep_p_r_dbm = 31:35:2\n": HEAD + """\
31,p_r_dbm,10,1000,gauss_approx,6.9050882983263481e-06,0.13867467719823717,3,
31,p_r_dbm,10,1000,lp3,4.2035957610406339e-06,0.10061530286581979,3,
33,p_r_dbm,10,1000,gauss_approx,7.7184927598166316e-06,0.099760614804087586,3,
33,p_r_dbm,10,1000,lp3,7.231807362619238e-06,0.028907664060914974,3,
35,p_r_dbm,10,1000,gauss_approx,8.5347106878251974e-06,0.067367398873448864,3,
35,p_r_dbm,10,1000,lp3,1.4826253536699885e-05,0.0034167528080101366,3,
""",
    "p_r = 33dBm\nsweep_sigma0_sq_dbm = 16:20:2\n": HEAD + """\
16,sigma0_sq_dbm,10,1000,gauss_approx,1.5734699058099706e-06,0.060319754569153866,3,
16,sigma0_sq_dbm,10,1000,lp3,3.2574850840126338e-06,0.0017020689529024594,3,
18,sigma0_sq_dbm,10,1000,gauss_approx,5.6766468186740055e-06,0.091483367612527136,3,
18,sigma0_sq_dbm,10,1000,lp3,6.067056843525596e-06,0.019055148287627662,3,
20,sigma0_sq_dbm,10,1000,gauss_approx,2.02769057075252e-05,0.12852690068665087,3,
20,sigma0_sq_dbm,10,1000,lp3,1.3462931703600831e-05,0.079207827211859066,3,
""",
    "p_r = 33dBm\nsweep_prd = 10, 25\n": HEAD + """\
10,prd,10,1000,gauss_approx,7.7184927598166316e-06,0.099760614804087586,3,
10,prd,10,1000,lp3,7.231807362619238e-06,0.028907664060914974,3,
25,prd,25,1000,gauss_approx,5.2694443174433324e-06,0.1049888723892401,3,
25,prd,25,1000,lp3,4.6823070204755257e-06,0.047384219311965792,3,
""",
}

SHOT_THERMAL = ("prd = 10\nsweep_p_r_dbm = 35:37:2\norders = 3\n"
                "variants = lp3_shot_thermal\n")
GOLDEN_SHOT_THERMAL = HEAD + """\
35,p_r_dbm,10,1000,lp3_shot_thermal,1.7296245502701063e-05,0.0049524610997932145,3,
37,p_r_dbm,10,1000,lp3_shot_thermal,3.6976885637601802e-05,0.00012260574258177192,3,
"""

GAMP1 = "prd = 10\ng_amp = 1\nsweep_p_r_dbm = 33:35:2\n"
GOLDEN_GAMP1 = HEAD + "".join(
    f"{x},p_r_dbm,10,1000,{v},nan,nan,3,moments must be positive\n"
    for x in (33, 35) for v in ("gauss_approx", "lp3", "lp3_shot_thermal"))

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


def test_shot_thermal_sweep_bytes(tmp_path, capsys):
    cfg = tmp_path / "golden.cfg"
    cfg.write_text(SHOT_THERMAL, encoding="utf-8")
    assert main(["ber-sweep", "--config", str(cfg),
                 "--analytic-only"]) == EXIT_OK
    got = capsys.readouterr()
    assert got.err == ""
    assert got.out == GOLDEN_SHOT_THERMAL


def test_fit_from_moments_bytes(capsys):
    assert main(["fit", "--moments", "2.0", "5.0", "14.0"]) == EXIT_OK
    got = capsys.readouterr()
    assert got.err == ""
    assert got.out == GOLDEN_FIT


def test_g_amp_one_sweep_bytes(tmp_path, capsys):
    cfg = tmp_path / "golden.cfg"
    cfg.write_text(GAMP1, encoding="utf-8")
    assert main(["ber-sweep", "--config", str(cfg),
                 "--analytic-only"]) == EXIT_OK
    got = capsys.readouterr()
    assert got.err == ""
    assert got.out == GOLDEN_GAMP1


# (a, b, c) of the order-1 and the order-3 group, all bit 1
SAMPLE_GROUPS = {1: (-4.0, 0.3, 0.04), 3: (-11.5, 0.6, -0.05)}


@pytest.fixture(scope="module")
def closed_form_csv(tmp_path_factory):
    n = 10_000
    normal = statistics.NormalDist()
    zs = [normal.inv_cdf((i + 0.5) / n) for i in range(n)]
    path = tmp_path_factory.mktemp("golden") / "samples.csv"
    with open(path, "w") as fh:
        fh.write("trial,order,bit,value\n")
        for order, (a, b, c) in SAMPLE_GROUPS.items():
            for i, z in enumerate(zs):
                value = math.exp(a + b * z + c * z * z)
                fh.write(f"{i},{order},1,{value!r}\n")
    return str(path)


GOLDEN_SAMPLE_FIT = {
    1: ("""\
alpha = 8.2181302561083349
beta  = 0.10742687184808847
gamma = -4.8433942042458593
mu1: input 0.020051932766363047  readback 0.020051932766363037
mu2: input 0.00045330571370693755  readback 0.00045330571370693718
mu3: input 1.1969492457456995e-05  readback 1.196949245745699e-05
ks = 0.0084857437785616253
fit_result alpha=8.2181302561083349 beta=0.10742687184808847 \
gamma=-4.8433942042458593
""", """\
# schema=1
alpha,beta,gamma
8.2181302561083349,0.10742687184808847,-4.8433942042458593
"""),
    3: ("""\
alpha = 14.326032778925352
beta  = -0.16055599352930872
gamma = -9.2508900828591099
mu1: input 1.1375770809235949e-05  readback 1.1375770809235954e-05
mu2: input 1.7068439618022141e-10  readback 1.7068439618022146e-10
mu3: input 3.1694618157267003e-15  readback 3.1694618157266901e-15
ks = 0.0015620735776318839
fit_result alpha=14.326032778925352 beta=-0.16055599352930872 \
gamma=-9.2508900828591099
""", """\
# schema=1
alpha,beta,gamma
14.326032778925352,-0.16055599352930872,-9.2508900828591099
"""),
}

GOF_HEAD = ("distribution                 ks r            ad r          "
            "chi2 r\n")
GOF_CSV_HEAD = "# schema=1\ndistribution,ks,ks_rank,ad,ad_rank,chi2,chi2_rank\n"

# order: (extra flags, stdout, --out file)
GOLDEN_SAMPLE_GOF = {
    1: (["--bins", "50"], "n = 10000  bins = 50\n" + GOF_HEAD + """\
log_pearson3         0.00848574 1       2.23171 1         38.72 1
normal                 0.115083 5           nan 5        3221.6 5
lognormal             0.0655404 2        104.08 2        961.86 2
gamma                 0.0849108 4       177.018 4       1611.37 4
inverse_gaussian      0.0668066 3       108.701 3         973.5 3
""", GOF_CSV_HEAD + """\
log_pearson3,0.0084857437785616253,1,2.2317128736376617,1,38.719999999999999,1
normal,0.11508304936995417,5,nan,5,3221.5999999999999,5
lognormal,0.065540419075542602,2,104.08010425851717,2,961.86000000000001,2
gamma,0.084910805783382171,4,177.01776816700476,4,1611.3699999999999,4
inverse_gaussian,0.066806608446466034,3,108.70131483193109,3,973.5,3
"""),
    3: ([], "n = 10000  bins = 200\n" + GOF_HEAD + """\
log_pearson3         0.00156207 1     0.0867915 1           2.2 1
normal                0.0786544 5       155.499 5        2016.2 5
lognormal             0.0435265 4       72.1207 3          1095 3
gamma                0.00498278 2      0.684604 2          13.8 2
inverse_gaussian      0.0430293 3       76.5912 4       1502.08 4
""", GOF_CSV_HEAD + """\
log_pearson3,0.0015620735776318839,1,0.086791482621265459,1,2.2000000000000002,1
normal,0.07865442741573786,5,155.49908684801449,5,2016.2,5
lognormal,0.04352652328302703,4,72.120671732373012,3,1095,3
gamma,0.0049827779119556714,2,0.68460420092014829,2,13.800000000000001,2
inverse_gaussian,0.043029276432082694,3,76.591216869515847,4,1502.0799999999999,4
"""),
}


@pytest.mark.parametrize("order", sorted(GOLDEN_SAMPLE_FIT))
def test_fit_from_samples_bytes(closed_form_csv, tmp_path, capsys, order):
    out = tmp_path / "fit.csv"
    assert main(["fit", "--samples", closed_form_csv, "--order", str(order),
                 "--out", str(out)]) == EXIT_OK
    got = capsys.readouterr()
    assert got.err == ""
    assert (got.out, out.read_text()) == GOLDEN_SAMPLE_FIT[order]


@pytest.mark.parametrize("order", sorted(GOLDEN_SAMPLE_GOF))
def test_gof_from_samples_bytes(closed_form_csv, tmp_path, capsys, order):
    extra, stdout, csv_text = GOLDEN_SAMPLE_GOF[order]
    out = tmp_path / "gof.csv"
    assert main(["gof", "--samples", closed_form_csv, "--order", str(order),
                 *extra, "--out", str(out)]) == EXIT_OK
    got = capsys.readouterr()
    assert got.err == ""
    assert got.out == stdout
    assert out.read_text() == csv_text

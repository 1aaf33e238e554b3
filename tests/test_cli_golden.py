"""Golden outputs of the seed-independent CLI paths, byte for byte.

Analytic-only sweeps over each axis (order 3, lp3 and gauss_approx), one
analytic-only lp3_shot_thermal sweep (two powers, about a second), an
analytic-only sweep at g_amp = 1 (no ASE noise, so every row fails: the
LP3 rows with "moments must be positive", the Gaussian ones with
"variances must be > 0"), an analytic-only sweep over orders 1-3 with
the default variants (no mc row; orders 1 and 2 fail for want of samples,
order 2's lp3_shot_thermal row for want of a detector scale), a PRD sweep
whose first point fails to build its system, a literal-moment fit, and
`fit --samples` and `gof --samples` (with their --out files) at orders 1
and 3 on a sample CSV written here from closed-form values: 10k quantiles
exp(a + b z + c z^2) of a standard normal z per group, computed in pure
Python. Any change to a printed number fails here; when such a change is
intended, regenerate the text with the same commands and say why in the
change log. Monte-Carlo rows are left out: their BLAS summation order
depends on the machine. The th_opt column is the root where the two bit
densities cross, bisected to adjacent floats: a few-ulp change of p_r
moves it by about 1e-14 relative.
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
31,p_r_dbm,10,1000,lp3,4.2035957610406339e-06,0.10061530286581981,3,
33,p_r_dbm,10,1000,gauss_approx,7.7184927598166333e-06,0.099760614804087544,3,
33,p_r_dbm,10,1000,lp3,7.231807362619238e-06,0.028907664060914957,3,
35,p_r_dbm,10,1000,gauss_approx,8.5347106878251991e-06,0.067367398873448836,3,
35,p_r_dbm,10,1000,lp3,1.4826253536699885e-05,0.0034167528080101383,3,
""",
    "p_r = 33dBm\nsweep_sigma0_sq_dbm = 16:20:2\n": HEAD + """\
16,sigma0_sq_dbm,10,1000,gauss_approx,1.5734699058099706e-06,0.060319754569153866,3,
16,sigma0_sq_dbm,10,1000,lp3,3.2574850840126338e-06,0.0017020689529024498,3,
18,sigma0_sq_dbm,10,1000,gauss_approx,5.6766468186740063e-06,0.091483367612527136,3,
18,sigma0_sq_dbm,10,1000,lp3,6.067056843525596e-06,0.019055148287627652,3,
20,sigma0_sq_dbm,10,1000,gauss_approx,2.0276905707525204e-05,0.1285269006866509,3,
20,sigma0_sq_dbm,10,1000,lp3,1.3462931703600831e-05,0.079207827211859053,3,
""",
    "p_r = 33dBm\nsweep_prd = 10, 25\n": HEAD + """\
10,prd,10,1000,gauss_approx,7.7184927598166333e-06,0.099760614804087544,3,
10,prd,10,1000,lp3,7.231807362619238e-06,0.028907664060914957,3,
25,prd,25,1000,gauss_approx,5.2694443174433316e-06,0.10498887238924011,3,
25,prd,25,1000,lp3,4.6823070204755257e-06,0.047384219311965819,3,
""",
}

SHOT_THERMAL = ("prd = 10\nsweep_p_r_dbm = 35:37:2\norders = 3\n"
                "variants = lp3_shot_thermal\n")
GOLDEN_SHOT_THERMAL = HEAD + """\
35,p_r_dbm,10,1000,lp3_shot_thermal,1.7296245502701056e-05,0.0049524610997932622,3,
37,p_r_dbm,10,1000,lp3_shot_thermal,3.6976885637601795e-05,0.00012260574258177864,3,
"""

GAMP1 = "prd = 10\ng_amp = 1\nsweep_p_r_dbm = 33:35:2\n"
GOLDEN_GAMP1 = HEAD + "".join(
    f"{x},p_r_dbm,10,1000,{v},nan,nan,3,{err}\n" for x in (33, 35)
    for v, err in (("gauss_approx", "variances must be > 0"),
                   ("lp3", "moments must be positive"),
                   ("lp3_shot_thermal", "moments must be positive")))

# analytic_only as a config key, default variants
ORDERS = "prd = 10\nsweep_p_r_dbm = 33:33:1\norders = 1, 2, 3\n" \
         "analytic_only = true\n"
NO_SAMPLES = "Monte-Carlo sampling disabled by analytic_only"
GOLDEN_ORDERS = HEAD + f"""\
33,p_r_dbm,10,1000,gauss_approx,nan,nan,1,{NO_SAMPLES}
33,p_r_dbm,10,1000,lp3,nan,nan,1,{NO_SAMPLES}
33,p_r_dbm,10,1000,lp3_shot_thermal,nan,nan,1,{NO_SAMPLES}
33,p_r_dbm,10,1000,gauss_approx,nan,nan,2,{NO_SAMPLES}
33,p_r_dbm,10,1000,lp3,nan,nan,2,{NO_SAMPLES}
33,p_r_dbm,10,1000,lp3_shot_thermal,nan,nan,2,order 2 has no physical \
detector scale for shot/thermal noise
33,p_r_dbm,10,1000,gauss_approx,7.7184927598166333e-06,0.099760614804087544,3,
33,p_r_dbm,10,1000,lp3,7.231807362619238e-06,0.028907664060914957,3,
33,p_r_dbm,10,1000,lp3_shot_thermal,1.1140659940464145e-05,0.04969056825479809,3,
"""

FAILED_PRD = "p_r = 33dBm\nsweep_prd = 0.5, 10\n"
GOLDEN_FAILED_PRD = HEAD + """\
0.5,prd,0.5,1000,gauss_approx,nan,nan,3,prd must be >= 1
0.5,prd,0.5,1000,lp3,nan,nan,3,prd must be >= 1
0.5,prd,0.5,1000,lp3_shot_thermal,nan,nan,3,prd must be >= 1
10,prd,10,1000,gauss_approx,7.7184927598166333e-06,0.099760614804087544,3,
10,prd,10,1000,lp3,7.231807362619238e-06,0.028907664060914957,3,
10,prd,10,1000,lp3_shot_thermal,1.1140659940464145e-05,0.04969056825479809,3,
"""

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


@pytest.mark.parametrize("body,argv,golden", [
    (ORDERS, [], GOLDEN_ORDERS),
    (FAILED_PRD, ["--analytic-only"], GOLDEN_FAILED_PRD),
], ids=["orders", "failed-prd"])
def test_default_variant_sweep_bytes(tmp_path, capsys, body, argv, golden):
    cfg = tmp_path / "golden.cfg"
    cfg.write_text(body, encoding="utf-8")
    assert main(["ber-sweep", "--config", str(cfg), *argv]) == EXIT_OK
    got = capsys.readouterr()
    assert got.err == ""
    assert got.out == golden


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

GOF_CSV_HEAD = "# schema=1\ndistribution,ks,ks_rank,ad,ad_rank,chi2,chi2_rank\n"

# order: (stdout, --out file), at the N // 50 = 200 bins of 10000 samples
GOLDEN_SAMPLE_GOF = {
    1: ("""\
n = 10000  bins = 200
  log_pearson3       ks=0.00848574 r1 ad=2.23171 r1 chi2=57.88 r1
  normal             ks=0.115083 r5 ad=nan r5 chi2=3805.6 r5  \
[ad: cdf reached 0 or 1 at a sample point]
  lognormal          ks=0.0655404 r2 ad=104.08 r2 chi2=999.56 r2
  gamma              ks=0.0849108 r4 ad=177.018 r4 chi2=1728.32 r4
  inverse_gaussian   ks=0.0668066 r3 ad=108.701 r3 chi2=1017.6 r3
""", GOF_CSV_HEAD + """\
log_pearson3,0.0084857437785616253,1,2.2317128736376617,1,57.880000000000003,1
normal,0.11508304936995417,5,nan,5,3805.5999999999999,5
lognormal,0.065540419075542589,2,104.08010425851899,2,999.55999999999995,2
gamma,0.084910805783382171,4,177.01776816700476,4,1728.3199999999999,4
inverse_gaussian,0.066806608446465965,3,108.70131483193109,3,1017.6,3
"""),
    3: ("""\
n = 10000  bins = 200
  log_pearson3       ks=0.00156207 r1 ad=0.0867915 r1 chi2=2.2 r1
  normal             ks=0.0786544 r5 ad=155.499 r5 chi2=2016.2 r5
  lognormal          ks=0.0435265 r4 ad=72.1207 r3 chi2=1095 r3
  gamma              ks=0.00498278 r2 ad=0.684604 r2 chi2=13.8 r2
  inverse_gaussian   ks=0.0430293 r3 ad=76.5912 r4 chi2=1502.08 r4
""", GOF_CSV_HEAD + """\
log_pearson3,0.0015620735776318839,1,0.086791482621265459,1,2.2000000000000002,1
normal,0.07865442741573786,5,155.49908684801449,5,2016.2,5
lognormal,0.043526523283027044,4,72.120671732371193,3,1095,3
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
    stdout, csv_text = GOLDEN_SAMPLE_GOF[order]
    out = tmp_path / "gof.csv"
    assert main(["gof", "--samples", closed_form_csv, "--order", str(order),
                 "--out", str(out)]) == EXIT_OK
    got = capsys.readouterr()
    assert got.err == ""
    assert got.out == stdout
    assert out.read_text() == csv_text

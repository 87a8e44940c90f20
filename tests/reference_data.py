"""Frozen reference values used across the test suite.

Every value here was generated offline by an independent high-precision
oracle: mpmath adaptive quadrature at 50 decimal digits applied directly to
the radius definitions (no closed forms involved), cross-checked against
plain midpoint Riemann sums.  Inputs were the exact binary doubles the
tests pass, so each constant is the correctly rounded true result for
those inputs, quoted to 17 significant digits.
"""

# Canonical tube used throughout: r_min=1e-3 m, r_max=2e-3 m, L=0.1 m,
# with viscosity 1e-3 Pa*s and flow rate 1e-9 m^3/s where applicable.
R_MIN = 1e-3
R_MAX = 2e-3
LENGTH = 0.1
VISCOSITY = 1e-3
FLOW = 1e-9

# I = integral of dx / r(x)^4 over [-L/2, L/2], in 1/m^3.
INTEGRAL = {
    "straight": 99999999999.999997,  # R = 1e-3
    "conical": 29166666666.666666,
    "parabolic": 47460359272.836925,
    "hyperbolic": 42729989403.90363,
    "cosh": 49319652082.651895,
    "sinusoidal": 34802911886.525385,
}

# P = (8 Q mu / pi) * I at the canonical operating point, in Pa.
PRESSURE = {
    "straight": 0.25464790894703255,
    "conical": 0.074272306776217827,
    "parabolic": 0.1208568124670283,
    "hyperbolic": 0.10881102451032918,
    "cosh": 0.12559146272842465,
    "sinusoidal": 0.088624887371715134,
}

STRAIGHT_RESISTANCE = 254647908.94703254  # Pa*s/m^3

# The five corrugated canonical tubes chained in series.
FIVE_SERIES_PRESSURE = 0.51815649385371508  # Pa at Q = 1e-9
FIVE_SERIES_RESISTANCE = 518156493.85371505  # Pa*s/m^3

CONICAL_PLUS_SINUSOIDAL_PRESSURE = 0.16289719414793296  # Pa at Q = 1e-9

CONICAL_EQUIVALENT_RADIUS = 0.0013607498666342404  # m

# r(x = 0.025) for the canonical tubes, in m.
RADIUS_AT_QUARTER = {
    "hyperbolic": 0.0013228756555322953,
    "cosh": 0.0012247448713915891,
    "sinusoidal": 0.0015,
}

# Near-degenerate integrals: r_min = 1e-3, r_max = 1e-3 * (1.0 + eps),
# L = 0.1 (the r_max expression must be reproduced verbatim so the float
# inputs match).  These pin the series branches of the closed forms.
NEAR_DEGENERATE_INTEGRAL = {
    1e-4: {
        "conical": 99980003332.833389,
        "parabolic": 99986668666.380981,
        "hyperbolic": 99986668399.782873,
        "cosh": 99986668755.24871,
        "sinusoidal": 99980003749.375082,
    },
    1e-6: {
        "conical": 99999800000.333349,
        "parabolic": 99999866666.866676,
        "hyperbolic": 99999866666.840009,
        "cosh": 99999866666.875565,
        "sinusoidal": 99999800000.375015,
    },
    1e-8: {
        "conical": 99999998000.000039,
        "parabolic": 99999998666.666689,
        "hyperbolic": 99999998666.666687,
        "cosh": 99999998666.66669,
        "sinusoidal": 99999998000.000043,
    },
    1e-10: {
        "conical": 99999999979.99998,
        "parabolic": 99999999986.666652,
        "hyperbolic": 99999999986.666652,
        "cosh": 99999999986.666652,
        "sinusoidal": 99999999979.99998,
    },
    1e-12: {
        "conical": 99999999999.799984,
        "parabolic": 99999999999.866655,
        "hyperbolic": 99999999999.866655,
        "cosh": 99999999999.866655,
        "sinusoidal": 99999999999.799984,
    },
}

# A second, asymmetrically chosen geometry far from the canonical one:
# r_min = 5e-5, r_max = 4.35e-3, L = 0.77.
WIDE_GEOMETRY = (5e-5, 4.35e-3, 0.77)
WIDE_INTEGRAL = {
    "conical": 477518654685956.86,
    "parabolic": 6521257665776455.4,
    "hyperbolic": 1112268780745789.8,
    "cosh": 15920329187819201.0,
    "sinusoidal": 4156433164019455.6,
}

# --- bit-for-bit pins of the quadrature oracle (tests/test_oracle_pin.py) ---
#
# Unlike the values above, these are not true integrals: they are the exact
# doubles the oracle produced when the pin was written, recorded so that a
# rewrite of the oracle must reproduce every result bit for bit.  Each
# digest is the sha256 of the newline-joined rows the test builds; the
# literal (index, row) pairs are a readable sample of those rows.
ORACLE_PIN_DIGEST = 'db1848c2bbf023e111181446c54811931e3ad3cd13a57032ad7749156b3ca14b'
ORACLE_PIN_ROWS = (
    (0, 'default 7 0 conical 0x1.3b936940ece91p-10 0x1.3b93699afc6bap-10 0x1.ce71828f5e11ap-11 0x1.908751b625d4fp+28 0x1.0000000000000p-24 45 True 0x1.fdf805eb23093p+29 0x1.fdf805eb23094p+29 0x1.01050621a436ap-53 0x1.0000000000000p-24 True True'),
    (47, 'default 7 47 hyperbolic 0x1.1f81380b27eb5p-15 0x1.1f813b6219553p-15 0x1.ced4b43b3eb13p-6 0x1.22f06124c7ba8p+54 0x1.0000000000000p+2 15 True 0x1.726f5d4c4238fp+55 0x1.726f5d4c4238fp+55 0x0.0p+0 0x1.0000000000000p+2 True True'),
    (94, 'default 7 94 sinusoidal 0x1.ad22d6001e7c6p-16 0x1.ad22d66ac05c7p-16 0x1.e9bb065680355p-10 0x1.f02a7a13171dcp+51 0x1.0000000000000p+1 15 True 0x1.3bde794c579b7p+53 0x1.3bde794c579b7p+53 0x0.0p+0 0x1.0000000000000p+1 True True'),
    (141, 'default 20261017 41 hyperbolic 0x1.86bfca1997944p-15 0x1.38335955e5d17p-13 0x1.af7a9fe42a1c9p+2 0x1.44addeba9abaap+58 0x1.4139a00000000p+22 225 True 0x1.9d64f58130ba4p+59 0x1.9d64f58130ba4p+59 0x0.0p+0 0x1.4139a00000000p+22 True True'),
    (188, 'default 20261017 88 sinusoidal 0x1.68441a7a0b3dep-14 0x1.68441aaebf268p-14 0x1.9f953cfaca850p-10 0x1.a7d2a3cb32c64p+44 0x0.0p+0 15 True 0x1.0dd0611f4eac2p+46 0x1.0dd0611f4eac2p+46 0x0.0p+0 0x0.0p+0 True True'),
    (235, 'tight 7 35 parabolic 0x1.0ba44073fa462p-16 0x1.0bf285329c3b8p-16 0x1.02a93872c79bcp+1 0x1.b05c26014111ep+64 0x0.0p+0 15 True 0x1.133fb7a7359fap+66 0x1.133fb7a7359fap+66 0x0.0p+0 0x0.0p+0 True True'),
    (282, 'tight 7 82 sinusoidal 0x1.d8c1c418eedddp-13 0x1.d8c1fbb2a74ffp-13 0x1.446a90f71b22ep-5 0x1.be4d7750fc37bp+43 0x1.da00000000000p-2 15 True 0x1.1c2003fc3f2a8p+45 0x1.1c2003fc3f2a9p+45 0x1.cd5167570d799p-53 0x1.da00000000000p-2 True True'),
    (329, 'tight 20261017 29 parabolic 0x1.0838254ee192fp-8 0x1.16b79ce157937p-2 0x1.08b88586d3a24p-2 0x1.c153227a61173p+25 0x1.9c4ab2a000000p-21 645 True 0x1.1e0c8c5d20356p+27 0x1.1e0c8c5d20356p+27 0x0.0p+0 0x1.9c4ab2a000000p-21 True True'),
    (376, 'tight 20261017 76 cosh 0x1.073c2374a31d4p-19 0x1.073c904277786p-19 0x1.6ec032c9dc80fp+1 0x1.480f5bb690f56p+77 0x0.0p+0 15 True 0x1.a1b2eecde6441p+78 0x1.a1b2eecde6441p+78 0x0.0p+0 0x0.0p+0 True True'),
    (423, 'shallow 7 23 parabolic 0x1.54a9cf22f209bp-10 0x1.54a9cf3409269p-10 0x1.a741d529c35e9p-11 0x1.0df4b036d6071p+28 0x1.0000000000000p-23 15 True 0x1.57b7ea35413d6p+29 0x1.57b7ea35413d9p+29 0x1.1e00658cb98dbp-51 0x1.0000000000000p-23 True True'),
    (470, 'shallow 7 70 cosh 0x1.12dba8da4afedp-16 0x1.8c4cfba4b7db3p-12 0x1.31083b2205951p-9 0x1.3f8c69c050c61p+52 0x1.c661e71000000p+20 165 True 0x1.96dc9d1a32a11p+53 0x1.96dc9d1a32a11p+53 0x0.0p+0 0x1.c661e71000000p+20 True True'),
    (517, 'shallow 20261017 17 conical 0x1.b701b23c0eccep-11 0x1.1587496a92434p-7 0x1.2e1d3c522bbcbp-11 0x1.46bcdea5a53b1p+25 0x1.6d166ea992800p+9 165 False 0x1.a003f4b188ad1p+26 0x1.a003f4b1a14ffp+26 0x1.e5204f55f20f2p-37 0x1.6d166ea992800p+9 False False'),
)
DRAW_PIN_DIGEST = 'becad95fb1577864aa5f8a10d1ed74f54c7bab9e24f7390a383e8de7156a5fe5'
DRAW_PIN_ROWS = (
    (0, '7 straight 0 0x1.4be16aa69d415p-12 0x1.4be16aa69d415p-12 0x1.87fe5c745e83cp+1'),
    (57, '7 conical 27 0x1.abb7e26cea8e0p-11 0x1.abb7e2d6a85abp-11 0x1.03efb3d9f99b7p-11'),
    (114, '7 hyperbolic 24 0x1.131dcaa9e9556p-19 0x1.13297edb3128bp-19 0x1.773fb9c3fdfa1p-3'),
    (171, '7 sinusoidal 21 0x1.9c3169b465532p-10 0x1.a115d14c6c83ap-10 0x1.cecb47bca3284p-3'),
    (228, '20261017 conical 18 0x1.070731cd59accp-17 0x1.070731fdc1880p-17 0x1.17c7566846d6bp-3'),
    (285, '20261017 hyperbolic 15 0x1.712ee4d5cd6ccp-8 0x1.712ee4eb9ba25p-8 0x1.bdb862b35abd1p-6'),
)
GENERIC_PIN_DIGEST = '3a39932763136b81419281a0152b5ba5b0f70a0c736cebff51366e7f1a74e031'
GENERIC_PIN_ROWS = (
    (0, 'square 0x1.5555555555555p-2 0x0.0p+0 15 True'),
    (1, 'exp 0x1.b7e151628aed3p+0 0x1.0000000000000p-52 15 True'),
    (2, 'peak 0x1.3828c9fbbe2d2p+8 0x1.43e2000000000p-38 945 True'),
    (3, 'cos 0x1.7d7f78e027f00p-1 0x1.4960000000000p-41 465 True'),
    (4, 'sqrt_abs 0x1.46b144459216cp+1 0x1.227b976c3b580p-33 825 True'),
    (5, 'step 0x1.aaaaaaaaaab0ep+0 0x1.9b3acbd3d38a0p-44 1185 True'),
    (6, 'sin_abs_tol 0x1.8a32af026cc28p-8 0x1.508f7ba210000p-18 465 True'),
    (7, 'peak_capped 0x1.3828cccc3a613p+8 0x1.8438deb479ed4p-3 465 False'),
    (8, 'cos_capped 0x1.c1db3b4eddc3ap-5 0x1.d6f742d723e2ap-1 285 False'),
)
VERIFY_STDOUT_PIN = {
    'plain': ('[PASS] shape=conical trial=0 r_min=0.0012038262359341005 r_max=0.0012038262564115069 length=0.00088204078376377952 discrepancy=1.1146449423526312e-16 estimate=5.9604644775390625e-08 converged=true', 17823, 'cb231848b0670068f06d83226b4beeada7115fdd0938d1e4250f1696e7077d3f'),
    'csv': ('shape,trial,r_min,r_max,length,analytic_pressure_drop,numeric_pressure_drop,relative_discrepancy,oracle_error_estimate,converged,passed', 15593, 'ef3465da0be4b9c515d66ee35f27a9913606cdc9f29aa8d3d1f72ee74afadbcc'),
    'json': ('{', 41678, '5c612faadcb5c956179568162dd61de9191cd69afdac3e70dde72c680750ab4c'),
}
SAMPLE_PIN_DIGEST = '8d6a2c01766ad1e052c98c407c5842aae798137bcefd6aa3027bc1139d04ec28'
SAMPLE_PIN_ROWS = (
    (0, 'straight 0.002 0.002 0.3 2 0x1.0624dd2f1a9fcp-9 0x1.0624dd2f1a9fcp-9'),
    (7, 'conical 5e-05 0.00435 0.77 3 0x1.1d14e3bcd35a8p-8 0x1.a36e2eb1c432dp-15 0x1.1d14e3bcd35a8p-8'),
    (19, 'parabolic 5e-05 0.00435 0.77 3 0x1.1d14e3bcd35a8p-8 0x1.a36e2eb1c432dp-15 0x1.1d14e3bcd35a8p-8'),
    (31, 'hyperbolic 5e-05 0.00435 0.77 3 0x1.1d14e3bcd35a8p-8 0x1.a36e2eb1c432dp-15 0x1.1d14e3bcd35a8p-8'),
    (43, 'cosh 5e-05 0.00435 0.77 3 0x1.1d14e3bcd35a8p-8 0x1.a36e2eb1c432dp-15 0x1.1d14e3bcd35a8p-8'),
    (55, 'sinusoidal 5e-05 0.00435 0.77 3 0x1.1d14e3bcd35a8p-8 0x1.a36e2eb1c432dp-15 0x1.1d14e3bcd35a8p-8'),
)

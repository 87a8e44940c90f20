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

# --- golden CLI outputs (tests/test_cli_golden.py) ---
#
# (exit code, sha256 of stdout, sha256 of stderr) of each invocation, and
# the literal (stdout, stderr) of a few of them, all captured before the
# CLI's output and error handling were rewritten.
CLI_GOLDEN = {
    'help': (0, '2cae3247ffa1cbb1a63d3d09ac17f3b60dc3db3a4d0c2b3cb531599d8cecd6a4', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'network--flow-csv': (0, '64ca40ddbd4b7a442ec162451dcfab5438cd4d80f3ce1b3e49d45a5024543d12', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'network--flow-json': (0, '9f422fe74f4fe7fd11f3daa26e2eb02a6497f8490cd5651430c2c929840d1501', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'network--flow-plain': (0, '747634d631de893f168549266db0fd947e45201246a1b9f827628e64414933a5', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'network--pressure-csv': (0, 'adcf2fcdbebf10f71af67d0895571f5ee9e92b9c7e8c13c8fbb6344d741bde55', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'network--pressure-json': (0, '58418d40555238a78a91f299201e1cad9b9e6dda931a1f34a8fa55401c30a676', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'network--pressure-plain': (0, '0719e731de57ea0bb0130ab5855a1c614ed9105854e61958f6edee3988a9e893', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'network-bad-file-and-nan-flow': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'bb4d96e22dc3e0c12feaa4e7656f75e54babd6ee6851254f33b7aa03a65a4646'),
    'network-bad-leaf': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '05fafe993abd85728230cf2401d96ad9534a4c8e58b58efd99925392ea32511b'),
    'network-both-givens': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'da16d6797550b86c744f84be0b9f1ea42981791c1079531648d0414f0d879be8'),
    'network-both-givens-and-zero-viscosity': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'da16d6797550b86c744f84be0b9f1ea42981791c1079531648d0414f0d879be8'),
    'network-directory': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '75be0f6012ed1eee566012cf1c7995b85f7fed252a6dc20dca8194517ad1b5e4'),
    'network-empty-file': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '11dbfb7028f77eff0eae61a40919d341a2f83d37465345090a2bc493aeb9e532'),
    'network-empty-series': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '646b3f601c7104a9df4ceefdde7efa5dc09f3a0d4db847d2bfe59cbf80ac2ce6'),
    'network-flow-nan': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '6e61014458c4120d4e2c17d782db5e194acb93d87521eacd4277ad09a7e3dfe6'),
    'network-flow-range': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'c9e4bfbf3f1b44f359172d49ca643af6a3c34edc33723b6f7ea5d1b6ae2598fc'),
    'network-geometry-range': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'a9b41b1f0928ce480a718a83bea483ea11993c8b28dee14765aacb9c139c7793'),
    'network-help': (0, 'c9b6d02f6a28bbbb75c7a6a8f2f0047a4ba51dfaf9268404516869e2d04d246f', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    # stderr re-pinned on purpose: the literal is reported at its node as
    # outside the double range, no longer as Python's int() digit limit.
    'network-int-beyond-digit-limit': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '95c51d4cd7e4e7a773ebfe4e8ce9bafab76bb4755a7106f2c24bfb058bbd42ba'),
    'network-int-beyond-double': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'cf97f115313d3ae1e45cb8f339ff36d2a4fae68987e0b3e76e51bdef10661696'),
    'network-missing-file': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'ae945d81e84d16eb29ba5e5447f323bfc83c8b39ad5cb9d8a7f5d401dc74b462'),
    'network-missing-file-and-neither-given': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'ae945d81e84d16eb29ba5e5447f323bfc83c8b39ad5cb9d8a7f5d401dc74b462'),
    'network-neither-given': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'da16d6797550b86c744f84be0b9f1ea42981791c1079531648d0414f0d879be8'),
    'network-not-utf8': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '1b2256c1f8377261fb596e62fd7029859394f9f6c738c4f3bf41b7e8df1eabd8'),
    'network-pressure-inf': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'baf91a4c22b491014444af4d185132d7d0eec6b5ea8d7e7c13110e55b704349d'),
    'network-resistance-range': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '61a44edd85c52a53e6fbce958d9a81f4c9bf4e11360cd35ce8ef34995008863d'),
    'network-resistance-range-and-nan-flow': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '61a44edd85c52a53e6fbce958d9a81f4c9bf4e11360cd35ce8ef34995008863d'),
    'network-syntax': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'bb4d96e22dc3e0c12feaa4e7656f75e54babd6ee6851254f33b7aa03a65a4646'),
    'network-too-deep': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '85a98f8dffdaae3ae392ff8c04c1262cccaf2a2248f26dc38afc11f57ca9847f'),
    'network-truncated': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '4ba883082418a5f6f4ae12db6a80ad733be1da15d2f1d14fcb9487cc64b12520'),
    'network-unknown-key': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'cc32f6546ee479eb333307d08e6b247c51e6831f256479f8d250a67679120052'),
    'network-viscosity-negative': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '558e6f432300e3a9adf89e5eefe5302f298595466756c9a8589b355938e77a74'),
    'network-zero-viscosity-and-bad-file': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '0ecd0bfb27d4f7fcc8221458fbc39207ea7672cea0d4109535098aedf8dc43a5'),
    'no-arguments': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '2cae3247ffa1cbb1a63d3d09ac17f3b60dc3db3a4d0c2b3cb531599d8cecd6a4'),
    'pdrop-conical-csv': (0, '602d08e30ea787ead8e47a217f2265666236034d9764cbd830d2ff7c241a1bd4', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'pdrop-conical-json': (0, 'ae894c74ec5a6456ee2bea3e298b8fd6b505f7c216497a5a0736dedf827727af', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'pdrop-conical-plain': (0, '922b288403899f4f3ab9fbe54104544d219c9f0bbe7d6642f49842b7f8dc1f4b', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'pdrop-cosh-csv': (0, 'f9f818494502668c5717ed7a3225f144b987dd3ecba72f0c6843c077e322d74c', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'pdrop-cosh-json': (0, 'd57b310479b6918e07929380e8f64621753c7fa7021c897f9bcbfc7a0c91db86', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'pdrop-cosh-plain': (0, 'ba1753a72dd47d770bb6a35af8bf58222d7b3821e36d2358e55941c4de0f98c2', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'pdrop-flow-inf': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '35b7088fbe4255a0dda0ba62886bc16f61a40f5310279d3c3eb5678cf8e906a6'),
    'pdrop-flow-nan': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '44896d793a75c0f3fb379d1e8a434efc15eef89b113196d0d5e3c0fcd288c0bf'),
    'pdrop-flow-not-a-number': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'a21350fa61b6cb991d07bcfba7946e52eda26755c442741455dd5f2ae9436028'),
    'pdrop-flow-range': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '37786d0f4b6a61953ab7f1af05162ea3ce945350394a16d8301df08c754ec404'),
    'pdrop-geometry-range': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '83a95423dc9f1127394f4176a61dccb20d7a5caa78903e45b626481f057b5787'),
    'pdrop-help': (0, '9cc615fa1a49488a9554a67eff75911f6b05ca8afb7254d7839eb87b85118a88', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'pdrop-hyperbolic-csv': (0, '62f47f2c645cd6441017532a63e8913d1c6125ede46c1d7faea63e772be57cf9', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'pdrop-hyperbolic-json': (0, '451ca3e4ab0bc5ccecc9ef2c4cac2820154062000066cf8fc1625ddc6ae42766', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'pdrop-hyperbolic-plain': (0, '1191c6ff6cbca709ad47b4e6a12a6d8a4695636dfd6107110859d54080413e47', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'pdrop-missing-option': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '56d919df515b7ec5cefda8c063a9e4effcd6fb812ae3aa01bfda12a656d54e2f'),
    'pdrop-negative-flow': (0, 'd23f0662becd11878097facd305a3f5bca5b88d3512e260d3e826bfe2278041f', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'pdrop-parabolic-csv': (0, 'b4f742e7a5ee3e57d44f1475c87883ce79eb0e649be9b77a0f9111536e5a7cc7', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'pdrop-parabolic-json': (0, '2dd71e55ac8e3b7f52ecb4817b98aea46a12f5acc7a1e27afe20ecdae9f895c9', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'pdrop-parabolic-plain': (0, 'a61ee3c1ad1170deeb1fe7e96f2c15dcfe68196607ccf6134894f2946246ebbf', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'pdrop-sinusoidal-csv': (0, '03bf0435ad94a084b9615441da07cbfd1075ad76fb843fa6831330ecf8d332ac', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'pdrop-sinusoidal-json': (0, 'dca9f5c385a5ec9b3373f186709ccdeacbb4de63328d55572f55749adce021cd', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'pdrop-sinusoidal-plain': (0, '221d0d485e5a434afde3805de45ffcec13da4f0d9440da3f067bf82934b8fce1', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'pdrop-straight-csv': (0, 'ca30fd277ee93109f00765dad231507fb337a5c462cef94f7329729a65082798', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'pdrop-straight-json': (0, '2c96d45e1c76986925667e290bd115cd4d8b1b684b1a82ad6c1af9ada76ad527', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'pdrop-straight-mismatch': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'c579267012bc4e22d2f3b62d90655b8b4ac8090ce3d974732fd638921b5fac08'),
    'pdrop-straight-plain': (0, '654c928a4d6d038c4f104daca1f001f9624443a8638a35dbabba16fb4b976899', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'pdrop-swapped-radii': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'ea1ca7920a7d2e3a7cae3492c1aff90a855ecd9b00a277b15c47703bf1b2ecb5'),
    'pdrop-swapped-radii-and-nan-flow': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '44896d793a75c0f3fb379d1e8a434efc15eef89b113196d0d5e3c0fcd288c0bf'),
    'pdrop-swapped-radii-and-zero-viscosity': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'ea1ca7920a7d2e3a7cae3492c1aff90a855ecd9b00a277b15c47703bf1b2ecb5'),
    'pdrop-unknown-shape': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'a51e694767d8dd3b1c1f6731a77fd5093f9d7d2acdefa6ceb08cb225b5d70fcf'),
    'pdrop-viscosity-zero': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'c852cc045962fe24f7c454c8384c3f00be0d9dcd38514fe96100db25161d314b'),
    'pdrop-zero-flow': (0, 'bc35bd656925989746b051090599fa59d14b397972eb3d4c66ecd82fdb21e4a9', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'pdrop-zero-length': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '9fbaf5d6bc6821ef07ef17db033c319aca2029abe2651e2289f576a18de9de43'),
    'profile-conical-csv': (0, 'fa699096a927cf7737d9c0f76a45b7ae2205a78f6bad5b574e287c4eccfb6159', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'profile-conical-json': (0, '6981723008ab6b905d0aa5a186bd32a3b43394fb85a3f4312effb55abdfa9962', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'profile-conical-plain': (0, 'fa699096a927cf7737d9c0f76a45b7ae2205a78f6bad5b574e287c4eccfb6159', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'profile-cosh-csv': (0, '602f6471ccd266735d460893621fe6095301edf52a063c292f16b423dd806c99', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'profile-cosh-json': (0, '61634a9474d5a88ac1dcec1d82b5a523d94fa21e0e7ad79d1fc5ba7004e8f381', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'profile-cosh-plain': (0, '602f6471ccd266735d460893621fe6095301edf52a063c292f16b423dd806c99', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'profile-help': (0, 'd0f5bf204a72e7ef6d1162bea7ba739c2f26ec9f919b38292bf231b20aa740a7', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'profile-hyperbolic-csv': (0, 'ec6315e7bff8b398ab4c56cf210da5a91c66fd0bec34707962dabd81c6a75271', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'profile-hyperbolic-json': (0, '0e6d302e66054538f7983c1478475daa0204b8cba78d12ce78c98d893231dfe7', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'profile-hyperbolic-plain': (0, 'ec6315e7bff8b398ab4c56cf210da5a91c66fd0bec34707962dabd81c6a75271', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'profile-one-sample': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '285ffc01feea0c422fdeb55f5977b1db371b6a839ee77720f30daacd297a0823'),
    'profile-one-sample-and-unwritable-out': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '285ffc01feea0c422fdeb55f5977b1db371b6a839ee77720f30daacd297a0823'),
    'profile-parabolic-csv': (0, 'f551d52d7b826ccd7d166fe82818de298ba378107e46fa0adcafdc93bb995f90', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'profile-parabolic-json': (0, 'bc5bfa68a83790c2f2d6f5d40b5616876d85c9d47fec0cfe547a421d7200f5fb', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'profile-parabolic-plain': (0, 'f551d52d7b826ccd7d166fe82818de298ba378107e46fa0adcafdc93bb995f90', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'profile-sinusoidal-csv': (0, 'fa699096a927cf7737d9c0f76a45b7ae2205a78f6bad5b574e287c4eccfb6159', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'profile-sinusoidal-json': (0, 'a400e22059e3b60c3afea495e5dd1820d3bb258371358e960eb8b5c98f64a885', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'profile-sinusoidal-plain': (0, 'fa699096a927cf7737d9c0f76a45b7ae2205a78f6bad5b574e287c4eccfb6159', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'profile-straight-csv': (0, '36921a41467fd19bfb36f9a2abb9769324d8dea9afe5a2603611b8b7e8d2a757', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'profile-straight-json': (0, 'f1bf27527ca3be571fdaf117aace4f0991099b5032b8f2161d779bd64eda8b06', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'profile-straight-plain': (0, '36921a41467fd19bfb36f9a2abb9769324d8dea9afe5a2603611b8b7e8d2a757', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'profile-swapped-radii-and-one-sample': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '6d6c854c99d95f303996fdc0b052b053baebf4f57262424abc18eddaf942123f'),
    'profile-two-samples': (0, '7e56d05fcd03a829c299251375b6dcdc50d8903f96ec2e74f66f71dbc717700d', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'profile-unwritable-out': (3, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '47db40cb218e428add2b20dd26b76922abd54bb7246f3af84d3a53d61b3485b2'),
    'qflow-conical-csv': (0, 'ac0111d2a80be75ce81fae2274e05a2745469b3ad02ac978f3ee5f3a92258a16', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'qflow-conical-json': (0, '0ae581cf182a428a0e8e0090d103d4dd66b6ced01303a8f5a21d31008b523830', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'qflow-conical-plain': (0, '3a3f0577fae01ed06185cc412a51a82255985c6167d3ce9efe8e95e4d49c28ae', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'qflow-cosh-csv': (0, '59a827298605774bf5e78362b7030d91dec2edd40bf75efb98bf7e85c262057e', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'qflow-cosh-json': (0, 'f0c867fcf4a4b236dba26df8d026a4fbe63ef0175fb9e711320d5c6d8dc7cdd2', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'qflow-cosh-plain': (0, '653bc1345371127df8219c8ccaf745d585833d0411b5e15bc601e4ac65c0c261', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'qflow-degenerate': (0, 'ab7e31734664a88084bde851d6128d9e3be808983bfe06d80a9f866f84bedfc9', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'qflow-flow-range': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '5ef4428887f1f383858102a53b33cb53beb9d6af6e5d6d211e6008601cf98e42'),
    'qflow-geometry-range': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '61a488445569ffedb1f29e962436c5b825558d86f0a5ada57b6a011a13cc789e'),
    'qflow-geometry-range-and-inf-pressure': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'fa1ad66713cfcc20ab8bf29b74c646577b62f7e53d208d47b324b005ad4c01e4'),
    'qflow-help': (0, '522c556dd22c4d46ab36ed24415312b617095d8341b16445f10f8572cf1d40c2', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'qflow-hyperbolic-csv': (0, '3614670e853ecd10f95b24dc2044b75e22ca01accaaa245e205f5e411c6315db', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'qflow-hyperbolic-json': (0, 'e32754a291849654ccab94af8a994c3759dcbcbb4bc011ae16ed31db46e26836', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'qflow-hyperbolic-plain': (0, '2352bd4bd1a73590de83b4dc0559ee0aca687d138ea1ad09163c6aa059abe6a1', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'qflow-mismatch-and-nan-viscosity': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '8c97f5f2bae3b99f1387b73d66351af1590d541ff0de1a6d04d8b9a07f1fd504'),
    'qflow-negative-radius': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '088c05427a93548978b66a1d9f55353a1ba2aea16b8ad6b435c3618977600692'),
    'qflow-parabolic-csv': (0, '43449a0fac72752e5fd24d6a7f1002b06d04fc985805bf1a4c66ba688c9e0140', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'qflow-parabolic-json': (0, '8c48665b59090b4f751ce79b14cbed315b5ca2181f0d655f4707c71f2db5d7ce', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'qflow-parabolic-plain': (0, '557859635e2f25c97709e1d8a59c2c3202d555a663edd46d8560377f414d3eae', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'qflow-pressure-minus-inf': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'c973c446a0685e9f25a73dddfa0284afb9a10aa84bccb3b4437290b8dfdc9aff'),
    'qflow-pressure-nan': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'bb13d40ae524641cf975850da53c5c0c8f5122861b8718a8716a80c9d5b350ae'),
    'qflow-sinusoidal-csv': (0, '42d55966e65cfeacf89051e6841e6e33fd21e73d042eba4c76a17118b321e95b', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'qflow-sinusoidal-json': (0, 'ddf4bb9453a449c524d92b615ea4427d53ad0e838bdea51efc8df08f2602fd73', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'qflow-sinusoidal-plain': (0, '65b813e9b86280aa2c713621916c070a82e4dc8e5c5cc4b16e5ae19967969829', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'qflow-straight-csv': (0, 'ada3bc88d0b2e7563f5d49dcc793fb59bf0777e61ae2149620f9f3adf5f615c3', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'qflow-straight-json': (0, '28063c8aea84437aea4ff082dd6a0316e381d42b436bbd16defbf12b4da54a1c', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'qflow-straight-plain': (0, 'db0d3826f480f22145069a6dcec0afc2315729c4c9b4ae42d84d7615c9d36222', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'qflow-viscosity-nan': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '22c9e1382fa1c1c3a533f93d81dd0ba84ad84e358783d1b3ded0e79dd0dfd372'),
    'unknown-command': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '345657036efd2f384bc18873c24d92000b9b90b877e02b9cbcf7b7aee9061ba3'),
    'verify-csv': (0, 'e2804c41a6627696b9f2d35878928bf24dac57dce8e3d7e5bf40480604c26cba', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify-failing-csv': (1, '161e7c2148216c340933ed172632eb301a328e78f926f10b54d9b57a02dced4e', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify-failing-json': (1, 'b03ff18dd6e5d81284fc0d88669aa4776099f09deec1871e0734227869901586', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify-failing-plain': (1, '73876a08fd4123073288e89bd9520b5a91f9c8bb11aa7b399cfb86d0227ded88', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify-help': (0, '5188daba50db7a9e51da255adaf529b888bf8730385694a771fe30301d9af7c5', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify-json': (0, '03cf4e4fb8e33289320218d8b9b4a8fc174840c5be8416293e4916802f2b6f19', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify-nan-tol-and-unknown-shape': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'eda0f0f7635b1e3b9315affe6045b5f58dd9fb2d4569a4955443b5a0ca9eb3c2'),
    'verify-negative-seed': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '2924358fc701c6e416669cf1d4826144ca05626d1196f28b17e38ee604a9a224'),
    'verify-plain': (0, '95135ef3b98000afc8079d7596d85e05b34600f3e648b263edc2f57292caeb7c', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify-straight': (0, 'a9b908c4cce1cf557cd479565b821a5a3afb2e401472a6b9e09d0b6737cc1528', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify-tol-inf': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '52998750cb078d584ac08e1aad84ee22fe88a34f75726510f691cd004c146a92'),
    'verify-tol-nan': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'eda0f0f7635b1e3b9315affe6045b5f58dd9fb2d4569a4955443b5a0ca9eb3c2'),
    'verify-tol-negative': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '2962bbe4b09111243b498ca4d2a1d2dc6dba36bed3087c295a7590711516f7e1'),
    'verify-tol-zero': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '04103e4c48e489fbab57cccbe2f3f19de9d3d63575f191e469ea1f7e737d1d11'),
    'verify-unknown-shape': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '61588246100ae8da3e26f2701911941bdb56e2af06344ac9342b9a3808cf8eee'),
    'verify-zero-trials': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '7d342fe95bef1483f2e7efb2f48b3ff5b24b6dc95055ef29c95813c53ae1a0c1'),
    'verify-zero-trials-and-nan-tol': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '7d342fe95bef1483f2e7efb2f48b3ff5b24b6dc95055ef29c95813c53ae1a0c1'),
}
CLI_GOLDEN_LITERALS = {
    'network--flow-plain': ('resistance 137934284.01297596 Pa_s_per_m3\ngeometric_factor 137934284012.97595 per_m3\npressure_drop 0.13793428401297597 Pa\n', ''),
    'network-unknown-key': ('', 'Usage: capflow network [OPTIONS] FILE\nTry \'capflow network --help\' for help.\n\nError: $.elements[1].elements[1]: unknown key "colour" in tube node\n'),
    'pdrop-conical-plain': ('pressure_drop 0.074272306776217822 Pa\n', ''),
    'pdrop-swapped-radii-and-nan-flow': ('', "Usage: capflow pdrop [OPTIONS]\nTry 'capflow pdrop --help' for help.\n\nError: --flow must be finite, got nan\n"),
    'verify-tol-zero': ('', "Usage: capflow verify [OPTIONS]\nTry 'capflow verify --help' for help.\n\nError: --tol must be positive and finite, got 0.0\n"),
}

import pytest

from isacthz.config import Deployment, SystemParams
from isacthz.pattern import optimal_pattern
from isacthz.schemes import default_requirement, jsrs_pattern, scheme_ability
from isacthz.sensing import SCHEMES

SYS = SystemParams()
DEP = Deployment()


def test_jsrs_uses_optimal_pattern():
    pat = jsrs_pattern(SYS, DEP)
    ref = optimal_pattern(default_requirement(SYS, DEP), SYS, DEP.theta_b)
    assert pat == ref
    assert pat.u == 1
    assert pat.v == 5


def test_all_schemes_resolve():
    abilities = {s: scheme_ability(s, SYS, DEP) for s in SCHEMES}
    assert set(abilities) == set(SCHEMES)
    assert abilities["perfect"].delta_v == 0.0
    assert abilities["5g"].delta_db == 0.3
    assert abilities["jsrs"].delta_v < abilities["ssb"].delta_v


def test_unknown_scheme():
    with pytest.raises(ValueError):
        scheme_ability("6g", SYS, DEP)


def test_default_requirement_tracks_user_speed():
    req = default_requirement(SYS, DEP)
    assert req.v_max_req == DEP.v
    assert req.d_max_req == pytest.approx(3e8 / (2 * SYS.f_scs))

import numpy as np
import pytest

import syntomo as st


@pytest.fixture(scope="session")
def code3():
    return st.builtin_code("code3")


@pytest.fixture(scope="session")
def code5():
    return st.builtin_code("code5")


@pytest.fixture(scope="session")
def ad036():
    return st.builtin_channel("amplitude-damping", [0.36])


def bell_pair_generators(p):
    """X_q X_{p+q} and Z_q Z_{p+q} for q < p, plus a spectator qubit."""
    n = 2 * p + 1
    gens = []
    for letter in "XZ":
        for q in range(p):
            word = ["I"] * n
            word[q] = word[p + q] = letter
            gens.append("".join(word))
    return gens


# the code file of perfbench's cli-mix workload: bell_pair_generators(2)
# in another order, with the spectator qubit's X and Z as logical operators
BELL2_CODE = {"generators": ["XIXII", "ZIZII", "IXIXI", "IZIZI"],
              "noisy_coords": [0, 1],
              "logical_ops": {"X": "IIIIX", "Z": "IIIIZ"}}


FRAME_CODES = {
    "code3": lambda: st.builtin_code("code3"),
    "code5": lambda: st.builtin_code("code5"),
    # non-perfect: four error spaces of dimension 2 in a 16-dim register
    "nonperfect4": lambda: st.build_code(["XXII", "ZZII", "IIZZ"], (0,)),
    "bell3": lambda: st.build_code(bell_pair_generators(3), (0, 1, 2)),
    # noisy qubits neither leading nor in ascending order
    "bell2-tail": lambda: st.build_code(bell_pair_generators(2), (3, 2)),
}


@pytest.fixture(scope="session", params=sorted(FRAME_CODES))
def frame_code(request):
    """Codes for frame checks: perfect, non-perfect, p=3, reordered."""
    return FRAME_CODES[request.param]()


@pytest.fixture
def rng():
    return np.random.default_rng(4217)

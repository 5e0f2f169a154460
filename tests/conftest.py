"""Shared strategies, helpers, and the acceptance-verdict registry."""

from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, Phase, settings
from hypothesis import strategies as st

from scmlab import Mechanism, NoiseDist, Scm
from scmlab import gates, scm_core

# the profile `tests/mutants.py` runs its mutants under (`--hypothesis-profile
# mutants`): no shrink phase, since one failing example kills a mutant, and
# no deadline or too-slow health check, since two mutants run at once and a
# slowed example must not count as a kill; the tier-1 runs keep hypothesis's
# default profile
settings.register_profile("mutants", phases=[phase for phase in Phase if phase != Phase.shrink],
                          deadline=None, suppress_health_check=[HealthCheck.too_slow])

# one "PASS <name>: ..." or "FAIL <name>: ..." line per acceptance
# criterion, echoed into the terminal summary so a plain pytest run
# shows them even with output capture on
_ACCEPTANCE_STARTED: list[str] = []
_ACCEPTANCE_LINES: dict[str, str] = {}


class AcceptanceLog:
    """Collects one verdict line per named criterion."""

    def start(self, name: str) -> None:
        if name not in _ACCEPTANCE_STARTED:
            _ACCEPTANCE_STARTED.append(name)

    def verdict(self, name: str, ok: bool, detail: str) -> None:
        self.start(name)
        line = f"{'PASS' if ok else 'FAIL'} {name}: {detail}"
        _ACCEPTANCE_LINES[name] = line
        print(line)
        assert ok, line


@pytest.fixture(scope="session")
def acceptance() -> AcceptanceLog:
    return AcceptanceLog()


@pytest.fixture(autouse=True)
def cold_memos():
    """Empty every process-wide memo (`scm_core.MEMOS`) before every test,
    so what a test sees of a parsed or computed dist (no `mass` or integer
    view until it reads one), what a gap table sweeps and which graphs,
    fits and texts are held do not depend on the tests that ran before
    it."""
    for memo in scm_core.MEMOS.values():
        memo.clear()


@pytest.fixture
def no_pass(monkeypatch):
    """Make any step of a kernel pass fail the test, for the checks that
    must refuse before the pass starts."""

    def refuse(*args, **kwargs):
        raise AssertionError("the kernel pass started before the check")

    monkeypatch.setattr(scm_core, "_extend", refuse)
    monkeypatch.setattr(scm_core, "_world_step", refuse)
    monkeypatch.setattr(scm_core, "_dist", refuse)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_STARTED:
        return
    terminalreporter.section("acceptance criteria")
    for name in _ACCEPTANCE_STARTED:
        terminalreporter.write_line(
            _ACCEPTANCE_LINES.get(name, f"FAIL {name}: did not complete")
        )

# noise menu: every entry is a valid distribution; the first three have
# bit-valued supports and so work for noise-reading gates too
BIT_NOISES = (
    NoiseDist.constant(0),
    NoiseDist.bernoulli(Fraction(1, 2)),
    NoiseDist.bernoulli(Fraction(1, 3)),
)
ANY_NOISES = BIT_NOISES + (
    NoiseDist.constant(1),
    NoiseDist.bernoulli(Fraction(3, 4)),
    NoiseDist((0, 1, 2), (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))),
)

# x0 a fair source, x1 = XOR_NOISE(x0) with noise 1/3, x2 = AND(x0, x1):
# one INT_ALL pass yields uniform leaves (x1 forced, or a single state) and
# leaves whose states carry weights 1 and 2 over 3 or 6
MIXED_LEAVES = Scm(
    3,
    (
        Mechanism(gates.BERN_SOURCE, (), NoiseDist.bernoulli(Fraction(1, 2))),
        Mechanism(gates.XOR_NOISE, (0,), NoiseDist.bernoulli(Fraction(1, 3))),
        Mechanism(gates.AND, (0, 1), NoiseDist.constant()),
    ),
)

_SOURCE_GATES = (gates.BERN_SOURCE, gates.CONST0, gates.CONST1)
_ANY_ARITY_GATES = (gates.AND, gates.OR, gates.PARITY, gates.XOR_NOISE)
_UNARY_GATES = (gates.COPY, gates.NEG)


@st.composite
def small_scms(draw, max_n: int = 4) -> Scm:
    """Valid acyclic SCMs: parents always precede a variable, so the
    variable order itself witnesses acyclicity."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    mechanisms = []
    for i in range(n):
        menu = _SOURCE_GATES + _ANY_ARITY_GATES
        if i > 0:
            menu = menu + _UNARY_GATES
        gate = draw(st.sampled_from(menu))
        if gate in _UNARY_GATES:
            parents = (draw(st.integers(0, i - 1)),)
        elif gate == gates.BERN_SOURCE:
            parents = ()
        elif gate in _ANY_ARITY_GATES:
            chosen = draw(
                st.sets(st.integers(0, i - 1), max_size=i) if i else st.just(set())
            )
            parents = tuple(sorted(chosen))
        else:
            parents = ()
        if gate in gates.NOISE_READING:
            noise = draw(st.sampled_from(BIT_NOISES))
        else:
            noise = draw(st.sampled_from(ANY_NOISES))
        mechanisms.append(Mechanism(gate, parents, noise))
    return Scm(n, tuple(mechanisms))


@st.composite
def exact_dists(draw, max_bits: int = 3, max_outcomes: int = 4):
    """Valid ExactDists with small rational masses."""
    from scmlab import ExactDist

    n_bits = draw(st.integers(1, max_bits))
    universe = [format(v, f"0{n_bits}b") for v in range(1 << n_bits)]
    outcomes = draw(
        st.lists(
            st.sampled_from(universe),
            min_size=1,
            max_size=min(max_outcomes, len(universe)),
            unique=True,
        )
    )
    weights = [draw(st.integers(1, 8)) for _ in outcomes]
    total = sum(weights)
    return ExactDist(
        n_bits, {o: Fraction(w, total) for o, w in zip(outcomes, weights)}
    )


GOLDEN = sorted((Path(__file__).parent / "golden").glob("*.oracle"))
GOLDEN_BYTES = [path.read_bytes() for path in GOLDEN]
_ALPHABET = b"01/=#\n 29ax\r\x00"


@st.composite
def mutated_golden(draw, seeds=GOLDEN_BYTES):
    """A golden oracle (or one of `seeds`) after one to three byte or line
    mutations."""
    data = draw(st.sampled_from(seeds))
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["flip", "insert", "delete", "zero-pad",
                                   "line-insert", "line-delete", "line-swap"]))
        if op == "zero-pad":
            # a leading zero right after an "=" or "/", where numbers start
            starts = [k + 1 for k, byte in enumerate(data) if byte in b"=/"]
            at = draw(st.sampled_from(starts)) if starts else 0
            data = data[:at] + b"0" + data[at:]
            continue
        if op in ("flip", "insert", "delete"):
            at = draw(st.integers(0, max(len(data) - 1, 0)))
            byte = bytes([draw(st.sampled_from(_ALPHABET + bytes([draw(st.integers(0, 255))])))])
            if op == "flip":
                data = data[:at] + byte + data[at + 1:]
            elif op == "insert":
                data = data[:at] + byte + data[at:]
            else:
                data = data[:at] + data[at + 1:]
            continue
        lines = data.split(b"\n")
        i = draw(st.integers(0, len(lines) - 1))
        j = draw(st.integers(0, len(lines) - 1))
        if op == "line-insert":
            lines.insert(i, lines[j])
        elif op == "line-delete":
            del lines[i]
        else:
            lines[i], lines[j] = lines[j], lines[i]
        data = b"\n".join(lines)
    return data

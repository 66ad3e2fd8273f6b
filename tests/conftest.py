from hypothesis import settings, strategies as st

from aldkit.core import Budget, BudgetExceeded, PairedWord

# A test's verdict must not depend on how fast the machine is, so no
# example runs under a deadline.
settings.register_profile("aldkit", deadline=None)
settings.load_profile("aldkit")


def _budget_spent_at(k):
    """A Budget that runs out at its k-th check, however fast the clock."""
    class Counted(Budget):
        checks = 0

        def check(self, stage):
            self.checks += 1
            if self.checks >= k:
                raise BudgetExceeded(f"time budget exhausted during {stage}")
    return Counted


@st.composite
def words(draw, min_n=1, max_n=8):
    n = draw(st.integers(min_n, max_n))
    a = draw(st.integers(0, (1 << n) - 1))
    b = draw(st.integers(0, (1 << n) - 1))
    return PairedWord(n, a, b)


@st.composite
def word_tuples(draw, count, min_n=1, max_n=8):
    """Several words sharing one length."""
    n = draw(st.integers(min_n, max_n))
    out = []
    for _ in range(count):
        a = draw(st.integers(0, (1 << n) - 1))
        b = draw(st.integers(0, (1 << n) - 1))
        out.append(PairedWord(n, a, b))
    return tuple(out)


lambdas = st.integers(1, 4)

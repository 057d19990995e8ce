"""Check harness: runs a workload's checks, times each one, and gates the run.

A check is one public call that yields one verdict, for example
``op_equal_on_box`` on one relation instance or one graded basis compared
with its closed form.  Each check is timed with ``perf_counter``; the
end-to-end runs scale that time to a reference speed of the host
(``RefClock``).

A pass must mean that something was checked.  Operator-equality checks are
therefore also counted from outside: every compared monomial is applied to
both sides through ``Rep.apply``, so the harness counts ``Rep.apply`` calls
during the check and compares half of that count with the number of
monomials the check's shape implies ((2B+1)^N for a box, the trial count for
a randomized check).  A short count, or a group that issued fewer checks than
its shape implies, marks the run invalid.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from time import perf_counter

# Reference work: the product of two sparse bivariate polynomials with
# Fraction coefficients in dicts keyed by exponent tuples, the shape of the
# library's inner loops.  It uses no library code, so no change to the
# library moves it; only the speed of the host does.
_REF_TERMS = [((i, j), Fraction(i + 1, j + 2)) for i in range(3) for j in range(4)]
# Seconds the reference work takes at the reference speed: about its best
# of three on a 2-core x86-64 VM (Python 3.11), which reads 0.4-0.7 ms as
# the host's load changes.  Scaled times are in seconds at that speed.
REF_SECONDS = 0.0006


def _reference_work():
    out = {}
    for e, c in _REF_TERMS:
        for f, d in _REF_TERMS:
            k = (e[0] + f[0], e[1] + f[1])
            out[k] = out.get(k, 0) + c * d
    return out


def reference_time():
    """Best of three timings of the reference work: the host's speed now."""
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        _reference_work()
        best = min(best, perf_counter() - t0)
    return best


class Clock:
    """Wall time as measured."""

    def start(self):
        self.t = perf_counter()

    def mark(self):
        """Close the segment since the last mark; return (scaled, raw)
        seconds, here both as measured."""
        now = perf_counter()
        raw = now - self.t
        self.t = now
        return raw, raw


class RefClock:
    """Wall time scaled to the reference speed.

    The speed of a shared host drifts by a factor of two over minutes, and
    that drift is not the program's.  ``mark()`` ends a segment: it times the
    reference work and scales the segment's wall time by ``REF_SECONDS``
    over the mean of the reference times at the segment's two ends.  The
    reference work itself is outside every segment.  Scaling by the two ends
    of each check follows the host better than one factor per run: on a
    2-core x86-64 VM it cut the spread of a pass's wall time over runs from
    0.16-0.25 to 0.04-0.08, where one factor per run left it at 0.22-0.25.
    """

    def __init__(self):
        self.refs = []  # every reference time taken

    def start(self):
        self.ref = reference_time()
        self.refs.append(self.ref)
        self.t = perf_counter()

    def mark(self):
        """Close the segment since the last mark; return (scaled, raw)
        seconds."""
        raw = perf_counter() - self.t
        ref = reference_time()
        self.refs.append(ref)
        scaled = raw * 2 * REF_SECONDS / (self.ref + ref)
        self.ref = ref
        self.t = perf_counter()
        return scaled, raw


class Patches:
    """Attribute replacements on modules and classes, undone in reverse."""

    def __init__(self):
        self._undo = []

    def set(self, owner, name, value):
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def undo(self):
        while self._undo:
            owner, name, old = self._undo.pop()
            setattr(owner, name, old)


class CheckFailed(Exception):
    """A check raised; it has been recorded, and its group stops."""


class Group:
    """Checks that share inputs built before timing starts.

    ``run(checks)`` issues the checks; ``expect_checks`` is the number of
    checks the battery's shape implies for this group.
    """

    def __init__(self, label, expect_checks, run):
        self.label = label
        self.expect_checks = expect_checks
        self.run = run


class Checks:
    """Records the checks of one pass: latency, verdict and monomial count."""

    def __init__(self, clock, on_check=None):
        self.latencies = []
        self.raw_latencies = []
        self.wall = 0.0
        self.raw_wall = 0.0
        self.failed = 0
        self.problems = []
        self.applies = 0
        self.monomials = 0
        self.expected_monomials = 0
        self.digest = hashlib.sha256()
        # (label, monomials per check) for checks issued inside a library
        # call such as verify_family, set by the group that makes the call
        self.inner = None
        self._on_check = on_check
        self._clock = clock

    def run(self, name, fn, verdict, monomials=None):
        """Time ``fn()``; ``verdict(value)`` gives (ok, output) for the digest.

        ``monomials`` is the number of monomials the check must compare, or
        None when the check does not compare operators monomial by monomial.
        """
        applies0 = self.applies
        self._mark()  # the gap since the last check
        if self._on_check is not None:
            self._on_check(name, True)
        try:
            value = fn()
        except Exception as exc:  # noqa: BLE001 - a raised check is a failed check
            self._end_check()
            self._record(name, False, f"raised {type(exc).__name__}: {exc}")
            raise CheckFailed(name) from exc
        self._end_check()
        ok, output = verdict(value)
        if monomials is not None:
            compared = (self.applies - applies0) // 2
            self.monomials += compared
            self.expected_monomials += monomials
            if ok and compared != monomials:
                self.problems.append(
                    f"{name}: compared {compared} monomials, shape implies {monomials}"
                )
        self._record(name, ok, output)
        return value

    def begin(self):
        """Start the pass's wall time."""
        self._clock.start()

    def _mark(self):
        """Close the segment since the last mark; return its (scaled, raw)
        seconds."""
        scaled, raw = self._clock.mark()
        self.wall += scaled
        self.raw_wall += raw
        return scaled, raw

    def _end_check(self):
        if self._on_check is not None:
            self._on_check(None, False)
        scaled, raw = self._mark()
        self.latencies.append(scaled)
        self.raw_latencies.append(raw)

    def end(self):
        """Close the pass's wall time."""
        self._mark()

    def _record(self, name, ok, output):
        if not ok:
            self.failed += 1
            self.problems.append(f"{name}: failed ({output})")
        self.digest.update(f"{name}|{ok}|{output!r}\n".encode())

    def fail(self, name, reason):
        """A failed verdict reached outside any timed check."""
        self.latencies.append(0.0)
        self.raw_latencies.append(0.0)
        self._record(name, False, reason)

    @property
    def attempted(self):
        return len(self.latencies)

    def invalid(self):
        """Reasons this pass does not count: a failed verdict is not one of
        them, a pass that checked less than its shape implies is."""
        out = list(self.problems)
        if self.attempted == 0:
            out.append("no checks ran")
        if self.monomials < self.expected_monomials:
            out.append(f"compared {self.monomials} monomials, "
                       f"shape implies {self.expected_monomials}")
        return out


def op_result(report):
    """Verdict of an ``op_equal_*`` report dict."""
    return report["result"], report["result"]


def run_groups(groups, checks):
    """Run every group in order, timing from the first check to the last
    verdict.  A group that issues fewer checks than its shape implies is
    recorded as a problem.

    Groups are dropped from ``groups`` as they finish, so each group's
    representations and their image caches are freed, as in the battery.
    """
    checks.begin()
    while groups:
        g = groups.pop(0)
        before = checks.attempted
        try:
            g.run(checks)
        except CheckFailed:
            pass
        except Exception as exc:  # noqa: BLE001 - recorded as a failed verdict
            checks.fail(g.label, f"raised {type(exc).__name__}: {exc}")
        issued = checks.attempted - before
        if issued != g.expect_checks:
            checks.problems.append(
                f"{g.label}: issued {issued} checks, shape implies {g.expect_checks}"
            )
    checks.end()


def install_counters(checks, patches):
    """Count ``Rep.apply`` calls, and time the checks that ``verify_family``
    issues, at the names the algebra module looks up."""
    from cycdaha import algebra, ops

    apply = ops.Rep.apply

    def counted_apply(self, expr, p):
        checks.applies += 1
        return apply(self, expr, p)

    patches.set(ops.Rep, "apply", counted_apply)

    for name in ("op_equal_on_box", "op_equal_randomized"):
        inner = getattr(algebra, name)

        def timed(*args, _inner=inner, **kwargs):
            if checks.inner is None:
                return _inner(*args, **kwargs)
            label, monomials = checks.inner
            rel = args[1] if len(args) > 1 else kwargs.get("a")
            return checks.run(
                f"{label}/{rel!r}",
                lambda: _inner(*args, **kwargs),
                op_result,
                monomials,
            )

        patches.set(algebra, name, timed)


def one_pass(groups, clock, on_check=None):
    """Run every check of freshly built ``groups`` once and return the
    ``Checks``.  Their latencies and wall time are as ``clock`` scales
    them; ``raw_latencies`` and ``raw_wall`` keep them as measured."""
    checks = Checks(clock, on_check)
    patches = Patches()
    install_counters(checks, patches)
    try:
        run_groups(groups, checks)
    finally:
        patches.undo()
    return checks

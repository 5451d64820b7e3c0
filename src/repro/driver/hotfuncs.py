"""Hot-function annotation and the offline register-access profile (§4.1).

The paper narrows deferral to "hot" driver functions — the tens of
functions that issue >90% of register accesses — found by profiling once
per driver.  Here a decorator marks those functions; entry/exit notify the
kernel hooks so DriverShim can (a) enable deferral only inside them and
(b) commit queued accesses on exit.  Each hot function also carries the
commit *category* used for Figure 8's breakdown (Init / Interrupt /
Power state / Polling).

:func:`profile_register_accesses` reproduces the offline profiling step:
run a workload on a counting bus and bin accesses by driver function.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional


class CommitCategory:
    """Figure 8's four categories of speculated commits."""

    INIT = "init"
    INTERRUPT = "interrupt"
    POWER = "power"
    POLLING = "polling"
    OTHER = "other"

    ALL = (INIT, INTERRUPT, POWER, POLLING, OTHER)


@dataclass(frozen=True)
class HotFunction:
    name: str
    category: str


#: Registry of annotated hot functions, the analogue of the profiled list
#: the paper's instrumentation tool consumes (19 functions for Mali r24).
HOT_FUNCTIONS: Dict[str, HotFunction] = {}


def hot_function(category: str) -> Callable:
    """Mark a driver method as hot; deferral is scoped to these (§4.1).

    The decorated method's ``self`` must expose ``env`` (a
    :class:`~repro.kernel.env.KernelEnv`); entry/exit are reported through
    ``env.hooks`` via ``on_hot_enter``/``on_hot_exit`` when present.
    """

    def decorate(fn: Callable) -> Callable:
        name = fn.__qualname__
        HOT_FUNCTIONS[name] = HotFunction(name=name, category=category)

        @functools.wraps(fn)
        def wrapper(self, *args, **kwargs):
            env = self.env
            for hook in env.hooks:
                enter = getattr(hook, "on_hot_enter", None)
                if enter:
                    enter(env, name, category)
            try:
                return fn(self, *args, **kwargs)
            finally:
                for hook in env.hooks:
                    leave = getattr(hook, "on_hot_exit", None)
                    if leave:
                        leave(env, name, category)

        wrapper.hot_category = category
        wrapper.hot_name = name
        return wrapper

    return decorate


@dataclass
class AccessProfile:
    """Result of offline profiling: register accesses per driver function."""

    per_function: Dict[str, int]

    def hottest(self, coverage: float = 0.9) -> List[str]:
        """Smallest set of functions covering ``coverage`` of accesses."""
        total = sum(self.per_function.values())
        if total == 0:
            return []
        chosen: List[str] = []
        covered = 0
        for name, count in sorted(self.per_function.items(),
                                  key=lambda kv: -kv[1]):
            chosen.append(name)
            covered += count
            if covered >= coverage * total:
                break
        return chosen


class ProfilingHook:
    """Kernel hook that attributes register accesses to hot functions.

    Attach to an env, run a workload on a counting bus, read
    ``profile()``.  This is the "profiling is done once per GPU driver"
    step of §4.1, reproduced rather than assumed.
    """

    def __init__(self) -> None:
        self._stack: List[str] = []
        self.counts: Dict[str, int] = {}

    # KernelHooks duck-typed extras:
    def on_hot_enter(self, env, name: str, category: str) -> None:
        self._stack.append(name)

    def on_hot_exit(self, env, name: str, category: str) -> None:
        if self._stack and self._stack[-1] == name:
            self._stack.pop()

    # KernelHooks interface (unused parts are inherited no-ops).
    def on_kernel_api(self, env, name: str) -> None: ...
    def on_lock(self, env, lock_name: str) -> None: ...
    def on_unlock(self, env, lock_name: str) -> None: ...
    def on_delay(self, env, seconds: float) -> None: ...
    def on_thread_switch(self, env, ctx) -> None: ...

    def record_access(self) -> None:
        where = self._stack[-1] if self._stack else "<cold>"
        self.counts[where] = self.counts.get(where, 0) + 1

    def profile(self) -> AccessProfile:
        return AccessProfile(per_function=dict(self.counts))

    def current_function(self) -> Optional[str]:
        return self._stack[-1] if self._stack else None

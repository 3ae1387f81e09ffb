"""The deployment KeyCount and KeySpan evaluate, and the copy-site
vocabulary they share.

Both quantitative layers prove a ladder over one configured server:
KeyCount bounds how many key copies it holds, KeySpan how long each one
lives.  What they both know lives here, once:

* :data:`DEPLOYMENT` — the interprocedural roots: full-name suffixes
  of the OpenSSH server entry points (the paper's subject), each with
  how often it runs.  start/stop run once, the connection cycle once
  per connection, set_concurrency once (its internal loops contribute
  the per-connection factor).  :func:`deployment_roots` matches them
  and :func:`reachable` closes them over the call graph; functions
  outside that closure (the Apache app, demo scenarios, the test tree)
  are not part of the deployment.
* :data:`LADDER` and :data:`POLICIES` — the mitigation ladder and each
  level's :class:`~repro.core.protection.ProtectionPolicy`;
  :func:`copy_exists` decides whether a copy kind exists under a
  policy from its ``killed_by`` and ``requires`` flags.
* The copy-site vocabulary: :data:`GUARD_ALIASES` and
  :func:`policy_flag` (which names test a mitigation flag), the
  ``clear=`` reader :func:`clear_flag`, :func:`is_zero_bytes`,
  :data:`CONST_ITERABLES` with :data:`LOOP_CONST_CAP`, and the wrapper
  rule :func:`is_wrapper`.
"""

from __future__ import annotations

import ast
from typing import Collection, List, Mapping, Optional, Set, Tuple, Union

from repro.core.protection import ProtectionLevel, ProtectionPolicy, policy_for

from .domain import Count
from .project import FunctionInfo, Project

#: Interprocedural roots and how often each runs.
DEPLOYMENT: Mapping[str, Count] = {
    "apps.sshd.OpenSSHServer.start": Count.one(),
    "apps.sshd.OpenSSHServer.stop": Count.one(),
    "apps.sshd.OpenSSHServer.run_connection_cycle": Count.per_connection(),
    "apps.sshd.OpenSSHServer.set_concurrency": Count.one(),
}

#: Mitigation-strength order: each level must beat the next.  (KERNEL
#: sits between NONE and the alignment levels: zero-on-free kills
#: freed-region copies but leaves the allocated-region inventory
#: untouched.)
LADDER = ("NONE", "KERNEL", "APPLICATION", "LIBRARY", "INTEGRATED", "HARDWARE")

POLICIES: Mapping[str, ProtectionPolicy] = {
    level: policy_for(ProtectionLevel[level]) for level in LADDER
}

#: Policy flags a guard may test (``align_on_load`` is the derived
#: property ``app_align or lib_align`` on ProtectionPolicy).
POLICY_FLAGS: Tuple[str, ...] = (
    "app_align",
    "lib_align",
    "kernel_zero",
    "o_nocache",
    "sshd_no_reexec",
    "hw_vault",
    "align_on_load",
)

#: Parameter/attribute names that alias mitigation-policy flags inside
#: library code.  ``if align:`` in d2i guards on the library-alignment
#: policy; ``scrub_buffers`` (and the slot scrubber's ``scrub``)
#: defaults to it; ``rsa.aligned`` records that alignment ran.
GUARD_ALIASES: Mapping[str, str] = {
    "align": "lib_align",
    "aligned": "align_on_load",
    "scrub_buffers": "align_on_load",
    "scrub": "align_on_load",
    "use_nocache": "o_nocache",
    "nocache": "o_nocache",
    "no_reexec": "sshd_no_reexec",
}

#: Module-level constant tuples with a known length, used as loop
#: multipliers (``for name in PART_NAMES`` runs exactly six times).
CONST_ITERABLES: Mapping[str, int] = {"PART_NAMES": 6}

#: Constant loop bounds above this widen to one-per-connection.
LOOP_CONST_CAP = 64


def deployment_roots(project: Project) -> List[Tuple[str, Count]]:
    """``(function, multiplicity)`` for each function a root names: the
    suffix itself or a dotted tail of the full name, in sorted name
    order."""
    roots = sorted(DEPLOYMENT.items())
    return [
        (name, count)
        for name in project.sorted_names()
        for suffix, count in roots
        if name == suffix or name.endswith("." + suffix)
    ]


def reachable(project: Project) -> Set[str]:
    """The functions the deployment roots reach over ``call_targets``."""
    found = {name for name, _ in deployment_roots(project)}
    frontier = list(found)
    while frontier:
        info = project.functions[frontier.pop()]
        for targets in info.call_targets.values():
            for callee in targets:
                if callee in project.functions and callee not in found:
                    found.add(callee)
                    frontier.append(callee)
    return found


def copy_exists(kind, policy: ProtectionPolicy) -> bool:
    """Does a copy kind exist under ``policy``?  Not if one of its
    ``killed_by`` flags is on, nor if one of its ``requires`` is off."""
    if any(getattr(policy, flag) for flag in kind.killed_by):
        return False
    return all(getattr(policy, flag) for flag in kind.requires)


def policy_flag(
    node: ast.AST, aliases: Mapping[str, str] = GUARD_ALIASES
) -> Optional[str]:
    """The policy flag a name or attribute stands for: through the alias
    table, or the flag itself; None for any other expression."""
    if isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Attribute):
        name = node.attr
    else:
        return None
    flag = aliases.get(name)
    if flag is None and name in POLICY_FLAGS:
        flag = name
    return flag


def clear_flag(
    call: ast.Call, aliases: Mapping[str, str] = GUARD_ALIASES
) -> Union[bool, str]:
    """What a release's ``clear=`` argument says: ``True`` for a literal
    ``clear=True``; the policy flag for ``clear=<flag or alias>`` (the
    release clears exactly when that mitigation is on); ``False`` for
    anything else, and when there is no ``clear=``."""
    for keyword in call.keywords:
        if keyword.arg == "clear":
            if isinstance(keyword.value, ast.Constant):
                return keyword.value.value is True
            return policy_flag(keyword.value, aliases) or False
    return False


def is_zero_bytes(node: ast.AST) -> bool:
    """Matches ``b"\\x00" * n``, ``n * b"\\x00"`` and nonempty all-zero
    bytes literals."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
        return is_zero_bytes(node.left) or is_zero_bytes(node.right)
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, bytes)
        and len(node.value) > 0
        and not any(node.value)
    )


def const_trips(name: str) -> Optional[int]:
    """The trip count of a loop over a named constant iterable, if it is
    known and within :data:`LOOP_CONST_CAP`."""
    trips = CONST_ITERABLES.get(name)
    if trips is None or trips > LOOP_CONST_CAP:
        return None
    return trips


def is_wrapper(
    info: FunctionInfo, terminal: str, kinds_of: Mapping[str, Collection[str]]
) -> bool:
    """The definition of a copy terminal calling a lower one of the same
    kind (``posix_memalign`` → ``memalign``, ``Process.memalign`` →
    ``heap.memalign``) is plumbing, not a second copy: the copy belongs
    to the wrapper's caller."""
    own = kinds_of.get(info.qualname.rsplit(".", 1)[-1], ())
    return not set(own).isdisjoint(kinds_of.get(terminal, ()))

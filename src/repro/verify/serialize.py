"""Legacy JSON round-trip for :class:`~repro.verify.generator.GeneratedSystem`.

This is the **corpus format**: the flat system dict the fuzzer has
persisted under ``tests/corpus/`` since PR 5, which pytest replays
forever after — so a generated system must survive a trip through
plain JSON byte-exactly: ``system_from_dict(system_to_dict(s))``
reconstructs a system whose oracle verdict — bounds, observations,
invariants, digest — is indistinguishable from the original's.

All per-subsystem field layouts are delegated to
:mod:`repro.model.convert`, the converter layer shared with the
versioned exchange format of :mod:`repro.model` — one source of truth,
so the corpus byte layout and the model document can never drift
apart.  (The delegation is lazy: ``repro.model`` imports this package's
siblings, and resolving the converters at call time keeps both import
orders — ``import repro.verify`` first or ``import repro.model`` first
— cycle-free.)  New descriptions should use the model format
(``repro model``, :class:`repro.model.Model`); this module remains the
loader for the existing corpus and for fuzz-internal persistence, and
:func:`system_from_dict` additionally accepts a model document and
routes it through :func:`repro.model.build.system_from_model`.

``FORMAT`` is bumped on incompatible changes; the loader refuses
unknown versions instead of guessing.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.verify.generator import CriticalSection, GeneratedSystem

#: Corpus file format version (bumped on incompatible changes).
#: Format 2 added the ``faults`` list (injected fault scenarios); the
#: loader still reads format-1 files as fault-free systems.
FORMAT = 2


def system_to_dict(system: GeneratedSystem) -> dict:
    """One JSON-able dict capturing the complete generated system."""
    from repro.model import convert

    return {
        "format": FORMAT,
        "name": system.name, "seed": system.seed, "size": system.size,
        "tasksets": {ecu: [convert.task_to_dict(t) for t in tasks]
                     for ecu, tasks in sorted(system.tasksets.items())},
        "resources": dict(sorted(system.resources.items())),
        "critical_sections": [
            {"task": s.task, "resource": s.resource, "pre": s.pre,
             "duration": s.duration, "post": s.post}
            for s in system.critical_sections],
        "chain": (None if system.chain is None
                  else convert.chain_to_dict(system.chain)),
        "can": (None if system.can is None
                else convert.can_to_dict(system.can)),
        "flexray": (None if system.flexray is None
                    else convert.flexray_to_dict(system.flexray)),
        "tdma": (None if system.tdma is None
                 else convert.tdma_to_dict(system.tdma)),
        "faults": [convert.fault_to_dict(f) for f in system.faults],
    }


def system_from_dict(data: dict) -> GeneratedSystem:
    """Reconstruct a system from :func:`system_to_dict` output.

    Also accepts a :mod:`repro.model` document (detected by its
    ``format`` tag) — validated and compiled through
    :func:`repro.model.build.system_from_model` — so every consumer of
    the legacy loader can read the new exchange format for free.
    """
    from repro.model import build, convert, schema

    if schema.is_model_document(data):
        schema.ensure_valid(data)
        return build.system_from_model(data)
    version = data.get("format")
    if version not in (1, FORMAT):
        raise ConfigurationError(
            f"system dict has format {version!r}; this build reads "
            f"formats 1..{FORMAT} and repro.model documents")
    system = GeneratedSystem(data["name"], data["seed"], data["size"])
    system.tasksets = {ecu: [convert.task_from_dict(t) for t in tasks]
                       for ecu, tasks in data["tasksets"].items()}
    system.resources = dict(data["resources"])
    system.critical_sections = [
        CriticalSection(s["task"], s["resource"], s["pre"], s["duration"],
                        s["post"]) for s in data["critical_sections"]]
    if data["chain"] is not None:
        system.chain = convert.chain_from_dict(data["chain"])
    if data["can"] is not None:
        system.can = convert.can_from_dict(data["can"])
    if data["flexray"] is not None:
        system.flexray = convert.flexray_from_dict(data["flexray"])
    if data["tdma"] is not None:
        system.tdma = convert.tdma_from_dict(data["tdma"])
    system.faults = [convert.fault_from_dict(f)
                     for f in data.get("faults", ())]
    return system

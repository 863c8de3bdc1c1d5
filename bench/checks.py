"""Output checks on one policy run, and the run-log digest.

An error from :func:`check_policy_run` counts its policy run as failed.
"""

from __future__ import annotations

import hashlib
import json
from typing import List

# A corrupted log can break a check on every frame; report the first few.
MAX_ERRORS = 5


def vectors_digest(log) -> str:
    """SHA-256 of the decided, honored and forced vectors, one bit per frame.

    Two commits that keep the run-log contract produce the same digest for
    the same trace, policy, config and seed.
    """
    modules = sorted(log.header.module_costs)
    payload = {
        field: {
            m: "".join("1" if getattr(rec, field)[m] else "0" for rec in log.records)
            for m in modules
        }
        for field in ("decided", "honored", "forced")
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("ascii")).hexdigest()


def combined_digest(parts: List[str]) -> str:
    """One digest for a policy over all clips, from the per-clip digests."""
    return hashlib.sha256("".join(parts).encode("ascii")).hexdigest()


def check_policy_run(policy: str, log, text: str, report, gt) -> List[str]:
    """Check one policy's read-back run log against the benchmark's rules.

    ``log`` is ``RunLog.from_jsonl(text)`` and ``report`` its metrics report.
    """
    errors: List[str] = []
    modules = sorted(log.header.module_costs)
    if policy == "scheduled":
        for rec in log.records:
            for m in modules:
                expected = bool(rec.forced[m]) or rec.net[m] > 0
                if bool(rec.decided[m]) != expected:
                    errors.append(
                        f"frame {rec.index} {m}: decided={rec.decided[m]} but "
                        f"forced={rec.forced[m]} net={rec.net[m]}"
                    )
    if policy == "oracle":
        for m in modules:
            decided = frozenset(rec.index for rec in log.records if rec.decided[m])
            required = gt.required.get(m, frozenset())
            if decided != required:
                errors.append(
                    f"{m}: oracle decided {len(decided)} frames, "
                    f"{len(decided ^ required)} differ from the {len(required)} keyframes"
                )
    for m in modules:
        recall, accuracy = report.recall[m], report.keyframe_accuracy[m]
        if recall is not None and accuracy is not None and recall > accuracy:
            errors.append(f"{m}: recall {recall} exceeds keyframe accuracy {accuracy}")
    if log.to_jsonl() != text:
        errors.append("to_jsonl(from_jsonl(log)) differs from the written log")
    return [f"{policy}: {e}" for e in errors[:MAX_ERRORS]]

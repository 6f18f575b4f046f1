#!/usr/bin/env python3
"""The trading feed on real sockets: two OS processes, one loopback group.

Everything in the other examples runs inside the deterministic simulator.
This one boots the *same* protocol stack spec ("dedup|batch|stability|causal")
as two separate operating-system processes — each `python -m repro.runtime.host`
child binds its own UDP port on 127.0.0.1, joins the group, and pushes a
seeded trading-tick feed through the unchanged CATOCS layers.  Every message
you see counted below crossed the wire codec and the kernel's loopback
interface, not a Python heap.

    python examples/loopback_trading.py

The exit status is the verdict CI reads — this is the only place two
separately started interpreters have to agree on the wire format: non-zero
when either host counted a datagram it could not decode or one from a pid
outside the group, when the hosts delivered no tick label in common, or when
a host delivered nothing beyond its own multicasts (both feeds use the same
seed and so the same labels; only the count shows the peer got through).

See docs/RUNTIME.md for the transport seam that makes this a one-line swap,
and `python -m repro.runtime.crossval` for the harness that checks the
socket run agrees with the simulator anomaly-for-anomaly.
"""

import json
import os
import subprocess
import sys
import tempfile


STACK = "dedup|batch|stability|causal"
MEMBERS = ["--member", "a=127.0.0.1:7491", "--member", "b=127.0.0.1:7492"]


def spawn(pid: str, out_path: str) -> subprocess.Popen:
    import repro

    env = dict(os.environ)
    src_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-m", "repro.runtime.host",
         "--pid", pid, "--group", "floor", "--stack", STACK, *MEMBERS,
         "--app", "trading", "--rate", "40", "--duration", "0.8",
         "--settle", "0.5", "--seed", "7", "--out", out_path],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
    )


def main() -> None:
    print(f"booting two host processes with stack spec {STACK!r} ...")
    with tempfile.TemporaryDirectory() as tmp:
        outs = {pid: os.path.join(tmp, f"{pid}.json") for pid in ("a", "b")}
        procs = {pid: spawn(pid, path) for pid, path in outs.items()}
        reports = {}
        for pid, proc in procs.items():
            _, stderr = proc.communicate(timeout=30)
            if proc.returncode != 0:
                raise SystemExit(f"host {pid} failed:\n{stderr.decode()}")
            with open(outs[pid], encoding="utf-8") as fh:
                reports[pid] = json.load(fh)

    print()
    print(f"{'host':>6} {'port':>6} {'sent':>6} {'delivered':>10} "
          f"{'decode errs':>12} {'unknown src':>12} {'msgs/sec':>10}")
    for pid, report in sorted(reports.items()):
        print(f"{pid:>6} {report['address'].rsplit(':', 1)[1]:>6} "
              f"{report['multicasts_sent']:>6} {report['delivered']:>10} "
              f"{report['decode_errors']:>12} {report['unknown_sender']:>12} "
              f"{report['runtime_msgs_per_sec']:>10.0f}")
    print()

    orders = {pid: report["delivery_order"] for pid, report in reports.items()}
    shared = set(orders["a"]) & set(orders["b"])
    print(f"tick labels delivered by both hosts : {len(shared)}")
    print(f"labels seen by only one host        : "
          f"{len(set(orders['a']) ^ set(orders['b']))}")
    print()

    rejected = {pid: report["decode_errors"] + report["unknown_sender"]
                for pid, report in reports.items()}
    from_peer = {pid: report["delivered"] - report["multicasts_sent"]
                 for pid, report in reports.items()}
    if any(rejected.values()) or not shared or min(from_peer.values()) <= 0:
        raise SystemExit(
            f"FAILED: the hosts do not agree on the wire (datagrams rejected per "
            f"host: {rejected}; delivered from the peer: {from_peer}; labels in "
            f"common: {len(shared)})")
    print("Both processes delivered their own ticks plus the peer's — every")
    print("peer message was encoded by the wire codec, carried by a real UDP")
    print("datagram across loopback, decoded, and released by the unchanged")
    print("causal stack.  Same layers, same spec string, no simulator.")


if __name__ == "__main__":
    main()

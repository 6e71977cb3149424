"""``cli serve`` with one injected fault, for the benchmark's tests.

``python -m perfbench.tests.fault_server --corrupt-session N`` flips a
byte in the first chunk served after ``N - 1`` sessions were reported
(so session ``N`` gets a payload whose SHA-256 is wrong).
``--die-after N`` exits abruptly, with code 3, right after the ``N``-th
report.
"""

from __future__ import annotations

import argparse
import os
import sys
import threading

from perfbench.common import require_source


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--corrupt-session", type=int, default=0)
    parser.add_argument("--die-after", type=int, default=0)
    args = parser.parse_args(argv)
    require_source()
    from repro.serve import FleetService
    from repro.tools import cli

    lock = threading.Lock()
    state = {"reports": 0, "corrupted": False}
    read_chunk = FleetService.read_chunk
    close_token = FleetService.close_token

    def faulty_read(service, token_hex, offset=0, length=None):
        data, total = read_chunk(service, token_hex, offset, length)
        with lock:
            due = (args.corrupt_session and not state["corrupted"]
                   and state["reports"] == args.corrupt_session - 1)
            if due:
                state["corrupted"] = True
        if due and len(data):
            flipped = bytearray(data)
            flipped[0] ^= 0xFF
            return memoryview(bytes(flipped)), total
        return data, total

    def faulty_close(service, token_hex, body):
        reply = close_token(service, token_hex, body)
        with lock:
            state["reports"] += 1
            die = args.die_after and state["reports"] >= args.die_after
        if die:
            sys.stderr.write("fault_server: dying after %d reports\n"
                             % state["reports"])
            sys.stderr.flush()
            os._exit(3)
        return reply

    FleetService.read_chunk = faulty_read
    FleetService.close_token = faulty_close
    return cli.main(["serve", "--port", "0"])


if __name__ == "__main__":
    sys.exit(main())

"""Spawn helper: runs one child at a time and reports its wall time and peak RSS.

The benchmark talks to this helper instead of spawning children itself.  On
Linux a child's ``ru_maxrss`` starts from the RSS high-water mark of the
process that spawned it (the spawner's memory map is what exec replaces), so
a child started straight from the benchmark, which holds every report and
imports the package to check them, would be credited with the benchmark's
peak.  This helper runs under ``python -S -I``, imports only builtin-sized
modules and holds one report at a time, so its own peak stays below that
of any child that imports the package.

Protocol on stdin/stdout, one message at a time: a 4-byte little-endian
length, then a ``marshal`` payload.  Request: ``(argv, env, timeout_s)``.
Reply: ``(exit_code, wall_s, maxrss_kb, stdout, stderr, timed_out)``, where
``exit_code`` is negative for a signal and wall time runs from spawn to reap.
"""

import marshal
import os
import select
import signal
import struct
import sys
import time


def run(argv, env, timeout):
    out_r, out_w = os.pipe()
    err_r, err_w = os.pipe()
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_DUP2, out_w, 1),
        (os.POSIX_SPAWN_DUP2, err_w, 2),
    ]
    start = time.perf_counter()
    try:
        pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    finally:
        os.close(out_w)
        os.close(err_w)
    chunks = {out_r: [], err_r: []}
    poller = select.poll()
    for fd in chunks:
        poller.register(fd, select.POLLIN)
    open_fds = set(chunks)
    deadline = start + timeout
    timed_out = False
    while open_fds:
        wait_ms = max(0, int((deadline - time.perf_counter()) * 1000))
        events = poller.poll(None if timed_out else wait_ms)
        if not events and not timed_out:
            timed_out = True
            os.kill(pid, signal.SIGKILL)
            continue
        for fd, _ in events:
            data = os.read(fd, 65536)
            if data:
                chunks[fd].append(data)
            else:
                poller.unregister(fd)
                open_fds.discard(fd)
                os.close(fd)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    return (
        os.waitstatus_to_exitcode(status),
        wall,
        usage.ru_maxrss,
        b"".join(chunks[out_r]),
        b"".join(chunks[err_r]),
        timed_out,
    )


def main():
    inp = sys.stdin.buffer
    out = sys.stdout.buffer
    while True:
        head = inp.read(4)
        if len(head) < 4:
            return
        (size,) = struct.unpack("<I", head)
        argv, env, timeout = marshal.loads(inp.read(size))
        reply = marshal.dumps(run(argv, env, timeout))
        out.write(struct.pack("<I", len(reply)) + reply)
        out.flush()


if __name__ == "__main__":
    main()

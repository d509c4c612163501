"""Child launcher for run.py; start it as
`python3 -I -S perfbench/spawner.py CALIBRATION-ARGV...`.

A process's ru_maxrss starts from the peak RSS of the process that spawned
it (exec keeps the larger of the two).  The benchmark runner holds more
memory than a small udrfusion call, so children are spawned from here
instead: this process imports little beyond the interpreter's built-in
modules and never reads a child's output.

While a child runs, the calibration program given on this process's
command line is started every calib_every_s seconds of the child's wall
time (never when calib_every_s is 0), one at a time, alongside the child,
so that the speed of the machine is sampled during a long child and not
only around it.  Its output is discarded.

Protocol, one line per request on stdin, fields separated by NUL:
    timeout_s, calib_every_s, stdout_path, stderr_path, program, arg...
One line per reply on stdout, separated by spaces:
    wall_s, user+sys cpu_s, maxrss_kb, exit_code, calibration_wall_s...
The exit code is -9 when the child was killed at its timeout.  Wall time
runs from just before the spawn to the child's exit, whether or not a
calibration is running then; the reply waits for that calibration too.
"""

import os
import select
import signal
import sys
import time


def main() -> None:
    calibrate = sys.argv[1:]
    running = []  # the child and calibration being waited for, for the alarm handler

    def kill_running(signum, frame):
        for pid in running:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:  # reaped, not yet removed
                pass

    signal.signal(signal.SIGALRM, kill_running)
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    quiet = [(os.POSIX_SPAWN_OPEN, fd, os.devnull, os.O_WRONLY, 0) for fd in (1, 2)]
    for line in sys.stdin:
        timeout_s, every_s, out_path, err_path, *argv = line.rstrip("\n").split("\0")
        every = float(every_s)
        actions = [
            (os.POSIX_SPAWN_OPEN, 1, out_path, flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, err_path, flags, 0o644),
        ]
        start = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
        running.append(pid)
        signal.setitimer(signal.ITIMER_REAL, max(float(timeout_s), 0.001))
        child_fd = os.pidfd_open(pid)
        next_calib = start + every
        calib = None  # (pid, pidfd, start) of the calibration running alongside
        calib_walls = []
        end = None
        while end is None or calib is not None:
            waiting = ([child_fd] if end is None else []) + ([calib[1]] if calib else [])
            timeout = None
            if end is None and calib is None and every > 0:
                timeout = max(next_calib - time.perf_counter(), 0.0)
            ready, _, _ = select.select(waiting, [], [], timeout)  # resumed after the alarm
            now = time.perf_counter()
            if child_fd in ready:
                end = now
                _, status, usage = os.wait4(pid, 0)
                running.remove(pid)
                os.close(child_fd)
            if calib and calib[1] in ready:
                os.wait4(calib[0], 0)
                running.remove(calib[0])
                os.close(calib[1])
                calib_walls.append(now - calib[2])
                calib = None
            elif end is None and calib is None and every > 0 and now >= next_calib:
                cpid = os.posix_spawn(calibrate[0], calibrate, os.environ, file_actions=quiet)
                running.append(cpid)
                calib = (cpid, os.pidfd_open(cpid), now)
                next_calib = now + every
        signal.setitimer(signal.ITIMER_REAL, 0)
        code = os.waitstatus_to_exitcode(status)
        print(end - start, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, code,
              *calib_walls, flush=True)


if __name__ == "__main__":
    main()

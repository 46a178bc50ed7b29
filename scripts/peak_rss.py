#!/usr/bin/env python3
"""Run one command and fail when its peak resident memory exceeds a bound.

    python scripts/peak_rss.py MB command [arg ...]

The peak is `ru_maxrss` of RUSAGE_CHILDREN once the command has exited, so
it is the command's own (and its largest child's); Linux reports it in KiB.
Prints the peak and exits with the command's code if that is nonzero, else
1 when the peak exceeds MB megabytes and 0 otherwise.
"""

import resource
import subprocess
import sys


def main(argv) -> int:
    bound, command = float(argv[0]), argv[1:]
    code = subprocess.run(command).returncode
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"peak RSS {peak:.1f} MB (bound {bound:g} MB): {' '.join(command)}")
    return code or int(peak > bound)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""The expected responses: what in-process ``serve_lines`` writes for each line.

Computed after the timed region, split over two child processes (the
machine's two cores are idle by then).  Each child runs this file as a
script — request lines on standard input, response lines on standard
output — through the program's own request loop with a default service,
so the bytes are the program's.  The children are plain subprocesses that
are always waited for: no helper process (such as multiprocessing's
resource tracker) outlives the benchmark.

    python3 perfbench/baseline.py <src dir> < requests.jsonl > responses.jsonl
"""

from __future__ import annotations

import io
import subprocess
import sys
from typing import Dict, List, Sequence


def serve_all(src: str, lines: List[str]) -> List[str]:
    """Child body: ``serve_lines`` over ``lines`` with a default service."""
    if src not in sys.path:
        sys.path.insert(0, src)
    from repro.service import LRUResultCache, ScheduleService, serve_lines

    out = io.StringIO()
    with ScheduleService(workers=1, cache=LRUResultCache(max_entries=1 << 20)) as service:
        serve_lines(lines, service, out)
    responses = out.getvalue().splitlines()
    if len(responses) != len(lines):
        raise RuntimeError(f"serve_lines wrote {len(responses)} responses for {len(lines)} lines")
    return responses


def baseline_responses(src: str, lines: Sequence[str]) -> Dict[str, str]:
    """Map every distinct line to its expected response line."""
    unique = list(dict.fromkeys(lines))
    half = (len(unique) + 1) // 2
    parts = [unique[:half], unique[half:]]
    processes: List[subprocess.Popen] = []
    try:
        for part in parts:
            # A child reads all of its input before it writes, so feeding one
            # child while the other computes cannot block on a full pipe.
            process = subprocess.Popen(
                [sys.executable, __file__, src], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
            )
            processes.append(process)
            assert process.stdin is not None
            process.stdin.write("".join(line + "\n" for line in part))
            process.stdin.close()
        results = [process.stdout.read().splitlines() for process in processes]  # type: ignore[union-attr]
        for process in processes:
            if process.wait() != 0:
                raise RuntimeError(f"baseline child exited with {process.returncode}")
    finally:
        for process in processes:
            if process.poll() is None:
                process.kill()
            process.wait()
            if process.stdout is not None:
                process.stdout.close()
    expected: Dict[str, str] = {}
    for part, responses in zip(parts, results):
        if len(responses) != len(part):
            raise RuntimeError(f"baseline child wrote {len(responses)} responses for {len(part)} lines")
        expected.update(zip(part, responses))
    return expected


if __name__ == "__main__":
    sys.stdout.write("".join(r + "\n" for r in serve_all(sys.argv[1], sys.stdin.read().splitlines())))

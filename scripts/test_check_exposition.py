#!/usr/bin/env python3
"""Unit tests for check_exposition.py on small inline scrapes.

    python3 scripts/test_check_exposition.py
"""

import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent / "check_exposition.py"

CLEAN = """\
# HELP matchsparse_serve_inflight Jobs currently running.
# TYPE matchsparse_serve_inflight gauge
matchsparse_serve_inflight 0
# HELP matchsparse_serve_errors_total Error replies sent.
# TYPE matchsparse_serve_errors_total counter
matchsparse_serve_errors_total 2
# HELP matchsparse_serve_queue_ms Frame queue wait in ms, per frame type.
# TYPE matchsparse_serve_queue_ms summary
matchsparse_serve_queue_ms{frame="load",quantile="0.5"} 0.25
matchsparse_serve_queue_ms{frame="load",quantile="0.99"} 0.5
matchsparse_serve_queue_ms_sum{frame="load"} 1.5
matchsparse_serve_queue_ms_count{frame="load"} 4
matchsparse_serve_queue_ms{frame="match",quantile="0.5"} 0.75
matchsparse_serve_queue_ms{frame="match",quantile="0.99"} 1
matchsparse_serve_queue_ms_sum{frame="match"} 3
matchsparse_serve_queue_ms_count{frame="match"} 4
# HELP matchsparse_serve_requests_total Frames dispatched, all types.
# TYPE matchsparse_serve_requests_total counter
matchsparse_serve_requests_total 9
"""

ANNOUNCED_TWICE = """\
# HELP matchsparse_serve_errors_total Error replies sent.
# TYPE matchsparse_serve_errors_total counter
matchsparse_serve_errors_total{frame="load"} 1
# HELP matchsparse_serve_errors_total Error replies sent.
# TYPE matchsparse_serve_errors_total counter
matchsparse_serve_errors_total{frame="match"} 1
"""

SPLIT = """\
# HELP matchsparse_serve_errors_total Error replies sent.
# TYPE matchsparse_serve_errors_total counter
matchsparse_serve_errors_total{frame="load"} 1
# HELP matchsparse_serve_shed_total Jobs refused at the inflight cap.
# TYPE matchsparse_serve_shed_total counter
matchsparse_serve_shed_total 0
matchsparse_serve_errors_total{frame="match"} 1
"""


def check(*scrapes):
    """Runs the checker on the given scrape texts; (exit code, stderr)."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, text in enumerate(scrapes):
            path = Path(tmp) / f"scrape{i}.txt"
            path.write_text(text, encoding="utf-8")
            paths.append(str(path))
        proc = subprocess.run([sys.executable, str(SCRIPT), *paths],
                              capture_output=True, text=True, check=False)
    return proc.returncode, proc.stderr


class CheckExposition(unittest.TestCase):
    def test_clean_scrape_passes(self):
        self.assertEqual(check(CLEAN), (0, ""))

    def test_clean_pair_passes_the_monotone_check(self):
        later = CLEAN.replace("requests_total 9", "requests_total 10")
        self.assertEqual(check(CLEAN, later), (0, ""))

    def test_family_announced_twice_is_rejected(self):
        code, stderr = check(ANNOUNCED_TWICE)
        self.assertEqual(code, 1)
        self.assertIn("announced twice (second HELP)", stderr)
        self.assertIn("announced twice (second TYPE)", stderr)

    def test_family_split_by_another_family_is_rejected(self):
        code, stderr = check(SPLIT)
        self.assertEqual(code, 1)
        self.assertIn("sample matchsparse_serve_errors_total outside its "
                      "family's group (split by "
                      "matchsparse_serve_shed_total)", stderr)
        self.assertIn("1 violation(s)", stderr)


if __name__ == "__main__":
    unittest.main()

"""``tools/rss_phases.py`` runs one round of the tiny workload and prints the
resident memory and the minor page faults after every phase, in the
benchmark's order."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LINE = re.compile(r"(\S+(?: \d+)?)\s+rss\s+(\d+\.\d) MB\s+peak\s+(\d+\.\d) MB"
                  r"\s+minflt\s+(\d+)")


def test_tiny_round_reports_rss_after_every_phase():
    proc = subprocess.run([sys.executable, "tools/rss_phases.py", "--workload", "tiny",
                           "--seed", "11"], cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    rows = [LINE.fullmatch(line) for line in proc.stdout.splitlines()]
    assert rows and all(rows), proc.stdout
    phases = [row[1] for row in rows]
    setups = phases[1:-7]
    assert phases[0] == "start" and setups and setups == [f"setup {i + 1}"
                                                          for i in range(len(setups))]
    assert phases[-7:] == ["fit", "build", "train", "predict", "loeo", "search", "setup"]
    current = [float(row[2]) for row in rows]
    peaks = [float(row[3]) for row in rows]
    faults = [int(row[4]) for row in rows]
    assert min(current) > 0 and peaks == sorted(peaks)
    assert faults[0] > 0 and faults == sorted(faults)

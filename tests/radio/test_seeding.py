"""Tests for stable seed derivation (cross-process reproducibility)."""

import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.radio.seeding import stable_seed


class TestStableSeed:
    def test_deterministic_within_process(self):
        assert stable_seed(1, "drift", 5) == stable_seed(1, "drift", 5)

    def test_distinct_tokens_distinct_seeds(self):
        seeds = {
            stable_seed(1, "drift", ap) for ap in range(100)
        }
        assert len(seeds) == 100

    def test_type_sensitivity(self):
        # the int 5 and the string "5" must not collide
        assert stable_seed(1, 5) != stable_seed(1, "5")

    def test_order_sensitivity(self):
        assert stable_seed(1, 2) != stable_seed(2, 1)

    def test_32bit_range(self):
        s = stable_seed(123456789, "x", 987654321)
        assert 0 <= s < 2**32

    @pytest.mark.slow
    def test_cross_process_stability(self):
        """The seed must not depend on PYTHONHASHSEED (unlike hash())."""
        code = (
            "from repro.radio.seeding import stable_seed;"
            "print(stable_seed(7, 'drift', 3))"
        )
        # The child imports the same `repro` this process imported.
        src = str(Path(repro.__file__).resolve().parents[1])
        outs = set()
        for hash_seed in ("0", "12345"):
            result = subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True,
                text=True,
                env={
                    "PYTHONHASHSEED": hash_seed,
                    "PATH": "/usr/bin:/bin",
                    "PYTHONPATH": src,
                },
            )
            assert result.returncode == 0, result.stderr
            outs.add(result.stdout.strip())
        assert len(outs) == 1

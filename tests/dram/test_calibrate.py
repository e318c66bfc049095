"""Bandwidth calibration patterns."""

import pytest

from repro.dram.address import MappingScheme
from repro.dram.calibrate import BandwidthCalibrator
from repro.dram.config import LPDDR5X_8533
from repro.hw.specs import MONDE_DEVICE


@pytest.fixture(scope="module")
def cal() -> BandwidthCalibrator:
    return BandwidthCalibrator()


def test_sequential_efficiency(cal):
    result = cal.sequential_read(nbytes=1 << 19)
    assert result.efficiency > 0.85
    assert result.row_hit_rate > 0.9
    assert result.pattern == "sequential-read"
    assert result.total_cycles == 1094


def test_random_is_slow(cal):
    seq = cal.sequential_read(nbytes=1 << 18)
    rand = cal.random_read(nbytes=1 << 17)
    assert rand.sustained_bandwidth < 0.4 * seq.sustained_bandwidth
    assert rand.total_cycles == 2281


def test_partitioned_beats_shared_banks(cal):
    """Section 3.4's even/odd bank partition avoids the row ping-pong
    of co-locating weights and activations."""
    part = cal.interleaved_streams(nbytes_each=1 << 17, partitioned=True)
    shared = cal.interleaved_streams(nbytes_each=1 << 17, partitioned=False)
    assert part.sustained_bandwidth > 1.2 * shared.sustained_bandwidth
    assert (part.total_cycles, shared.total_cycles) == (976, 1456)


def test_row_major_calibration_is_poor():
    naive = BandwidthCalibrator(scheme=MappingScheme.ROW_MAJOR)
    r = naive.sequential_read(nbytes=1 << 18)
    assert r.efficiency < 0.2
    assert r.total_cycles == 8962


def test_effective_bandwidth_matches_spec_constant(cal):
    """The spec default (mem_efficiency) mirrors the calibrator."""
    measured = cal.effective_bandwidth(nbytes=1 << 19)
    assert measured == pytest.approx(MONDE_DEVICE.effective_bandwidth, rel=0.05)
    # The constant the paper tables are built on, exactly.
    assert cal.effective_bandwidth() == 520203430697.67444


def test_calibration_result_fields(cal):
    r = cal.sequential_read(nbytes=1 << 16)
    assert r.nbytes == 1 << 16
    assert r.peak_bandwidth == pytest.approx(LPDDR5X_8533.peak_bandwidth)
    assert r.total_cycles > 0

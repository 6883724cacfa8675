import numpy as np
import pytest

from repro.core import BucketArray
from repro.gpusim import DeviceMemory, GTX_780TI
from repro.memalloc.address import NULL


def test_heads_start_null():
    ba = BucketArray(16, group_size=4)
    assert (ba.head_gpu == NULL).all()
    assert (ba.head_cpu == NULL).all()


def test_group_partitioning():
    ba = BucketArray(10, group_size=4)
    assert ba.n_groups == 3
    assert BucketArray(8, group_size=4).n_groups == 2


def test_bucket_of_hash():
    ba = BucketArray(7, group_size=2)
    h = np.array([0, 7, 13], dtype=np.uint64)
    assert list(ba.bucket_of_hash(h)) == [0, 0, 6]


def test_reset_gpu_heads_preserves_cpu():
    ba = BucketArray(4, group_size=2)
    ba.head_gpu[1] = 100
    ba.head_cpu[1] = 200
    ba.reset_gpu_heads()
    assert ba.head_gpu[1] == NULL
    assert ba.head_cpu[1] == 200  # the CPU chain survives eviction


def test_occupied_and_resident_buckets():
    ba = BucketArray(4, group_size=2)
    ba.head_cpu[2] = 5
    ba.head_gpu[3] = 9
    assert list(ba.occupied_buckets()) == [2]
    assert list(ba.resident_buckets()) == [3]


def test_device_memory_reservation():
    mem = DeviceMemory(GTX_780TI.scaled(1024))
    BucketArray(100, group_size=10, device_memory=mem)
    assert mem.used == 100 * 20  # two heads + lock per bucket


def test_invalid_sizes_rejected():
    with pytest.raises(ValueError):
        BucketArray(0, 1)
    with pytest.raises(ValueError):
        BucketArray(4, 0)

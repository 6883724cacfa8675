import pytest

from repro.gpusim import CostCategory, CostLedger


def test_empty_ledger_elapsed_zero():
    assert CostLedger().elapsed == 0.0


def test_charge_accumulates():
    led = CostLedger()
    led.charge(CostCategory.COMPUTE, 1.0)
    led.charge(CostCategory.COMPUTE, 0.5)
    led.charge(CostCategory.PCIE, 2.0)
    assert led.elapsed == pytest.approx(3.5)
    assert led.spent(CostCategory.COMPUTE) == pytest.approx(1.5)
    assert led.spent(CostCategory.PCIE) == pytest.approx(2.0)


def test_charge_negative_rejected():
    with pytest.raises(ValueError):
        CostLedger().charge(CostCategory.MEMORY, -1.0)


def test_breakdown_includes_all_categories():
    led = CostLedger()
    led.charge(CostCategory.ATOMIC, 0.25)
    bd = led.breakdown()
    assert set(bd) == {c.value for c in CostCategory}
    assert bd["atomic"] == pytest.approx(0.25)
    assert bd["compute"] == 0.0


def test_reset_zeroes_everything():
    led = CostLedger()
    led.charge(CostCategory.HOST, 3.0)
    led.reset()
    assert led.elapsed == 0.0


def test_merge_folds_charges():
    a, b = CostLedger(), CostLedger()
    a.charge(CostCategory.COMPUTE, 1.0)
    b.charge(CostCategory.COMPUTE, 2.0)
    b.charge(CostCategory.LAUNCH, 0.1)
    a.merge(b)
    assert a.spent(CostCategory.COMPUTE) == pytest.approx(3.0)
    assert a.spent(CostCategory.LAUNCH) == pytest.approx(0.1)


def test_charge_returns_seconds():
    led = CostLedger()
    assert led.charge(CostCategory.MAINTENANCE, 0.75) == 0.75

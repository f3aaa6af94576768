"""Tests for FPGA platform descriptors."""

import pytest

from repro.bender.platform import (
    ALVEO_U200,
    ALVEO_U50,
    XUPVVH,
    Testbed,
    board_for,
)
from repro.errors import ConfigurationError
from tests.conftest import make_module


def test_boards_support_paper_kinds():
    assert "DDR4" in ALVEO_U200.supported_kinds
    assert "HBM2" in ALVEO_U50.supported_kinds
    assert "HBM2" in XUPVVH.supported_kinds


def test_board_for_module():
    assert board_for(make_module()) is ALVEO_U200


def test_testbed_rejects_mismatched_board():
    module = make_module()  # DDR4
    with pytest.raises(ConfigurationError):
        Testbed(board=ALVEO_U50, module=module)


def test_testbed_without_controller_is_room_controlled():
    testbed = Testbed(board=ALVEO_U200, module=make_module())
    assert testbed.controller is None

"""Tests for MATPOWER case parsing and the power-network Laplacian."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from lapdiff.errors import (
    CaseIntegrityError,
    CaseParseError,
    ConnectivityError,
    InvalidInputError,
)
from lapdiff.matpower import (
    BranchRecord,
    BusRecord,
    PowerCase,
    bundled_case_text,
    case_laplacian,
    format_case,
    load_case118,
    parse_case,
)
from lapdiff.network import reduce_ground_node

TWO_BUS = """\
function mpc = tiny
mpc.bus = [
\t1\t3\t0\t0\t0\t0\t1\t1\t0\t0\t1\t1.06\t0.94;
\t2\t1\t0\t0\t0\t0\t1\t1\t0\t0\t1\t1.06\t0.94;
];
mpc.branch = [
\t1\t2\t0.0\t0.5\t0\t0\t0\t0\t0\t0\t0\t-360\t360;
];
"""


def two_bus_case(x=0.5, r=0.0, status=1):
    return PowerCase(
        name="tiny",
        buses=(BusRecord(1, 3), BusRecord(2, 1)),
        branches=(BranchRecord(1, 2, r, x, status),),
    )


class TestRecords:
    def test_bus_type_validated(self):
        for good in (1, 2, 3, 4):
            assert BusRecord(5, good).bus_type == good
        with pytest.raises(CaseIntegrityError):
            BusRecord(5, 7)

    def test_branch_self_loop_rejected(self):
        with pytest.raises(CaseIntegrityError):
            BranchRecord(3, 3, 0.1, 0.2)

    def test_branch_status_validated(self):
        with pytest.raises(CaseIntegrityError):
            BranchRecord(1, 2, 0.1, 0.2, status=2)

    def test_in_service_zero_reactance_rejected(self):
        with pytest.raises(CaseIntegrityError):
            BranchRecord(1, 2, 0.1, 0.0, status=1)
        # out of service: zero x is tolerated, the branch carries no weight
        assert BranchRecord(1, 2, 0.1, 0.0, status=0).x == 0.0

    def test_case_requires_declared_endpoints(self):
        with pytest.raises(CaseIntegrityError):
            PowerCase(
                name="bad",
                buses=(BusRecord(1, 3),),
                branches=(BranchRecord(1, 2, 0.0, 0.5),),
            )

    def test_duplicate_bus_ids_rejected(self):
        with pytest.raises(CaseIntegrityError):
            PowerCase(name="bad", buses=(BusRecord(1, 3), BusRecord(1, 1)))

    def test_slack_resolution(self):
        case = two_bus_case()
        assert case.slack_bus_id == 1
        no_slack = PowerCase(name="ns", buses=(BusRecord(1, 1), BusRecord(2, 1)))
        with pytest.raises(CaseIntegrityError):
            no_slack.slack_bus_id


class TestParseCase:
    def test_minimal_two_bus(self):
        case = parse_case(TWO_BUS)
        assert case.name == "tiny"
        assert len(case.buses) == 2 and len(case.branches) == 1
        br = case.branches[0]
        assert (br.from_bus, br.to_bus, br.status) == (1, 2, 0)
        assert_allclose([br.r, br.x], [0.0, 0.5])

    def test_comments_and_blank_lines_skipped(self):
        text = TWO_BUS.replace("mpc.bus = [", "% leading note\n\nmpc.bus = [ % trailing")
        case = parse_case(text)
        assert len(case.buses) == 2

    def test_missing_block_named(self):
        with pytest.raises(CaseParseError, match="mpc.branch"):
            parse_case(TWO_BUS.split("mpc.branch")[0])
        with pytest.raises(CaseParseError, match="mpc.bus"):
            parse_case("function mpc = x\nmpc.branch = [\n];\n")

    def test_stray_token_cites_line(self):
        bad = TWO_BUS.replace("\t2\t1\t0", "\t2\toops\t0")
        with pytest.raises(CaseParseError, match="line 4") as excinfo:
            parse_case(bad)
        assert "oops" in str(excinfo.value)

    def test_short_row_rejected(self):
        bad = "function mpc = x\nmpc.bus = [\n1;\n];\nmpc.branch = [\n];\n"
        with pytest.raises(CaseParseError, match="line 3"):
            parse_case(bad)

    def test_unknown_branch_endpoint(self):
        bad = TWO_BUS.replace("\t1\t2\t0.0", "\t1\t9\t0.0")
        with pytest.raises(CaseIntegrityError, match="undeclared bus 9"):
            parse_case(bad)

    def test_stream_input(self):
        import io

        assert len(parse_case(io.StringIO(TWO_BUS)).buses) == 2

    def test_undecodable_text_is_a_parse_error(self):
        import io

        data = TWO_BUS.encode().replace(b"mpc.bus", b"\xffmpc.bus")
        for source in (data, io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")):
            with pytest.raises(CaseParseError, match="not valid utf-8"):
                parse_case(source)

    def test_round_trip(self):
        case = parse_case(TWO_BUS)
        again = parse_case(format_case(case))
        assert again.buses == case.buses
        assert again.branches == case.branches
        assert again.name == case.name


class TestCaseLaplacian:
    def test_single_edge_dc(self):
        lap, ground = case_laplacian(two_bus_case(x=0.5), "dc")
        assert_allclose(lap, [[2.0, -2.0], [-2.0, 2.0]])
        assert ground == 0

    def test_magnitude_y_formula(self):
        lap, _ = case_laplacian(two_bus_case(x=0.4, r=0.3), "magnitude_y")
        assert_allclose(lap[0, 1], -0.4 / 0.25)

    def test_negative_reactance_gives_positive_weight(self):
        lap, _ = case_laplacian(two_bus_case(x=-0.25), "dc")
        assert_allclose(lap[0, 1], -4.0)

    def test_out_of_service_branch_ignored_and_disconnects(self):
        case = two_bus_case(status=0)
        with pytest.raises(ConnectivityError, match="2 components"):
            case_laplacian(case, "dc")

    def test_parallel_branches_sum(self):
        case = PowerCase(
            name="par",
            buses=(BusRecord(1, 3), BusRecord(2, 1)),
            branches=(BranchRecord(1, 2, 0.0, 0.5), BranchRecord(2, 1, 0.0, 0.25)),
        )
        lap, _ = case_laplacian(case, "dc")
        assert_allclose(lap[0, 1], -(2.0 + 4.0))

    def test_bus_ids_mapped_ascending(self):
        case = PowerCase(
            name="gap",
            buses=(BusRecord(10, 1), BusRecord(2, 3), BusRecord(7, 1)),
            branches=(BranchRecord(10, 2, 0.0, 1.0), BranchRecord(7, 10, 0.0, 0.5)),
        )
        lap, ground = case_laplacian(case, "dc")
        # ascending ids 2, 7, 10 take indexes 0, 1, 2
        assert ground == 0
        assert_allclose(lap[0, 2], -1.0)
        assert_allclose(lap[1, 2], -2.0)
        assert lap[0, 1] == 0.0

    def test_ground_override(self):
        case = two_bus_case()
        _, ground = case_laplacian(case, "dc", ground_bus=2)
        assert ground == 1
        with pytest.raises(CaseIntegrityError):
            case_laplacian(case, "dc", ground_bus=5)

    def test_two_slack_buses_need_override(self):
        case = PowerCase(
            name="two",
            buses=(BusRecord(1, 3), BusRecord(2, 3)),
            branches=(BranchRecord(1, 2, 0.0, 1.0),),
        )
        with pytest.raises(CaseIntegrityError, match="exactly one slack"):
            case_laplacian(case, "dc")
        _, ground = case_laplacian(case, "dc", ground_bus=1)
        assert ground == 0

    def test_unknown_weight_mode(self):
        with pytest.raises(InvalidInputError):
            case_laplacian(two_bus_case(), "admittance")

    def test_zero_row_sums_and_psd_property(self):
        rng = np.random.default_rng(3)
        for trial in range(5):
            n = int(rng.integers(3, 12))
            buses = [BusRecord(i + 1, 3 if i == 0 else 1) for i in range(n)]
            branches = [
                BranchRecord(i + 1, i + 2, float(rng.uniform(0, 0.1)), float(rng.uniform(0.05, 1.0)))
                for i in range(n - 1)
            ]
            case = PowerCase(name=f"chain{trial}", buses=buses, branches=branches)
            lap, _ = case_laplacian(case, "dc")
            assert np.abs(lap.sum(axis=1)).max() <= 1e-10
            assert np.linalg.eigvalsh(lap)[0] >= -1e-10


class TestBundledCase118:
    def test_counts_and_slack(self):
        case = load_case118()
        assert len(case.buses) == 118
        assert len(case.branches) == 186
        assert case.slack_bus_id == 69

    def test_reduction_is_pd_117(self):
        case = load_case118()
        for mode in ("dc", "magnitude_y"):
            lap, ground = case_laplacian(case, mode)
            assert lap.shape == (118, 118)
            assert np.abs(lap.sum(axis=1)).max() <= 1e-10
            reduced = reduce_ground_node(lap, ground)
            assert reduced.shape == (117, 117)
            assert np.linalg.eigvalsh(reduced)[0] > 0

    def test_round_trip(self):
        case = load_case118()
        again = parse_case(format_case(case))
        assert again.buses == case.buses
        assert again.branches == case.branches

    def test_text_accessor_and_unknown_name(self):
        assert "mpc.branch" in bundled_case_text("case118")
        with pytest.raises(InvalidInputError):
            bundled_case_text("case9999")

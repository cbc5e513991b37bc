"""MATPOWER case file parsing and power-network Laplacian construction.

Only the bus and branch blocks of a case file are read, and of those only
the columns that determine network topology and branch impedance: bus id
and bus type (bus columns 1 and 2), and from-bus, to-bus, resistance r,
reactance x, and status (branch columns 1, 2, 3, 4, and 11). Generation,
load, and cost data play no role in the network matrix and are ignored.
"""

import math
import re
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .errors import (
    CaseIntegrityError,
    CaseParseError,
    ConnectivityError,
    InvalidInputError,
)
from .network import WeightedGraph, laplacian_from_graph

__all__ = [
    "BranchRecord",
    "BusRecord",
    "PowerCase",
    "bundled_case_text",
    "case_laplacian",
    "format_case",
    "load_case118",
    "parse_case",
]

PQ, PV, SLACK, ISOLATED = 1, 2, 3, 4

# case_laplacian's branch weights: 1/|x|, or |x|/(r^2+x^2).
WEIGHT_MODES = ("dc", "magnitude_y")

_BUS_TYPES = (PQ, PV, SLACK, ISOLATED)


@dataclass(frozen=True)
class BusRecord:
    """One bus: its external id and its MATPOWER type code (1=PQ, 2=PV, 3=slack, 4=isolated)."""

    bus_id: int
    bus_type: int

    def __post_init__(self):
        object.__setattr__(self, "bus_id", int(self.bus_id))
        object.__setattr__(self, "bus_type", int(self.bus_type))
        if self.bus_type not in _BUS_TYPES:
            raise CaseIntegrityError(
                f"bus {self.bus_id} has unknown type {self.bus_type}; expected one of {_BUS_TYPES}"
            )


@dataclass(frozen=True)
class BranchRecord:
    """One branch: endpoints, per-unit series impedance r + jx, and in-service status."""

    from_bus: int
    to_bus: int
    r: float
    x: float
    status: int = 1

    def __post_init__(self):
        object.__setattr__(self, "from_bus", int(self.from_bus))
        object.__setattr__(self, "to_bus", int(self.to_bus))
        object.__setattr__(self, "r", float(self.r))
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "status", int(self.status))
        if self.from_bus == self.to_bus:
            raise CaseIntegrityError(f"branch connects bus {self.from_bus} to itself")
        if self.status not in (0, 1):
            raise CaseIntegrityError(
                f"branch {self.from_bus}-{self.to_bus} has status {self.status}; expected 0 or 1"
            )
        if not (math.isfinite(self.r) and math.isfinite(self.x)):
            raise CaseIntegrityError(
                f"branch {self.from_bus}-{self.to_bus} has non-finite impedance"
            )
        if self.status == 1 and self.x == 0.0:
            raise CaseIntegrityError(
                f"in-service branch {self.from_bus}-{self.to_bus} has zero reactance"
            )


@dataclass(frozen=True)
class PowerCase:
    """A parsed case: named bus and branch records with validated cross-references."""

    name: str
    buses: tuple = field(default_factory=tuple)
    branches: tuple = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "buses", tuple(self.buses))
        object.__setattr__(self, "branches", tuple(self.branches))
        if not self.buses:
            raise CaseIntegrityError("case has no buses")
        ids = [bus.bus_id for bus in self.buses]
        seen = set()
        for bus_id in ids:
            if bus_id in seen:
                raise CaseIntegrityError(f"duplicate bus id {bus_id}")
            seen.add(bus_id)
        for branch in self.branches:
            for endpoint in (branch.from_bus, branch.to_bus):
                if endpoint not in seen:
                    raise CaseIntegrityError(
                        f"branch {branch.from_bus}-{branch.to_bus} references "
                        f"undeclared bus {endpoint}"
                    )

    @property
    def bus_ids(self):
        """Bus ids in ascending order; position in this tuple is the matrix index."""
        return tuple(sorted(bus.bus_id for bus in self.buses))

    @property
    def slack_bus_id(self):
        """The id of the unique slack bus; raises if there is not exactly one."""
        slacks = [bus.bus_id for bus in self.buses if bus.bus_type == SLACK]
        if len(slacks) != 1:
            raise CaseIntegrityError(
                f"expected exactly one slack bus, found {len(slacks)}"
                + (f": {slacks}" if slacks else "")
            )
        return slacks[0]


_BLOCK_OPEN = re.compile(r"mpc\.(bus|branch)\s*=\s*\[")
_NAME_LINE = re.compile(r"function\s+mpc\s*=\s*(\w+)")


def _strip_comment(line):
    cut = line.find("%")
    return line if cut < 0 else line[:cut]


def _scan_blocks(lines):
    """Yield (block_name, row_tokens, line_number) for every data row in bus/branch blocks."""
    blocks = {}
    current = None
    for lineno, raw in enumerate(lines, start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if current is None:
            match = _BLOCK_OPEN.search(line)
            if match:
                current = match.group(1)
                blocks.setdefault(current, [])
                line = line[match.end():].strip()
                if not line:
                    continue
        if current is not None:
            closed = False
            if "]" in line:
                line = line.split("]", 1)[0].strip()
                closed = True
            if line:
                for row in line.split(";"):
                    row = row.strip()
                    if row:
                        blocks[current].append((row.split(), lineno))
            if closed:
                current = None
    return blocks


def _row_floats(tokens, lineno, block, min_columns):
    values = []
    for token in tokens:
        try:
            values.append(float(token))
        except ValueError:
            raise CaseParseError(
                f"non-numeric token {token!r} in mpc.{block} block", line=lineno
            )
    if len(values) < min_columns:
        raise CaseParseError(
            f"mpc.{block} row has {len(values)} columns, expected at least {min_columns}",
            line=lineno,
        )
    return values


def parse_case(source):
    """Parse MATPOWER case text into a PowerCase.

    Accepts a string of case text, UTF-8 bytes, or a readable text stream.
    Raises CaseParseError for bytes or a stream that does not decode, for a
    missing bus or branch block and for non-numeric tokens (with the
    offending line number), and CaseIntegrityError for records that violate
    referential integrity.
    """
    try:
        if isinstance(source, (str, bytes)):
            text = source.decode() if isinstance(source, bytes) else source
        elif hasattr(source, "read"):
            text = source.read()
        else:
            raise InvalidInputError(f"cannot parse case from {type(source).__name__}")
    except UnicodeDecodeError as exc:
        raise CaseParseError(f"case text is not valid {exc.encoding}: {exc.reason}") from None
    lines = text.splitlines()

    name = "case"
    for line in lines:
        match = _NAME_LINE.search(_strip_comment(line))
        if match:
            name = match.group(1)
            break

    blocks = _scan_blocks(lines)
    for required in ("bus", "branch"):
        if required not in blocks:
            raise CaseParseError(f"case file has no mpc.{required} block")

    buses = []
    for tokens, lineno in blocks["bus"]:
        values = _row_floats(tokens, lineno, "bus", 2)
        buses.append(BusRecord(bus_id=values[0], bus_type=values[1]))
    branches = []
    for tokens, lineno in blocks["branch"]:
        values = _row_floats(tokens, lineno, "branch", 11)
        branches.append(
            BranchRecord(
                from_bus=values[0],
                to_bus=values[1],
                r=values[2],
                x=values[3],
                status=values[10],
            )
        )
    return PowerCase(name=name, buses=buses, branches=branches)


def format_case(case):
    """Serialize a PowerCase back to canonical MATPOWER-style text.

    Only the parsed columns carry information; the remaining branch columns
    are zero-filled so the status lands in its standard position (column 11).
    Parsing the output reproduces the records exactly.
    """
    out = [f"function mpc = {case.name}", "", "mpc.bus = ["]
    for bus in case.buses:
        out.append(f"\t{bus.bus_id}\t{bus.bus_type};")
    out.append("];")
    out.append("")
    out.append("mpc.branch = [")
    for br in case.branches:
        out.append(
            f"\t{br.from_bus}\t{br.to_bus}\t{br.r!r}\t{br.x!r}\t0\t0\t0\t0\t0\t0\t{br.status};"
        )
    out.append("];")
    return "\n".join(out) + "\n"


def _check_weight_mode(weight_mode):
    """case_laplacian's check of its weight mode, which MatpowerBaseSpec makes too."""
    if weight_mode not in WEIGHT_MODES:
        raise InvalidInputError(f"unknown weight_mode {weight_mode!r}; use one of {WEIGHT_MODES}")


def _branch_weight(branch, weight_mode):
    if weight_mode == "dc":
        return 1.0 / abs(branch.x)
    return abs(branch.x) / (branch.r**2 + branch.x**2)


def _connected_components(n, edges):
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, j in edges:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
    groups = {}
    for node in range(n):
        groups.setdefault(find(node), []).append(node)
    return sorted(groups.values(), key=len, reverse=True)


def bundled_case_text(name="case118"):
    """Raw text of a case file shipped with the package (currently case118)."""
    path = resources.files(__package__).joinpath("data").joinpath(f"{name}.m")
    try:
        return path.read_text()
    except FileNotFoundError:
        raise InvalidInputError(f"no bundled case named {name!r}")


def load_case118():
    """The bundled IEEE 118-bus test case, parsed."""
    return parse_case(bundled_case_text("case118"))


def case_laplacian(case, weight_mode="dc", ground_bus=None):
    """Weighted network Laplacian of a PowerCase plus the ground-node index.

    Every in-service branch contributes a nonnegative edge weight between
    its endpoint buses: 1/|x| in "dc" mode, |x|/(r^2+x^2) in "magnitude_y"
    mode. Parallel branches sum. Bus ids map to contiguous 0-based matrix
    indices in ascending id order. Returns (laplacian, ground_index) where
    ground_index is the matrix index of the slack bus (or of ground_bus when
    given), intended as the node to ground via reduce_ground_node.

    Raises
    ------
    InvalidInputError
        If weight_mode is not one of WEIGHT_MODES.
    ConnectivityError
        If the in-service branches do not connect all buses.
    CaseIntegrityError
        If ground_bus (or the implicit slack) cannot be resolved.
    """
    if not isinstance(case, PowerCase):
        raise InvalidInputError(f"expected a PowerCase, got {type(case).__name__}")
    _check_weight_mode(weight_mode)
    ids = case.bus_ids
    index_of = {bus_id: k for k, bus_id in enumerate(ids)}
    edges = []
    for branch in case.branches:
        if branch.status != 1:
            continue
        weight = _branch_weight(branch, weight_mode)
        edges.append((index_of[branch.from_bus], index_of[branch.to_bus], weight))

    components = _connected_components(len(ids), [(i, j) for i, j, _ in edges])
    if len(components) > 1:
        preview = "; ".join(
            "{" + ", ".join(str(ids[k]) for k in comp[:8])
            + (", ..." if len(comp) > 8 else "") + "}"
            for comp in components
        )
        raise ConnectivityError(
            f"in-service branches leave the network in {len(components)} components: {preview}"
        )

    graph = WeightedGraph(node_count=len(ids), edges=tuple(edges))
    lap = laplacian_from_graph(graph)
    target = case.slack_bus_id if ground_bus is None else int(ground_bus)
    if target not in index_of:
        raise CaseIntegrityError(f"ground bus {target} is not a declared bus")
    return lap, index_of[target]

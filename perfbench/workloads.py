"""The benchmark's three workloads.

Each is a closed loop: one client, one query in flight.  A workload
builds its database and client, warms up once, and then yields
``(key, query)`` pairs forever; ``key`` names the distinct query (the
SSB or TPC-H query name, or the normalized ad-hoc text).

As with TPC-H's dbgen and qgen, the data of a scale factor is fixed
(the generators' default seeds) and the run's seed draws the query
stream: the round-robin order, and for ``adhoc-serve`` every literal.
Seeding the data too made host times move with the seed by more than
run-to-run noise.  Why each workload exists, and which layers it should
and should not move, is in ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import itertools

import numpy as np

import repro
from repro.serving import PlanCache, Server
from repro.serving.plan_cache import normalize_sql
from repro.workloads.ssb.queries import ALL_SSB_SET, ssb_query_sql
from repro.workloads.tpch.queries import PAPER_TPCH_SET, Q1_SQL, Q6_SQL, tpch_plan


class Workload:
    """One workload: ``setup`` builds the client, ``run`` sends a query."""

    name = ""
    #: Queries per block: the distinct-query cycle (traced runs switch
    #: modes between blocks).
    block = 1
    #: A run completes at least this many queries; the simulated-plane
    #: means are taken over exactly the first ``window`` of them, so they
    #: repeat exactly for a seed.  At least 200 keeps ten samples beyond
    #: p95.
    window = 200

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.smoke = smoke
        self.database = None
        self.client = None

    def setup(self) -> None:
        """Generate the database, build the client, run one warm-up pass."""
        raise NotImplementedError

    def queries(self):
        """Endless ``(key, query)`` pairs, a pure function of the seed."""
        raise NotImplementedError

    def order(self, names: tuple[str, ...]) -> list[str]:
        """The seed's fixed round-robin order of ``names``."""
        rng = np.random.default_rng(self.seed)
        return [names[int(index)] for index in rng.permutation(len(names))]

    def warmup(self) -> list:
        raise NotImplementedError

    def run(self, query) -> repro.ExecutionResult:
        return self.client.execute(query)

    def twin(self, result) -> dict:
        """``connect`` arguments for this result's own strategy with
        compression off, whose output must match byte for byte."""
        raise NotImplementedError

    def placement_stats(self):
        return self.client.placement_stats()

    def close(self) -> None:
        """Stop what ``setup`` started (server workers)."""


class SsbJoin(Workload):
    name = "ssb-join"
    block = len(ALL_SSB_SET)

    def setup(self) -> None:
        self.database = repro.generate_ssb(0.002 if self.smoke else 0.05)
        self.client = repro.connect(
            self.database, engine="resolution", plan_cache=PlanCache()
        )
        for query in self.warmup():
            self.run(query)

    def warmup(self) -> list:
        return [ssb_query_sql(name) for name in ALL_SSB_SET]

    def queries(self):
        for name in itertools.cycle(self.order(ALL_SSB_SET)):
            yield name, ssb_query_sql(name)

    def twin(self, result) -> dict:
        return {"engine": "resolution"}


class TpchLazyFleet(Workload):
    name = "tpch-lazy-fleet"
    block = len(PAPER_TPCH_SET)

    def setup(self) -> None:
        self.database = repro.generate_tpch(0.002 if self.smoke else 0.05)
        self.client = repro.connect(
            self.database,
            engine="multipass",
            devices=2,
            compression="lazy",
            residency=True,
        )
        # Q1 and Q6 go through SQL; the other nine are logical plans.
        sql = {"q1": Q1_SQL, "q6": Q6_SQL}
        self._queries = {
            name: sql.get(name) or tpch_plan(name, self.database)
            for name in PAPER_TPCH_SET
        }
        for query in self.warmup():
            self.run(query)

    def warmup(self) -> list:
        return list(self._queries.values())

    def queries(self):
        for name in itertools.cycle(self.order(PAPER_TPCH_SET)):
            yield name, self._queries[name]

    def twin(self, result) -> dict:
        return {"engine": "multipass", "devices": 2}


class AdhocServe(Workload):
    name = "adhoc-serve"
    block = len(ALL_SSB_SET)
    #: Literals change result sizes, so simulated means need more
    #: queries than the fixed query sets to settle.
    window = 2000

    def setup(self) -> None:
        self.database = repro.generate_ssb(0.002)
        # One worker: the auto calibrator sees observations in a fixed
        # order, so simulated totals repeat exactly for a seed.
        self.client = Server(self.database, workers=1, engine="auto")
        for query in self.warmup():
            self.run(query)

    def warmup(self) -> list:
        return [ssb_query_sql(name) for name in ALL_SSB_SET]

    def queries(self):
        generator = AdhocGenerator(self.database, self.seed)
        for template in itertools.cycle(range(len(TEMPLATES))):
            text = generator.text(template)
            yield normalize_sql(text), text

    def twin(self, result) -> dict:
        chosen = result.optimizer.chosen
        return {"engine": chosen.engine, "devices": chosen.devices}

    def placement_stats(self):
        return self.client.stats().placement

    def close(self) -> None:
        self.client.close()


WORKLOADS = {workload.name: workload for workload in (SsbJoin, TpchLazyFleet, AdhocServe)}


# ----------------------------------------------------------------------
# seeded ad-hoc SSB queries
# ----------------------------------------------------------------------
class AdhocGenerator:
    """SSB templates with literals drawn from the generated database.

    String literals come from the columns' dictionaries and date
    literals from the date dimension's values, so every text parses.
    Discount and quantity ranges span the generator's domains
    (discount 0-10, quantity 1-50).
    """

    def __init__(self, database, seed: int):
        self.rng = np.random.default_rng(seed)

        def strings(table: str, column: str) -> tuple[str, ...]:
            return database.table(table).column(column).dictionary.values

        def ints(table: str, column: str) -> list[int]:
            return [int(v) for v in np.unique(database.table(table).column(column).values)]

        self.years = ints("date", "d_year")
        self.yearmonthnums = ints("date", "d_yearmonthnum")
        self.weeks = ints("date", "d_weeknuminyear")
        self.yearmonths = strings("date", "d_yearmonth")
        self.regions = strings("customer", "c_region")
        self.nations = strings("customer", "c_nation")
        self.cities = strings("customer", "c_city")
        self.mfgrs = strings("part", "p_mfgr")
        self.categories = strings("part", "p_category")
        self.brands = strings("part", "p_brand1")

    def pick(self, values):
        return values[int(self.rng.integers(len(values)))]

    def span(self, values, width: int) -> tuple:
        """Two ordered values at most ``width`` positions apart."""
        low = int(self.rng.integers(len(values)))
        high = min(low + int(self.rng.integers(width + 1)), len(values) - 1)
        return values[low], values[high]

    def city_pair(self) -> tuple[str, str]:
        nation = self.pick(self.nations)
        cities = [city for city in self.cities if city.startswith(f"{nation:<9.9s}")]
        first, second = self.rng.choice(len(cities), 2, replace=False)
        return cities[int(first)], cities[int(second)]

    def text(self, template: int) -> str:
        return TEMPLATES[template](self)


def _q1(g: AdhocGenerator, date_filter: str, quantity: str) -> str:
    low = int(g.rng.integers(0, 9))
    return f"""
        select sum(lo_extendedprice * lo_discount) as revenue
        from lineorder, date
        where lo_orderdate = d_datekey and {date_filter}
          and lo_discount between {low} and {low + 2} and {quantity}
    """


def _quantity_range(g: AdhocGenerator) -> str:
    low = int(g.rng.integers(1, 41))
    return f"lo_quantity between {low} and {low + 9}"


def _q2(g: AdhocGenerator, part_filter: str) -> str:
    return f"""
        select sum(lo_revenue) as revenue, d_year, p_brand1
        from lineorder, date, part, supplier
        where lo_orderdate = d_datekey and lo_partkey = p_partkey
          and lo_suppkey = s_suppkey and {part_filter}
          and s_region = '{g.pick(g.regions)}'
        group by d_year, p_brand1
        order by d_year, p_brand1
    """


def _q3(g: AdhocGenerator, level: str, where: str, date_filter: str) -> str:
    return f"""
        select c_{level}, s_{level}, d_year, sum(lo_revenue) as revenue
        from customer, lineorder, supplier, date
        where lo_custkey = c_custkey and lo_suppkey = s_suppkey
          and lo_orderdate = d_datekey and {where} and {date_filter}
        group by c_{level}, s_{level}, d_year
        order by d_year asc, revenue desc
    """


def _year_range(g: AdhocGenerator) -> str:
    low, high = g.span(g.years, len(g.years))
    return f"d_year >= {low} and d_year <= {high}"


def _cities(g: AdhocGenerator) -> str:
    first, second = g.city_pair()
    return (
        f"(c_city = '{first}' or c_city = '{second}') "
        f"and (s_city = '{first}' or s_city = '{second}')"
    )


def _q4(g: AdhocGenerator, select: str, where: str, group: str) -> str:
    return f"""
        select d_year, {select}, sum(lo_revenue - lo_supplycost) as profit
        from date, customer, supplier, part, lineorder
        where lo_custkey = c_custkey and lo_suppkey = s_suppkey
          and lo_partkey = p_partkey and lo_orderdate = d_datekey and {where}
        group by d_year, {group}
        order by d_year, {group}
    """


def _mfgr_pair(g: AdhocGenerator) -> str:
    first, second = g.rng.choice(len(g.mfgrs), 2, replace=False)
    return f"p_mfgr in ('{g.mfgrs[int(first)]}', '{g.mfgrs[int(second)]}')"


def _two_years(g: AdhocGenerator) -> str:
    first, second = g.span(g.years, 1)
    return f"(d_year = {first} or d_year = {second})"


def _region(g: AdhocGenerator) -> str:
    region = g.pick(g.regions)
    return f"c_region = '{region}' and s_region = '{region}'"


def _nation(g: AdhocGenerator) -> str:
    nation = g.pick(g.nations)
    return f"c_nation = '{nation}' and s_nation = '{nation}'"


#: One template per SSB query, in SSB order.
TEMPLATES = (
    lambda g: _q1(g, f"d_year = {g.pick(g.years)}", f"lo_quantity < {int(g.rng.integers(10, 41))}"),
    lambda g: _q1(g, f"d_yearmonthnum = {g.pick(g.yearmonthnums)}", _quantity_range(g)),
    lambda g: _q1(
        g, f"d_weeknuminyear = {g.pick(g.weeks)} and d_year = {g.pick(g.years)}",
        _quantity_range(g),
    ),
    lambda g: _q2(g, f"p_category = '{g.pick(g.categories)}'"),
    lambda g: _q2(g, "p_brand1 between '{}' and '{}'".format(*g.span(g.brands, 8))),
    lambda g: _q2(g, f"p_brand1 = '{g.pick(g.brands)}'"),
    lambda g: _q3(g, "nation", _region(g), _year_range(g)),
    lambda g: _q3(g, "city", _nation(g), _year_range(g)),
    lambda g: _q3(g, "city", _cities(g), _year_range(g)),
    lambda g: _q3(g, "city", _cities(g), f"d_yearmonth = '{g.pick(g.yearmonths)}'"),
    lambda g: _q4(g, "c_nation", f"{_region(g)} and {_mfgr_pair(g)}", "c_nation"),
    lambda g: _q4(
        g, "s_nation, p_category", f"{_region(g)} and {_two_years(g)} and {_mfgr_pair(g)}",
        "s_nation, p_category",
    ),
    lambda g: _q4(
        g, "s_city, p_brand1",
        f"c_region = '{g.pick(g.regions)}' and s_nation = '{g.pick(g.nations)}' "
        f"and {_two_years(g)} and p_category = '{g.pick(g.categories)}'",
        "s_city, p_brand1",
    ),
)

"""Mini-engine execution tests: selection, projection, joins, aggregates."""

import pytest

from repro.engine import Database, execute_sql
from repro.errors import EngineError


@pytest.fixture
def db(paper_catalog):
    database = Database(paper_catalog)
    database.insert_many(
        "activity",
        [
            ("m1", "idle", 100.0),
            ("m2", "busy", 200.0),
            ("m3", "idle", 300.0),
        ],
    )
    database.insert_many(
        "routing",
        [
            ("m1", "m3", 400.0),
            ("m2", "m3", 500.0),
        ],
    )
    database.insert_many("heartbeat", [("m1", 10.0), ("m2", 20.0), ("m3", 30.0)])
    return database


class TestSelection:
    def test_no_where(self, db):
        result = execute_sql(db, "SELECT mach_id FROM activity")
        assert len(result) == 3

    def test_equality_filter(self, db):
        result = execute_sql(db, "SELECT mach_id FROM activity WHERE value = 'idle'")
        assert sorted(result.column()) == ["m1", "m3"]

    def test_in_list(self, db):
        result = execute_sql(
            db, "SELECT mach_id FROM activity WHERE mach_id IN ('m1', 'm2')"
        )
        assert sorted(result.column()) == ["m1", "m2"]

    def test_range(self, db):
        result = execute_sql(
            db, "SELECT mach_id FROM activity WHERE event_time BETWEEN 150 AND 350"
        )
        assert sorted(result.column()) == ["m2", "m3"]

    def test_or_predicate(self, db):
        result = execute_sql(
            db,
            "SELECT mach_id FROM activity WHERE mach_id = 'm1' OR event_time > 250",
        )
        assert sorted(result.column()) == ["m1", "m3"]

    def test_not_predicate(self, db):
        result = execute_sql(
            db, "SELECT mach_id FROM activity WHERE NOT value = 'idle'"
        )
        assert result.column() == ["m2"]

    def test_constant_false(self, db):
        assert len(execute_sql(db, "SELECT mach_id FROM activity WHERE 1 = 2")) == 0

    def test_constant_true(self, db):
        assert len(execute_sql(db, "SELECT mach_id FROM activity WHERE 1 = 1")) == 3


class TestProjection:
    def test_star_single_table(self, db):
        result = execute_sql(db, "SELECT * FROM activity WHERE mach_id = 'm1'")
        assert result.columns == ["mach_id", "value", "event_time"]
        assert result.rows == [("m1", "idle", 100.0)]

    def test_star_join_prefixes_columns(self, db):
        result = execute_sql(
            db,
            "SELECT * FROM routing R, activity A WHERE R.neighbor = A.mach_id",
        )
        assert "r.mach_id" in result.columns
        assert "a.mach_id" in result.columns

    def test_column_order_preserved(self, db):
        result = execute_sql(db, "SELECT value, mach_id FROM activity")
        assert result.columns == ["value", "mach_id"]

    def test_alias_in_output(self, db):
        result = execute_sql(db, "SELECT mach_id AS machine FROM activity")
        assert result.columns == ["machine"]

    def test_distinct(self, db):
        result = execute_sql(db, "SELECT DISTINCT value FROM activity")
        assert sorted(result.column()) == ["busy", "idle"]

    def test_literal_projection(self, db):
        result = execute_sql(db, "SELECT 1 FROM activity LIMIT 1")
        assert result.rows == [(1,)]

    def test_limit(self, db):
        assert len(execute_sql(db, "SELECT mach_id FROM activity LIMIT 2")) == 2

    def test_scalar_helper(self, db):
        assert execute_sql(db, "SELECT COUNT(*) FROM activity").scalar() == 3

    def test_scalar_rejects_multi_row(self, db):
        with pytest.raises(EngineError):
            execute_sql(db, "SELECT mach_id FROM activity").scalar()


class TestJoins:
    def test_paper_q2(self, db):
        result = execute_sql(
            db,
            "SELECT A.mach_id FROM routing R, activity A "
            "WHERE R.mach_id = 'm1' AND A.value = 'idle' "
            "AND R.neighbor = A.mach_id",
        )
        assert result.rows == [("m3",)]

    def test_cross_join(self, db):
        result = execute_sql(db, "SELECT A.mach_id FROM routing R, activity A")
        assert len(result) == 6

    def test_self_join(self, db):
        result = execute_sql(
            db,
            "SELECT R1.mach_id FROM routing R1, routing R2 "
            "WHERE R1.neighbor = R2.neighbor AND R1.mach_id <> R2.mach_id",
        )
        assert sorted(result.column()) == ["m1", "m2"]

    def test_join_with_null_never_matches(self, db):
        db.insert("routing", ("m3", None, 600.0))
        result = execute_sql(
            db,
            "SELECT R.mach_id FROM routing R, activity A "
            "WHERE R.neighbor = A.mach_id",
        )
        assert "m3" not in result.column()

    def test_three_way_join(self, db):
        result = execute_sql(
            db,
            "SELECT A.mach_id FROM routing R, activity A, heartbeat H "
            "WHERE R.neighbor = A.mach_id AND H.source_id = A.mach_id "
            "AND R.mach_id = 'm1'",
        )
        assert result.rows == [("m3",)]

    def test_non_equi_join(self, db):
        result = execute_sql(
            db,
            "SELECT A.mach_id FROM activity A, heartbeat H "
            "WHERE H.recency > A.event_time",
        )
        assert result.rows == []

    def test_general_boolean_join(self, db):
        # OR across relations exercises the non-conjunctive path.
        result = execute_sql(
            db,
            "SELECT A.mach_id FROM routing R, activity A "
            "WHERE R.neighbor = A.mach_id OR A.mach_id = 'm1'",
        )
        assert sorted(set(result.column())) == ["m1", "m3"]


class TestAggregates:
    def test_count_star(self, db):
        assert execute_sql(db, "SELECT COUNT(*) FROM activity").scalar() == 3

    def test_count_with_filter(self, db):
        assert (
            execute_sql(
                db, "SELECT COUNT(*) FROM activity WHERE value = 'idle'"
            ).scalar()
            == 2
        )

    def test_count_column_skips_nulls(self, db):
        db.insert("routing", ("m3", None, 600.0))
        assert execute_sql(db, "SELECT COUNT(neighbor) FROM routing").scalar() == 2

    def test_count_distinct(self, db):
        assert execute_sql(db, "SELECT COUNT(DISTINCT value) FROM activity").scalar() == 2

    def test_sum_avg_min_max(self, db):
        assert execute_sql(db, "SELECT SUM(event_time) FROM activity").scalar() == 600.0
        assert execute_sql(db, "SELECT AVG(event_time) FROM activity").scalar() == 200.0
        assert execute_sql(db, "SELECT MIN(event_time) FROM activity").scalar() == 100.0
        assert execute_sql(db, "SELECT MAX(event_time) FROM activity").scalar() == 300.0

    def test_aggregates_on_empty_input(self, db):
        assert (
            execute_sql(db, "SELECT COUNT(*) FROM activity WHERE 1 = 2").scalar() == 0
        )
        assert (
            execute_sql(db, "SELECT MAX(event_time) FROM activity WHERE 1 = 2").scalar()
            is None
        )

    def test_sum_of_strings_rejected(self, db):
        with pytest.raises(EngineError):
            execute_sql(db, "SELECT SUM(value) FROM activity")

    def test_group_by(self, db):
        result = execute_sql(
            db, "SELECT value, COUNT(*) FROM activity GROUP BY value"
        )
        assert dict(result.rows) == {"idle": 2, "busy": 1}

    def test_group_by_preserves_first_seen_order(self, db):
        result = execute_sql(db, "SELECT value, COUNT(*) FROM activity GROUP BY value")
        assert [r[0] for r in result.rows] == ["idle", "busy"]

    def test_plain_column_without_group_by_rejected(self, db):
        with pytest.raises(EngineError):
            execute_sql(db, "SELECT mach_id, COUNT(*) FROM activity")

    def test_min_on_strings(self, db):
        assert execute_sql(db, "SELECT MIN(value) FROM activity").scalar() == "busy"


class TestRowBudget:
    """``LIMIT`` as a row budget, asserted as rows *read* (profile counts),
    never as time: a budgeted operator stops at its n-th row, every other
    ``LIMIT`` query reads its whole input, and the rows are the same."""

    ROWS = 5000

    @staticmethod
    def big(paper_catalog, idle_at=()):
        database = Database(paper_catalog)
        database.insert_many(
            "activity",
            [
                (f"m{i % 11 + 1}", "idle" if i + 1 in idle_at else "busy", float(i))
                for i in range(TestRowBudget.ROWS)
            ],
        )
        database.insert_many("routing", [(f"m{i}", f"m{i % 11 + 1}", 0.0) for i in range(1, 12)])
        return database

    @staticmethod
    def ops(database, sql, **kwargs):
        from repro.engine.profile import profile_query

        profile = profile_query(database, sql, **kwargs)
        return {op.op: op for op in profile.operators}, profile

    @pytest.mark.parametrize("first", [1, 2500, 5000])
    def test_guard_reads_up_to_its_first_witness(self, paper_catalog, first):
        database = self.big(paper_catalog, idle_at=(first, 5000))
        ops, _ = self.ops(
            database, "SELECT 1 FROM activity a WHERE a.value = 'idle' LIMIT 1"
        )
        scan = ops["scan"]
        assert (scan.rows_in, scan.rows_out) == (first, 1)
        assert (ops["project"].rows_in, ops["limit"].rows_in, ops["limit"].rows_out) == (1, 1, 1)
        assert scan.rows_available == self.ROWS
        assert scan.detail == "1 pushed predicate(s), stopped at LIMIT 1"

    def test_guard_without_a_witness_reads_everything(self, paper_catalog):
        database = self.big(paper_catalog)
        ops, profile = self.ops(
            database, "SELECT 1 FROM activity a WHERE a.value = 'idle' LIMIT 1"
        )
        scan = ops["scan"]
        assert (scan.rows_in, scan.rows_out, scan.rows_available) == (self.ROWS, 0, None)
        assert execute_sql(database, profile.sql).rows == []
        assert "stopped" not in scan.detail
        assert all(op.rows_available is None for op in profile.operators)
        assert profile.rows == 0

    def test_unfiltered_scan_takes_a_prefix(self, paper_catalog):
        database = self.big(paper_catalog)
        ops, _ = self.ops(database, "SELECT mach_id FROM activity LIMIT 3")
        assert (ops["scan"].rows_in, ops["scan"].rows_out) == (3, 3)
        assert ops["scan"].detail == "full scan, stopped at LIMIT 3"

    def test_last_join_step_stops_at_its_first_joined_witness(self, paper_catalog):
        database = self.big(paper_catalog, idle_at=(7,))
        sql = (
            "SELECT 1 FROM activity a, routing r "
            "WHERE r.neighbor = a.mach_id AND a.value = 'idle' LIMIT 1"
        )
        ops, _ = self.ops(database, sql)
        join = ops["join"]
        assert join.rows_out == 1 and join.rows_in <= join.rows_available
        assert join.detail.endswith("residual term(s), stopped at LIMIT 1")
        assert "filter" not in ops  # the residual ran inside the budgeted join
        assert (ops["project"].rows_in, ops["limit"].rows_in) == (1, 1)
        assert execute_sql(database, sql).rows == [(1,)]

    def test_nested_loop_and_general_path_stop_too(self, paper_catalog):
        database = self.big(paper_catalog)
        ops, _ = self.ops(database, "SELECT 1 FROM activity a, routing r LIMIT 2")
        assert ops["join"].detail.startswith("nested loop")
        assert (ops["join"].rows_in, ops["join"].rows_out, ops["project"].rows_in) == (1, 2, 2)
        ops, _ = self.ops(
            database,
            "SELECT a.mach_id FROM activity a, routing r "
            "WHERE a.event_time > 2.0 OR r.mach_id = 'm1' LIMIT 4",
        )
        cross = ops["cross_product"]
        # a's first three rows pair only with r = m1 (combinations 1, 12, 23);
        # its fourth passes the first disjunct at combination 34.
        assert (cross.rows_in, cross.rows_out) == (34, 4)
        assert cross.rows_available == self.ROWS * 11
        assert cross.detail == "filtered cross product, stopped at LIMIT 4"

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT mach_id FROM activity WHERE value = 'busy' LIMIT 0",
            "SELECT mach_id FROM activity WHERE value = 'busy' LIMIT 9999",
            "SELECT mach_id FROM activity WHERE value = 'busy' ORDER BY event_time DESC LIMIT 2",
            "SELECT DISTINCT mach_id FROM activity WHERE value = 'busy' LIMIT 2",
            "SELECT COUNT(*) FROM activity WHERE value = 'busy' LIMIT 1",
            "SELECT mach_id, COUNT(*) FROM activity WHERE value = 'busy' GROUP BY mach_id LIMIT 2",
            "SELECT a.mach_id FROM activity a, routing r WHERE a.event_time < 3.0 "
            "OR r.mach_id = 'm1' ORDER BY a.event_time LIMIT 2",
        ],
    )
    def test_unbudgeted_limits_read_their_whole_input(self, paper_catalog, sql):
        database = self.big(paper_catalog, idle_at=(1,))
        ops, profile = self.ops(database, sql)
        reader = ops.get("scan") or ops["cross_product"]
        assert reader.rows_in == (self.ROWS if "scan" in ops else self.ROWS * 11)
        assert reader.rows_available is None and "stopped" not in reader.detail
        unlimited = execute_sql(database, sql[: sql.index(" LIMIT")]).rows
        limit = int(sql.rsplit(" ", 1)[1])
        assert execute_sql(database, sql).rows == unlimited[:limit]
        assert ops["limit"].rows_out == profile.rows == len(unlimited[:limit])

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT a.mach_id, a.event_time FROM activity a WHERE a.value = 'idle' LIMIT 2",
            "SELECT a.mach_id, r.mach_id FROM activity a, routing r "
            "WHERE r.neighbor = a.mach_id AND a.event_time > 40.0 LIMIT 3",
            "SELECT a.mach_id, r.mach_id FROM activity a, routing r "
            "WHERE r.neighbor = a.mach_id OR a.event_time < 2.0 LIMIT 5",
        ],
    )
    @pytest.mark.parametrize("compiled", [True, False])
    def test_budgeted_rows_and_lineage_are_the_sliced_unlimited_run(
        self, paper_catalog, sql, compiled
    ):
        database = self.big(paper_catalog, idle_at=(3, 40, 41, 4000))
        limit = int(sql.rsplit(" ", 1)[1])
        full = execute_sql(database, sql[: sql.index(" LIMIT")], compiled=compiled, lineage=True)
        cut = execute_sql(database, sql, compiled=compiled, lineage=True)
        assert len(cut.rows) == limit
        assert cut.rows == full.rows[:limit]
        assert cut.lineage == full.lineage[:limit] and len(cut.lineage) == len(cut.rows)
        assert all(cut.lineage)

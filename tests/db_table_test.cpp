// Direct storage-layer tests: Table heap, tombstones, index maintenance,
// ordered-index range scans, and schema DDL round-trips — below the SQL
// surface that db_exec_test covers.

#include <gtest/gtest.h>

#include "db/database.hpp"
#include "db/table.hpp"
#include "support/error.hpp"
#include "support/str.hpp"

namespace kdb = kojak::db;
using kdb::ColumnDef;
using kdb::Index;
using kdb::Table;
using kdb::TableSchema;
using kdb::Value;
using kdb::ValueType;
using kojak::support::EvalError;

namespace {

TableSchema people_schema() {
  return TableSchema(
      "people", {ColumnDef{"id", ValueType::kInt, false, true},
                 ColumnDef{"name", ValueType::kString, true, false},
                 ColumnDef{"age", ValueType::kInt, true, false}});
}

Table seeded_table() {
  Table table(people_schema());
  table.insert({Value::integer(1), Value::text("ada"), Value::integer(36)});
  table.insert({Value::integer(2), Value::text("bob"), Value::integer(25)});
  table.insert({Value::integer(3), Value::text("cyd"), Value::integer(36)});
  return table;
}

}  // namespace

TEST(Schema, Lookup) {
  const TableSchema schema = people_schema();
  EXPECT_EQ(schema.name(), "people");
  EXPECT_EQ(schema.column_count(), 3u);
  EXPECT_EQ(schema.find_column("NAME"), 1u);  // case-insensitive
  EXPECT_FALSE(schema.find_column("nope").has_value());
  EXPECT_EQ(schema.primary_key(), 0u);
}

TEST(Schema, RejectsDuplicateColumns) {
  EXPECT_THROW(TableSchema("t", {ColumnDef{"a", ValueType::kInt, true, false},
                                 ColumnDef{"A", ValueType::kInt, true, false}}),
               EvalError);
}

TEST(Schema, DdlRoundTrip) {
  // to_ddl must re-create an equivalent schema through the SQL front end.
  kdb::Database db;
  db.execute(people_schema().to_ddl());
  const Table& table = db.table("people");
  EXPECT_EQ(table.schema().column_count(), 3u);
  EXPECT_TRUE(table.schema().column(0).primary_key);
  EXPECT_FALSE(table.schema().column(0).nullable);
  EXPECT_TRUE(table.schema().column(1).nullable);
}

TEST(Table, InsertValidates) {
  Table table = seeded_table();
  EXPECT_EQ(table.live_row_count(), 3u);
  // Arity.
  EXPECT_THROW(table.insert({Value::integer(9)}), EvalError);
  // Primary key NULL.
  EXPECT_THROW(
      table.insert({Value::null(), Value::text("x"), Value::integer(1)}),
      EvalError);
  // Duplicate primary key.
  EXPECT_THROW(
      table.insert({Value::integer(1), Value::text("dup"), Value::integer(1)}),
      EvalError);
  // Type coercion int -> double is allowed, string -> int is not.
  EXPECT_THROW(
      table.insert({Value::integer(4), Value::integer(42), Value::integer(1)}),
      EvalError);
}

TEST(Table, TombstonesKeepIdsStable) {
  Table table = seeded_table();
  table.erase(1);
  EXPECT_EQ(table.live_row_count(), 2u);
  EXPECT_EQ(table.heap_size(), 3u);
  EXPECT_FALSE(table.is_live(1));
  EXPECT_TRUE(table.is_live(2));
  EXPECT_EQ(table.live_rows(), (std::vector<std::size_t>{0, 2}));
  // Double-erase is an error.
  EXPECT_THROW(table.erase(1), EvalError);
  // The key of the erased row is reusable.
  table.insert({Value::integer(2), Value::text("bob2"), Value::integer(26)});
  EXPECT_EQ(table.live_row_count(), 3u);
}

TEST(Table, UpdateRevalidates) {
  Table table = seeded_table();
  table.update(0, {Value::integer(1), Value::text("ada!"), Value::null()});
  EXPECT_EQ(table.row(0)[1].as_string(), "ada!");
  EXPECT_TRUE(table.row(0)[2].is_null());
  EXPECT_THROW(
      table.update(0, {Value::null(), Value::text("x"), Value::null()}),
      EvalError);
}

TEST(Index, HashEqualRange) {
  Table table = seeded_table();
  table.create_index("by_age", 2, Index::Kind::kHash);
  const Index* index = table.find_index_on(2);
  ASSERT_NE(index, nullptr);
  EXPECT_EQ(index->equal_range(Value::integer(36)).size(), 2u);
  EXPECT_EQ(index->equal_range(Value::integer(99)).size(), 0u);
}

TEST(Index, MaintainedAcrossMutations) {
  Table table = seeded_table();
  table.create_index("by_age", 2, Index::Kind::kHash);
  const Index* index = table.find_index_on(2);
  table.erase(0);  // ada, 36
  EXPECT_EQ(index->equal_range(Value::integer(36)).size(), 1u);
  table.update(1, {Value::integer(2), Value::text("bob"), Value::integer(36)});
  EXPECT_EQ(index->equal_range(Value::integer(36)).size(), 2u);
  EXPECT_EQ(index->equal_range(Value::integer(25)).size(), 0u);
}

TEST(Index, BuiltOverExistingRows) {
  Table table = seeded_table();
  // Index created after inserts must see them.
  table.create_index("late", 1, Index::Kind::kHash);
  EXPECT_EQ(table.find_index_on(1)->equal_range(Value::text("cyd")).size(), 1u);
}

TEST(Index, OrderedRangeScan) {
  Table table(people_schema());
  for (int i = 0; i < 20; ++i) {
    table.insert({Value::integer(i), Value::text("p"), Value::integer(i * 10)});
  }
  table.create_index("ord", 2, Index::Kind::kOrdered);
  const Index* index = table.find_index_on(2);
  const auto hits = index->range(Value::integer(35), Value::integer(90));
  // ages 40,50,60,70,80,90 -> rows 4..9
  EXPECT_EQ(hits.size(), 6u);
  // Hash indexes reject range scans.
  table.create_index("h", 0, Index::Kind::kHash);
  EXPECT_THROW((void)table.find_index_on(0)->range(Value::integer(0),
                                                   Value::integer(5)),
               EvalError);
}

TEST(Index, OrderedViaSqlSurface) {
  kdb::Database db;
  db.execute(
      "CREATE TABLE t (k INTEGER, v TEXT);"
      "CREATE ORDERED INDEX ord_k ON t (k);"
      "INSERT INTO t VALUES (5, 'a'), (1, 'b'), (3, 'c'), (5, 'd')");
  // Equality probes work through either index kind.
  EXPECT_EQ(db.execute("SELECT v FROM t WHERE k = 5").row_count(), 2u);
}

TEST(Index, CreateIndexValidatesColumn) {
  Table table = seeded_table();
  EXPECT_THROW(table.create_index("bad", 9, Index::Kind::kHash), EvalError);
}

TEST(QueryResult, Helpers) {
  kdb::QueryResult result;
  result.columns = {"a", "b"};
  result.rows.push_back({Value::integer(1), Value::text("x")});
  EXPECT_EQ(result.column_index("B"), 1u);
  EXPECT_THROW((void)result.column_index("c"), EvalError);
  EXPECT_THROW((void)result.scalar(), EvalError);  // 1x2, not scalar

  kdb::QueryResult scalar;
  scalar.columns = {"n"};
  scalar.rows.push_back({Value::integer(7)});
  EXPECT_EQ(scalar.scalar().as_int(), 7);

  kdb::QueryResult empty;
  empty.columns = {"n"};
  EXPECT_TRUE(empty.scalar().is_null());

  const std::string table_text = result.to_table();
  EXPECT_NE(table_text.find("a | b"), std::string::npos);
  EXPECT_NE(table_text.find("1 | x"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Ordered-index range access path through the SQL surface

namespace {

/// Builds two identical databases, one with an ordered index; every range
/// query must agree between the indexed and scan paths.
struct RangePair {
  kdb::Database indexed;
  kdb::Database plain;

  RangePair() {
    for (kdb::Database* db : {&indexed, &plain}) {
      db->execute("CREATE TABLE t (id INTEGER PRIMARY KEY, k DOUBLE)");
    }
    indexed.execute("CREATE ORDERED INDEX ord_k ON t (k)");
    for (int i = 0; i < 200; ++i) {
      const std::string insert = kojak::support::cat(
          "INSERT INTO t VALUES (", i, ", ",
          i % 13 == 0 ? "NULL" : std::to_string((i * 37) % 100), ")");
      indexed.execute(insert);
      plain.execute(insert);
    }
  }
};

}  // namespace

TEST(RangeScan, MatchesFullScanOnEveryOperator) {
  RangePair pair;
  const char* queries[] = {
      "SELECT id FROM t WHERE k > 30 ORDER BY id",
      "SELECT id FROM t WHERE k >= 30 ORDER BY id",
      "SELECT id FROM t WHERE k < 12 ORDER BY id",
      "SELECT id FROM t WHERE k <= 12 ORDER BY id",
      "SELECT id FROM t WHERE k > 20 AND k < 40 ORDER BY id",
      "SELECT id FROM t WHERE k >= 20 AND k <= 20 ORDER BY id",
      "SELECT id FROM t WHERE 50 < k ORDER BY id",       // mirrored operand
      "SELECT id FROM t WHERE k > 25 AND id > 100 ORDER BY id",
      "SELECT COUNT(*) FROM t WHERE k > 90",
  };
  for (const char* query : queries) {
    const kdb::QueryResult a = pair.indexed.execute(query);
    const kdb::QueryResult b = pair.plain.execute(query);
    ASSERT_EQ(a.row_count(), b.row_count()) << query;
    for (std::size_t r = 0; r < a.row_count(); ++r) {
      EXPECT_EQ(a.at(r, 0).as_int(), b.at(r, 0).as_int()) << query;
    }
  }
}

TEST(RangeScan, NullKeysNeverMatchRanges) {
  RangePair pair;
  // NULL k rows must not appear however the range is phrased.
  const auto result =
      pair.indexed.execute("SELECT COUNT(*) FROM t WHERE k >= 0");
  const auto nulls =
      pair.indexed.execute("SELECT COUNT(*) FROM t WHERE k IS NULL");
  EXPECT_EQ(result.scalar().as_int() + nulls.scalar().as_int(), 200);
}

TEST(RangeScan, RangeOpenDirect) {
  Table table(people_schema());
  for (int i = 0; i < 10; ++i) {
    table.insert({Value::integer(i), Value::text("p"), Value::integer(i)});
  }
  table.create_index("ord", 2, Index::Kind::kOrdered);
  const Index* index = table.find_index_on(2);
  const Value lo = Value::integer(7);
  EXPECT_EQ(index->range_open(&lo, nullptr).size(), 3u);  // 7, 8, 9
  const Value hi = Value::integer(2);
  EXPECT_EQ(index->range_open(nullptr, &hi).size(), 3u);  // 0, 1, 2
  EXPECT_EQ(index->range_open(nullptr, nullptr).size(), 10u);
}

// ---------------------------------------------------------------------------
// NULL keys in ordered-index range scans

TEST(Index, RangeOpenExcludesNullKeys) {
  Table table(people_schema());
  for (int i = 0; i < 12; ++i) {
    table.insert({Value::integer(i), Value::text("p"),
                  i % 3 == 0 ? Value::null() : Value::integer(i)});
  }
  table.create_index("ord", 2, Index::Kind::kOrdered);
  const Index* index = table.find_index_on(2);
  // 4 of 12 keys are NULL; no range phrasing may ever return them.
  EXPECT_EQ(index->range_open(nullptr, nullptr).size(), 8u);
  const Value lo = Value::integer(0);
  EXPECT_EQ(index->range_open(&lo, nullptr).size(), 8u);
  const Value hi = Value::integer(100);
  EXPECT_EQ(index->range_open(nullptr, &hi).size(), 8u);
  EXPECT_EQ(index->range(lo, hi).size(), 8u);
  for (const std::size_t id : index->range_open(nullptr, nullptr)) {
    EXPECT_FALSE(table.row(id)[2].is_null());
  }
}

// ---------------------------------------------------------------------------
// Partitioned storage

namespace {

/// people schema hash-partitioned on the age column (index 2).
TableSchema hash_partitioned_schema(std::size_t partitions) {
  TableSchema schema = people_schema();
  kdb::PartitionSpec spec;
  spec.method = kdb::PartitionSpec::Method::kHash;
  spec.column = "age";
  spec.partitions = partitions;
  schema.set_partition(std::move(spec));
  return schema;
}

}  // namespace

TEST(Partition, RoutingIsDeterministicAndNullSafe) {
  Table table(hash_partitioned_schema(4));
  EXPECT_EQ(table.partition_count(), 4u);
  EXPECT_EQ(table.partition_column(), 2u);
  for (int v = 0; v < 50; ++v) {
    const std::size_t p = table.route(Value::integer(v));
    EXPECT_LT(p, 4u);
    EXPECT_EQ(p, table.route(Value::integer(v)));
  }
  EXPECT_EQ(table.route(Value::null()), 0u);
}

TEST(Partition, RangeRoutingFollowsBounds) {
  TableSchema schema = people_schema();
  kdb::PartitionSpec spec;
  spec.method = kdb::PartitionSpec::Method::kRange;
  spec.column = "age";
  spec.range_bounds = {Value::integer(10), Value::integer(20)};
  schema.set_partition(std::move(spec));
  Table table(std::move(schema));
  EXPECT_EQ(table.partition_count(), 3u);
  EXPECT_EQ(table.route(Value::integer(-5)), 0u);
  EXPECT_EQ(table.route(Value::integer(10)), 0u);  // inclusive upper bound
  EXPECT_EQ(table.route(Value::integer(11)), 1u);
  EXPECT_EQ(table.route(Value::integer(20)), 1u);
  EXPECT_EQ(table.route(Value::integer(21)), 2u);  // overflow partition
  EXPECT_EQ(table.route(Value::null()), 0u);
}

TEST(Partition, BoundsMustAscend) {
  TableSchema schema = people_schema();
  kdb::PartitionSpec spec;
  spec.method = kdb::PartitionSpec::Method::kRange;
  spec.column = "age";
  spec.range_bounds = {Value::integer(20), Value::integer(10)};
  EXPECT_THROW(schema.set_partition(std::move(spec)), EvalError);
  kdb::PartitionSpec unknown;
  unknown.column = "nope";
  unknown.partitions = 2;
  EXPECT_THROW(schema.set_partition(std::move(unknown)), EvalError);
}

TEST(Partition, RowIdsEncodePartitionAndStayStable) {
  Table table(hash_partitioned_schema(4));
  std::vector<std::size_t> ids;
  for (int i = 0; i < 40; ++i) {
    ids.push_back(table.insert(
        {Value::integer(i), Value::text("p"), Value::integer(i * 7)}));
  }
  EXPECT_EQ(table.live_row_count(), 40u);
  EXPECT_EQ(table.heap_size(), 40u);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    // The id's partition bits must agree with the router.
    EXPECT_EQ(kdb::row_id_partition(ids[i]),
              table.route(Value::integer(static_cast<int>(i) * 7)));
    EXPECT_TRUE(table.is_live(ids[i]));
    EXPECT_EQ(table.row(ids[i])[0].as_int(), static_cast<int>(i));
  }
  // Tombstoning one row leaves every other id untouched.
  table.erase(ids[17]);
  EXPECT_FALSE(table.is_live(ids[17]));
  EXPECT_EQ(table.live_row_count(), 39u);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i == 17) continue;
    EXPECT_TRUE(table.is_live(ids[i]));
  }
  // live_rows is partition-major: partition indices never decrease.
  const std::vector<std::size_t> live = table.live_rows();
  EXPECT_EQ(live.size(), 39u);
  for (std::size_t i = 1; i < live.size(); ++i) {
    EXPECT_LE(kdb::row_id_partition(live[i - 1]),
              kdb::row_id_partition(live[i]));
  }
}

TEST(Partition, SinglePartitionKeepsPlainOffsets) {
  // Partition 0 encodes to the local offset, so an unpartitioned table (and
  // partition 0 of any table) keeps the seed's id contract bit for bit.
  Table table = seeded_table();
  EXPECT_EQ(table.partition_count(), 1u);
  EXPECT_EQ(table.insert({Value::integer(9), Value::text("x"),
                          Value::integer(1)}),
            3u);
}

TEST(Partition, IndexMaintainedAcrossMutations) {
  Table table(hash_partitioned_schema(4));
  table.create_index("by_name", 1, Index::Kind::kHash);
  for (int i = 0; i < 30; ++i) {
    table.insert({Value::integer(i), Value::text(i % 2 == 0 ? "even" : "odd"),
                  Value::integer(i)});
  }
  const Index* index = table.find_index_on(1);
  ASSERT_NE(index, nullptr);
  EXPECT_EQ(index->shard_count(), 4u);
  EXPECT_EQ(index->equal_range(Value::text("even")).size(), 15u);

  // Erase through the index-maintenance path.
  const auto evens = index->equal_range(Value::text("even"));
  table.erase(evens[0]);
  EXPECT_EQ(index->equal_range(Value::text("even")).size(), 14u);

  // In-place update (partition column unchanged) re-keys the index.
  const auto odds = index->equal_range(Value::text("odd"));
  const kdb::Row& row = table.row(odds[0]);
  table.update(odds[0],
               {row[0], Value::text("even"), row[2]});
  EXPECT_EQ(index->equal_range(Value::text("even")).size(), 15u);
  EXPECT_EQ(index->equal_range(Value::text("odd")).size(), 14u);
}

TEST(Partition, UpdateMovesRowAcrossPartitions) {
  Table table(hash_partitioned_schema(8));
  table.create_index("by_name", 1, Index::Kind::kHash);
  const std::size_t id =
      table.insert({Value::integer(1), Value::text("mover"), Value::integer(3)});
  // Find an age value that routes to a different partition than 3 does.
  int other = -1;
  for (int v = 4; v < 100; ++v) {
    if (table.route(Value::integer(v)) != kdb::row_id_partition(id)) {
      other = v;
      break;
    }
  }
  ASSERT_NE(other, -1);
  table.update(id, {Value::integer(1), Value::text("mover"),
                    Value::integer(other)});
  // The old id died; the row lives on in the target partition and the
  // index followed it.
  EXPECT_FALSE(table.is_live(id));
  EXPECT_EQ(table.live_row_count(), 1u);
  const auto hits = table.find_index_on(1)->equal_range(Value::text("mover"));
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(kdb::row_id_partition(hits[0]),
            table.route(Value::integer(other)));
  EXPECT_EQ(table.row(hits[0])[2].as_int(), other);
}

TEST(Partition, PrimaryKeyUniqueAcrossPartitions) {
  // The PK is NOT the partition column: a duplicate key that would land in
  // a different partition must still be rejected (with and without an
  // index on the key).
  Table plain(hash_partitioned_schema(4));
  plain.insert({Value::integer(1), Value::text("a"), Value::integer(10)});
  EXPECT_THROW(
      plain.insert({Value::integer(1), Value::text("b"), Value::integer(11)}),
      EvalError);
  Table indexed(hash_partitioned_schema(4));
  indexed.create_index("pk", 0, Index::Kind::kHash);
  indexed.insert({Value::integer(1), Value::text("a"), Value::integer(10)});
  EXPECT_THROW(
      indexed.insert({Value::integer(1), Value::text("b"), Value::integer(11)}),
      EvalError);
}

TEST(Partition, OrderedIndexMergesShardsInKeyOrder) {
  // Ordered index on the PK of a table hash-partitioned on age: range
  // results must come back in global key order even though the keys are
  // spread over four shards, with NULL range keys excluded per shard.
  Table table(hash_partitioned_schema(4));
  table.create_index("ord_id", 0, Index::Kind::kOrdered);
  for (int i = 29; i >= 0; --i) {
    table.insert({Value::integer(i), Value::text("p"), Value::integer(i * 13)});
  }
  const Index* index = table.find_index_on(0);
  const Value lo = Value::integer(5);
  const Value hi = Value::integer(24);
  const auto hits = index->range(lo, hi);
  ASSERT_EQ(hits.size(), 20u);
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(table.row(hits[i])[0].as_int(),
              static_cast<std::int64_t>(i) + 5);
  }
}

TEST(Partition, ForEachLiveRowMatchesLiveRows) {
  Table table(hash_partitioned_schema(4));
  for (int i = 0; i < 20; ++i) {
    table.insert({Value::integer(i), Value::text("p"), Value::integer(i)});
  }
  const auto all = table.live_rows();
  table.erase(all[3]);
  table.erase(all[11]);

  std::vector<std::size_t> visited;
  table.for_each_live_row([&](std::size_t row_id, const kdb::Row& row) {
    EXPECT_EQ(&row, &table.row(row_id));  // zero-copy: the heap row itself
    visited.push_back(row_id);
  });
  EXPECT_EQ(visited, table.live_rows());

  // The per-partition visitor covers exactly the partition-major stream.
  std::vector<std::size_t> by_partition;
  for (std::size_t p = 0; p < table.partition_count(); ++p) {
    table.for_each_live_row_in(p, [&](std::size_t row_id, const kdb::Row&) {
      by_partition.push_back(row_id);
    });
    EXPECT_EQ(table.live_rows_in(p).size(),
              table.partition_live_count(p));
  }
  EXPECT_EQ(by_partition, visited);
}

TEST(Partition, DdlRoundTrip) {
  kdb::Database db;
  db.execute(
      "CREATE TABLE ph (k INTEGER, v TEXT) PARTITION BY HASH(k) PARTITIONS 8");
  db.execute(
      "CREATE TABLE pr (k INTEGER, v TEXT) "
      "PARTITION BY RANGE(k) VALUES (10, 20)");
  const Table& ph = db.table("ph");
  EXPECT_EQ(ph.partition_count(), 8u);
  const Table& pr = db.table("pr");
  EXPECT_EQ(pr.partition_count(), 3u);

  // to_ddl re-creates equivalent partitioned schemas through the front end.
  kdb::Database copy;
  copy.execute(ph.schema().to_ddl());
  copy.execute(pr.schema().to_ddl());
  EXPECT_EQ(copy.table("ph").partition_count(), 8u);
  EXPECT_EQ(copy.table("pr").partition_count(), 3u);
  ASSERT_TRUE(copy.table("pr").schema().partition().has_value());
  EXPECT_EQ(copy.table("pr").schema().partition()->range_bounds.size(), 2u);
  for (int v : {-3, 0, 10, 15, 20, 99}) {
    EXPECT_EQ(copy.table("pr").route(Value::integer(v)),
              pr.route(Value::integer(v)))
        << v;
  }
}

TEST(Partition, VersionsBumpTheOwningPartitionOnEveryMutation) {
  Table table(hash_partitioned_schema(4));
  for (std::size_t p = 0; p < 4; ++p) {
    EXPECT_EQ(table.partition_version(p), 0u);
  }
  EXPECT_EQ(table.table_version(), 0u);

  // Insert bumps exactly the routed partition.
  const std::size_t id =
      table.insert({Value::integer(1), Value::text("ada"), Value::integer(3)});
  const std::size_t home = table.route(Value::integer(3));
  EXPECT_EQ(table.partition_version(home), 1u);
  EXPECT_EQ(table.table_version(), 1u);

  // In-place update (partition column unchanged) bumps the same partition
  // once.
  table.update(id, {Value::integer(1), Value::text("eda"), Value::integer(3)});
  EXPECT_EQ(table.partition_version(home), 2u);
  EXPECT_EQ(table.table_version(), 2u);

  // Cross-partition move bumps BOTH sides: the source (row leaves) and the
  // target (row arrives).
  int other = -1;
  for (int v = 4; v < 100; ++v) {
    if (table.route(Value::integer(v)) != home) {
      other = v;
      break;
    }
  }
  ASSERT_NE(other, -1);
  table.update(id, {Value::integer(1), Value::text("eda"),
                    Value::integer(other)});
  const std::size_t target = table.route(Value::integer(other));
  EXPECT_EQ(table.partition_version(home), 3u);
  EXPECT_EQ(table.partition_version(target), 1u);
  EXPECT_EQ(table.table_version(), 4u);

  // Erase bumps the partition the row died in.
  const auto live = table.live_rows();
  ASSERT_EQ(live.size(), 1u);
  table.erase(live[0]);
  EXPECT_EQ(table.partition_version(target), 2u);
  EXPECT_EQ(table.table_version(), 5u);
  // Untouched partitions never moved.
  for (std::size_t p = 0; p < 4; ++p) {
    if (p != home && p != target) {
      EXPECT_EQ(table.partition_version(p), 0u);
    }
  }
}

TEST(Partition, StoreEpochSumsTableVersionsAndNeverDecreases) {
  kdb::Database db;
  db.execute(
      "CREATE TABLE a (k INTEGER, v TEXT) PARTITION BY HASH(k) PARTITIONS 4");
  db.execute("CREATE TABLE b (k INTEGER)");
  EXPECT_EQ(db.store_epoch(), 0u);

  std::uint64_t last = 0;
  for (int i = 0; i < 6; ++i) {
    db.execute(kojak::support::cat("INSERT INTO a VALUES (", i, ", 'x')"));
    const std::uint64_t now = db.store_epoch();
    EXPECT_GT(now, last);  // every mutation advances the epoch
    last = now;
  }
  db.execute("INSERT INTO b VALUES (9)");
  EXPECT_EQ(db.store_epoch(), last + 1);
  db.execute("DELETE FROM a WHERE k = 0");
  EXPECT_EQ(db.store_epoch(), last + 2);
  EXPECT_EQ(db.store_epoch(),
            db.table("a").table_version() + db.table("b").table_version());
}

// ---------------------------------------------------------------------------
// Columnar storage: typed column vectors + validity bitmap per partition,
// lane-aligned with the row heap (lane i == heap row i, tombstones and all)

namespace {

TableSchema columnar_schema(std::size_t partitions) {
  TableSchema schema = hash_partitioned_schema(partitions);
  schema.set_storage(kdb::StorageMode::kColumnar);
  return schema;
}

}  // namespace

TEST(ColumnarTable, ColumnSlicesMirrorTheHeapIncludingNulls) {
  Table table(columnar_schema(4));
  std::vector<std::size_t> ids;
  for (int i = 0; i < 20; ++i) {
    ids.push_back(table.insert(
        {Value::integer(i),
         i % 5 == 0 ? Value::null() : Value::text(kojak::support::cat("n", i)),
         Value::integer(i % 7)}));
  }

  // Every live row reads back identically through its column lanes.
  for (const std::size_t id : ids) {
    const std::size_t p = kdb::row_id_partition(id);
    const std::size_t lane = kdb::row_id_local(id);
    const kdb::Row& row = table.row(id);
    const Table::ColumnSlice names = table.column_slice(p, 1);
    const Table::ColumnSlice ages = table.column_slice(p, 2);
    ASSERT_EQ(names.size, table.partition_heap_size(p));
    if (row[1].is_null()) {
      EXPECT_EQ(names.valid[lane], 0);
    } else {
      EXPECT_EQ(names.valid[lane], 1);
      EXPECT_EQ(names.strs[lane], row[1].as_string());
    }
    EXPECT_EQ(ages.ints[lane], row[2].as_int());
    EXPECT_EQ(table.live_bits(p)[lane], 1);
  }

  // Erase leaves the lane in place; only the live bitmap changes.
  const std::size_t victim = ids[3];
  const std::size_t vp = kdb::row_id_partition(victim);
  const std::size_t vlane = kdb::row_id_local(victim);
  const std::size_t heap_before = table.partition_heap_size(vp);
  table.erase(victim);
  EXPECT_EQ(table.live_bits(vp)[vlane], 0);
  EXPECT_EQ(table.partition_heap_size(vp), heap_before);
  EXPECT_EQ(table.column_slice(vp, 2).size, heap_before);

  // In-place update overwrites the lane, including null <-> value flips.
  const std::size_t target = ids[5];  // name was NULL (5 % 5 == 0)
  const std::size_t tp = kdb::row_id_partition(target);
  const std::size_t tlane = kdb::row_id_local(target);
  ASSERT_EQ(table.column_slice(tp, 1).valid[tlane], 0);
  table.update(target,
               {Value::integer(5), Value::text("filled"), Value::integer(5 % 7)});
  EXPECT_EQ(table.column_slice(tp, 1).valid[tlane], 1);
  EXPECT_EQ(table.column_slice(tp, 1).strs[tlane], "filled");
  table.update(target,
               {Value::integer(5), Value::null(), Value::integer(5 % 7)});
  EXPECT_EQ(table.column_slice(tp, 1).valid[tlane], 0);

  // Row tables have no column store to slice.
  Table row_table(hash_partitioned_schema(2));
  row_table.insert({Value::integer(1), Value::text("x"), Value::integer(1)});
  EXPECT_FALSE(row_table.columnar());
  EXPECT_THROW((void)row_table.column_slice(0, 1), EvalError);
}

TEST(ColumnarTable, IndexMaintainedAcrossMutations) {
  Table table(columnar_schema(4));
  table.create_index("by_name", 1, Index::Kind::kHash);
  for (int i = 0; i < 30; ++i) {
    table.insert({Value::integer(i), Value::text(i % 2 == 0 ? "even" : "odd"),
                  Value::integer(i)});
  }
  const Index* index = table.find_index_on(1);
  ASSERT_NE(index, nullptr);
  EXPECT_EQ(index->equal_range(Value::text("even")).size(), 15u);

  const auto evens = index->equal_range(Value::text("even"));
  table.erase(evens[0]);
  EXPECT_EQ(index->equal_range(Value::text("even")).size(), 14u);

  // Re-keying through update keeps index and column lanes in step.
  const auto odds = index->equal_range(Value::text("odd"));
  const kdb::Row& row = table.row(odds[0]);
  const std::size_t lane = kdb::row_id_local(odds[0]);
  table.update(odds[0], {row[0], Value::text("even"), row[2]});
  EXPECT_EQ(index->equal_range(Value::text("even")).size(), 15u);
  EXPECT_EQ(
      table.column_slice(kdb::row_id_partition(odds[0]), 1).strs[lane],
      "even");
}

TEST(ColumnarTable, UpdateMovesLanesAcrossPartitions) {
  Table table(columnar_schema(8));
  table.create_index("by_name", 1, Index::Kind::kHash);
  const std::size_t id =
      table.insert({Value::integer(1), Value::text("mover"), Value::integer(3)});
  int other = -1;
  for (int v = 4; v < 100; ++v) {
    if (table.route(Value::integer(v)) != kdb::row_id_partition(id)) {
      other = v;
      break;
    }
  }
  ASSERT_NE(other, -1);
  table.update(id, {Value::integer(1), Value::text("mover"),
                    Value::integer(other)});

  // The source lane is tombstoned, the target partition grew a fresh lane
  // carrying the new values, and the index follows the move.
  EXPECT_FALSE(table.is_live(id));
  EXPECT_EQ(table.live_bits(kdb::row_id_partition(id))[kdb::row_id_local(id)],
            0);
  const auto hits = table.find_index_on(1)->equal_range(Value::text("mover"));
  ASSERT_EQ(hits.size(), 1u);
  const std::size_t np = kdb::row_id_partition(hits[0]);
  const std::size_t nlane = kdb::row_id_local(hits[0]);
  EXPECT_EQ(np, table.route(Value::integer(other)));
  EXPECT_EQ(table.column_slice(np, 2).ints[nlane], other);
  EXPECT_EQ(table.column_slice(np, 1).strs[nlane], "mover");
  EXPECT_EQ(table.live_bits(np)[nlane], 1);
}

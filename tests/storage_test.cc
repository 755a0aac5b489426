// Tests for the single-version store (undo discipline) and the
// multiversion store (visibility, pending versions, FCW probes, GC).

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "critique/storage/mv_store.h"
#include "critique/storage/sv_store.h"

namespace critique {
namespace {

TEST(SingleVersionStoreTest, PutGetErase) {
  SingleVersionStore store;
  EXPECT_FALSE(store.Get("x").has_value());
  EXPECT_FALSE(store.Contains("x"));

  auto before = store.Put("x", Row::Scalar(Value(50)));
  EXPECT_FALSE(before.has_value());
  ASSERT_TRUE(store.Get("x").has_value());
  EXPECT_TRUE(store.Get("x")->scalar().Equals(Value(50)));
  EXPECT_EQ(store.size(), 1u);

  before = store.Put("x", Row::Scalar(Value(10)));
  ASSERT_TRUE(before.has_value());
  EXPECT_TRUE(before->scalar().Equals(Value(50)));

  auto erased = store.Erase("x");
  ASSERT_TRUE(erased.has_value());
  EXPECT_TRUE(erased->scalar().Equals(Value(10)));
  EXPECT_FALSE(store.Contains("x"));
  EXPECT_FALSE(store.Erase("x").has_value());
}

TEST(SingleVersionStoreTest, UndoRestoresBeforeImages) {
  SingleVersionStore store;
  store.Put("x", Row::Scalar(Value(50)));

  // Transaction: update x, insert y; then roll back in LIFO order.
  std::vector<UndoRecord> undo;
  undo.push_back({"x", store.Put("x", Row::Scalar(Value(10)))});
  undo.push_back({"y", store.Put("y", Row::Scalar(Value(90)))});

  for (auto it = undo.rbegin(); it != undo.rend(); ++it) {
    store.ApplyUndo(*it);
  }
  EXPECT_TRUE(store.Get("x")->scalar().Equals(Value(50)));
  EXPECT_FALSE(store.Contains("y"));
}

TEST(SingleVersionStoreTest, UndoOfDelete) {
  SingleVersionStore store;
  store.Put("x", Row::Scalar(Value(50)));
  UndoRecord undo{"x", store.Erase("x")};
  EXPECT_FALSE(store.Contains("x"));
  store.ApplyUndo(undo);
  EXPECT_TRUE(store.Get("x")->scalar().Equals(Value(50)));
}

TEST(SingleVersionStoreTest, ScanFiltersByPredicate) {
  SingleVersionStore store;
  store.Put("e1", Row().Set("active", true).Set("dept", "sales"));
  store.Put("e2", Row().Set("active", false).Set("dept", "sales"));
  store.Put("e3", Row().Set("active", true).Set("dept", "eng"));

  auto active = store.Scan(Predicate::Cmp("active", CompareOp::kEq, true));
  ASSERT_EQ(active.size(), 2u);
  EXPECT_EQ(active[0].first, "e1");
  EXPECT_EQ(active[1].first, "e3");

  EXPECT_EQ(store.Scan(Predicate::All()).size(), 3u);
}

// --- Multiversion store ------------------------------------------------------

TEST(MVStoreTest, SnapshotVisibility) {
  MultiVersionStore store;
  store.Bootstrap("x", Row::Scalar(Value(50)), /*ts=*/1);

  // Pending write by txn 1, invisible to others at any snapshot.
  store.Write("x", Row::Scalar(Value(10)), /*txn=*/1);
  EXPECT_TRUE(store.Read("x", 5, /*txn=*/2)->scalar().Equals(Value(50)));
  // Own pending write visible to its creator.
  EXPECT_TRUE(store.Read("x", 5, /*txn=*/1)->scalar().Equals(Value(10)));

  store.CommitTxn(1, /*commit_ts=*/7, std::set<ItemId>{"x"});
  // Snapshot before the commit still sees the old version.
  EXPECT_TRUE(store.Read("x", 5, /*txn=*/2)->scalar().Equals(Value(50)));
  // Snapshot after the commit sees the new one.
  EXPECT_TRUE(store.Read("x", 8, /*txn=*/2)->scalar().Equals(Value(10)));
}

TEST(MVStoreTest, AbortDiscardsPendingVersions) {
  MultiVersionStore store;
  store.Bootstrap("x", Row::Scalar(Value(50)), 1);
  store.Write("x", Row::Scalar(Value(99)), 3);
  store.Write("fresh", Row::Scalar(Value(9)), 3);  // aborted insert
  EXPECT_TRUE(store.HasPendingWrite("x", 3));
  store.AbortTxn(3, std::set<ItemId>{"x", "fresh"});
  EXPECT_FALSE(store.HasPendingWrite("x", 3));
  EXPECT_TRUE(store.Read("x", 10, 3)->scalar().Equals(Value(50)));
  EXPECT_FALSE(store.Read("fresh", 10, 3).has_value());
  // The abort retires the chain it emptied.
  EXPECT_EQ(store.ItemCount(), 1u);
  EXPECT_EQ(store.VersionCount(), 1u);
}

TEST(MVStoreTest, TombstoneHidesItem) {
  MultiVersionStore store;
  store.Bootstrap("x", Row::Scalar(Value(50)), 1);
  store.Delete("x", 2);
  // Deleter sees its own tombstone; ReadVersionInfo surfaces it.
  EXPECT_FALSE(store.Read("x", 10, 2).has_value());
  ASSERT_TRUE(store.ReadVersionInfo("x", 10, 2).has_value());
  EXPECT_TRUE(store.ReadVersionInfo("x", 10, 2)->tombstone);
  // Others still see the committed row.
  EXPECT_TRUE(store.Read("x", 10, 3).has_value());
  store.CommitTxn(2, 4, std::set<ItemId>{"x"});
  EXPECT_FALSE(store.Read("x", 10, 3).has_value());
  // Time travel below the delete still sees it.
  EXPECT_TRUE(store.Read("x", 3, 3).has_value());
  // Re-insert over the committed tombstone.
  store.Write("x", Row::Scalar(Value(5)), 4);
  store.CommitTxn(4, 20, std::set<ItemId>{"x"});
  EXPECT_TRUE(store.Read("x", 20, 9)->scalar().Equals(Value(5)));
  EXPECT_FALSE(store.Read("x", 15, 9).has_value());
}

TEST(MVStoreTest, ReadVersionInfoExposesCreator) {
  MultiVersionStore store;
  store.Bootstrap("x", Row::Scalar(Value(50)), 1);
  store.Write("x", Row::Scalar(Value(10)), 4);
  store.CommitTxn(4, 6, std::set<ItemId>{"x"});
  auto v = store.ReadVersionInfo("x", 10, 9);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->creator, 4);
  EXPECT_EQ(v->commit_ts, 6u);
  auto old_v = store.ReadVersionInfo("x", 2, 9);
  ASSERT_TRUE(old_v.has_value());
  EXPECT_EQ(old_v->creator, kInitialTxn);
}

TEST(MVStoreTest, LatestCommitTsIsFirstCommitterWinsProbe) {
  MultiVersionStore store;
  store.Bootstrap("x", Row::Scalar(Value(0)), 1);
  EXPECT_EQ(store.LatestCommitTs("x"), 1u);
  store.Write("x", Row::Scalar(Value(1)), 2);
  EXPECT_EQ(store.LatestCommitTs("x"), 1u);  // pending writes don't count
  store.CommitTxn(2, 9, std::set<ItemId>{"x"});
  EXPECT_EQ(store.LatestCommitTs("x"), 9u);
  EXPECT_EQ(store.LatestCommitTs("nope"), kInvalidTimestamp);
  // Commit order != append order: an older append committing later must
  // still win the probe and the newest snapshot.
  store.Write("x", Row::Scalar(Value(2)), 3);
  store.Write("x", Row::Scalar(Value(3)), 4);
  store.CommitTxn(4, 40, std::set<ItemId>{"x"});
  store.CommitTxn(3, 50, std::set<ItemId>{"x"});
  EXPECT_EQ(store.LatestCommitTs("x"), 50u);
  EXPECT_TRUE(store.Read("x", 45, 99)->scalar().Equals(Value(3)));
  EXPECT_TRUE(store.Read("x", 55, 99)->scalar().Equals(Value(2)));
}

TEST(MVStoreTest, ConcurrentPendingWriteProbe) {
  MultiVersionStore store;
  store.Bootstrap("x", Row::Scalar(Value(0)), 1);
  EXPECT_FALSE(store.HasConcurrentPendingWrite("x", 2));
  store.Write("x", Row::Scalar(Value(1)), 3);
  EXPECT_TRUE(store.HasConcurrentPendingWrite("x", 2));
  EXPECT_FALSE(store.HasConcurrentPendingWrite("x", 3));  // own write
}

TEST(MVStoreTest, ScanUsesSnapshot) {
  MultiVersionStore store;
  store.Bootstrap("a", Row().Set("active", true), 1);
  store.Bootstrap("b", Row().Set("active", false), 1);
  store.Write("c", Row().Set("active", true), 5);  // pending insert

  auto pred = Predicate::Cmp("active", CompareOp::kEq, true);
  EXPECT_EQ(store.Scan(pred, 10, /*txn=*/9).size(), 1u);  // c invisible
  EXPECT_EQ(store.Scan(pred, 10, /*txn=*/5).size(), 2u);  // own insert

  store.CommitTxn(5, 12, std::set<ItemId>{"c"});
  EXPECT_EQ(store.Scan(pred, 13, 9).size(), 2u);
  EXPECT_EQ(store.Scan(pred, 10, 9).size(), 1u);  // old snapshot unchanged
}

TEST(MVStoreTest, WriteTwiceReplacesOwnPending) {
  MultiVersionStore store;
  store.Bootstrap("x", Row::Scalar(Value(0)), 1);
  store.Write("x", Row::Scalar(Value(1)), 2);
  store.Write("x", Row::Scalar(Value(2)), 2);
  EXPECT_EQ(store.Chain("x").size(), 2u);  // initial + one pending
  EXPECT_TRUE(store.Read("x", 10, 2)->scalar().Equals(Value(2)));
  EXPECT_TRUE(store.Read("x", 10, 3)->scalar().Equals(Value(0)));
}

TEST(MVStoreTest, GarbageCollectKeepsWatermarkVisible) {
  MultiVersionStore store;
  store.Bootstrap("x", Row::Scalar(Value(0)), 1);
  for (TxnId t = 2; t <= 5; ++t) {
    store.Write("x", Row::Scalar(Value(t)), t);
    store.CommitTxn(t, t * 10, std::set<ItemId>{"x"});
  }
  EXPECT_EQ(store.Chain("x").size(), 5u);

  // Watermark 35: versions committed at 1, 20, 30 are superseded by 30;
  // keep 30 (visible at 35) and 40, 50.
  size_t dropped = store.GarbageCollect(35);
  EXPECT_EQ(dropped, 2u);
  ASSERT_TRUE(store.Read("x", 35, 9).has_value());
  EXPECT_TRUE(store.Read("x", 35, 9)->scalar().Equals(Value(3)));
  EXPECT_TRUE(store.Read("x", 55, 9)->scalar().Equals(Value(5)));
}

TEST(MVStoreTest, GarbageCollectSparesPendingVersions) {
  MultiVersionStore store;
  store.Bootstrap("x", Row::Scalar(Value(0)), 1);
  store.Write("x", Row::Scalar(Value(1)), 7);  // pending
  EXPECT_EQ(store.GarbageCollect(100), 0u);
  EXPECT_TRUE(store.HasPendingWrite("x", 7));
}

TEST(MVStoreTest, VersionAndItemCounts) {
  MultiVersionStore store;
  store.Bootstrap("x", Row::Scalar(Value(0)), 1);
  store.Bootstrap("y", Row::Scalar(Value(0)), 1);
  store.Write("x", Row::Scalar(Value(1)), 2);
  EXPECT_EQ(store.ItemCount(), 2u);
  EXPECT_EQ(store.VersionCount(), 3u);
}

TEST(MVStoreTest, ScanReturnsKeyOrder) {
  MultiVersionStore store;
  // Insertion order deliberately scrambled relative to key order.
  for (const char* id : {"m", "a", "z", "k", "b"}) {
    store.Bootstrap(id, Row::Scalar(Value(1)), 1);
  }
  store.Delete("k", 2);
  store.CommitTxn(2, 10, std::set<ItemId>{"k"});
  auto rows = store.Scan(Predicate::All(), 99, 99);
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[0].first, "a");
  EXPECT_EQ(rows[1].first, "b");
  EXPECT_EQ(rows[2].first, "m");
  EXPECT_EQ(rows[3].first, "z");
}

TEST(MVStoreTest, DeepChainsStayExact) {
  // RetainAll-style history must answer every historical snapshot exactly.
  MultiVersionStore store;
  store.Bootstrap("x", Row::Scalar(Value(int64_t{0})), 1);
  constexpr int64_t kDepth = 200;
  for (int64_t t = 2; t <= kDepth; ++t) {
    store.Write("x", Row::Scalar(Value(t)), static_cast<TxnId>(t));
    store.CommitTxn(static_cast<TxnId>(t), static_cast<Timestamp>(t * 10),
                    std::set<ItemId>{"x"});
  }
  EXPECT_EQ(store.MaxChainLength(), static_cast<size_t>(kDepth));
  for (int64_t t = 2; t <= kDepth; t += 17) {
    EXPECT_TRUE(store.Read("x", static_cast<Timestamp>(t * 10), 999)
                    ->scalar()
                    .Equals(Value(t)));
  }
  std::vector<Version> chain = store.Chain("x");
  ASSERT_EQ(chain.size(), static_cast<size_t>(kDepth));
  // Chain() reports oldest first.
  EXPECT_EQ(chain.front().commit_ts, 1u);
  EXPECT_EQ(chain.back().commit_ts, static_cast<Timestamp>(kDepth * 10));
}

}  // namespace
}  // namespace critique

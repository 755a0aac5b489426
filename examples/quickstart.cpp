// Quickstart: open a Database at an isolation level, run two concurrent
// transactions through RAII session handles, inspect the recorded history
// and let the analysis layer judge it.
//
// Build & run:  cmake --build build && ./build/example_quickstart

#include <cstdio>

#include "critique/analysis/dependency_graph.h"
#include "critique/analysis/phenomena.h"
#include "critique/db/database.h"

using namespace critique;

int main() {
  // 1. Open a database.  Every isolation level the paper names is
  //    available: the Table 2 locking levels, Snapshot Isolation, Oracle
  //    Read Consistency, and the SSI extension.  (A custom engine can be
  //    plugged in through DbOptions::engine_factory.)
  DbOptions db_options(IsolationLevel::kReadCommitted);
  db_options.record_history = true;  // read back below
  Database db(db_options);
  std::printf("engine: %s\n\n", db.name().c_str());

  // 2. Load initial data: two bank accounts of 50 each.
  (void)db.Load("x", Value(50));
  (void)db.Load("y", Value(50));

  // 3. Interleave two transactions by hand.  T1 transfers 40 from x to y;
  //    T2 audits both accounts mid-flight.  The handles carry the
  //    transaction identity; destroying one without Commit rolls it back.
  Transaction t1 = db.Begin();
  Transaction t2 = db.Begin();

  (void)t1.Put("x", Value(10));  // T1 debits x

  // T2 tries to read the debited account.  Under READ COMMITTED the read
  // blocks on T1's write lock (kWouldBlock); under READ UNCOMMITTED it
  // would see the dirty 10.
  auto read = t2.Get("x");
  std::printf("T2 reads x while T1 is writing -> %s\n",
              read.ok() ? (*read)->ToString().c_str()
                        : read.status().ToString().c_str());

  (void)t1.Put("y", Value(90));  // T1 credits y
  (void)t1.Commit();

  // Now T2's read succeeds and sees the committed transfer.
  read = t2.Get("x");
  auto read_y = t2.Get("y");
  std::printf("after c1, T2 reads x=%s y=%s (sum preserved)\n",
              (*read)->scalar().ToString().c_str(),
              (*read_y)->scalar().ToString().c_str());
  (void)t2.Commit();

  // 4. The engine recorded everything in the paper's shorthand.
  std::printf("\nrecorded history:\n  %s\n", db.history().ToString().c_str());
  std::printf("engine stats: %s\n", db.stats().ToString().c_str());

  // 5. The analysis layer judges it: serializable? any phenomena?
  std::printf("serializable: %s\n",
              IsSerializable(db.history()) ? "yes" : "no");
  auto phenomena = ExhibitedPhenomena(db.history());
  std::printf("phenomena exhibited: %zu\n", phenomena.size());
  for (Phenomenon p : phenomena) {
    std::printf("  %s (%s)\n", std::string(PhenomenonName(p)).c_str(),
                std::string(PhenomenonTitle(p)).c_str());
  }
  return 0;
}

#include "critique/analysis/mv_analysis.h"

#include <algorithm>
#include <map>
#include <optional>
#include <tuple>

#include "critique/check/online_checker.h"

namespace critique {
namespace {

// First-action index per transaction (the paper allows any time before the
// first read as Start-Timestamp; the first action is the canonical choice).
std::map<TxnId, size_t> StartIndices(const History& h) {
  std::map<TxnId, size_t> start;
  for (size_t i = 0; i < h.size(); ++i) {
    start.emplace(h[i].txn, i);  // emplace keeps the first
  }
  return start;
}

}  // namespace

namespace {

// Shared mapping machinery.  Sort key: (anchor index, phase, original
// index).  Reads anchor either at their transaction's start or in place;
// writes anchor at the terminal with phase 0; the terminal itself gets
// phase 1 so writes precede it.  Only committed transactions are mapped:
// equivalence of histories is defined over committed transactions, and an
// aborted MV transaction's pending versions were never visible to anyone.
History MapToSingleVersion(const History& h, bool reads_at_start) {
  auto start = StartIndices(h);
  const std::set<TxnId> committed = h.Committed();
  std::vector<std::tuple<size_t, int, size_t>> keyed;
  keyed.reserve(h.size());
  for (size_t i = 0; i < h.size(); ++i) {
    const Action& a = h[i];
    if (!committed.count(a.txn)) continue;
    size_t anchor = i;
    int phase = 0;
    if (a.IsTerminal()) {
      phase = 1;
    } else if (a.IsRead() || a.IsPredicateRead()) {
      if (reads_at_start) anchor = start.at(a.txn);
    } else if (a.IsWrite() || a.IsPredicateWrite()) {
      auto term = h.TerminalIndex(a.txn);
      anchor = term.value_or(h.size());
    }
    keyed.emplace_back(anchor, phase, i);
  }
  std::sort(keyed.begin(), keyed.end());

  History out;
  for (const auto& [anchor, phase, i] : keyed) {
    (void)anchor;
    (void)phase;
    Action a = h[i];
    a.version.reset();  // single-valued rendering
    out.Append(std::move(a));
  }
  return out;
}

}  // namespace

History MapSnapshotHistoryToSingleVersion(const History& h) {
  return MapToSingleVersion(h, /*reads_at_start=*/true);
}

History MapStatementSnapshotHistoryToSingleVersion(const History& h) {
  return MapToSingleVersion(h, /*reads_at_start=*/false);
}

Status ValidateSnapshotVisibility(const History& h) {
  auto start = StartIndices(h);
  for (size_t i = 0; i < h.size(); ++i) {
    const Action& a = h[i];
    if (a.IsWrite() && a.version.has_value() && *a.version != a.txn) {
      return Status::InvalidArgument(
          a.ToString() + ": write must create its own version (" +
          std::to_string(a.txn) + ")");
    }
    if (!a.IsRead() || !a.version.has_value()) continue;

    // Own write first ("writes will be reflected in this snapshot").
    bool own_write = false;
    for (size_t j = start.at(a.txn); j < i && !own_write; ++j) {
      if (h[j].txn != a.txn) continue;
      for (const ItemId& wid : WrittenItems(h[j])) {
        if (wid == a.item) {
          own_write = true;
          break;
        }
      }
    }
    TxnId expected = kInitialTxn;
    if (own_write) {
      expected = a.txn;
    } else {
      // Latest writer of the item committed before this txn's start.
      size_t my_start = start.at(a.txn);
      std::optional<size_t> best_commit;
      for (TxnId u : h.Committed()) {
        if (u == a.txn) continue;
        auto term = h.TerminalIndex(u);
        if (!term || *term >= my_start) continue;
        bool wrote_item = false;
        for (size_t j : h.IndicesOf(u)) {
          for (const ItemId& wid : WrittenItems(h[j])) {
            if (wid == a.item) {
              wrote_item = true;
              break;
            }
          }
          if (wrote_item) break;
        }
        if (!wrote_item) continue;
        if (!best_commit || *term > *best_commit) {
          best_commit = *term;
          expected = u;
        }
      }
    }
    if (*a.version != expected) {
      return Status::InvalidArgument(
          a.ToString() + ": snapshot visibility expects version " +
          std::to_string(expected));
    }
  }
  return Status::OK();
}

Status ValidateFirstCommitterWins(const History& h) {
  auto start = StartIndices(h);
  const auto committed = h.Committed();
  std::vector<TxnId> txns(committed.begin(), committed.end());
  for (size_t ai = 0; ai < txns.size(); ++ai) {
    for (size_t bi = ai + 1; bi < txns.size(); ++bi) {
      TxnId a = txns[ai], b = txns[bi];
      size_t sa = start.at(a), ca = *h.TerminalIndex(a);
      size_t sb = start.at(b), cb = *h.TerminalIndex(b);
      const bool overlap = sa < cb && sb < ca;
      if (!overlap) continue;
      // Common written item?
      for (size_t i : h.IndicesOf(a)) {
        for (const ItemId& wa : WrittenItems(h[i])) {
          for (size_t j : h.IndicesOf(b)) {
            for (const ItemId& wb : WrittenItems(h[j])) {
              if (wa == wb) {
                return Status::InvalidArgument(
                    "first-committer-wins violated: T" + std::to_string(a) +
                    " and T" + std::to_string(b) +
                    " overlap and both wrote item '" + wa + "'");
              }
            }
          }
        }
      }
    }
  }
  return Status::OK();
}

bool IsMVSerializable(const History& h) {
  const check::CheckerReport r = check::ReplayHistory(h);
  return std::none_of(
      r.first_violations.begin(), r.first_violations.end(),
      [](const check::CheckerViolation& v) { return v.kind == "cycle"; });
}

}  // namespace critique

#ifndef CRITIQUE_ANALYSIS_MV_ANALYSIS_H_
#define CRITIQUE_ANALYSIS_MV_ANALYSIS_H_

#include "critique/common/result.h"
#include "critique/history/history.h"

namespace critique {

/// \brief Maps a Snapshot Isolation multiversion history to a single-valued
/// history preserving dataflow dependencies — the paper's "only rigorous
/// touchstone needed to place Snapshot Isolation in the Isolation
/// Hierarchy" (Section 4.2, after [OOBBGM]).
///
/// Every read of a committed transaction is relocated to the transaction's
/// start point (its first action) and every write to its commit point,
/// preserving relative order within each group; version subscripts are
/// dropped.  Aborted and unfinished transactions are projected away —
/// equivalence is defined over committed transactions, and an aborted SI
/// transaction's pending versions were never visible to anyone.
/// Applied to H1.SI this produces exactly the paper's H1.SI.SV:
///
///   H1.SI:    r1[x0=50] w1[x1=10] r2[x0=50] r2[y0=50] c2
///             r1[y0=50] w1[y1=90] c1
///   mapped:   r1[x=50] r1[y=50] r2[x=50] r2[y=50] c2
///             w1[x=10] w1[y=90] c1
History MapSnapshotHistoryToSingleVersion(const History& h);

/// \brief The statement-snapshot variant of the mapping, for Oracle Read
/// Consistency histories (Section 4.3).
///
/// Reads stay at their own positions — each statement saw the latest
/// committed value at its own instant, which is exactly what a
/// single-version read at that position sees once writes are relocated to
/// their transactions' commit points.  Writes anchor at commit; aborted and
/// unfinished transactions are projected away as in the SI mapping.
History MapStatementSnapshotHistoryToSingleVersion(const History& h);

/// \brief Validates that a multiversion history obeys Snapshot Isolation
/// read visibility (Section 4.2):
///
///  * every write by T creates a version subscripted by T;
///  * a read by T of an item T has already written returns T's version
///    ("the transaction's writes will be reflected in this snapshot");
///  * any other read by T returns the version committed by the latest
///    transaction whose commit precedes T's start (its first action), or
///    the initial version 0.
///
/// Returns OK or an InvalidArgument status naming the offending action.
Status ValidateSnapshotVisibility(const History& h);

/// \brief Checks First-Committer-Wins (Section 4.2): no two *committed*
/// transactions with overlapping [start, commit] execution intervals wrote
/// the same data item.  Returns OK or an InvalidArgument status naming the
/// violating pair.
Status ValidateFirstCommitterWins(const History& h);

/// \brief True when the committed projection of the MV history `h` is
/// one-copy serializable: its multiversion serialization graph (MVSG,
/// [BHG] Ch. 5) is acyclic.  The write-skew history H5.SI fails with the
/// cycle T1 -rw-> T2 -rw-> T1.
///
/// The verdict is a replay through the online checker
/// (`check::ReplayHistory`, every transaction at Serializable): the
/// history is serializable iff the replay reports no "cycle" violation.
/// A committed read of a version whose creator commits later is a dirty
/// read, not a cycle, and does not by itself fail this test.
bool IsMVSerializable(const History& h);

}  // namespace critique

#endif  // CRITIQUE_ANALYSIS_MV_ANALYSIS_H_

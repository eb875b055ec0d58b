// Disk-based two-pass DMC — the form the paper actually ran.
//
// Pass 1 is the only read of the transaction text file. It counts ones(c)
// and appends each row to the binary spill of its density bucket
// [2^i, 2^{i+1}) in a working directory (§4.1: "we divide the original
// data according to the number of 1's in each row ... then, in the next
// scan, we read the lower density buckets first"). A spill holds the rows
// as delta-varint ids in checksummed blocks of at most 64 KiB
// (matrix/row_spill.h), so pass 1 keeps O(columns) counters plus one
// block buffer per bucket.
//
// Pass 2 replays the spills sparsest-first through the streamed
// DMC-imp/DMC-sim phase driver (StreamPhases in streaming_pass.h, the
// scan the in-memory miners run too), once per phase, never
// materializing the matrix and never parsing text again. Each block is
// verified — checksum, row count, every id below num_columns and
// strictly increasing — before any of its rows reaches the scan, so a
// damaged spill ends the run with kDataLoss naming the bucket file and
// byte offset. Resident memory is the counter array, one spill block,
// and, if the DMC-bitmap fallback fires, the last
// <= bitmap_max_remaining_rows rows. The bucket rule is
// matrix/row_order.h's DensityBucket, so the replay order — and with it
// every rule count and counter peak — equals the in-memory miner's under
// RowOrderPolicy::kDensityBuckets. RowOrderPolicy::kIdentity spills
// every row to one bucket, in input order. RowOrderPolicy::kExactSort is
// rejected: an exact sort needs the whole matrix in memory.
//
// Robustness: every file operation sits behind a failpoint site and a
// bounded retry policy; pass-1 results can be checkpointed
// (core/checkpoint.h) so a killed run restarted with resume=true skips
// pass 1. Resume first reads every spill back and checks its blocks, row
// count and digest against the checkpoint; any mismatch falls back to a
// fresh run.

#ifndef DMC_CORE_EXTERNAL_MINER_H_
#define DMC_CORE_EXTERNAL_MINER_H_

#include <functional>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "core/dmc_options.h"
#include "core/mining_stats.h"
#include "matrix/matrix_io.h"
#include "matrix/row_spill.h"
#include "rules/rule_set.h"
#include "util/retry.h"
#include "util/statusor.h"

namespace dmc {

/// Fault-tolerance knobs for the external miner's disk pipeline.
struct ExternalIoOptions {
  /// Checkpoint file path; empty disables checkpointing. When set, pass-1
  /// artifacts (bucket files + checkpoint) are written and kept after the
  /// run so a later invocation can resume.
  std::string checkpoint_path;
  /// Try to resume from `checkpoint_path`: if the checkpoint reads
  /// cleanly, its input fingerprint matches `path`, and every bucket
  /// spill it names reads back intact with its recorded rows and digest,
  /// pass 1 is skipped. Any validation failure falls back to a fresh run
  /// (never an error).
  bool resume = false;
  /// Keep bucket files after the run even without checkpointing.
  bool keep_artifacts = false;
  /// Bounded retry-with-backoff for transient I/O failures (file opens).
  RetryPolicy retry;
};

struct ExternalMiningStats {
  /// The single read of the input, spill writes included; on a resume,
  /// the checkpoint validation that replaces it.
  double pass1_seconds = 0.0;
  /// Closing the bucket spills after the read (their last blocks).
  double partition_seconds = 0.0;
  double mine_seconds = 0.0;
  double total_seconds = 0.0;
  uint64_t rows = 0;
  uint32_t columns = 0;
  /// Non-empty density-bucket files written.
  size_t bucket_files = 0;
  /// True when pass 1 was skipped by resuming from a valid checkpoint.
  bool resumed = false;
  /// Transient I/O failures that were retried (see ExternalIoOptions).
  uint64_t io_retries = 0;
  /// The scan's own stats (phase times, peak_counter_bytes,
  /// peak_candidates, columns_cut_off, kernel), exported as the
  /// schema-v1 "mining" block. prescan_seconds is pass1_seconds plus
  /// partition_seconds; total_seconds is the whole run.
  MiningStats mining;
};

/// Shared setup/replay of the two-pass disk pipeline, exposed so the
/// multi-process shard coordinator (src/shard/) can run pass 1 once and
/// hand the resulting bucket inventory to worker processes, which replay
/// the same artifacts without re-scanning the input.
///
/// Two construction paths:
///   * Prepare(): pass 1, which spills the buckets, or a checkpoint
///     resume — what the single-process miners do.
///   * AdoptPlan(): trust an externally supplied first-pass result and
///     bucket inventory (a shard worker receiving the coordinator's
///     kInit frame). No scan, no partitioning, no checkpointing.
///
/// The destructor removes the bucket files unless checkpointing or
/// keep_artifacts is set (AdoptPlan implies keep: the coordinator owns
/// the artifacts, its workers must not delete them).
class ExternalInput {
 public:
  ExternalInput(std::string path, std::string work_dir, bool bucketed,
                const ExternalIoOptions& io, const ObserveContext& obs,
                ExternalMiningStats* stats);
  ~ExternalInput();

  ExternalInput(const ExternalInput&) = delete;
  ExternalInput& operator=(const ExternalInput&) = delete;

  /// Pass 1 (one read of the input that counts ones(c) and spills each
  /// row to its bucket), or a checkpoint resume.
  [[nodiscard]] Status Prepare();

  /// Adopts an externally computed plan: first-pass stats plus the ids
  /// of the bucket files already present under work_dir. Artifacts are
  /// treated as borrowed and never removed.
  void AdoptPlan(FirstPassStats first_pass, std::vector<int> buckets);

  const FirstPassStats& first_pass() const { return first_pass_; }
  /// Ascending ids of the non-empty bucket files (replay order).
  const std::vector<int>& buckets() const { return used_buckets_; }

  /// One replay over the data in mining order. `sink` sees each row as
  /// sorted, deduplicated column ids. `row_site` names the failpoint
  /// every replayed row passes ("streaming.imp.row" /
  /// "streaming.sim.row"); an injected fault ends the replay with that
  /// status. A damaged spill block ends it with kDataLoss before any of
  /// the block's rows reaches `sink`, and so does a set of spills that
  /// holds other than first_pass().num_rows rows.
  using RowSink = std::function<void(std::span<const ColumnId>)>;
  [[nodiscard]] Status Replay(const RowSink& sink, const char* row_site);

 private:
  Status OpenForRead(const char* site, const std::string& file_path,
                     std::ifstream* in);
  Status RetryOp(const std::function<Status()>& op);
  Status CreateSpill(int bucket, RowSpillWriter* spill);
  Status WriteCheckpoint();
  bool TryResume();

  std::string path_;
  std::string work_dir_;
  bool bucketed_;
  ExternalIoOptions io_;
  ObserveContext obs_;
  ExternalMiningStats* stats_;
  FirstPassStats first_pass_;
  std::vector<int> used_buckets_;
  /// What each spill of used_buckets_ holds, in the same order; filled
  /// by Prepare's read for the checkpoint.
  std::vector<RowSpillSummary> spilled_;
  /// Artifacts adopted via AdoptPlan are never removed.
  bool borrowed_ = false;
};

/// One mine over `input`: the phase driver (StreamPhases) with
/// input->Replay as its row source, restricted to the antecedents
/// `lhs_shard` marks (every column when null). A failed replay also
/// starves the pass, so the replay's error is the one returned. The
/// file miners and the shard tasks run it; defined for ImplicationKind
/// and SimilarityKind (core/streaming_pass.h).
template <typename Kind>
[[nodiscard]] StatusOr<typename Kind::RuleSet> StreamExternalInput(
    ExternalInput* input, const typename Kind::Options& options,
    const std::vector<uint8_t>* lhs_shard, MiningStats* stats);

/// Mines implication rules from a transaction text file at `path`.
/// Bucket spills are created under `work_dir` (which must exist) and
/// removed afterwards unless the io options keep them. RowOrderPolicy::
/// kIdentity spills one bucket, in input order; kExactSort, which needs
/// the whole matrix, is kInvalidArgument.
[[nodiscard]] StatusOr<ImplicationRuleSet> MineImplicationsFromFile(
    const std::string& path, const ImplicationMiningOptions& options,
    const std::string& work_dir, ExternalMiningStats* stats = nullptr);
[[nodiscard]] StatusOr<ImplicationRuleSet> MineImplicationsFromFile(
    const std::string& path, const ImplicationMiningOptions& options,
    const std::string& work_dir, const ExternalIoOptions& io,
    ExternalMiningStats* stats = nullptr);

/// Mines similarity pairs from a transaction text file; same mechanics
/// as MineImplicationsFromFile.
[[nodiscard]] StatusOr<SimilarityRuleSet> MineSimilaritiesFromFile(
    const std::string& path, const SimilarityMiningOptions& options,
    const std::string& work_dir, ExternalMiningStats* stats = nullptr);
[[nodiscard]] StatusOr<SimilarityRuleSet> MineSimilaritiesFromFile(
    const std::string& path, const SimilarityMiningOptions& options,
    const std::string& work_dir, const ExternalIoOptions& io,
    ExternalMiningStats* stats = nullptr);

}  // namespace dmc

#endif  // DMC_CORE_EXTERNAL_MINER_H_

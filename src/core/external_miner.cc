#include "core/external_miner.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <vector>

#include "core/checkpoint.h"
#include "core/streaming_pass.h"
#include "matrix/matrix_io.h"
#include "matrix/row_order.h"
#include "observe/metrics.h"
#include "observe/stats_export.h"
#include "observe/trace.h"
#include "util/failpoint.h"
#include "util/stopwatch.h"

namespace dmc {

namespace {

// Counts a surfaced injected fault so dashboards can tell "engine error"
// from "fault-injection harness did its job".
void CountInjected(const ObserveContext& obs, const Status& status) {
  if (obs.metrics != nullptr && fail::IsInjectedFault(status)) {
    obs.metrics->IncrCounter("dmc.faults.injected");
  }
}

}  // namespace

ExternalInput::ExternalInput(std::string path, std::string work_dir,
                             bool bucketed, const ExternalIoOptions& io,
                             const ObserveContext& obs,
                             ExternalMiningStats* stats)
    : path_(std::move(path)),
      work_dir_(std::move(work_dir)),
      bucketed_(bucketed),
      io_(io),
      obs_(obs),
      stats_(stats) {}

ExternalInput::~ExternalInput() {
  // Artifacts survive when checkpointing (a later run resumes from
  // them), when the caller asked to keep them, or when they were
  // adopted from another process that owns them; otherwise every exit
  // path — success or failure — cleans up.
  if (borrowed_ || io_.keep_artifacts || !io_.checkpoint_path.empty()) {
    return;
  }
  for (int b : used_buckets_) {
    std::error_code ec;
    std::filesystem::remove(ExternalBucketPath(work_dir_, b), ec);
  }
}

Status ExternalInput::Prepare() {
  Stopwatch pass1_sw;
  if (io_.resume && !io_.checkpoint_path.empty() && TryResume()) {
    if (stats_ != nullptr) stats_->pass1_seconds = pass1_sw.ElapsedSeconds();
    return Status::OK();
  }

  // The one read of the input: count ones(c) and append each row to the
  // spill of its bucket (identity order: bucket 0, in input order).
  std::ifstream in;
  DMC_RETURN_IF_ERROR(OpenForRead("external.pass1.open", path_, &in));
  first_pass_ = FirstPassStats{};
  std::vector<RowSpillWriter> spills(kMaxDensityBuckets);
  const bool inject = fail::Enabled();
  const Status read =
      ForEachRowText(in, [&](std::span<const ColumnId> row) -> Status {
        first_pass_.AddRow(row);
        if (inject) {
          DMC_RETURN_IF_ERROR(fail::InjectStatus("external.spill.write"));
        }
        const int b = bucketed_ ? DensityBucket(row.size()) : 0;
        if (!spills[b].is_open()) {
          DMC_RETURN_IF_ERROR(CreateSpill(b, &spills[b]));
        }
        return spills[b].AppendRow(row);
      });
  // Only the stream itself sets badbit; name the file it failed on.
  if (!read.ok() && in.bad()) return IOError(path_ + ": " + read.message());
  DMC_RETURN_IF_ERROR(read);
  if (stats_ != nullptr) {
    stats_->pass1_seconds = pass1_sw.ElapsedSeconds();
    stats_->rows = first_pass_.num_rows;
    stats_->columns = first_pass_.num_columns;
  }

  Stopwatch close_sw;
  std::sort(used_buckets_.begin(), used_buckets_.end());
  for (int b : used_buckets_) {
    auto closed = spills[b].Finish();
    if (!closed.ok()) return closed.status();
    spilled_.push_back(*closed);
  }
  if (stats_ != nullptr) {
    stats_->partition_seconds = close_sw.ElapsedSeconds();
    stats_->bucket_files = used_buckets_.size();
  }

  if (!io_.checkpoint_path.empty()) {
    DMC_RETURN_IF_ERROR(WriteCheckpoint());
  }
  return Status::OK();
}

void ExternalInput::AdoptPlan(FirstPassStats first_pass,
                              std::vector<int> buckets) {
  first_pass_ = std::move(first_pass);
  used_buckets_ = std::move(buckets);
  std::sort(used_buckets_.begin(), used_buckets_.end());
  borrowed_ = true;
  if (stats_ != nullptr) {
    stats_->rows = first_pass_.num_rows;
    stats_->columns = first_pass_.num_columns;
    stats_->bucket_files = used_buckets_.size();
  }
}

Status ExternalInput::Replay(const RowSink& sink, const char* row_site) {
  const bool inject = fail::Enabled();
  const auto each = [&](std::span<const ColumnId> row) -> Status {
    if (inject) {
      DMC_RETURN_IF_ERROR(fail::InjectStatus(row_site));
    }
    sink(row);
    return Status::OK();
  };
  uint64_t rows = 0;
  for (int b : used_buckets_) {
    const std::string bucket_path = ExternalBucketPath(work_dir_, b);
    std::ifstream in;
    DMC_RETURN_IF_ERROR(OpenForRead("external.replay.open", bucket_path, &in));
    auto spill = ReadRowSpill(in, bucket_path, first_pass_.num_columns, each);
    if (!spill.ok()) return spill.status();
    rows += spill->rows;
  }
  if (rows != first_pass_.num_rows) {
    return DataLossError("bucket spills in " + work_dir_ + " hold " +
                         std::to_string(rows) + " rows, pass 1 counted " +
                         std::to_string(first_pass_.num_rows));
  }
  return Status::OK();
}

Status ExternalInput::OpenForRead(const char* site,
                                  const std::string& file_path,
                                  std::ifstream* in) {
  return RetryOp([&]() -> Status {
    if (fail::Enabled()) {
      DMC_RETURN_IF_ERROR(fail::InjectStatus(site));
    }
    if (in->is_open()) in->close();
    in->clear();
    in->open(file_path, std::ios::binary);
    if (!*in) return IOError("cannot open " + file_path);
    return Status::OK();
  });
}

Status ExternalInput::RetryOp(const std::function<Status()>& op) {
  uint64_t retries = 0;
  const Status st =
      RetryWithBackoff(io_.retry, op, [&](int, const Status& failed) {
        ++retries;
        if (obs_.metrics != nullptr) {
          obs_.metrics->IncrCounter("dmc.faults.retried");
          if (fail::IsInjectedFault(failed)) {
            obs_.metrics->IncrCounter("dmc.faults.injected");
          }
        }
      });
  if (stats_ != nullptr) stats_->io_retries += retries;
  if (st.ok() && retries > 0 && obs_.metrics != nullptr) {
    obs_.metrics->IncrCounter("dmc.faults.recovered");
  }
  return st;
}

Status ExternalInput::CreateSpill(int bucket, RowSpillWriter* spill) {
  // Listed first, so a failed run removes whatever the open left behind.
  used_buckets_.push_back(bucket);
  return RetryOp([&]() -> Status {
    if (fail::Enabled()) {
      DMC_RETURN_IF_ERROR(fail::InjectStatus("external.partition.open"));
    }
    return spill->Open(ExternalBucketPath(work_dir_, bucket));
  });
}

Status ExternalInput::WriteCheckpoint() {
  ExternalCheckpoint cp;
  auto fp = FingerprintFile(path_);
  if (!fp.ok()) return fp.status();
  cp.input = *fp;
  cp.bucketed = bucketed_;
  cp.num_columns = first_pass_.num_columns;
  cp.num_rows = first_pass_.num_rows;
  cp.column_ones = first_pass_.column_ones;
  for (size_t i = 0; i < used_buckets_.size(); ++i) {
    const RowSpillSummary& spill = spilled_[i];
    cp.buckets.push_back(
        {used_buckets_[i], spill.rows, spill.bytes, spill.digest});
  }
  return WriteCheckpointFile(cp, io_.checkpoint_path);
}

bool ExternalInput::TryResume() {
  auto cp = ReadCheckpointFile(io_.checkpoint_path);
  if (!cp.ok()) return false;
  if (cp->bucketed != bucketed_) return false;
  if (!ValidateCheckpoint(*cp, path_, work_dir_).ok()) return false;
  first_pass_ = FirstPassStats{};
  first_pass_.num_columns = cp->num_columns;
  first_pass_.num_rows = static_cast<RowId>(cp->num_rows);
  first_pass_.column_ones = cp->column_ones;
  used_buckets_.clear();
  for (const auto& b : cp->buckets) used_buckets_.push_back(b.id);
  std::sort(used_buckets_.begin(), used_buckets_.end());
  if (stats_ != nullptr) {
    stats_->rows = cp->num_rows;
    stats_->columns = cp->num_columns;
    stats_->bucket_files = used_buckets_.size();
    stats_->resumed = true;
  }
  return true;
}

template <typename Kind>
StatusOr<typename Kind::RuleSet> StreamExternalInput(
    ExternalInput* input, const typename Kind::Options& options,
    const std::vector<uint8_t>* lhs_shard, MiningStats* stats) {
  Status replay_status = Status::OK();
  const auto replay = [&](auto&& sink) {
    if (!replay_status.ok()) return;
    replay_status = input->Replay(sink, Kind::kRowSite);
  };
  const FirstPassStats& fp = input->first_pass();
  auto rules = StreamPhases<Kind>(fp.num_columns, fp.column_ones,
                                  fp.num_rows, options, replay, lhs_shard,
                                  stats);
  // A failed replay also starves the pass; report the cause.
  DMC_RETURN_IF_ERROR(replay_status);
  return rules;
}

template StatusOr<ImplicationRuleSet> StreamExternalInput<ImplicationKind>(
    ExternalInput*, const ImplicationMiningOptions&,
    const std::vector<uint8_t>*, MiningStats*);
template StatusOr<SimilarityRuleSet> StreamExternalInput<SimilarityKind>(
    ExternalInput*, const SimilarityMiningOptions&,
    const std::vector<uint8_t>*, MiningStats*);

namespace {

// The two-pass disk pipeline for either rule kind: pass 1 (or a
// checkpoint resume), then the phase driver over the bucket files.
template <typename Kind>
StatusOr<typename Kind::RuleSet> MineFromFile(
    const std::string& path, const typename Kind::Options& options,
    const std::string& work_dir, const ExternalIoOptions& io,
    ExternalMiningStats* stats) {
  // An exact sort needs the whole matrix; pass 1 spills density
  // buckets, so it cannot replay one.
  if (options.policy.row_order == RowOrderPolicy::kExactSort) {
    return InvalidArgumentError(
        "external mining replays density buckets or input order; "
        "RowOrderPolicy::kExactSort needs the in-memory matrix");
  }
  ExternalMiningStats local;
  if (stats == nullptr) stats = &local;
  *stats = ExternalMiningStats{};
  Stopwatch total_sw;

  const ObserveContext& obs = options.policy.observe;
  ExternalInput run(path, work_dir,
                    options.policy.row_order != RowOrderPolicy::kIdentity, io,
                    obs, stats);
  {
    ScopedSpan span(obs.trace, "external/prepare", obs.trace_lane);
    const Status prepared = run.Prepare();
    if (!prepared.ok()) {
      CountInjected(obs, prepared);
      return prepared;
    }
  }
  stats->mining.prescan_seconds =
      stats->pass1_seconds + stats->partition_seconds;

  Stopwatch mine_sw;
  auto rules =
      StreamExternalInput<Kind>(&run, options, nullptr, &stats->mining);
  stats->mine_seconds = mine_sw.ElapsedSeconds();
  if (!rules.ok()) {
    CountInjected(obs, rules.status());
    return rules.status();
  }
  stats->total_seconds = total_sw.ElapsedSeconds();
  stats->mining.total_seconds = stats->total_seconds;
  RecordToRegistry(obs.metrics, "external", *stats);
  return rules;
}

}  // namespace

StatusOr<ImplicationRuleSet> MineImplicationsFromFile(
    const std::string& path, const ImplicationMiningOptions& options,
    const std::string& work_dir, const ExternalIoOptions& io,
    ExternalMiningStats* stats) {
  return MineFromFile<ImplicationKind>(path, options, work_dir, io, stats);
}

StatusOr<ImplicationRuleSet> MineImplicationsFromFile(
    const std::string& path, const ImplicationMiningOptions& options,
    const std::string& work_dir, ExternalMiningStats* stats) {
  return MineFromFile<ImplicationKind>(path, options, work_dir,
                                       ExternalIoOptions{}, stats);
}

StatusOr<SimilarityRuleSet> MineSimilaritiesFromFile(
    const std::string& path, const SimilarityMiningOptions& options,
    const std::string& work_dir, const ExternalIoOptions& io,
    ExternalMiningStats* stats) {
  return MineFromFile<SimilarityKind>(path, options, work_dir, io, stats);
}

StatusOr<SimilarityRuleSet> MineSimilaritiesFromFile(
    const std::string& path, const SimilarityMiningOptions& options,
    const std::string& work_dir, ExternalMiningStats* stats) {
  return MineFromFile<SimilarityKind>(path, options, work_dir,
                                      ExternalIoOptions{}, stats);
}

}  // namespace dmc

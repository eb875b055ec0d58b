// The one byte image of each rule record, shared by the shard task
// checkpoint, the serve rules reply and the shard kResult frame:
//
//   ImplicationRule  u32 lhs, rhs, lhs_ones, misses                 16 B
//   SimilarityPair   u32 a, b, ones_a, ones_b, intersection         20 B
//
// Each format writes its own record count, then the records.

#ifndef DMC_RULES_RULE_CODEC_H_
#define DMC_RULES_RULE_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "rules/rule.h"
#include "util/byte_codec.h"

namespace dmc {

template <typename Record>
inline constexpr size_t kRecordBytes = 0;
template <>
inline constexpr size_t kRecordBytes<ImplicationRule> = 4 * sizeof(uint32_t);
template <>
inline constexpr size_t kRecordBytes<SimilarityPair> = 5 * sizeof(uint32_t);

inline void AppendRecord(std::string* out, const ImplicationRule& r) {
  AppendLE<uint32_t>(out, r.lhs);
  AppendLE<uint32_t>(out, r.rhs);
  AppendLE<uint32_t>(out, r.lhs_ones);
  AppendLE<uint32_t>(out, r.misses);
}

inline bool ReadRecord(std::string_view data, size_t* offset,
                       ImplicationRule* r) {
  return ReadLE(data, offset, &r->lhs) && ReadLE(data, offset, &r->rhs) &&
         ReadLE(data, offset, &r->lhs_ones) &&
         ReadLE(data, offset, &r->misses);
}

inline void AppendRecord(std::string* out, const SimilarityPair& p) {
  AppendLE<uint32_t>(out, p.a);
  AppendLE<uint32_t>(out, p.b);
  AppendLE<uint32_t>(out, p.ones_a);
  AppendLE<uint32_t>(out, p.ones_b);
  AppendLE<uint32_t>(out, p.intersection);
}

inline bool ReadRecord(std::string_view data, size_t* offset,
                       SimilarityPair* p) {
  return ReadLE(data, offset, &p->a) && ReadLE(data, offset, &p->b) &&
         ReadLE(data, offset, &p->ones_a) &&
         ReadLE(data, offset, &p->ones_b) &&
         ReadLE(data, offset, &p->intersection);
}

/// Reads `count` records at *offset into `*records`; false, with nothing
/// allocated, when they do not fit in the bytes left.
template <typename Record>
bool ReadRecords(std::string_view data, size_t* offset, uint64_t count,
                 std::vector<Record>* records) {
  static_assert(kRecordBytes<Record> > 0, "not a rule record");
  if (!CountFits(data, *offset, count, kRecordBytes<Record>)) return false;
  records->resize(count);
  for (Record& r : *records) (void)ReadRecord(data, offset, &r);
  return true;
}

}  // namespace dmc

#endif  // DMC_RULES_RULE_CODEC_H_

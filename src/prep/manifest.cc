#include "src/prep/manifest.h"

#include <algorithm>

#include "src/util/crc32c.h"
#include "src/util/serialize.h"

namespace nxgraph {

namespace {

void EncodeSubShardTable(std::string* out,
                         const std::vector<SubShardMeta>& table) {
  EncodeFixed<uint64_t>(out, table.size());
  for (const auto& s : table) {
    EncodeFixed<uint64_t>(out, s.offset);
    EncodeFixed<uint64_t>(out, s.size);
    EncodeFixed<uint64_t>(out, s.num_edges);
    EncodeFixed<uint32_t>(out, s.num_dsts);
    EncodeFixed<uint8_t>(out, static_cast<uint8_t>(s.format));
    EncodeFixed<uint8_t>(out, static_cast<uint8_t>(s.summary_kind));
    EncodeFixed<uint16_t>(out, static_cast<uint16_t>(s.summary.size()));
    for (uint64_t w : s.summary) EncodeFixed<uint64_t>(out, w);
  }
}

// `version` selects the per-entry layout: version 1 entries end at
// num_dsts (every blob implied NXS1), version 2 adds the format byte,
// version 3 adds the source-summary kind byte and filter words.
bool DecodeSubShardTable(SliceReader* r, uint32_t version,
                         std::vector<SubShardMeta>* table) {
  uint64_t count = 0;
  if (!r->Read(&count)) return false;
  if (count > (1ULL << 32)) return false;  // implausible; corrupt
  table->resize(count);
  for (auto& s : *table) {
    if (!r->Read(&s.offset) || !r->Read(&s.size) || !r->Read(&s.num_edges) ||
        !r->Read(&s.num_dsts)) {
      return false;
    }
    uint8_t format = static_cast<uint8_t>(SubShardFormat::kNxs1);
    if (version >= 2 && !r->Read(&format)) return false;
    if (format != static_cast<uint8_t>(SubShardFormat::kNxs1) &&
        format != static_cast<uint8_t>(SubShardFormat::kNxs2)) {
      return false;
    }
    s.format = static_cast<SubShardFormat>(format);
    s.summary_kind = SummaryKind::kNone;
    s.summary.clear();
    if (version >= 3) {
      uint8_t kind = 0;
      uint16_t words = 0;
      if (!r->Read(&kind) || !r->Read(&words)) return false;
      if (kind > static_cast<uint8_t>(SummaryKind::kBloom)) return false;
      s.summary_kind = static_cast<SummaryKind>(kind);
      s.summary.resize(words);
      for (auto& w : s.summary) {
        if (!r->Read(&w)) return false;
      }
    }
  }
  return true;
}

}  // namespace

std::string Manifest::Encode() const {
  std::string out;
  EncodeFixed<uint32_t>(&out, kManifestMagic);
  EncodeFixed<uint32_t>(&out, kManifestVersion);
  EncodeFixed<uint64_t>(&out, num_vertices);
  EncodeFixed<uint64_t>(&out, num_edges);
  EncodeFixed<uint32_t>(&out, num_intervals);
  EncodeFixed<uint8_t>(&out, weighted ? 1 : 0);
  EncodeFixed<uint8_t>(&out, has_transpose ? 1 : 0);
  EncodeFixed<uint32_t>(&out, summary_bitmap_max_bits);
  EncodeFixed<uint32_t>(&out, summary_bloom_bits);
  EncodeFixed<uint64_t>(&out, interval_offsets.size());
  for (VertexId v : interval_offsets) EncodeFixed<uint32_t>(&out, v);
  EncodeSubShardTable(&out, subshards);
  EncodeSubShardTable(&out, subshards_transpose);
  EncodeFixed<uint32_t>(&out, crc32c::Value(out.data(), out.size()));
  return out;
}

Result<Manifest> Manifest::Decode(const std::string& data) {
  if (data.size() < 4) return Status::Corruption("manifest too short");
  const uint32_t stored_crc = DecodeFixed<uint32_t>(data.data() + data.size() - 4);
  if (stored_crc != crc32c::Value(data.data(), data.size() - 4)) {
    return Status::Corruption("manifest checksum mismatch");
  }
  SliceReader r(data.data(), data.size() - 4);
  Manifest m;
  uint32_t magic = 0, version = 0;
  uint8_t weighted = 0, transpose = 0;
  uint64_t offsets_count = 0;
  if (!r.Read(&magic) || !r.Read(&version) || !r.Read(&m.num_vertices) ||
      !r.Read(&m.num_edges) || !r.Read(&m.num_intervals) ||
      !r.Read(&weighted) || !r.Read(&transpose)) {
    return Status::Corruption("manifest truncated");
  }
  if (magic != kManifestMagic) return Status::Corruption("bad manifest magic");
  if (version < 1 || version > kManifestVersion) {
    return Status::NotSupported("manifest version " + std::to_string(version));
  }
  if (version >= 3 && (!r.Read(&m.summary_bitmap_max_bits) ||
                       !r.Read(&m.summary_bloom_bits))) {
    return Status::Corruption("manifest truncated");
  }
  if (!r.Read(&offsets_count)) return Status::Corruption("manifest truncated");
  m.weighted = weighted != 0;
  m.has_transpose = transpose != 0;
  if (offsets_count != static_cast<uint64_t>(m.num_intervals) + 1) {
    return Status::Corruption("manifest interval table size mismatch");
  }
  m.interval_offsets.resize(offsets_count);
  for (auto& v : m.interval_offsets) {
    if (!r.Read(&v)) return Status::Corruption("manifest truncated");
  }
  if (!DecodeSubShardTable(&r, version, &m.subshards) ||
      !DecodeSubShardTable(&r, version, &m.subshards_transpose)) {
    return Status::Corruption("manifest sub-shard table truncated");
  }
  const uint64_t expected =
      static_cast<uint64_t>(m.num_intervals) * m.num_intervals;
  if (m.subshards.size() != expected ||
      (m.has_transpose && m.subshards_transpose.size() != expected)) {
    return Status::Corruption("manifest sub-shard table size mismatch");
  }
  m.BuildColumnIndex();
  return m;
}

uint64_t Manifest::Fingerprint() const {
  // Canonical topology bytes only: NOT blob offsets/sizes, per-blob format,
  // summaries, or the manifest version — anything a re-encode of the same
  // graph can change must stay out, or a store upgrade would orphan every
  // checkpoint written against it.
  std::string canon;
  EncodeFixed<uint64_t>(&canon, num_vertices);
  EncodeFixed<uint64_t>(&canon, num_edges);
  EncodeFixed<uint32_t>(&canon, num_intervals);
  EncodeFixed<uint8_t>(&canon, weighted ? 1 : 0);
  EncodeFixed<uint8_t>(&canon, has_transpose ? 1 : 0);
  for (VertexId v : interval_offsets) EncodeFixed<uint32_t>(&canon, v);
  for (const auto* table : {&subshards, &subshards_transpose}) {
    EncodeFixed<uint64_t>(&canon, table->size());
    for (const auto& s : *table) {
      EncodeFixed<uint64_t>(&canon, s.num_edges);
      EncodeFixed<uint32_t>(&canon, s.num_dsts);
    }
  }
  const uint64_t crc = crc32c::Value(canon.data(), canon.size());
  // Mix in the counts so the high half is not constant.
  return (crc << 32) ^ (num_vertices * 0x9E3779B97F4A7C15ull) ^ num_edges;
}

uint64_t Manifest::TotalSummaryBytes() const {
  uint64_t total = 0;
  for (const auto* table : {&subshards, &subshards_transpose}) {
    for (const auto& s : *table) {
      total += s.summary.size() * sizeof(uint64_t);
    }
  }
  return total;
}

void Manifest::BuildColumnIndex() {
  const uint32_t p = num_intervals;
  auto build = [p](const std::vector<SubShardMeta>& table,
                   std::vector<std::vector<uint32_t>>* rows) {
    rows->assign(table.empty() ? 0 : p, {});
    for (uint32_t i = 0; i < rows->size(); ++i) {
      auto& cols = (*rows)[i];
      for (uint32_t j = 0; j < p; ++j) {
        if (table[static_cast<size_t>(i) * p + j].num_edges > 0) {
          cols.push_back(j);
        }
      }
    }
  };
  build(subshards, &nonempty_cols_);
  build(subshards_transpose, &nonempty_cols_transpose_);
}

std::vector<std::pair<uint32_t, uint32_t>> RowRuns(
    const Manifest& manifest, uint32_t i, bool transpose, uint32_t j_begin,
    uint32_t j_end, const std::function<bool(uint32_t)>& take) {
  std::vector<std::pair<uint32_t, uint32_t>> runs;
  bool open = false;
  for (uint32_t j = j_begin; j < j_end; ++j) {
    if (take(j)) {
      if (open) {
        runs.back().second = j + 1;
      } else {
        runs.emplace_back(j, j + 1);
        open = true;
      }
    } else if (manifest.subshard(i, j, transpose).num_edges > 0) {
      open = false;
    }
  }
  return runs;
}

uint64_t Manifest::TotalDecodedSubShardBytes(bool transpose) const {
  const auto& table = transpose ? subshards_transpose : subshards;
  uint64_t total = 0;
  for (const auto& meta : table) total += meta.DecodedBytes(weighted);
  return total;
}

uint32_t Manifest::IntervalOf(VertexId v) const {
  // interval_offsets is ascending; find the last offset <= v.
  auto it = std::upper_bound(interval_offsets.begin(), interval_offsets.end(),
                             v);
  return static_cast<uint32_t>(it - interval_offsets.begin()) - 1;
}

Status WriteManifest(Env* env, const std::string& dir, const Manifest& m) {
  return WriteStringToFile(env, dir + "/" + kManifestFileName, m.Encode());
}

Result<Manifest> ReadManifest(Env* env, const std::string& dir) {
  std::string data;
  NX_RETURN_NOT_OK(ReadFileToString(env, dir + "/" + kManifestFileName, &data));
  return Manifest::Decode(data);
}

}  // namespace nxgraph

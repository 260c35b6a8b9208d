#include "src/engine/io_model.h"

#include <algorithm>
#include <cmath>

#include "src/prep/manifest.h"
#include "src/storage/hub_file.h"

namespace nxgraph {

IoModelParams MakeIoModelParams(const Manifest& manifest, uint32_t value_bytes,
                                uint64_t memory_budget_bytes) {
  IoModelParams p;
  p.n = static_cast<double>(manifest.num_vertices);
  p.m = static_cast<double>(manifest.num_edges);
  p.Ba = value_bytes;
  p.P = manifest.num_intervals;
  p.BM = static_cast<double>(memory_budget_bytes);
  uint64_t blob_bytes = 0;
  uint64_t total_dsts = 0;
  uint64_t dst_set_bytes = 0;
  for (uint32_t i = 0; i < manifest.num_intervals; ++i) {
    for (uint32_t j = 0; j < manifest.num_intervals; ++j) {
      const SubShardMeta& meta = manifest.subshard(i, j, false);
      blob_bytes += meta.size;
      total_dsts += meta.num_dsts;
      dst_set_bytes +=
          HubFile::DstSetBytes(meta.num_dsts, manifest.interval_size(j));
    }
  }
  if (manifest.num_edges > 0) {
    p.Be = static_cast<double>(blob_bytes) / p.m;
  }
  if (total_dsts > 0) {
    p.d = p.m / static_cast<double>(total_dsts);
    p.Bv = static_cast<double>(dst_set_bytes) /
           static_cast<double>(total_dsts);
  }
  return p;
}

IoCost SpuIoCost(const IoModelParams& p) {
  IoCost c;
  // me: edges an iteration actually streams (active_fraction == 1
  // reproduces Table II exactly).
  const double me = p.m * p.active_fraction;
  c.read_bytes = std::max(0.0, me * p.Be + 2 * p.n * p.Ba - p.BM);
  // After the initial load, SPU never writes vertex state to disk.
  c.write_bytes = 0;
  return c;
}

IoCost DpuIoCost(const IoModelParams& p) {
  IoCost c;
  const double me = p.m * p.active_fraction;
  const double hub_bytes = me * (p.Ba + p.Bv) / p.d;
  c.read_bytes = me * p.Be + hub_bytes + p.n * p.Ba;
  c.write_bytes = hub_bytes + p.n * p.Ba;
  return c;
}

uint32_t MpuResidentIntervals(const IoModelParams& p) {
  if (p.n <= 0 || p.Ba <= 0) return 0;
  const double frac = p.BM / (2.0 * p.n * p.Ba);
  const double q = std::floor(frac * p.P);
  return static_cast<uint32_t>(std::clamp(q, 0.0, p.P));
}

IoCost MpuIoCost(const IoModelParams& p) {
  // Table II, MPU row, with the in-memory fraction BM/(2 n Ba) capped at 1.
  const double frac = std::min(1.0, p.BM / (2.0 * p.n * p.Ba));
  const double disk_frac = 1.0 - frac;  // (P - Q) / P
  IoCost c;
  const double me = p.m * p.active_fraction;
  const double hub_bytes =
      me * disk_frac * disk_frac * (p.Ba + p.Bv) / p.d;
  c.read_bytes = me * p.Be + hub_bytes + disk_frac * p.n * p.Ba;
  c.write_bytes = hub_bytes + disk_frac * p.n * p.Ba;
  return c;
}

IoCost TurboGraphLikeIoCost(const IoModelParams& p) {
  IoCost c;
  c.read_bytes = p.m * p.Be + 2.0 * (p.n * p.Ba) * (p.n * p.Ba) / p.BM +
                 p.n * p.Ba;
  c.write_bytes = p.n * p.Ba;
  return c;
}

double MpuToTurboGraphRatio(const IoModelParams& p) {
  const double turbo = TurboGraphLikeIoCost(p).total();
  if (turbo <= 0) return 0;
  return MpuIoCost(p).total() / turbo;
}

}  // namespace nxgraph

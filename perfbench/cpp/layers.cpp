#include "layers.h"

#include "compress/registry.h"
#include "compress/sc2.h"

namespace perfbench {

using namespace disco;

CodecFigures measure_codec(const std::string& algorithm,
                           const std::vector<BlockBytes>& blocks,
                           const std::vector<BlockBytes>& training, int reps) {
  const std::unique_ptr<compress::Algorithm> algo =
      compress::make_algorithm(algorithm);
  if (auto* sc2 = dynamic_cast<compress::Sc2Algorithm*>(algo.get()))
    sc2->retrain(training);

  CodecFigures f;
  f.algorithm = algorithm;
  f.blocks = blocks.size();
  std::vector<compress::Encoded> enc(blocks.size());
  std::size_t encoded_bytes = 0;
  std::int64_t comp_ns = 0;
  std::int64_t decomp_ns = 0;
  for (int r = 0; r < reps; ++r) {
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < blocks.size(); ++i)
      enc[i] = algo->compress(blocks[i]);
    const std::int64_t t1 = now_ns();
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      try {
        const BlockBytes out = algo->decompress(enc[i].bytes);
        if (r == 0 && out != blocks[i]) ++f.roundtrip_failures;
      } catch (const compress::DecodeError&) {
        if (r == 0) ++f.roundtrip_failures;
      }
    }
    comp_ns += t1 - t0;
    decomp_ns += now_ns() - t1;
  }
  for (const compress::Encoded& e : enc) encoded_bytes += e.size();

  const double ops = static_cast<double>(blocks.size()) * reps;
  if (ops > 0) {
    f.comp_ns_per_block = static_cast<double>(comp_ns) / ops;
    f.decomp_ns_per_block = static_cast<double>(decomp_ns) / ops;
  }
  if (encoded_bytes > 0)
    f.ratio = static_cast<double>(blocks.size() * kBlockBytes) /
              static_cast<double>(encoded_bytes);
  return f;
}

}  // namespace perfbench

#include "compress/huffman.h"

#include <algorithm>
#include <cassert>
#include <queue>
#include <stdexcept>
#include <string>

namespace disco::compress {
namespace {

/// Longest code BitWriter::put and the 64-bit canonical codes can hold.
constexpr std::uint8_t kMaxCodeBits = 64;

struct Node {
  std::uint64_t freq;
  int left = -1;   // node index, or -1 for leaf
  int right = -1;
  std::uint32_t symbol = 0;
};

}  // namespace

HuffmanCode HuffmanCode::build(const std::vector<std::uint64_t>& freqs) {
  HuffmanCode hc;
  hc.codes_.assign(freqs.size(), HuffCode{});

  std::vector<Node> nodes;
  using QElem = std::pair<std::uint64_t, int>;  // (freq, node index)
  std::priority_queue<QElem, std::vector<QElem>, std::greater<>> pq;
  for (std::size_t s = 0; s < freqs.size(); ++s) {
    if (freqs[s] == 0) continue;
    nodes.push_back(Node{freqs[s], -1, -1, static_cast<std::uint32_t>(s)});
    pq.emplace(freqs[s], static_cast<int>(nodes.size()) - 1);
  }
  if (pq.empty()) return hc;
  if (pq.size() == 1) {  // degenerate alphabet: give the symbol a 1-bit code
    hc.codes_[nodes[0].symbol] = HuffCode{0, 1};
    hc.build_decode_tables();
    return hc;
  }
  while (pq.size() > 1) {
    const auto [fa, a] = pq.top(); pq.pop();
    const auto [fb, b] = pq.top(); pq.pop();
    nodes.push_back(Node{fa + fb, a, b, 0});
    pq.emplace(fa + fb, static_cast<int>(nodes.size()) - 1);
  }

  // Depth-first traversal to get code lengths.
  struct Frame { int node; std::uint8_t depth; };
  std::vector<Frame> stack{{pq.top().second, 0}};
  while (!stack.empty()) {
    const Frame f = stack.back();
    stack.pop_back();
    const Node& n = nodes[static_cast<std::size_t>(f.node)];
    if (n.left < 0) {
      if (f.depth > kMaxCodeBits)
        throw std::invalid_argument("Huffman code length " + std::to_string(f.depth) +
                                    " exceeds " + std::to_string(kMaxCodeBits) + " bits");
      hc.codes_[n.symbol].length = std::max<std::uint8_t>(f.depth, 1);
      continue;
    }
    stack.push_back({n.left, static_cast<std::uint8_t>(f.depth + 1)});
    stack.push_back({n.right, static_cast<std::uint8_t>(f.depth + 1)});
  }

  // Canonical assignment: sort symbols by (length, symbol id).
  std::vector<std::uint32_t> symbols;
  for (std::size_t s = 0; s < freqs.size(); ++s)
    if (hc.codes_[s].length > 0) symbols.push_back(static_cast<std::uint32_t>(s));
  std::sort(symbols.begin(), symbols.end(), [&](std::uint32_t a, std::uint32_t b) {
    if (hc.codes_[a].length != hc.codes_[b].length)
      return hc.codes_[a].length < hc.codes_[b].length;
    return a < b;
  });
  std::uint64_t code = 0;
  std::uint8_t prev_len = 0;
  for (const std::uint32_t s : symbols) {
    const std::uint8_t len = hc.codes_[s].length;
    code <<= (len - prev_len);
    hc.codes_[s].bits = code;
    ++code;
    prev_len = len;
  }
  hc.build_decode_tables();
  return hc;
}

void HuffmanCode::build_decode_tables() {
  max_len_ = 0;
  for (const auto& c : codes_) max_len_ = std::max(max_len_, c.length);
  count_.assign(max_len_ + 1, 0);
  for (const auto& c : codes_)
    if (c.length > 0) ++count_[c.length];

  sorted_symbols_.clear();
  for (std::size_t s = 0; s < codes_.size(); ++s)
    if (codes_[s].length > 0) sorted_symbols_.push_back(static_cast<std::uint32_t>(s));
  std::sort(sorted_symbols_.begin(), sorted_symbols_.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              if (codes_[a].length != codes_[b].length)
                return codes_[a].length < codes_[b].length;
              return a < b;
            });

  first_code_.assign(max_len_ + 1, 0);
  first_index_.assign(max_len_ + 1, 0);
  std::uint64_t code = 0;
  std::uint32_t index = 0;
  for (std::uint8_t len = 1; len <= max_len_; ++len) {
    code <<= 1;
    first_code_[len] = code;
    first_index_[len] = index;
    code += count_[len];
    index += count_[len];
  }
}

void HuffmanCode::encode(BitWriter& bw, std::size_t symbol) const {
  const HuffCode& c = codes_[symbol];
  assert(c.length > 0 && "encoding symbol without a code");
  bw.put(c.bits, c.length);
}

std::size_t HuffmanCode::decode(BitReader& br) const {
  std::uint64_t code = 0;
  for (std::uint8_t len = 1; len <= max_len_; ++len) {
    code = (code << 1) | (br.get_bit() ? 1ULL : 0ULL);
    const std::uint64_t first = first_code_[len];
    // `code - first`, not `first + count`: that sum wraps at 64-bit lengths.
    if (code >= first && code - first < count_[len]) {
      return sorted_symbols_[first_index_[len] + (code - first)];
    }
  }
  throw DecodeError("invalid Huffman stream");
}

}  // namespace disco::compress

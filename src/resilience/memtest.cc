#include "mallard/resilience/memtest.h"

#include <algorithm>

namespace mallard {

void SimulatedDimm::WriteWord(uint64_t index, uint64_t value) {
  storage_[index] = value;
  // Coupling faults: writing the victim word disturbs a neighbor cell.
  for (const auto& f : faults_) {
    if (f.kind == MemoryFault::Kind::kCoupling && f.word_index == index) {
      storage_[f.neighbor_index] ^= uint64_t(1) << f.neighbor_bit;
    }
  }
}

uint64_t SimulatedDimm::ReadWord(uint64_t index) {
  uint64_t value = storage_[index];
  for (const auto& f : faults_) {
    if (f.word_index != index) continue;
    if (f.kind == MemoryFault::Kind::kStuckAtZero) {
      value &= ~(uint64_t(1) << f.bit);
    } else if (f.kind == MemoryFault::Kind::kStuckAtOne) {
      value |= uint64_t(1) << f.bit;
    }
  }
  return value;
}

namespace {
void RecordBad(MemtestResult* result, uint64_t word) {
  result->passed = false;
  if (result->bad_words.empty() || result->bad_words.back() != word) {
    result->bad_words.push_back(word);
  }
}
}  // namespace

MemtestResult WalkingBitsTest(MemoryDevice& mem) {
  MemtestResult result;
  uint64_t n = mem.SizeWords();
  result.words_tested = n;
  // Two passes: pattern and complement. Within a word we walk a single
  // set (then cleared) bit through 8 positions — a compromise between the
  // exhaustive 64-position walk and allocation-time latency.
  static const uint64_t kPatterns[] = {
      0x0101010101010101ULL, 0x0202020202020202ULL, 0x0404040404040404ULL,
      0x0808080808080808ULL, 0x1010101010101010ULL, 0x2020202020202020ULL,
      0x4040404040404040ULL, 0x8080808080808080ULL};
  for (uint64_t pattern : kPatterns) {
    for (uint64_t i = 0; i < n; i++) mem.WriteWord(i, pattern);
    for (uint64_t i = 0; i < n; i++) {
      if (mem.ReadWord(i) != pattern) RecordBad(&result, i);
    }
    uint64_t inverse = ~pattern;
    for (uint64_t i = 0; i < n; i++) mem.WriteWord(i, inverse);
    for (uint64_t i = 0; i < n; i++) {
      if (mem.ReadWord(i) != inverse) RecordBad(&result, i);
    }
    result.traffic_bytes += n * 8 * 4;
  }
  std::sort(result.bad_words.begin(), result.bad_words.end());
  result.bad_words.erase(
      std::unique(result.bad_words.begin(), result.bad_words.end()),
      result.bad_words.end());
  return result;
}

MemtestResult MovingInversionsTest(MemoryDevice& mem, uint64_t pattern,
                                   int iterations) {
  MemtestResult result;
  uint64_t n = mem.SizeWords();
  result.words_tested = n;
  for (int iter = 0; iter < iterations; iter++) {
    // Rotate left by iter % 64; masking the right shift keeps a zero
    // rotation defined (a 64-bit shift by 64 is undefined behaviour).
    unsigned shift = static_cast<unsigned>(iter % 64);
    uint64_t p = (pattern << shift) | (pattern >> ((64 - shift) % 64));
    if (p == 0) p = pattern;
    // Pass 1: fill ascending with pattern.
    for (uint64_t i = 0; i < n; i++) mem.WriteWord(i, p);
    // Pass 2: ascending — verify pattern, write complement. Writing the
    // complement immediately after reading exposes coupling to higher
    // addresses that a plain write/verify scan cannot see.
    for (uint64_t i = 0; i < n; i++) {
      if (mem.ReadWord(i) != p) RecordBad(&result, i);
      mem.WriteWord(i, ~p);
    }
    // Pass 3: descending — verify complement, write pattern. The reverse
    // direction exposes coupling to lower addresses.
    for (uint64_t i = n; i-- > 0;) {
      if (mem.ReadWord(i) != ~p) RecordBad(&result, i);
      mem.WriteWord(i, p);
    }
    // Final verify.
    for (uint64_t i = 0; i < n; i++) {
      if (mem.ReadWord(i) != p) RecordBad(&result, i);
    }
    result.traffic_bytes += n * 8 * 7;
  }
  std::sort(result.bad_words.begin(), result.bad_words.end());
  result.bad_words.erase(
      std::unique(result.bad_words.begin(), result.bad_words.end()),
      result.bad_words.end());
  return result;
}

MemtestResult AddressTest(MemoryDevice& mem) {
  MemtestResult result;
  uint64_t n = mem.SizeWords();
  result.words_tested = n;
  for (uint64_t i = 0; i < n; i++) mem.WriteWord(i, i);
  for (uint64_t i = 0; i < n; i++) {
    if (mem.ReadWord(i) != i) RecordBad(&result, i);
  }
  result.traffic_bytes += n * 8 * 2;
  return result;
}

Status RunMemorySelfTest(MemoryDevice& mem) {
  MemtestResult walking = WalkingBitsTest(mem);
  MemtestResult inversions =
      MovingInversionsTest(mem, 0x5555555555555555ull, /*iterations=*/1);
  MemtestResult address = AddressTest(mem);
  if (!walking.passed || !inversions.passed || !address.passed) {
    size_t bad = walking.bad_words.size() + inversions.bad_words.size() +
                 address.bad_words.size();
    return Status::HardwareFailure(
        "memory self-test failed: " + std::to_string(bad) +
        " word(s) misbehaved; refusing to run on unreliable RAM");
  }
  return Status::OK();
}

}  // namespace mallard

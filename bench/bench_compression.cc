// E11 — Supports Figure 1: characterizes the light (RLE) and heavy (LZ77)
// codecs plus frame-of-reference bit-packing on analytical payloads —
// the cheap/weak vs costly/strong trade-off the reactive governor
// arbitrates when the buffer manager compresses a spill write.
//
// Usage: bench_compression [--json out.json]
// `ns_per_op` is one call over a 1 MiB payload (131072 values for
// bit-packing), best of the timed repetitions; `rows_per_sec` is input
// bytes per second; `ratio` is input bytes over output bytes.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "mallard/common/random.h"
#include "mallard/compression/codec.h"

namespace {

using namespace mallard;

// Analytical-looking payload: sorted keys, repeating dimension strings,
// noisy measures.
std::vector<uint8_t> MakePayload(size_t bytes, int compressibility) {
  RandomEngine rng(123);
  std::vector<uint8_t> data;
  data.reserve(bytes);
  while (data.size() < bytes) {
    switch (compressibility) {
      case 0:  // random (worst case)
        data.push_back(static_cast<uint8_t>(rng.Next()));
        break;
      case 1: {  // mixed: repeating tags + noise
        std::string tag = "region-" + std::to_string(rng.Next() % 8) + ";";
        data.insert(data.end(), tag.begin(), tag.end());
        data.push_back(static_cast<uint8_t>(rng.Next()));
        break;
      }
      default: {  // highly repetitive
        std::string tag = "AAAA-BBBB-";
        data.insert(data.end(), tag.begin(), tag.end());
        break;
      }
    }
  }
  data.resize(bytes);
  return data;
}

// Best wall time of one `op` call over repetitions filling ~0.2 s (at
// least 3); `*iters` receives the repetition count.
double BestNs(const std::function<void()>& op, long long* iters) {
  using Clock = std::chrono::steady_clock;
  double best = 1e300;
  double total = 0;
  long long n = 0;
  while (n < 3 || total < 2e8) {
    auto start = Clock::now();
    op();
    double ns =
        std::chrono::duration<double, std::nano>(Clock::now() - start)
            .count();
    best = std::min(best, ns);
    total += ns;
    n++;
  }
  *iters = n;
  return best;
}

const char* kPayloadNames[] = {"random", "mixed", "repetitive"};

}  // namespace

int main(int argc, char** argv) {
  mallard_bench::BenchReporter reporter("bench_compression", argc, argv);
  std::printf("%-32s %12s %10s %8s\n", "point", "ns/MiB", "MB/s", "ratio");
  auto report = [&](const std::string& name, double ns, long long iters,
                    double bytes, double ratio) {
    double bytes_per_sec = bytes / (ns / 1e9);
    std::printf("%-32s %12.0f %10.1f %8.2f\n", name.c_str(), ns,
                bytes_per_sec / 1e6, ratio);
    reporter.Add(name, iters, ns, bytes_per_sec, {{"ratio", ratio}});
  };

  const size_t kPayloadBytes = 1 << 20;
  for (CompressionLevel level :
       {CompressionLevel::kLight, CompressionLevel::kHeavy}) {
    const Codec* codec = CodecForLevel(level);
    for (int compressibility = 0; compressibility < 3; compressibility++) {
      auto payload = MakePayload(kPayloadBytes, compressibility);
      std::vector<uint8_t> compressed, out;
      long long iters = 0;
      double ns = BestNs(
          [&] { codec->Compress(payload.data(), payload.size(), &compressed); },
          &iters);
      double ratio = double(payload.size()) / compressed.size();
      std::string suffix = std::string(CompressionLevelToString(level)) +
                           "_" + kPayloadNames[compressibility];
      report("compress/" + suffix, ns, iters, payload.size(), ratio);
      Status status;
      ns = BestNs(
          [&] {
            status = codec->Decompress(compressed.data(), compressed.size(),
                                       &out);
          },
          &iters);
      if (!status.ok() || out != payload) {
        std::fprintf(stderr, "decompress/%s does not round-trip\n",
                     suffix.c_str());
        return 1;
      }
      report("decompress/" + suffix, ns, iters, payload.size(), ratio);
    }
  }

  for (int bits : {8, 20}) {
    RandomEngine rng(5);
    std::vector<int64_t> values(131072);
    for (auto& v : values) {
      v = 1000000 + rng.NextInt(0, (int64_t(1) << bits) - 1);
    }
    std::vector<uint8_t> packed;
    long long iters = 0;
    double ns = BestNs(
        [&] { bitpack::Pack(values.data(), values.size(), &packed); }, &iters);
    double bytes = double(values.size() * 8);
    report("bitpack/bits=" + std::to_string(bits), ns, iters, bytes,
           bytes / packed.size());
  }
  return 0;
}

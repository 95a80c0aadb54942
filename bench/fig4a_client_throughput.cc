// Fig. 4(a): parallel chunking and fingerprinting throughput at the backup
// client as a function of the number of data streams.
//
// Each stream runs Rabin-based CDC (avg 4 KB) or SHA-1 / MD5
// fingerprinting of 4 KB chunks over its own 8 MB buffer, one thread per
// stream (the prototype's design). On this container the host has a
// single hardware thread, so curves flatten at 1 stream rather than at 8
// as on the paper's 4-core/8-thread Xeon — the per-algorithm ordering
// (MD5 ~ 2x SHA-1 >> CDC) is the reproducible shape. That ordering holds
// for the scalar SHA-1 kernel; with SHA-NI (recorded as params.sha1_kernel)
// SHA-1 outruns both.
//
// SIGMA_BENCH_SCALE shrinks the per-stream buffer for quick CI runs.
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "chunking/chunker.h"
#include "common/md5.h"
#include "common/random.h"
#include "common/sha1.h"
#include "common/thread_pool.h"

namespace {

using namespace sigma;
namespace bench = sigma::bench;

Buffer make_stream_buffer(double scale) {
  auto bytes = static_cast<std::size_t>(8e6 * scale);
  if (bytes < 64 * 1024) bytes = 64 * 1024;  // keep CDC windows honest
  Buffer b(bytes);
  Rng rng(0xF19A);
  for (auto& byte : b) byte = static_cast<std::uint8_t>(rng.next());
  return b;
}

/// MB/s of `work(data)` across `streams` concurrent streams (one thread
/// per stream, repeated until ~0.2 s of wall clock is accumulated).
double measure_streams(std::size_t streams, ByteView data,
                       const std::function<void(ByteView)>& work) {
  ThreadPool pool(streams);
  pool.parallel_for(streams, [&](std::size_t) { work(data); });  // warm-up
  std::size_t iterations = 0;
  Stopwatch timer;
  do {
    pool.parallel_for(streams, [&](std::size_t) { work(data); });
    ++iterations;
  } while (timer.seconds() < 0.2);
  const double bytes = static_cast<double>(iterations) *
                       static_cast<double>(streams) *
                       static_cast<double>(data.size());
  return bytes / timer.seconds() / 1e6;
}

}  // namespace

int main() {
  const double scale = bench::bench_scale();
  const Buffer buffer = make_stream_buffer(scale);
  const ByteView data{buffer.data(), buffer.size()};

  bench::print_header(
      "Client chunking/fingerprinting throughput vs data streams",
      "paper Fig. 4(a): one thread per stream, 4 KB avg chunks");

  struct Algo {
    const char* label;   // table column
    const char* key;     // metrics prefix
    std::function<void(ByteView)> work;
  };
  const auto cdc = CdcChunker::with_average(4096);
  const FixedChunker fixed(4096);
  // The chunk lists are recomputed per run on purpose: chunking cost is
  // part of what Fig. 4(a) measures.
  const std::vector<Algo> algos = {
      {"CDC chunking", "cdc",
       [&](ByteView d) { volatile auto n = cdc.chunk(d).size(); (void)n; }},
      {"SHA-1 fingerprinting", "sha1",
       [&](ByteView d) {
         for (const auto& b : fixed.chunk(d)) {
           volatile auto h = Sha1::hash(d.subspan(b.offset, b.size));
           (void)h;
         }
       }},
      {"MD5 fingerprinting", "md5",
       [&](ByteView d) {
         for (const auto& b : fixed.chunk(d)) {
           volatile auto h = Md5::hash(d.subspan(b.offset, b.size));
           (void)h;
         }
       }},
  };
  const std::vector<std::size_t> stream_counts = {1, 2, 4, 8, 16};

  TablePrinter table({"algorithm", "1 stream", "2", "4", "8", "16 (MB/s)"});
  bench::BenchResult result;
  result.name = "fig4a_client_throughput";
  result.params["stream_bytes"] = std::to_string(buffer.size());
  result.params["chunk_bytes"] = "4096";
  result.params["sha1_kernel"] = to_string(Sha1::detected_kernel());

  for (const Algo& algo : algos) {
    std::vector<std::string> row{algo.label};
    for (std::size_t streams : stream_counts) {
      const double mbps = measure_streams(streams, data, algo.work);
      result.metrics[std::string(algo.key) + ".streams" +
                     std::to_string(streams) + ".mbps"] = mbps;
      row.push_back(TablePrinter::fmt(mbps, 1));
    }
    table.add_row(row);
  }
  table.print(std::cout);

  bench::emit_bench_json(result);
  return 0;
}

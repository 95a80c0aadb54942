#include "cluster/backup_client.h"

#include <algorithm>
#include <stdexcept>
#include <thread>

#include "common/stats.h"

namespace sigma {
namespace {

/// One chunk of the session stream, with the view of its payload and the
/// index of the file it belongs to.
struct StreamChunk {
  ChunkRecord record;
  ByteView payload;
  std::size_t file_index;
};

/// Recipe entries a restore reads per round: enough in flight to hide
/// the per-chunk round trip, few enough to bound the buffered bytes.
constexpr std::size_t kRestoreWindow = 64;

std::size_t resolve_hash_threads(std::size_t configured) {
  if (configured > 0) return configured;
  return std::min<std::size_t>(
      8, std::max(1u, std::thread::hardware_concurrency()));
}

}  // namespace

BackupClient::BackupClient(const BackupClientConfig& config, Cluster& cluster,
                           Director& director)
    : config_(config),
      cluster_(cluster),
      director_(director),
      hash_threads_(resolve_hash_threads(config.hash_threads)) {}

void BackupClient::parallel_over(
    std::size_t n, std::size_t min_per_shard,
    const std::function<void(std::size_t)>& fn) const {
  if (hash_threads_ <= 1 || n < 2 * min_per_shard) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::call_once(hash_pool_once_, [&] {
    hash_pool_ = std::make_unique<ThreadPool>(hash_threads_);
  });
  const std::size_t shards =
      std::min(hash_pool_->size(), n / min_per_shard);
  hash_pool_->parallel_for(shards, [&](std::size_t s) {
    for (std::size_t i = s; i < n; i += shards) fn(i);
  });
}

BackupSummary BackupClient::backup(const ContentBackup& session,
                                   StreamId stream) {
  Stopwatch timer;
  BackupSummary summary;

  const auto chunker = make_chunker(config_.chunking, config_.chunk_bytes);

  // Data partitioning: boundaries are computed per file (chunkers are
  // stateless and const, so one instance serves all threads), files in
  // parallel across the hash pool.
  std::vector<std::vector<ChunkBoundary>> boundaries(session.files.size());
  parallel_over(session.files.size(), /*min_per_shard=*/1,
                [&](std::size_t f) {
                  const auto& file = session.files[f];
                  boundaries[f] = chunker->chunk(
                      ByteView{file.data.data(), file.data.size()});
                });

  // Chunk fingerprinting over the whole session stream, parallel across
  // chunks — SHA-1 is the dominant client-side cost and would otherwise
  // cap write-pipeline overlap. Stream order is positional, so the
  // parallel fill is deterministic. Payload views point into the
  // session's buffers, which outlive this call.
  std::vector<StreamChunk> chunks;
  for (std::size_t f = 0; f < session.files.size(); ++f) {
    const auto& file = session.files[f];
    const ByteView data{file.data.data(), file.data.size()};
    for (const ChunkBoundary& b : boundaries[f]) {
      chunks.push_back({{Fingerprint{}, b.size}, data.subspan(b.offset, b.size), f});
    }
  }
  parallel_over(chunks.size(), /*min_per_shard=*/16, [&](std::size_t i) {
    chunks[i].record.fp = Fingerprint::of(chunks[i].payload, config_.hash);
  });
  summary.chunk_count = chunks.size();

  // Super-chunk grouping over the session stream (file boundaries do not
  // cut super-chunks; locality follows the stream). Each completed
  // super-chunk is routed and written with its payload provider; the node
  // id assigned to each chunk is recorded for the file recipes.
  std::vector<NodeId> chunk_node(chunks.size());
  std::size_t window_start = 0;
  SuperChunkBuilder builder(config_.super_chunk_bytes);

  // Transferred bytes are the payloads this session's placements hand
  // over: over a transport, those the duplicate test found absent; in
  // direct mode, those the node pulls as unique. The provider runs inside
  // place_super_chunk on this thread, so the count is this session's
  // alone, however many streams share the cluster.
  auto dispatch = [&](SuperChunk&& sc, std::size_t end) {
    if (sc.chunks.empty()) return;
    const std::size_t base = window_start;
    const NodeId target = cluster_.place_super_chunk(
        sc, stream, [&chunks, &summary, base](std::size_t i) {
          const ByteView payload = chunks[base + i].payload;
          summary.transferred_bytes += payload.size();
          return payload;
        });
    for (std::size_t i = window_start; i < end; ++i) chunk_node[i] = target;
    ++summary.super_chunk_count;
    window_start = end;
  };

  for (std::size_t i = 0; i < chunks.size(); ++i) {
    summary.logical_bytes += chunks[i].record.size;
    if (builder.add(chunks[i].record)) dispatch(builder.take(), i + 1);
  }
  dispatch(builder.flush(), chunks.size());

  // File recipes.
  std::vector<FileRecipe> recipes(session.files.size());
  for (std::size_t f = 0; f < session.files.size(); ++f) {
    recipes[f].path = session.files[f].path;
  }
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    recipes[chunks[i].file_index].chunks.push_back(
        {chunks[i].record.fp, chunks[i].record.size, chunk_node[i]});
  }
  for (auto& recipe : recipes) {
    director_.record_file(session.session, std::move(recipe));
  }

  // A returned backup() means every write of the session is acknowledged.
  cluster_.drain_writes();
  summary.elapsed_seconds = timer.seconds();
  return summary;
}

Buffer BackupClient::restore(const std::string& session,
                             const std::string& path) const {
  const auto recipe = director_.find(session, path);
  if (!recipe) {
    throw std::runtime_error("restore: unknown file '" + path +
                             "' in session '" + session + "'");
  }
  const auto& entries = recipe->chunks;
  Buffer out;
  out.reserve(recipe->logical_bytes());
  std::vector<std::pair<NodeId, Fingerprint>> reads;
  for (std::size_t base = 0; base < entries.size(); base += kRestoreWindow) {
    const std::size_t n = std::min(kRestoreWindow, entries.size() - base);
    reads.clear();
    for (std::size_t i = base; i < base + n; ++i) {
      reads.emplace_back(entries[i].node, entries[i].fp);
    }
    const auto chunks = cluster_.read_chunks(reads);
    for (std::size_t i = 0; i < n; ++i) {
      const auto& entry = entries[base + i];
      if (!chunks[i]) {
        throw std::runtime_error("restore: missing chunk " + entry.fp.hex() +
                                 " on node " + std::to_string(entry.node));
      }
      if (chunks[i]->size() != entry.size) {
        throw std::runtime_error("restore: chunk size mismatch for " +
                                 entry.fp.hex());
      }
    }
    // End-to-end integrity: the node's ranged read does not check its
    // container's checksum, so each chunk is held to its fingerprint.
    std::vector<char> intact(n);
    parallel_over(n, /*min_per_shard=*/16, [&](std::size_t i) {
      const Buffer& chunk = *chunks[i];
      intact[i] = Fingerprint::of(ByteView{chunk.data(), chunk.size()},
                                  config_.hash) == entries[base + i].fp;
    });
    for (std::size_t i = 0; i < n; ++i) {
      if (!intact[i]) {
        throw std::runtime_error("restore: chunk content mismatch for " +
                                 entries[base + i].fp.hex());
      }
      out.insert(out.end(), chunks[i]->begin(), chunks[i]->end());
    }
  }
  return out;
}

}  // namespace sigma

// A deduplication server node (paper Sections 3.1 and 3.3).
//
// The node owns the four intra-node structures and implements the lookup
// flow of Section 3.3 for every routed super-chunk:
//
//   1. look the super-chunk's handprint up in the *similarity index*;
//   2. prefetch the metadata sections of all matched containers into the
//      *chunk-fingerprint cache* (container-granularity disk reads of each
//      sealed blob's self-verifying metadata prefix);
//   3. test every chunk fingerprint against the cache; cache misses fall
//      back to the metered on-disk *chunk index* (exact backstop) — or are
//      declared unique when the node runs in approximate,
//      similarity-index-only mode (the Fig. 5b configuration);
//   4. append unique chunks to the stream's open container in the
//      *container store*, and
//   5. publish the super-chunk's handprint in the similarity index.
//
// It also answers the two remote probes used by routing schemes:
// resemblance counts over handprints (Sigma-Dedupe, Algorithm 1 step 2)
// and sampled chunk-fingerprint match counts (EMC stateful routing).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "chunking/super_chunk.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "node/node_probe.h"
#include "storage/backend.h"
#include "storage/bloom_filter.h"
#include "storage/chunk_index.h"
#include "storage/container_store.h"
#include "storage/fingerprint_cache.h"
#include "storage/similarity_index.h"

namespace sigma {

struct DedupNodeConfig {
  /// Open-container seal threshold.
  std::uint64_t container_capacity_bytes = 4ull << 20;
  /// Chunk-fingerprint cache capacity, in containers.
  std::size_t cache_capacity_containers = 128;
  /// Lock stripes in the similarity index (Fig. 4b tunable).
  std::size_t similarity_index_locks = 1024;
  /// Handprint size k (paper default 8).
  std::size_t handprint_size = 8;
  /// Exact mode keeps the metered on-disk chunk index as a backstop after
  /// cache misses. Approximate mode (false) relies on the similarity
  /// index + cache only — the configuration studied in Fig. 5b.
  bool use_disk_index = true;
  /// Prefetch a container's fingerprints on a disk-index hit as well
  /// (DDFS-style locality-preserved caching).
  bool prefetch_on_disk_hit = true;
  /// Disable to ablate the similarity index's prefetch role: handprints
  /// are still published (for routing probes) but cache prefetch is
  /// driven only by disk-index hits, i.e. plain DDFS-style caching.
  bool use_similarity_prefetch = true;
  /// DDFS-style Bloom summary vector in front of the on-disk chunk index:
  /// a negative answer proves a chunk new and skips the disk lookup.
  bool use_bloom_filter = true;
  /// Bloom sizing (8 bits/entry at this many expected unique chunks).
  std::uint64_t bloom_expected_chunks = 1ull << 22;
};

/// Per-super-chunk dedup outcome and I/O accounting.
struct SuperChunkWriteResult {
  std::uint64_t duplicate_chunks = 0;
  std::uint64_t unique_chunks = 0;
  std::uint64_t duplicate_bytes = 0;
  std::uint64_t unique_bytes = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t disk_index_lookups = 0;
  std::uint64_t disk_lookups_avoided_by_bloom = 0;
  std::uint64_t container_prefetches = 0;
};

/// Outcome of one rebuild_indexes() recovery pass.
struct RecoveryReport {
  /// Sealed containers whose blobs validated and were re-indexed.
  std::size_t containers_recovered = 0;
  /// Container blobs present but refused (truncated, corrupt, id
  /// mismatch). Their chunks are not indexed — a bad container is skipped
  /// whole, never partially.
  std::size_t containers_skipped = 0;
  std::uint64_t chunks_recovered = 0;
  std::uint64_t bytes_recovered = 0;
};

/// Cumulative node statistics: a view of the node's `node.node<id>.*`
/// registry counters.
struct DedupNodeStats {
  std::uint64_t logical_bytes = 0;
  std::uint64_t physical_bytes = 0;
  std::uint64_t super_chunks = 0;
  std::uint64_t duplicate_chunks = 0;
  std::uint64_t unique_chunks = 0;
  std::uint64_t disk_index_lookups = 0;
  std::uint64_t disk_lookups_avoided_by_bloom = 0;
  std::uint64_t container_prefetches = 0;

  double dedup_ratio() const {
    return physical_bytes == 0
               ? 1.0
               : static_cast<double>(logical_bytes) /
                     static_cast<double>(physical_bytes);
  }
};

class DedupNode : public NodeProbe {
 public:
  /// Provides payload bytes for the i-th chunk of the super-chunk being
  /// written; absent in trace-driven (metadata-only) operation.
  using PayloadProvider = std::function<ByteView(std::size_t chunk_index)>;

  /// Creates a node with its own in-memory backend. The node counts into
  /// `metrics` (must outlive the node) as `node.node<id>.*` and
  /// `recovery.node<id>.*`, its backend as `store.node<id>.*`; without a
  /// registry the node owns a private one.
  explicit DedupNode(NodeId id, const DedupNodeConfig& config,
                     obs::Registry* metrics = nullptr);

  /// Creates a node over a caller-supplied backend (e.g. FileBackend),
  /// which keeps its own instruments.
  DedupNode(NodeId id, const DedupNodeConfig& config,
            std::unique_ptr<StorageBackend> backend,
            obs::Registry* metrics = nullptr);

  NodeId id() const { return id_; }

  // ---- Remote probes (used by routers; message costs are accounted by
  //      the cluster layer, not here) -------------------------------------

  /// Algorithm 1 step 2: how many of these representative fingerprints are
  /// present in this node's similarity index?
  std::size_t resemblance_count(const Handprint& handprint) const override;

  /// EMC-stateful probe: how many of these (sampled) chunk fingerprints
  /// does this node already store?
  std::size_t chunk_match_count(
      const std::vector<Fingerprint>& fps) const override;

  /// Physical capacity used (for the load-balance discount).
  std::uint64_t stored_bytes() const override;

  /// Batched duplicate test: for each fingerprint, is the chunk already
  /// stored (exact chunk index)? Advisory for the wire protocol — the
  /// client sends payloads only for chunks reported absent; the store path
  /// re-checks, so a chunk stored concurrently is still deduplicated.
  std::vector<bool> test_duplicates(const std::vector<Fingerprint>& fps) const;

  // ---- Backup path ------------------------------------------------------

  /// Deduplicate and store one routed super-chunk. `payloads`, when
  /// provided, supplies the bytes of each chunk (only unique chunks are
  /// materialized).
  SuperChunkWriteResult write_super_chunk(StreamId stream,
                                          const SuperChunk& super_chunk,
                                          const PayloadProvider& payloads = {});

  /// Seal open containers (end of backup session).
  void flush();

  /// Crash recovery: rebuild the chunk index, similarity index and Bloom
  /// filter from the sealed containers in the backend (containers are
  /// self-describing, so the indexes are soft state). Each recovered
  /// container contributes its chunk locations to the chunk index and its
  /// k smallest fingerprints (the container's locality unit handprint) to
  /// the similarity index.
  ///
  /// Container blobs are fully validated (wire-codec bounds checks,
  /// structural invariants, both checksums) before any of their chunks
  /// are indexed; a blob that fails validation is counted in
  /// RecoveryReport::containers_skipped and contributes nothing — no
  /// crash, no silent partial index. Each blob is read once. Returns the
  /// number of containers recovered; the full breakdown is available from
  /// last_recovery() and is added to the `recovery.node<id>.*` counters
  /// when the pass finishes.
  std::size_t rebuild_indexes();

  /// Breakdown of the most recent rebuild_indexes() pass.
  const RecoveryReport& last_recovery() const { return recovery_; }

  // ---- Restore path -----------------------------------------------------

  /// Fetch a stored chunk's payload by fingerprint. Requires exact mode
  /// and payload materialization.
  std::optional<Buffer> read_chunk(const Fingerprint& fp) const;

  // ---- Introspection ----------------------------------------------------

  DedupNodeStats stats() const;
  const BloomFilter& bloom_filter() const { return bloom_; }
  const SimilarityIndex& similarity_index() const { return similarity_index_; }
  const FingerprintCache& fingerprint_cache() const { return cache_; }
  const ChunkIndex& chunk_index() const { return chunk_index_; }
  const ContainerStore& container_store() const { return containers_; }
  const StorageBackend& backend() const { return *backend_; }
  const DedupNodeConfig& config() const { return config_; }

 private:
  NodeId id_;
  DedupNodeConfig config_;
  obs::RegistryRef metrics_;
  std::unique_ptr<StorageBackend> backend_;
  ContainerStore containers_;
  SimilarityIndex similarity_index_;
  FingerprintCache cache_;
  ChunkIndex chunk_index_;
  BloomFilter bloom_ SIGMA_GUARDED_BY(bloom_mu_);
  mutable Mutex bloom_mu_{LockRank::kBloomFilter};
  // Written only by rebuild_indexes(), which runs before the node serves
  // traffic (single-threaded startup) — hence unguarded.
  RecoveryReport recovery_;

  // node.node<id>.* — the counters behind stats().
  obs::Counter& logical_bytes_;
  obs::Counter& physical_bytes_;
  obs::Counter& super_chunks_;
  obs::Counter& duplicate_chunks_;
  obs::Counter& unique_chunks_;
  obs::Counter& disk_index_lookups_;
  obs::Counter& disk_lookups_avoided_by_bloom_;
  obs::Counter& container_prefetches_;
  // recovery.node<id>.* — every rebuild_indexes() pass, summed.
  obs::Counter& containers_recovered_;
  obs::Counter& containers_skipped_;
  obs::Counter& chunks_recovered_;
  obs::Counter& bytes_recovered_;
};

}  // namespace sigma

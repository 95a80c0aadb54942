#include "node/dedup_node.h"

#include <string>
#include <unordered_map>

namespace sigma {

namespace {

std::string node_label(NodeId id) { return "node" + std::to_string(id); }

/// `<plane>.node<id>.<name>`, e.g. node.node0.unique_chunks.
obs::Counter& node_counter(obs::Registry& metrics, const char* plane,
                           NodeId id, const char* name) {
  return metrics.counter(std::string(plane) + "." + node_label(id) + "." +
                         name);
}

}  // namespace

DedupNode::DedupNode(NodeId id, const DedupNodeConfig& config,
                     obs::Registry* metrics)
    : DedupNode(id, config, nullptr, metrics) {}

DedupNode::DedupNode(NodeId id, const DedupNodeConfig& config,
                     std::unique_ptr<StorageBackend> backend,
                     obs::Registry* metrics)
    : id_(id),
      config_(config),
      metrics_(metrics),
      backend_(backend ? std::move(backend)
                       : std::make_unique<MemoryBackend>(metrics_.get(),
                                                         node_label(id))),
      containers_(*backend_, config.container_capacity_bytes),
      similarity_index_(config.similarity_index_locks),
      cache_(config.cache_capacity_containers),
      bloom_(config.bloom_expected_chunks),
      logical_bytes_(node_counter(*metrics_, "node", id, "logical_bytes")),
      physical_bytes_(node_counter(*metrics_, "node", id, "physical_bytes")),
      super_chunks_(node_counter(*metrics_, "node", id, "super_chunks")),
      duplicate_chunks_(
          node_counter(*metrics_, "node", id, "duplicate_chunks")),
      unique_chunks_(node_counter(*metrics_, "node", id, "unique_chunks")),
      disk_index_lookups_(
          node_counter(*metrics_, "node", id, "disk_index_lookups")),
      disk_lookups_avoided_by_bloom_(
          node_counter(*metrics_, "node", id, "disk_lookups_avoided_by_bloom")),
      container_prefetches_(
          node_counter(*metrics_, "node", id, "container_prefetches")),
      containers_recovered_(
          node_counter(*metrics_, "recovery", id, "containers_recovered")),
      containers_skipped_(
          node_counter(*metrics_, "recovery", id, "containers_skipped")),
      chunks_recovered_(
          node_counter(*metrics_, "recovery", id, "chunks_recovered")),
      bytes_recovered_(
          node_counter(*metrics_, "recovery", id, "bytes_recovered")) {}

std::size_t DedupNode::resemblance_count(const Handprint& handprint) const {
  return similarity_index_.count_matches(handprint);
}

std::size_t DedupNode::chunk_match_count(
    const std::vector<Fingerprint>& fps) const {
  std::size_t count = 0;
  for (const auto& fp : fps) {
    if (chunk_index_.lookup(fp)) ++count;
  }
  return count;
}

std::uint64_t DedupNode::stored_bytes() const {
  return containers_.stored_bytes();
}

std::vector<bool> DedupNode::test_duplicates(
    const std::vector<Fingerprint>& fps,
    std::optional<std::uint64_t> bin) const {
  std::vector<bool> present(fps.size(), false);
  if (bin) {
    MutexLock lock(bins_mu_);
    const auto it = bins_.find(*bin);
    for (std::size_t i = 0; i < fps.size(); ++i) {
      present[i] = it != bins_.end() && it->second.contains(fps[i]);
    }
    return present;
  }
  for (std::size_t i = 0; i < fps.size(); ++i) {
    present[i] = chunk_index_.lookup(fps[i]).has_value();
  }
  return present;
}

SuperChunkWriteResult DedupNode::write_super_chunk(
    StreamId stream, const SuperChunk& super_chunk,
    const PayloadProvider& payloads, std::optional<std::uint64_t> bin) {
  SuperChunkWriteResult result;
  if (bin) {
    // Published Extreme Binning: a chunk another bin holds is stored once
    // more. The chunk index (and its Bloom summary, which must cover it)
    // learns every stored copy, for reads.
    MutexLock lock(bins_mu_);
    auto& held = bins_[*bin];
    for (std::size_t i = 0; i < super_chunk.chunks.size(); ++i) {
      const ChunkRecord& chunk = super_chunk.chunks[i];
      const bool fresh = held.insert(chunk.fp).second;
      if (fresh) {
        chunk_index_.insert(
            chunk.fp,
            payloads ? containers_.append(stream, chunk.fp, payloads(i))
                     : containers_.append_meta(stream, chunk.fp, chunk.size));
        MutexLock bloom_lock(bloom_mu_);
        bloom_.insert(chunk.fp);
      }
      ++(fresh ? result.unique_chunks : result.duplicate_chunks);
      (fresh ? result.unique_bytes : result.duplicate_bytes) += chunk.size;
    }
    count_write(result);
    return result;
  }

  // Step 1+2: similarity-index lookup and container prefetch.
  const Handprint handprint =
      compute_handprint(super_chunk.chunks, config_.handprint_size);
  if (config_.use_similarity_prefetch) {
    for (ContainerId cid : similarity_index_.match_containers(handprint)) {
      const bool cached = cache_.contains_container(cid);
      // Sealed containers are immutable, so a cached copy stays valid; an
      // open container's cached fingerprint list goes stale as the
      // container grows and must be refreshed.
      if (!cached || containers_.is_open(cid)) {
        cache_.insert(cid, containers_.read_metadata(cid));
        if (!cached) ++result.container_prefetches;
      }
    }
  }

  // Step 3+4: per-chunk duplicate test, unique-chunk store.
  // Chunks repeated *within* this super-chunk must dedupe against each
  // other too, so track locations assigned during this call.
  std::unordered_map<Fingerprint, ContainerId> local;
  local.reserve(super_chunk.chunks.size());
  std::unordered_map<Fingerprint, ContainerId> rfp_location;

  for (std::size_t i = 0; i < super_chunk.chunks.size(); ++i) {
    const ChunkRecord& chunk = super_chunk.chunks[i];
    std::optional<ContainerId> home;

    if (auto it = local.find(chunk.fp); it != local.end()) {
      home = it->second;
    } else if (auto cached = cache_.lookup(chunk.fp)) {
      ++result.cache_hits;
      home = *cached;
    } else if (config_.use_disk_index) {
      // DDFS-style summary vector: a negative Bloom answer proves the
      // chunk new without touching the on-disk index.
      bool maybe_present = true;
      if (config_.use_bloom_filter) {
        MutexLock lock(bloom_mu_);
        maybe_present = bloom_.may_contain(chunk.fp);
      }
      if (!maybe_present) {
        ++result.disk_lookups_avoided_by_bloom;
      } else {
        ++result.disk_index_lookups;
        if (auto loc = chunk_index_.lookup(chunk.fp)) {
          home = loc->container;
          if (config_.prefetch_on_disk_hit &&
              !cache_.contains_container(loc->container)) {
            cache_.insert(loc->container,
                          containers_.read_metadata(loc->container));
            ++result.container_prefetches;
          }
        }
      }
    }

    if (home) {
      ++result.duplicate_chunks;
      result.duplicate_bytes += chunk.size;
    } else {
      ChunkLocation loc =
          payloads ? containers_.append(stream, chunk.fp, payloads(i))
                   : containers_.append_meta(stream, chunk.fp, chunk.size);
      if (config_.use_disk_index) {
        chunk_index_.insert(chunk.fp, loc);
        if (config_.use_bloom_filter) {
          MutexLock lock(bloom_mu_);
          bloom_.insert(chunk.fp);
        }
      }
      home = loc.container;
      ++result.unique_chunks;
      result.unique_bytes += chunk.size;
    }
    local[chunk.fp] = *home;
    rfp_location[chunk.fp] = *home;
  }

  // Step 5: publish this super-chunk's handprint so future resemblance
  // probes and prefetches can find it.
  for (const auto& rfp : handprint) {
    similarity_index_.put(rfp, rfp_location.at(rfp));
  }
  count_write(result);
  return result;
}

void DedupNode::count_write(const SuperChunkWriteResult& result) {
  logical_bytes_.inc(result.duplicate_bytes + result.unique_bytes);
  physical_bytes_.inc(result.unique_bytes);
  super_chunks_.inc();
  duplicate_chunks_.inc(result.duplicate_chunks);
  unique_chunks_.inc(result.unique_chunks);
  disk_index_lookups_.inc(result.disk_index_lookups);
  disk_lookups_avoided_by_bloom_.inc(result.disk_lookups_avoided_by_bloom);
  container_prefetches_.inc(result.container_prefetches);
}

void DedupNode::flush() { containers_.flush(); }

std::size_t DedupNode::rebuild_indexes() {
  RecoveryReport report;
  std::optional<ContainerId> max_cid;
  for (const std::string& key : backend_->keys()) {
    // Sealed containers persist as "container-<id>" blobs. Foreign keys
    // — the manifest, stray files in a shared directory — are simply not
    // containers and are ignored.
    const auto cid = ContainerStore::parse_container_key(key);
    if (!cid) continue;
    // Every container id present on disk — recovered OR refused — fences
    // off the id space: new containers must never overwrite an existing
    // blob, least of all a damaged one an operator might still salvage.
    max_cid = std::max(max_cid.value_or(*cid), *cid);
    const auto blob = backend_->get(key);
    if (!blob) continue;

    // Validate the whole blob before indexing anything from it: a
    // truncated, bit-flipped or misnamed container is refused whole.
    std::optional<Container> container;
    try {
      container =
          Container::deserialize(ByteView{blob->data(), blob->size()});
      if (container->id() != *cid) {
        throw std::runtime_error("container id does not match key");
      }
    } catch (const std::exception&) {
      ++report.containers_skipped;
      continue;
    }

    const auto& metadata = container->metadata();
    std::vector<ChunkRecord> records;
    records.reserve(metadata.size());
    for (std::uint32_t i = 0; i < metadata.size(); ++i) {
      const ChunkMeta& m = metadata[i];
      chunk_index_.insert(m.fp, {*cid, i, m.length, m.offset});
      {
        MutexLock lock(bloom_mu_);
        bloom_.insert(m.fp);
      }
      records.push_back({m.fp, m.length});
      report.bytes_recovered += m.length;
    }
    report.chunks_recovered += metadata.size();
    // Republish the container's locality unit in the similarity index so
    // post-recovery routing probes and prefetches keep working.
    for (const auto& rfp :
         compute_handprint(records, config_.handprint_size)) {
      similarity_index_.put(rfp, *cid);
    }
    ++report.containers_recovered;
  }
  if (max_cid) {
    containers_.restore_state(*max_cid + 1, report.bytes_recovered);
  }
  physical_bytes_.inc(report.bytes_recovered);
  containers_recovered_.inc(report.containers_recovered);
  containers_skipped_.inc(report.containers_skipped);
  chunks_recovered_.inc(report.chunks_recovered);
  bytes_recovered_.inc(report.bytes_recovered);
  recovery_ = report;
  return report.containers_recovered;
}

std::optional<Buffer> DedupNode::read_chunk(const Fingerprint& fp) const {
  auto loc = chunk_index_.lookup(fp);
  if (!loc) return std::nullopt;
  return containers_.read_chunk(*loc);
}

DedupNodeStats DedupNode::stats() const {
  DedupNodeStats s;
  s.logical_bytes = logical_bytes_.value();
  s.physical_bytes = physical_bytes_.value();
  s.super_chunks = super_chunks_.value();
  s.duplicate_chunks = duplicate_chunks_.value();
  s.unique_chunks = unique_chunks_.value();
  s.disk_index_lookups = disk_index_lookups_.value();
  s.disk_lookups_avoided_by_bloom = disk_lookups_avoided_by_bloom_.value();
  s.container_prefetches = container_prefetches_.value();
  return s;
}

}  // namespace sigma

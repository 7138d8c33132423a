// Verdict cache for the verifier: maps the digest of a verification query's key text
// (rule + the pair's canonically-renamed paths + order membership + the schema fragment
// they touch, prefixed by the verdict-deciding checker options) to the solver's outcome.
//
// Two queries with equal key texts are isomorphic SMT problems — identical term DAGs up
// to constant names, which the bounded model finder never interprets — checked under the
// same options, so their sat/unsat verdicts coincide and one solver run serves both. The
// evaluated apps are full of such twins: viewsets stamp structurally identical endpoints
// onto every model, and the semantic rule checks NotInvalidate(P, P) twice per self-pair.
//
// Key texts are composed, not printed per pair: each path's canonical template (see
// soir/printer.h) is printed once per run into its PathFacts, and a pair's text is
// rendered from the two templates on one shared renaming context. The cache stores a
// 128-bit MurmurHash3 digest of that text (VerdictKey), not the ~1 KB text itself. Two
// different texts share a digest with probability about n^2 / 2^129 for n stored keys —
// below 10^-26 for a million keys — and a collision could only make one query replay
// another's verdict, which paranoia sampling (ParallelOptions::paranoia) audits for
// verdicts replayed from a store.
//
// The cache is also the incremental engine's persistence unit: SaveToFile/LoadFromFile
// round-trip the verdict map through a versioned artifact, and entries that arrived from
// disk are marked `replayed` so the report can attribute each pair's verdicts to this
// run or a prior one (and so paranoia sampling knows which verdicts to spot-re-solve).
// Because the keys encode everything the SMT encoding can see, seeding a run with a
// prior store is sound by construction: any pair affected by an edit — changed paths,
// changed schema fragment, changed order membership, changed checker options — misses
// and is re-solved.
//
// Only facts are cached. A kTimeout says the budget ran out, not what the query's answer
// is, so Insert drops it and a store that carries one fails to load; a later run with a
// larger budget (or on a less loaded machine) solves the query afresh. This is also why
// the budget is not part of the key.
//
// Thread-safety: sharded by key; lookups and inserts from concurrent verification
// workers are safe. Two workers may race to compute the same key — both compute, both
// insert the (equal) outcome; the cache trades that rare duplicated solver call for
// never blocking a worker on another's multi-millisecond check. Save/Load are not
// concurrency-safe against writers; call them before and after a run, not during.
#ifndef SRC_VERIFIER_CACHE_H_
#define SRC_VERIFIER_CACHE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/soir/ast.h"
#include "src/soir/printer.h"
#include "src/soir/schema.h"
#include "src/support/hash.h"
#include "src/verifier/checker.h"

namespace noctua::verifier {

// A verdict cache key: the digest of a query's full key text.
struct VerdictKey {
  VerdictKey() = default;
  // Digests `key_text`. Implicit, so a key text can stand wherever a key is expected.
  VerdictKey(std::string_view key_text) : digest(Murmur3x64_128(key_text)) {}
  VerdictKey(const std::string& key_text) : VerdictKey(std::string_view(key_text)) {}
  VerdictKey(const char* key_text) : VerdictKey(std::string_view(key_text)) {}

  Hash128 digest;

  bool operator==(const VerdictKey& o) const { return digest == o.digest; }
  bool operator<(const VerdictKey& o) const { return digest < o.digest; }
};

class VerdictCache {
 public:
  // One cached verdict. `replayed` is true when the entry was loaded from a prior run's
  // artifact rather than computed by this process.
  struct Entry {
    CheckOutcome outcome = CheckOutcome::kPass;
    bool replayed = false;
  };

  // `capacity` bounds the total number of entries (0 = unbounded, the default). When a
  // shard would exceed its share (capacity / kShards, at least 1), the oldest entries of
  // that shard are evicted FIFO. Only meaningful for run-local caches under memory
  // pressure; a cache that will be persisted as an artifact should stay unbounded, since
  // evicted verdicts silently become cold misses on the next warm run.
  explicit VerdictCache(size_t capacity = 0) : capacity_(capacity) {}
  VerdictCache(const VerdictCache&) = delete;
  VerdictCache& operator=(const VerdictCache&) = delete;

  // Returns the cached outcome, counting a hit; nullopt counts a miss.
  std::optional<CheckOutcome> Lookup(const VerdictKey& key);
  // Like Lookup, but exposes provenance.
  std::optional<Entry> LookupEntry(const VerdictKey& key);
  // Caches a computed verdict. A kTimeout is not a verdict and is dropped. Returns how
  // many entries a bounded cache evicted to make room.
  size_t Insert(const VerdictKey& key, CheckOutcome outcome);

  // Persists every entry (sorted by key, so equal caches produce byte-identical files).
  // Returns false if the file cannot be written.
  bool SaveToFile(const std::string& path) const;
  // Loads a previously saved store, marking every loaded entry replayed. All-or-nothing:
  // a missing, truncated, corrupted, or version-mismatched file, or one that carries a
  // kTimeout, returns false and leaves the cache untouched (the caller falls back to a
  // cold run). Entries already present keep their current value — loading never
  // overwrites a computed verdict.
  bool LoadFromFile(const std::string& path);

  // Entries Insert added (computed by this process) over the cache's lifetime. A cache
  // loaded from a file whose count has not moved holds exactly what the file holds.
  uint64_t computed() const { return computed_.load(std::memory_order_relaxed); }

  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  uint64_t evictions() const { return evictions_.load(std::memory_order_relaxed); }
  size_t capacity() const { return capacity_; }
  size_t size() const;

  static constexpr size_t kNumShards = 16;

  // Point-in-time statistics of one shard, for the per-shard occupancy report.
  struct ShardStats {
    size_t entries = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
  };
  // Snapshot of all kNumShards shards, in shard order.
  std::vector<ShardStats> PerShardStats() const;

 private:
  static constexpr size_t kShards = kNumShards;
  // The digest is already uniform: one lane picks the shard, the other the bucket.
  struct KeyHash {
    size_t operator()(const VerdictKey& k) const { return static_cast<size_t>(k.digest.h2); }
  };
  struct Shard {
    std::mutex mu;
    std::unordered_map<VerdictKey, Entry, KeyHash> map;
    std::deque<VerdictKey> fifo;  // insertion order, only maintained when bounded
    uint64_t hits = 0;            // guarded by mu
    uint64_t misses = 0;
    uint64_t evictions = 0;
  };
  Shard& ShardFor(const VerdictKey& key) { return shards_[key.digest.h1 % kShards]; }
  // Returns true when the key was new; adds the entries it evicted to `*evicted`.
  bool InsertLocked(Shard& shard, const VerdictKey& key, Entry entry, size_t* evicted);

  const size_t capacity_;
  Shard shards_[kShards];
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> computed_{0};
};

// --- Key texts -----------------------------------------------------------------------------
//
// A pair's key texts, composed from the two paths' canonical templates. Rendering both
// on one shared context is the expensive part; the commutativity key and
// NotInvalidate(p, q) share it (same paths, same order, same context), and
// NotInvalidate(q, p) needs the mirror rendering.
class PairKeyText {
 public:
  PairKeyText(const soir::Schema& schema, const soir::CanonicalTemplate& p,
              const soir::CanonicalTemplate& q);

  // "<rule>|<canonical p>|<canonical q>|ord:<bits>|<schema signature>", where the order
  // bits say, for each model the pair mentions (canonical order), whether it is in
  // `order_models`.
  std::string Text(std::string_view rule, const std::set<int>& order_models) const;

  const soir::CanonicalizationCtx& ctx() const { return ctx_; }

 private:
  soir::CanonicalizationCtx ctx_;
  std::string paths_;      // "<canonical p>|<canonical q>"
  std::string signature_;  // ctx_.SchemaSignature() once both paths are rendered
};

// Turns key texts into cache keys under one run's checker options. The digested text is
// the verdict-deciding options, then the key text, then the scope size of every model
// the pair mentions whose size differs from the default (by canonical id). Options that
// only change speed — symmetry reduction, incremental solving, the prefilter — and the
// budget (timeouts are never cached) stay out, so runs that differ only in those share
// verdicts.
class VerdictKeyer {
 public:
  explicit VerdictKeyer(const CheckerOptions& options);

  VerdictKey Key(const std::string& key_text, const soir::CanonicalizationCtx& ctx) const;
  // The full pre-digest text Key hashes.
  std::string Material(const std::string& key_text, const soir::CanonicalizationCtx& ctx) const;

 private:
  const smt::Scope scope_;
  std::string prefix_;
};

// Key text of one commutativity query over the (ordered) pair (p, q) with the given
// app-wide order-relevant model set.
std::string CommutativityKey(const soir::Schema& schema, const soir::CodePath& p,
                             const soir::CodePath& q, const std::set<int>& order_models);

// Key text of one NotInvalidate(p, q) query (directed). The checker derives order
// models for this rule from the pair alone, and so does the key.
std::string NotInvalidateKey(const soir::Schema& schema, const soir::CodePath& p,
                             const soir::CodePath& q);

}  // namespace noctua::verifier

#endif  // SRC_VERIFIER_CACHE_H_

#include "src/verifier/cache.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "src/soir/serialize.h"

namespace noctua::verifier {

std::optional<CheckOutcome> VerdictCache::Lookup(const VerdictKey& key) {
  auto entry = LookupEntry(key);
  if (!entry) {
    return std::nullopt;
  }
  return entry->outcome;
}

std::optional<VerdictCache::Entry> VerdictCache::LookupEntry(const VerdictKey& key) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lk(shard.mu);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    ++shard.misses;
    return std::nullopt;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  ++shard.hits;
  return it->second;
}

size_t VerdictCache::Insert(const VerdictKey& key, CheckOutcome outcome) {
  if (outcome == CheckOutcome::kTimeout) {
    return 0;
  }
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lk(shard.mu);
  size_t evicted = 0;
  if (InsertLocked(shard, key, Entry{outcome, false}, &evicted)) {
    computed_.fetch_add(1, std::memory_order_relaxed);
  }
  return evicted;
}

// Inserts under the shard lock, evicting FIFO when a bounded shard is at its share of
// the capacity. Duplicate keys keep the existing entry (and do not re-enter the FIFO).
bool VerdictCache::InsertLocked(Shard& shard, const VerdictKey& key, Entry entry,
                                size_t* evicted) {
  if (!shard.map.emplace(key, entry).second) {
    return false;
  }
  if (capacity_ == 0) {
    return true;
  }
  shard.fifo.push_back(key);
  size_t shard_capacity = std::max<size_t>(1, capacity_ / kShards);
  while (shard.map.size() > shard_capacity && !shard.fifo.empty()) {
    shard.map.erase(shard.fifo.front());
    shard.fifo.pop_front();
    ++shard.evictions;
    ++*evicted;
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
  return true;
}

std::vector<VerdictCache::ShardStats> VerdictCache::PerShardStats() const {
  std::vector<ShardStats> out;
  out.reserve(kShards);
  for (const Shard& s : shards_) {
    std::lock_guard<std::mutex> lk(const_cast<Shard&>(s).mu);
    out.push_back(ShardStats{s.map.size(), s.hits, s.misses, s.evictions});
  }
  return out;
}

size_t VerdictCache::size() const {
  size_t n = 0;
  for (const Shard& s : shards_) {
    std::lock_guard<std::mutex> lk(const_cast<Shard&>(s).mu);
    n += s.map.size();
  }
  return n;
}

namespace {
constexpr size_t kMaxVerdicts = 10000000;
}  // namespace

// Store layout: "noctua-verdicts" <version> <count>, then per entry the key digest as
// 32 hex digits (a quoted string) and the outcome's integer value, sorted by digest.
bool VerdictCache::SaveToFile(const std::string& path) const {
  std::vector<std::pair<VerdictKey, CheckOutcome>> entries;
  for (const Shard& s : shards_) {
    std::lock_guard<std::mutex> lk(const_cast<Shard&>(s).mu);
    for (const auto& [key, entry] : s.map) {
      entries.emplace_back(key, entry.outcome);
    }
  }
  std::sort(entries.begin(), entries.end());

  soir::ArtifactWriter w;
  w.Atom("noctua-verdicts");
  w.Int(soir::kArtifactVersion);
  w.Int(static_cast<int64_t>(entries.size()));
  for (const auto& [key, outcome] : entries) {
    w.Str(key.digest.Hex());
    w.Int(static_cast<int64_t>(outcome));
  }

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return false;
  }
  out << w.str();
  return static_cast<bool>(out);
}

bool VerdictCache::LoadFromFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();

  soir::ArtifactReader r(buf.str());
  r.ExpectAtom("noctua-verdicts");
  if (r.Int() != soir::kArtifactVersion) {
    return false;
  }
  size_t n = r.Count(kMaxVerdicts);
  // Parse everything before touching the cache: a corrupted tail must not leave a
  // half-loaded store behind.
  std::vector<std::pair<VerdictKey, CheckOutcome>> entries;
  entries.reserve(n);
  for (size_t i = 0; r.ok() && i < n; ++i) {
    VerdictKey key;
    if (!Hash128::FromHex(r.Str(), &key.digest)) {
      r.Fail();
      break;
    }
    int64_t outcome = r.Int();
    // A timeout is never saved, so a store carrying one is not ours to trust.
    if (outcome < 0 || outcome > static_cast<int64_t>(CheckOutcome::kUnsupported) ||
        outcome == static_cast<int64_t>(CheckOutcome::kTimeout)) {
      r.Fail();
      break;
    }
    entries.emplace_back(key, static_cast<CheckOutcome>(outcome));
  }
  if (!r.ok() || !r.AtEnd()) {
    return false;
  }
  size_t evicted = 0;
  for (auto& [key, outcome] : entries) {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lk(shard.mu);
    InsertLocked(shard, key, Entry{outcome, true}, &evicted);
  }
  return true;
}

// --- Key texts -----------------------------------------------------------------------------

PairKeyText::PairKeyText(const soir::Schema& schema, const soir::CanonicalTemplate& p,
                         const soir::CanonicalTemplate& q)
    : ctx_(schema) {
  p.Render(&ctx_, &paths_);
  paths_ += '|';
  q.Render(&ctx_, &paths_);
  signature_ = ctx_.SchemaSignature();
}

std::string PairKeyText::Text(std::string_view rule, const std::set<int>& order_models) const {
  std::string key;
  key.reserve(rule.size() + paths_.size() + signature_.size() + ctx_.models().size() + 8);
  key += rule;
  key += '|';
  key += paths_;
  // The order-membership vector: for each model the pair mentions (canonical order),
  // whether its insertion order participates in the encoding. Membership of
  // *unmentioned* models is irrelevant — they are projected out of the query.
  key += "|ord:";
  for (int m : ctx_.models()) {
    key += order_models.count(m) != 0 ? '1' : '0';
  }
  key += '|';
  key += signature_;
  return key;
}

VerdictKeyer::VerdictKeyer(const CheckerOptions& options) : scope_(options.solver.scope) {
  auto bit = [](bool b) { return b ? '1' : '0'; };
  prefix_ = "opt:k" + std::to_string(scope_.default_size()) + ",i" +
             std::to_string(options.solver.max_int_domain) + ",s" +
             std::to_string(options.solver.max_string_domain) + ",o" +
             bit(options.encoder.use_order) + ",u" +
             bit(options.encoder.unique_id_optimization) + ",f" +
             bit(options.fresh_origin_states) + ",p" + bit(options.project_footprint) + "|";
}

std::string VerdictKeyer::Material(const std::string& key_text,
                                   const soir::CanonicalizationCtx& ctx) const {
  std::string material = prefix_ + key_text;
  if (scope_.HasModelSizes()) {
    std::string sizes;
    for (size_t k = 0; k < ctx.models().size(); ++k) {
      int size = scope_.RefSize(ctx.models()[k]);
      if (size != scope_.default_size()) {
        sizes += "m" + std::to_string(k) + "=" + std::to_string(size) + ";";
      }
    }
    if (!sizes.empty()) {
      material += "|scope:" + sizes;
    }
  }
  return material;
}

VerdictKey VerdictKeyer::Key(const std::string& key_text,
                             const soir::CanonicalizationCtx& ctx) const {
  return VerdictKey(Material(key_text, ctx));
}

std::string CommutativityKey(const soir::Schema& schema, const soir::CodePath& p,
                             const soir::CodePath& q, const std::set<int>& order_models) {
  return PairKeyText(schema, soir::CanonicalPathTemplate(schema, p),
                     soir::CanonicalPathTemplate(schema, q))
      .Text("com", order_models);
}

std::string NotInvalidateKey(const soir::Schema& schema, const soir::CodePath& p,
                             const soir::CodePath& q) {
  std::set<int> order = soir::OrderRelevantModels(p);
  std::set<int> oq = soir::OrderRelevantModels(q);
  order.insert(oq.begin(), oq.end());
  return PairKeyText(schema, soir::CanonicalPathTemplate(schema, p),
                     soir::CanonicalPathTemplate(schema, q))
      .Text("ni", order);
}

}  // namespace noctua::verifier

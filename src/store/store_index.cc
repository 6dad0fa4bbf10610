#include "store/store_index.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/backoff.hh"
#include "common/fault.hh"
#include "common/files.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "obs/metrics.hh"

namespace lsim::store
{

namespace fs = std::filesystem;

namespace
{

/** Current layout (adds "generation"); v1 files still load. */
constexpr std::uint32_t kIndexVersion = 2;
constexpr std::uint32_t kIndexVersionNoGeneration = 1;

/** How long one flush attempt waits for index.lock. Holders keep
 * the lock for one small-file read + rewrite, so timing out means
 * contention or a wedged holder; the flush retries with backoff
 * (kLockRetries extra attempts) before degrading to a
 * last-writer-wins write. */
constexpr unsigned kLockTimeoutMs = 2'000;
constexpr unsigned kLockRetries = 3;
constexpr unsigned kLockBackoffBaseMs = 2;

/**
 * Acquire the index lock with bounded retry + backoff. Transient
 * contention (another daemon mid-flush) resolves on a later
 * attempt; each retry bumps `store.retries`. The fault point
 * simulates an acquisition timeout per attempt.
 */
std::optional<FileLock>
acquireIndexLock(const std::string &path)
{
    Backoff backoff(kLockRetries, kLockBackoffBaseMs);
    for (;;) {
        if (!LSIM_FAULT("store.index.lock")) {
            if (auto lock = FileLock::acquire(path, kLockTimeoutMs))
                return lock;
        }
        if (!backoff.next())
            return std::nullopt;
        obs::counter("store.retries").add();
    }
}

/** Parse one index row; throws std::invalid_argument on shape
 * errors (the caller treats any throw as "index unusable"). */
std::pair<std::string, IndexEntry>
entryFromJson(const JsonValue &v)
{
    IndexEntry entry;
    const std::string key = v.at("key").asString();
    entry.bytes = v.at("bytes").asU64();
    entry.touched = v.at("touched").asNumber();
    entry.name = v.at("name").asString();
    const std::uint64_t fus = v.at("fus").asU64();
    if (fus > std::numeric_limits<unsigned>::max())
        throw std::invalid_argument("index 'fus' too large");
    entry.fus = static_cast<unsigned>(fus);
    entry.committed = v.at("committed").asU64();
    entry.ipc = v.at("ipc").asNumber();
    entry.idle_fraction = v.at("idle_fraction").asNumber();
    entry.intervals = v.at("intervals").asU64();
    return {key, entry};
}

} // namespace

StoreIndex::StoreIndex(std::string dir)
    : dir_(std::move(dir))
{
    loadDisk(&entries_, &generation_);
}

void
StoreIndex::loadDisk(std::map<std::string, IndexEntry> *entries,
                     std::uint64_t *generation) const
{
    entries->clear();
    *generation = 0;
    std::ifstream in(path(), std::ios::binary);
    if (!in)
        return; // no index yet: empty, rebuilt lazily
    std::ostringstream ss;
    ss << in.rdbuf();
    try {
        const JsonValue doc = parseJson(ss.str());
        const std::uint64_t version = doc.at("version").asU64();
        if (version != kIndexVersion &&
            version != kIndexVersionNoGeneration)
            throw std::invalid_argument(
                "unsupported index version " +
                std::to_string(version));
        if (const JsonValue *gen = doc.find("generation"))
            *generation = gen->asU64();
        for (const JsonValue &row : doc.at("entries").items())
            entries->insert(entryFromJson(row));
    } catch (const std::invalid_argument &err) {
        warn("profile store: ignoring index '%s': %s",
             path().c_str(), err.what());
        entries->clear();
        *generation = 0;
    }
}

std::string
StoreIndex::path() const
{
    return (fs::path(dir_) / kFileName).string();
}

std::string
StoreIndex::lockPath() const
{
    return (fs::path(dir_) / kLockFileName).string();
}

const IndexEntry *
StoreIndex::find(const std::string &key) const
{
    const auto it = entries_.find(key);
    return it == entries_.end() ? nullptr : &it->second;
}

void
StoreIndex::put(const std::string &key, IndexEntry entry)
{
    Pending &p = pending_[key];
    p.erased = false;
    p.has_entry = true;
    p.entry = entry;
    p.has_touch = false;
    entries_[key] = std::move(entry);
}

void
StoreIndex::touch(const std::string &key, double when)
{
    const auto it = entries_.find(key);
    if (it == entries_.end())
        return;
    it->second.touched = when;
    Pending &p = pending_[key];
    if (p.has_entry) {
        p.entry.touched = when;
    } else {
        p.has_touch = true;
        p.touched = when;
    }
}

bool
StoreIndex::erase(const std::string &key)
{
    const bool existed = entries_.erase(key) > 0;
    Pending &p = pending_[key];
    p = Pending{};
    p.erased = true;
    return existed;
}

bool
StoreIndex::save()
{
    // A directory removed under a live store can take no flush:
    // the lock file can never be created, so backing off on it
    // only delays the inevitable failed write. Say so once.
    std::error_code ec;
    if (!fs::is_directory(dir_, ec)) {
        static std::atomic<bool> logged{false};
        if (!logged.exchange(true))
            warn("profile store: directory '%s' is gone; dropping "
                 "its index flush (logged once per process)",
                 dir_.c_str());
        return false;
    }

    // Serialize flushes across every process (and instance) sharing
    // the directory; within the lock the cycle is read-merge-write,
    // so no writer ever overwrites another's updates.
    auto lock = acquireIndexLock(lockPath());
    std::map<std::string, IndexEntry> merged;
    std::uint64_t disk_generation = 0;
    if (lock) {
        loadDisk(&merged, &disk_generation);
    } else {
        // Degraded mode: we could not serialize, so fall back to
        // writing our local view (the pre-protocol behavior). The
        // index is an accelerator — a lost concurrent update is
        // re-derived on demand, never wrong. Loud once per process,
        // counted always: silent last-writer-wins hid real
        // contention problems.
        static std::atomic<bool> logged{false};
        if (!logged.exchange(true))
            warn("profile store: index lock '%s' timed out after "
                 "%u attempt(s); flushing last-writer-wins (logged "
                 "once per process; see store.lock_timeouts)",
                 lockPath().c_str(), kLockRetries + 1);
        obs::counter("store.lock_timeouts").add();
        merged = entries_;
        disk_generation = generation_;
    }

    for (const auto &[key, p] : pending_) {
        if (p.erased) {
            merged.erase(key);
            continue;
        }
        if (p.has_entry) {
            merged[key] = p.entry;
        } else if (p.has_touch) {
            // A touch asserts the entry's last-use time outright
            // (backdating included — tests and tools rely on it);
            // concurrent touches resolve to whichever flush runs
            // last, which only perturbs LRU order approximately.
            const auto it = merged.find(key);
            if (it != merged.end())
                it->second.touched = p.touched;
        }
    }

    const std::uint64_t generation = disk_generation + 1;
    std::ostringstream ss;
    JsonWriter w(ss);
    w.beginObject();
    w.field("version", static_cast<std::uint64_t>(kIndexVersion));
    w.field("generation", generation);
    w.beginArray("entries");
    for (const auto &[key, entry] : merged) {
        w.beginObject();
        w.field("key", key);
        w.field("bytes", entry.bytes);
        w.field("touched", entry.touched);
        w.field("name", entry.name);
        w.field("fus", entry.fus);
        w.field("committed", entry.committed);
        w.field("ipc", entry.ipc);
        w.field("idle_fraction", entry.idle_fraction);
        w.field("intervals", entry.intervals);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    ss << "\n";
    if (LSIM_FAULT("store.index.write") ||
        !atomicWriteFile(path(), ss.str()))
        return false;

    // Adopt the merged image: entries other writers added become
    // visible to this instance, and the pending deltas are now on
    // disk.
    entries_ = std::move(merged);
    generation_ = generation;
    pending_.clear();
    return true;
}

double
StoreIndex::now()
{
    return std::chrono::duration<double>(
               std::chrono::system_clock::now().time_since_epoch())
        .count();
}

} // namespace lsim::store

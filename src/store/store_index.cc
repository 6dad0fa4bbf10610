#include "store/store_index.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <utility>

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

std::string
indexPath(const std::string &dir)
{
    return (fs::path(dir) / StoreIndex::kFileName).string();
}

/** Parse @p dir's index.json. A missing file is an empty image;
 * malformed content warns and yields one. */
StoreIndex::Image
readImage(const std::string &dir)
{
    StoreIndex::Image image;
    const std::string path = indexPath(dir);
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return image; // no index yet: empty, rebuilt lazily
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
            image.generation = gen->asU64();
        for (const JsonValue &row : doc.at("entries").items())
            image.entries.insert(entryFromJson(row));
    } catch (const std::invalid_argument &err) {
        warn("profile store: ignoring index '%s': %s", path.c_str(),
             err.what());
        image = {};
    }
    return image;
}

/** Apply @p deltas to @p entries in key order. */
void
applyDeltas(std::map<std::string, IndexEntry> &entries,
            const StoreIndex::Deltas &deltas)
{
    for (const auto &[key, p] : deltas) {
        if (p.erased) {
            entries.erase(key);
            continue;
        }
        if (p.has_entry) {
            entries[key] = p.entry;
        } else if (p.has_touch) {
            // A touch asserts the entry's last-use time outright
            // (backdating included — tests and tools rely on it);
            // concurrent touches resolve to whichever flush runs
            // last, which only perturbs LRU order approximately.
            const auto it = entries.find(key);
            if (it != entries.end())
                it->second.touched = p.touched;
        }
    }
}

} // namespace

StoreIndex::StoreIndex(std::string dir)
    : dir_(std::move(dir)), image_(readImage(dir_))
{
}

const IndexEntry *
StoreIndex::find(const std::string &key) const
{
    const auto it = image_.entries.find(key);
    return it == image_.entries.end() ? nullptr : &it->second;
}

void
StoreIndex::put(const std::string &key, IndexEntry entry)
{
    Pending &p = pending_[key];
    p.erased = false;
    p.has_entry = true;
    p.entry = entry;
    p.has_touch = false;
    image_.entries[key] = std::move(entry);
}

void
StoreIndex::touch(const std::string &key, double when)
{
    const auto it = image_.entries.find(key);
    if (it == image_.entries.end())
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
    const bool existed = image_.entries.erase(key) > 0;
    Pending &p = pending_[key];
    p = Pending{};
    p.erased = true;
    return existed;
}

bool
StoreIndex::save()
{
    std::optional<FileLock> lock;
    if (!lockForFlush(dir_, &lock))
        return false;
    Deltas deltas = takeDeltas();
    std::optional<Image> written = writeMerged(dir_, deltas);
    if (!written) {
        restore(std::move(deltas));
        return false;
    }
    adopt(std::move(*written));
    return true;
}

bool
StoreIndex::lockForFlush(const std::string &dir,
                         std::optional<FileLock> *lock)
{
    // A directory removed under a live store can take no flush:
    // the lock file can never be created, so backing off on it
    // only delays the inevitable failed write. Say so once.
    std::error_code ec;
    if (!fs::is_directory(dir, ec)) {
        static std::atomic<bool> logged{false};
        if (!logged.exchange(true))
            warn("profile store: directory '%s' is gone; dropping "
                 "its index flush (logged once per process)",
                 dir.c_str());
        return false;
    }

    // Serialize flushes across every process (and instance) sharing
    // the directory; within the lock the cycle is read-merge-write,
    // so no writer ever overwrites another's updates.
    const std::string path = (fs::path(dir) / kLockFileName).string();
    *lock = acquireIndexLock(path);
    if (!*lock) {
        // Degraded mode: the flush still merges into the disk image
        // but cannot serialize, so a flush racing between our read
        // and our rename is lost. The index is an accelerator — a
        // lost update is re-derived on demand, never wrong. Loud
        // once per process, counted always: silent last-writer-wins
        // hid real contention problems.
        static std::atomic<bool> logged{false};
        if (!logged.exchange(true))
            warn("profile store: index lock '%s' timed out after "
                 "%u attempt(s); flushing unserialized, last-writer-"
                 "wins (logged once per process; see "
                 "store.lock_timeouts)",
                 path.c_str(), kLockRetries + 1);
        obs::counter("store.lock_timeouts").add();
    }
    return true;
}

StoreIndex::Deltas
StoreIndex::takeDeltas()
{
    return std::exchange(pending_, {});
}

std::optional<StoreIndex::Image>
StoreIndex::writeMerged(const std::string &dir, const Deltas &deltas)
{
    Image image = readImage(dir);
    applyDeltas(image.entries, deltas);
    image.generation += 1;

    std::ostringstream ss;
    JsonWriter w(ss);
    w.beginObject();
    w.field("version", static_cast<std::uint64_t>(kIndexVersion));
    w.field("generation", image.generation);
    w.beginArray("entries");
    for (const auto &[key, entry] : image.entries) {
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
        !atomicWriteFile(indexPath(dir), ss.str()))
        return std::nullopt;
    return image;
}

void
StoreIndex::adopt(Image written)
{
    // Entries other writers added become visible to this instance;
    // what was recorded during the write is not on disk yet, so it
    // stays pending and stays visible.
    image_ = std::move(written);
    applyDeltas(image_.entries, pending_);
}

void
StoreIndex::restore(Deltas taken)
{
    // The taken deltas are the older ones: a newer delta on the
    // same key applies on top, exactly as the mutation calls fold.
    for (auto &[key, older] : taken) {
        const auto newer = pending_.find(key);
        if (newer == pending_.end()) {
            pending_.emplace(key, std::move(older));
            continue;
        }
        Pending &p = newer->second;
        if (p.erased || p.has_entry)
            continue; // the newer delta replaces the older outright
        // A newer touch folds into the older delta as touch() would.
        if (older.has_entry) {
            older.entry.touched = p.touched;
        } else if (!older.erased) {
            older.has_touch = true;
            older.touched = p.touched;
        }
        p = std::move(older);
    }
}

double
StoreIndex::now()
{
    return std::chrono::duration<double>(
               std::chrono::system_clock::now().time_since_epoch())
        .count();
}

} // namespace lsim::store

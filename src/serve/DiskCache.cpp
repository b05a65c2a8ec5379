//===- serve/DiskCache.cpp - Persistent content-addressed result store ----===//

#include "serve/DiskCache.h"

#include "serve/Protocol.h"
#include "stats/Report.h"
#include "support/Hash.h"
#include "support/Json.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include <unistd.h>
#include <utime.h>

using namespace fpint;
using namespace fpint::serve;
namespace fs = std::filesystem;

namespace {

bool readWholeFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return true;
}

} // namespace

DiskCache::DiskCache(Options O) : Opts(std::move(O)) {
  std::error_code EC;
  fs::create_directories(Opts.Dir, EC);
  // Initial entry census (shards only; tmp files are transient and
  // excluded). The count drives eviction, so approximate is fine --
  // it self-corrects as entries are stored.
  size_t N = 0;
  for (const auto &Shard : fs::directory_iterator(Opts.Dir, EC)) {
    if (!Shard.is_directory())
      continue;
    std::error_code EC2;
    for (const auto &Ent : fs::directory_iterator(Shard.path(), EC2))
      if (Ent.path().extension() == ".json")
        ++N;
  }
  Entries = N;
}

std::string DiskCache::schemaStamp() {
  return std::string(ResponseSchema) + "/" + stats::ReportSchema;
}

std::string DiskCache::key(const std::string &ModuleText,
                           const std::string &PipelineKey,
                           const std::string &MachineKey) {
  return support::ContentKey()
      .add(ModuleText)
      .add(PipelineKey)
      .add(MachineKey)
      .add(schemaStamp())
      .hex();
}

std::string DiskCache::pathFor(const std::string &Key) const {
  return Opts.Dir + "/" + Key.substr(0, 2) + "/" + Key + ".json";
}

bool DiskCache::get(const std::string &Key, std::string &Body) {
  const std::string Path = pathFor(Key);
  std::string Text;
  if (!readWholeFile(Path, Text)) {
    std::lock_guard<std::mutex> Lock(Mu);
    ++Counts.Misses;
    return false;
  }

  json::Value Entry;
  std::string Err;
  bool Stale = !json::Value::parse(Text, Entry, &Err) ||
               Entry.strOr("cache_schema", "") != schemaStamp() ||
               Entry.strOr("key", "") != Key || !Entry.find("body") ||
               !Entry.find("body")->isObject();
  if (Stale) {
    // Schema bump, corruption, or a hash collision between schema
    // generations: reclaim the slot rather than serving it.
    std::error_code EC;
    bool Removed = fs::remove(Path, EC);
    std::lock_guard<std::mutex> Lock(Mu);
    ++Counts.Misses;
    ++Counts.Invalidations;
    if (Removed && Entries > 0)
      --Entries;
    return false;
  }

  Body = Entry.find("body")->dump();
  // Touch for LRU-ish eviction ordering; best-effort.
  utime(Path.c_str(), nullptr);
  std::lock_guard<std::mutex> Lock(Mu);
  ++Counts.Hits;
  return true;
}

bool DiskCache::put(const std::string &Key, const std::string &Body) {
  json::Value BodyDoc;
  std::string Err;
  if (!json::Value::parse(Body, BodyDoc, &Err))
    return false; // Only well-formed bodies are publishable.

  json::Value Entry = json::Value::object();
  Entry.set("cache_schema", schemaStamp());
  Entry.set("key", Key);
  Entry.set("body", std::move(BodyDoc));
  const std::string Text = Entry.dump() + "\n";

  const std::string Path = pathFor(Key);
  std::error_code EC;
  fs::create_directories(fs::path(Path).parent_path(), EC);

  uint64_t Seq;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Seq = ++TmpSeq;
  }
  const std::string Tmp = Opts.Dir + "/tmp." + std::to_string(getpid()) +
                          "." + std::to_string(Seq);
  {
    std::ofstream Out(Tmp, std::ios::binary | std::ios::trunc);
    if (!Out)
      return false;
    Out.write(Text.data(), static_cast<std::streamsize>(Text.size()));
    Out.flush();
    if (!Out) {
      fs::remove(Tmp, EC);
      return false;
    }
  }
  const bool Fresh = !fs::exists(Path, EC);
  if (std::rename(Tmp.c_str(), Path.c_str()) != 0) {
    fs::remove(Tmp, EC);
    return false;
  }
  {
    std::lock_guard<std::mutex> Lock(Mu);
    ++Counts.Stores;
    if (Fresh)
      ++Entries;
  }
  evictIfNeeded();
  return true;
}

void DiskCache::evictIfNeeded() {
  size_t Over;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    if (Opts.MaxEntries == 0 || Entries <= Opts.MaxEntries)
      return;
    Over = Entries - std::max<size_t>(1, Opts.MaxEntries * 7 / 8);
  }

  // Collect (mtime, path) for every entry and drop the oldest. This
  // scan is rare (only on overflow) and the directory is bounded by
  // MaxEntries, so O(n log n) here is fine.
  std::vector<std::pair<fs::file_time_type, fs::path>> All;
  std::error_code EC;
  for (const auto &Shard : fs::directory_iterator(Opts.Dir, EC)) {
    if (!Shard.is_directory())
      continue;
    std::error_code EC2;
    for (const auto &Ent : fs::directory_iterator(Shard.path(), EC2)) {
      if (Ent.path().extension() != ".json")
        continue;
      std::error_code EC3;
      auto T = fs::last_write_time(Ent.path(), EC3);
      if (!EC3)
        All.emplace_back(T, Ent.path());
    }
  }
  std::sort(All.begin(), All.end());

  size_t Dropped = 0;
  for (size_t I = 0; I < All.size() && Dropped < Over; ++I) {
    std::error_code EC4;
    if (fs::remove(All[I].second, EC4))
      ++Dropped;
  }
  std::lock_guard<std::mutex> Lock(Mu);
  Counts.Evictions += Dropped;
  Entries = All.size() - Dropped;
}

DiskCache::Counters DiskCache::counters() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Counts;
}

size_t DiskCache::entryCount() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Entries;
}

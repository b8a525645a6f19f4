// Cache-tier read fan-out (`ctest -L cachetier`, E24): load-aware redirect
// of cold reads on hot files to callback-holding peer agents, peer-serving
// of version-token-stamped clean blocks, power-of-two-choices peer
// selection, and the fallback path that bounds a failed redirect at one
// extra origin exchange. The storm oracle pins the tentpole guarantee:
// under concurrent writes, callback breaks, lease expiries, and peer
// crashes, a peer-served read is NEVER stale.
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "agent/fs_protocol.h"
#include "core/facility.h"

namespace rhodos::agent {
namespace {

using core::DistributedFileFacility;
using core::FacilityConfig;
using core::Machine;

std::vector<std::uint8_t> Pattern(std::size_t n, std::uint8_t seed = 1) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::uint8_t>(seed + i * 13);
  }
  return v;
}

FacilityConfig TierFacility() {
  FacilityConfig c;
  c.geometry.total_fragments = 16 * 1024;
  c.geometry.fragments_per_track = 32;
  c.agent.delayed_write = true;
  c.agent.cache_blocks = 64;
  c.agent.writeback_threshold = 0;  // flushes happen when the test says so
  c.agent.writeback_age_ns = 0;
  c.cache_tier.enabled = true;
  c.cache_tier.hot_read_threshold = 4;
  // The origin holds one block in memory and its disks keep no track
  // cache, so a read of any other block reaches a disk: only such a read
  // of a hot file is redirected (a resident one is served in one exchange).
  c.file.block_pool_capacity = 1;
  c.disk_cache_tracks = 0;
  return c;
}

// Reads block 1 of `id` at its origin, so the origin's one-block pool no
// longer holds block 0 and the next cold read of block 0 reaches a disk.
void EvictBlockZero(DistributedFileFacility& f, FileId id) {
  std::vector<std::uint8_t> one(kBlockSize);
  auto n = f.OwnerOf(id).Read(id, kBlockSize, one);
  ASSERT_TRUE(n.ok());
  ASSERT_EQ(*n, kBlockSize);
}

std::uint64_t BusCalls(DistributedFileFacility& f) {
  return f.bus().stats().calls;
}

std::uint64_t DiskReads(DistributedFileFacility& f) {
  std::uint64_t n = 0;
  for (const auto& d : f.disks().disks()) n += d->main_stats().read_references;
  return n;
}

// Direct agent->agent peer read, as FetchFromPeers would issue it. Returns
// the served bytes, or the refusal error.
Result<std::vector<std::uint8_t>> PeerRead(DistributedFileFacility& f,
                                           const std::string& peer, FileId id,
                                           std::uint64_t offset,
                                           std::uint64_t length,
                                           std::uint64_t expected_version) {
  PeerReadRequest req{id, offset, length, expected_version};
  auto r = f.bus().Call(peer, static_cast<std::uint32_t>(FsOp::kPeerRead),
                        req.Encode(), "cb-test-caller");
  if (!r.ok()) return r.error();
  Deserializer in{*r};
  RHODOS_RETURN_IF_ERROR(DecodeStatus(in));
  std::vector<std::uint8_t> data = in.Bytes();
  if (!in.ok()) return Error{ErrorCode::kInternal, "bad peer-read reply"};
  return data;
}

// --- redirect and peer-serve happy path --------------------------------------

TEST(CacheTierTest, HotFileColdReadsArePeerServed) {
  DistributedFileFacility f(TierFacility());
  Machine& w = f.AddMachine();
  const auto bytes = Pattern(kBlockSize, 3);
  auto wd = *w.file_agent->Create(naming::ByName("hot"),
                                  file::ServiceType::kBasic);
  const FileId id = *w.file_agent->FileOf(wd);
  ASSERT_TRUE(w.file_agent->Pwrite(wd, 0, bytes).ok());
  ASSERT_TRUE(w.file_agent->Pwrite(wd, kBlockSize, Pattern(kBlockSize)).ok());
  ASSERT_TRUE(w.file_agent->Flush(wd).ok());

  // Each fresh machine contributes one cold origin pread; once the per-file
  // load crosses the threshold, later readers are redirected to the earlier
  // ones instead of the spindles.
  std::vector<Machine*> readers;
  std::vector<std::uint8_t> out(kBlockSize);
  for (int i = 0; i < 8; ++i) {
    Machine& r = f.AddMachine();
    readers.push_back(&r);
    auto rd = *r.file_agent->Open(naming::ByName("hot"));
    EvictBlockZero(f, id);
    ASSERT_TRUE(r.file_agent->Pread(rd, 0, out).ok());
    EXPECT_EQ(out, bytes) << "reader " << i;
    ASSERT_TRUE(r.file_agent->Close(rd).ok());
  }

  EXPECT_GE(f.file_server().stats().redirects_issued, 1u)
      << "the hot file must have redirected at least one cold read";
  EXPECT_GE(f.file_server().HotFileCount(), 1u);
  std::uint64_t fetches = 0, serves = 0;
  for (Machine* r : readers) {
    fetches += r->file_agent->stats().peer_fetches;
    serves += r->file_agent->stats().peer_serves;
  }
  EXPECT_GE(fetches, 1u) << "a redirected reader must have fetched from a peer";
  EXPECT_EQ(fetches, serves)
      << "every successful fetch is some peer's successful serve";
  // A peer-served reader holds a callback like any other reader: the origin
  // granted it on the redirect reply, so the next write still breaks it.
  EXPECT_GE(f.file_server().CallbackHolderCount(), readers.size());
}

TEST(CacheTierTest, DisabledTierNeverRedirects) {
  FacilityConfig cfg = TierFacility();
  cfg.cache_tier.enabled = false;  // the default, restated for the test
  DistributedFileFacility f(cfg);
  Machine& w = f.AddMachine();
  auto wd = *w.file_agent->Create(naming::ByName("cold"),
                                  file::ServiceType::kBasic);
  ASSERT_TRUE(w.file_agent->Pwrite(wd, 0, Pattern(kBlockSize)).ok());
  ASSERT_TRUE(w.file_agent->Flush(wd).ok());
  std::vector<std::uint8_t> out(kBlockSize);
  for (int i = 0; i < 10; ++i) {
    Machine& r = f.AddMachine();
    auto rd = *r.file_agent->Open(naming::ByName("cold"));
    ASSERT_TRUE(r.file_agent->Pread(rd, 0, out).ok());
  }
  EXPECT_EQ(f.file_server().stats().redirects_issued, 0u);
  EXPECT_EQ(f.file_server().HotFileCount(), 0u);
}

// --- fallback bounds the miss at one extra exchange --------------------------

TEST(CacheTierTest, CrashedPeersForceFallbackToOrigin) {
  FacilityConfig cfg = TierFacility();
  cfg.cache_tier.hot_read_threshold = 2;
  DistributedFileFacility f(cfg);
  Machine& w = f.AddMachine();
  const auto bytes = Pattern(kBlockSize, 9);
  auto wd = *w.file_agent->Create(naming::ByName("fragile"),
                                  file::ServiceType::kBasic);
  const FileId id = *w.file_agent->FileOf(wd);
  ASSERT_TRUE(w.file_agent->Pwrite(wd, 0, bytes).ok());
  ASSERT_TRUE(w.file_agent->Pwrite(wd, kBlockSize, Pattern(kBlockSize)).ok());
  ASSERT_TRUE(w.file_agent->Flush(wd).ok());

  // Two peers warm up and register as holders, then lose everything. The
  // server's holder registry is advisory — it still lists them until their
  // leases lapse, so the next redirect points at agents that can no longer
  // vouch for the bytes.
  Machine& p1 = f.AddMachine();
  Machine& p2 = f.AddMachine();
  std::vector<std::uint8_t> out(kBlockSize);
  for (Machine* p : {&p1, &p2}) {
    auto rd = *p->file_agent->Open(naming::ByName("fragile"));
    ASSERT_TRUE(p->file_agent->Pread(rd, 0, out).ok());
  }
  p1.file_agent->Crash();
  p2.file_agent->Crash();

  Machine& r = f.AddMachine();
  auto rd = *r.file_agent->Open(naming::ByName("fragile"));
  EvictBlockZero(f, id);
  const std::uint64_t before = BusCalls(f);
  ASSERT_TRUE(r.file_agent->Pread(rd, 0, out).ok());
  EXPECT_EQ(out, bytes) << "the fallback must serve the true bytes";
  // Cost ceiling: redirect (1) + at most two candidate refusals (2) +
  // no_redirect fallback (1). The floor proves the redirect actually fired.
  EXPECT_GE(BusCalls(f) - before, 3u);
  EXPECT_LE(BusCalls(f) - before, 4u);
  EXPECT_GE(r.file_agent->stats().peer_fallbacks, 1u);
  EXPECT_EQ(r.file_agent->stats().peer_fetches, 0u);
  const std::uint64_t rejects = p1.file_agent->stats().peer_serve_rejects +
                                p2.file_agent->stats().peer_serve_rejects;
  EXPECT_GE(rejects, 1u) << "a crashed peer must refuse, not serve";
}

// --- a multi-block run is redirected whole ---------------------------------

// Four blocks of distinct bytes, written and flushed by `w`.
std::vector<std::uint8_t> WriteFourBlocks(Machine& w, const char* name) {
  std::vector<std::uint8_t> bytes;
  for (std::uint8_t b = 0; b < 4; ++b) {
    const auto block = Pattern(kBlockSize, static_cast<std::uint8_t>(b + 11));
    bytes.insert(bytes.end(), block.begin(), block.end());
  }
  auto wd = *w.file_agent->Create(naming::ByName(name),
                                  file::ServiceType::kBasic);
  EXPECT_TRUE(w.file_agent->Pwrite(wd, 0, bytes).ok());
  EXPECT_TRUE(w.file_agent->Close(wd).ok());
  return bytes;
}

TEST(CacheTierTest, RedirectedRunIsServedByAPeerHoldingAllOfIt) {
  FacilityConfig cfg = TierFacility();
  cfg.cache_tier.hot_read_threshold = 2;
  DistributedFileFacility f(cfg);
  const auto bytes = WriteFourBlocks(f.AddMachine(), "run");

  // The first reader's one-exchange run makes it a holder of [0, 4).
  Machine& p = f.AddMachine();
  auto pd = *p.file_agent->Open(naming::ByName("run"));
  std::vector<std::uint8_t> out(4 * kBlockSize);
  ASSERT_EQ(*p.file_agent->Pread(pd, 0, out), out.size());
  ASSERT_EQ(out, bytes);

  // The file is now hot: the second reader's run is redirected to the
  // holder and served by it whole — one origin and one peer exchange.
  Machine& r = f.AddMachine();
  auto rd = *r.file_agent->Open(naming::ByName("run"));
  std::fill(out.begin(), out.end(), 0);
  const std::uint64_t calls_before = BusCalls(f);
  ASSERT_EQ(*r.file_agent->Pread(rd, 0, out), out.size());
  EXPECT_EQ(BusCalls(f) - calls_before, 2u);
  EXPECT_EQ(out, bytes);
  EXPECT_EQ(f.file_server().stats().redirects_issued, 1u);
  EXPECT_EQ(r.file_agent->stats().peer_fetches, 1u);
  EXPECT_EQ(r.file_agent->stats().peer_fallbacks, 0u);
  EXPECT_EQ(p.file_agent->stats().peer_serves, 1u);

  // The peer-served run is cached block by block.
  const std::uint64_t calls_warm = BusCalls(f);
  std::vector<std::uint8_t> last(kBlockSize);
  ASSERT_EQ(*r.file_agent->Pread(rd, 3 * kBlockSize, last), last.size());
  EXPECT_EQ(BusCalls(f), calls_warm);
  EXPECT_EQ(last, std::vector<std::uint8_t>(bytes.begin() + 3 * kBlockSize,
                                            bytes.end()));
}

TEST(CacheTierTest, PeerHoldingPartOfTheRunRefusesAndTheOriginServes) {
  FacilityConfig cfg = TierFacility();
  cfg.cache_tier.hot_read_threshold = 2;
  cfg.agent.cache_blocks = 4;
  DistributedFileFacility f(cfg);
  Machine& w = f.AddMachine();
  const auto bytes = WriteFourBlocks(w, "partial");
  auto od = *w.file_agent->Create(naming::ByName("other"),
                                  file::ServiceType::kBasic);
  ASSERT_TRUE(w.file_agent->Pwrite(od, 0, Pattern(kBlockSize, 3)).ok());
  ASSERT_TRUE(w.file_agent->Close(od).ok());

  // The holder reads [0, 4), then one block of another file evicts its
  // least recently used block 0: the origin still believes it holds all
  // four.
  Machine& p = f.AddMachine();
  auto pd = *p.file_agent->Open(naming::ByName("partial"));
  std::vector<std::uint8_t> out(4 * kBlockSize);
  ASSERT_EQ(*p.file_agent->Pread(pd, 0, out), out.size());
  auto po = *p.file_agent->Open(naming::ByName("other"));
  std::vector<std::uint8_t> one(kBlockSize);
  ASSERT_TRUE(p.file_agent->Pread(po, 0, one).ok());

  // Redirected to that holder, the reader is refused (block 0 is gone)
  // and the no-redirect origin pread serves the run: three exchanges.
  Machine& r = f.AddMachine();
  auto rd = *r.file_agent->Open(naming::ByName("partial"));
  std::fill(out.begin(), out.end(), 0);
  const std::uint64_t calls_before = BusCalls(f);
  ASSERT_EQ(*r.file_agent->Pread(rd, 0, out), out.size());
  EXPECT_EQ(BusCalls(f) - calls_before, 3u);
  EXPECT_EQ(out, bytes);
  EXPECT_EQ(f.file_server().stats().redirects_issued, 1u);
  EXPECT_EQ(p.file_agent->stats().peer_serves, 0u);
  EXPECT_EQ(p.file_agent->stats().peer_serve_rejects, 1u);
  EXPECT_EQ(r.file_agent->stats().peer_fetches, 0u);
  EXPECT_EQ(r.file_agent->stats().peer_fallbacks, 1u);
}

// --- the origin serves what it holds in memory -------------------------------

// A redirect costs the reader an exchange to buy the origin a disk
// reference, so a hot file's range the origin holds in memory is served as
// bytes even when a peer holds it: from the block pool, or from its disk's
// track cache. The reader then holds the range like any origin-served
// reader, and a later read of it that would reach a disk is redirected.
TEST(CacheTierTest, ResidentBlocksAreServedByTheOriginInOneExchange) {
  FacilityConfig cfg = TierFacility();
  cfg.cache_tier.hot_read_threshold = 2;
  cfg.disk_cache_tracks = 2;     // two tracks of 8 blocks each
  cfg.track_readahead = false;   // a read caches only its own fragments
  DistributedFileFacility f(cfg);
  Machine& w = f.AddMachine();
  const auto bytes = Pattern(24 * kBlockSize, 5);
  auto wd = *w.file_agent->Create(naming::ByName("mixed"),
                                  file::ServiceType::kBasic);
  const FileId id = *w.file_agent->FileOf(wd);
  ASSERT_TRUE(w.file_agent->Pwrite(wd, 0, bytes).ok());
  ASSERT_TRUE(w.file_agent->Close(wd).ok());
  auto block = [&](std::uint64_t b) {
    return std::vector<std::uint8_t>(bytes.begin() + b * kBlockSize,
                                     bytes.begin() + (b + 1) * kBlockSize);
  };
  auto read_at_origin = [&](std::uint64_t b) {
    std::vector<std::uint8_t> one(kBlockSize);
    ASSERT_TRUE(f.files().Read(id, b * kBlockSize, one).ok());
  };

  // Two preads make the file hot and `a` a holder of blocks 10 and 18.
  std::vector<std::uint8_t> out(kBlockSize);
  Machine& a = f.AddMachine();
  auto ad = *a.file_agent->Open(naming::ByName("mixed"));
  ASSERT_TRUE(a.file_agent->Pread(ad, 10 * kBlockSize, out).ok());
  ASSERT_TRUE(a.file_agent->Pread(ad, 18 * kBlockSize, out).ok());
  Machine& r = f.AddMachine();
  auto rd = *r.file_agent->Open(naming::ByName("mixed"));
  Machine& q = f.AddMachine();
  auto qd = *q.file_agent->Open(naming::ByName("mixed"));

  // Blocks 8 apart sit on different tracks. Block 18 is in the pool, block
  // 10 only in the track cache, block 2 in neither.
  read_at_origin(10);
  read_at_origin(18);
  EXPECT_TRUE(f.files().Resident(id, 18, 19));
  EXPECT_TRUE(f.files().Resident(id, 10, 11));
  EXPECT_FALSE(f.files().Resident(id, 2, 3));
  EXPECT_FALSE(f.files().Resident(id, 10, 19)) << "one block reaches a disk";
  EXPECT_FALSE(f.files().Resident(id, 23, 25)) << "past the end of the file";
  EXPECT_FALSE(f.files().Resident(id, 18, 18)) << "an empty range";

  const std::uint64_t refs = DiskReads(f);
  for (const std::uint64_t b : {18u, 10u}) {
    const std::uint64_t before = BusCalls(f);
    ASSERT_TRUE(r.file_agent->Pread(rd, b * kBlockSize, out).ok());
    EXPECT_EQ(out, block(b)) << "block " << b;
    EXPECT_EQ(BusCalls(f) - before, 1u) << "block " << b;
  }
  EXPECT_EQ(DiskReads(f), refs) << "the origin's memory served both";
  EXPECT_EQ(f.file_server().stats().redirects_issued, 0u);

  // Block 10 leaves the origin's memory and `a` can no longer serve it:
  // the next cold read of it is redirected, and r, which the data path
  // registered as a holder, serves it.
  read_at_origin(2);
  read_at_origin(18);
  ASSERT_FALSE(f.files().Resident(id, 10, 11));
  a.file_agent->Crash();
  const std::uint64_t before = BusCalls(f);
  ASSERT_TRUE(q.file_agent->Pread(qd, 10 * kBlockSize, out).ok());
  EXPECT_EQ(out, block(10));
  EXPECT_LE(BusCalls(f) - before, 3u) << "a redirect, then a refusal at most";
  EXPECT_EQ(f.file_server().stats().redirects_issued, 1u);
  EXPECT_EQ(q.file_agent->stats().peer_fetches, 1u);
  EXPECT_EQ(r.file_agent->stats().peer_serves, 1u);
}

// The query is read-only: it neither refreshes a pooled block's recency nor
// loads an index table.
TEST(CacheTierTest, ResidencyQueryMovesNoVictimAndLoadsNoTable) {
  FacilityConfig cfg = TierFacility();
  cfg.file.block_pool_capacity = 2;
  cfg.file.readahead_blocks = 0;  // the pool holds what the test reads
  cfg.disk_cache_tracks = 16;
  DistributedFileFacility f(cfg);
  file::FileService& fs = f.files();
  const FileId id = *fs.Create(file::ServiceType::kBasic);
  ASSERT_TRUE(fs.Write(id, 0, Pattern(3 * kBlockSize, 9)).ok());
  ASSERT_TRUE(fs.Sync(id).ok());
  std::vector<std::uint8_t> one(kBlockSize);
  ASSERT_TRUE(fs.Read(id, 0, one).ok());
  ASSERT_TRUE(fs.Read(id, kBlockSize, one).ok());  // block 0 is the victim
  ASSERT_TRUE(fs.Resident(id, 2, 3)) << "its track is cached";

  // Without a cached table, only pooled blocks are resident: finding a
  // block's track would cost the table load.
  ASSERT_TRUE(fs.Open(id).ok());
  ASSERT_TRUE(fs.Close(id).ok());
  const std::uint64_t loads = fs.stats().fit_loads;
  EXPECT_TRUE(fs.Resident(id, 0, 2));
  EXPECT_FALSE(fs.Resident(id, 2, 3));
  EXPECT_EQ(fs.stats().fit_loads, loads);

  // Block 0 stayed the least recent: reading block 2 evicts it, not 1.
  ASSERT_TRUE(fs.Read(id, 2 * kBlockSize, one).ok());
  const std::uint64_t hits = fs.stats().cache_hits;
  ASSERT_TRUE(fs.Read(id, kBlockSize, one).ok());
  EXPECT_EQ(fs.stats().cache_hits, hits + 1) << "block 1 is still pooled";
  const std::uint64_t misses = fs.stats().cache_misses;
  ASSERT_TRUE(fs.Read(id, 0, one).ok());
  EXPECT_EQ(fs.stats().cache_misses, misses + 1) << "block 0 was evicted";
}

// --- the peer vouches only for what the token covers -------------------------

TEST(CacheTierTest, PeerRefusesStaleTokenBrokenPromiseAndUncachedBlocks) {
  DistributedFileFacility f(TierFacility());
  Machine& w = f.AddMachine();
  const auto bytes = Pattern(kBlockSize, 7);
  auto wd = *w.file_agent->Create(naming::ByName("vouched"),
                                  file::ServiceType::kBasic);
  ASSERT_TRUE(w.file_agent->Pwrite(wd, 0, bytes).ok());
  ASSERT_TRUE(w.file_agent->Flush(wd).ok());

  Machine& p = f.AddMachine();
  auto rd = *p.file_agent->Open(naming::ByName("vouched"));
  const FileId id = *p.file_agent->FileOf(rd);
  std::vector<std::uint8_t> out(kBlockSize);
  ASSERT_TRUE(p.file_agent->Pread(rd, 0, out).ok());
  const std::uint64_t version = f.files().Version(id);
  const std::string peer = p.file_agent->callback_address();

  // Wrong expected token: the bytes may be current, but the peer cannot
  // prove it — refuse.
  auto stale = PeerRead(f, peer, id, 0, kBlockSize, version + 1);
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.error().code, ErrorCode::kStaleHandle);

  // Blocks the peer never cached: refuse, never invent.
  auto uncached = PeerRead(f, peer, id, 8 * kBlockSize, kBlockSize, version);
  ASSERT_FALSE(uncached.ok());

  // A delivered break revokes the promise; the same request that served
  // before must now refuse even though the cached bytes were dropped anyway.
  ASSERT_TRUE(w.file_agent->Pwrite(wd, 0, Pattern(kBlockSize, 8)).ok());
  ASSERT_TRUE(w.file_agent->Flush(wd).ok());
  EXPECT_GE(p.file_agent->stats().callback_breaks, 1u);
  auto broken = PeerRead(f, peer, id, 0, kBlockSize, version);
  ASSERT_FALSE(broken.ok());
  EXPECT_EQ(broken.error().code, ErrorCode::kStaleHandle);
  EXPECT_EQ(p.file_agent->stats().peer_serves, 0u);
}

// --- shard epochs fence the redirect plane -----------------------------------

TEST(CacheTierTest, ShardFailoverFencesRedirectsAndServesFreshBytes) {
  FacilityConfig cfg = TierFacility();
  cfg.cache_tier.hot_read_threshold = 2;
  cfg.disk_count = 3;
  cfg.sharding.file_shards = 3;
  cfg.sharding.naming_shards = 2;
  DistributedFileFacility f(cfg);
  Machine& w = f.AddMachine();
  const auto v1 = Pattern(kBlockSize, 11);
  auto wd = *w.file_agent->Create(naming::ByName("fenced-hot"),
                                  file::ServiceType::kBasic);
  const FileId id = *w.file_agent->FileOf(wd);
  ASSERT_TRUE(w.file_agent->Pwrite(wd, 0, v1).ok());
  ASSERT_TRUE(w.file_agent->Pwrite(wd, kBlockSize, Pattern(kBlockSize)).ok());
  ASSERT_TRUE(w.file_agent->Flush(wd).ok());

  std::vector<std::uint8_t> out(kBlockSize);
  std::vector<Machine*> readers;
  for (int i = 0; i < 5; ++i) {
    Machine& r = f.AddMachine();
    readers.push_back(&r);
    auto rd = *r.file_agent->Open(naming::ByName("fenced-hot"));
    EvictBlockZero(f, id);
    ASSERT_TRUE(r.file_agent->Pread(rd, 0, out).ok());
    EXPECT_EQ(out, v1);
  }
  const std::uint32_t home = f.placement().map().ShardForFile(id);
  ASSERT_GE(f.file_server(home).stats().redirects_issued, 1u)
      << "the hot file must have been redirecting before the failover";

  // Kill the home shard. The epoch edge empties every holder table, so the
  // failover shard has no one to redirect to — and the stale registrations
  // can never leak across the fence.
  f.bus().SetServiceDown(f.placement().AddressOf(home));
  f.recovery().Tick();
  for (std::uint32_t s = 0; s < f.file_shard_count(); ++s) {
    EXPECT_EQ(f.file_server(s).CallbackHolderCount(), 0u);
  }

  // Rerouted reads revalidate at the new epoch and still agree on bytes.
  // Any post-fence peer fetch is served under a NEW-epoch promise
  // (HoldsCallback rejects the old one on both sides), so it cannot be
  // vouched for by pre-fence state.
  for (Machine* r : readers) {
    auto rd = *r->file_agent->Open(naming::ByName("fenced-hot"));
    ASSERT_TRUE(r->file_agent->Pread(rd, 0, out).ok());
    EXPECT_EQ(out, v1) << "failover must not change file contents";
  }
  // The re-reads re-registered holders under the new epoch: the serving
  // tier rebuilds itself on the failover shard.
  std::size_t holders = 0;
  for (std::uint32_t s = 0; s < f.file_shard_count(); ++s) {
    holders += f.file_server(s).CallbackHolderCount();
  }
  EXPECT_GE(holders, readers.size());
}

// --- flush-drain progress under concurrent peer-serving ----------------------

// Regression for the lock-scope satellite: FlushDirtyFiles and HandlePeerRead
// share the agent cache under cache_mu_, but the flush must RELEASE it
// around its PwriteVec exchange. This test interposes a wrapper service
// between a standalone agent and the file service; when the flush's
// PwriteVec passes through, the wrapper issues a peer-read back into the
// SAME agent. If the flush held the (non-recursive) mutex across the RPC,
// the re-entrant lock would deadlock and the test would hang; with the
// tightened scope the peer-read is answered mid-flush — and answered with a
// refusal, because the blocks are still dirty and a dirty block must never
// be peer-served (torn-write protection).
TEST(CacheTierTest, PeerServeDuringFlushDrainMakesProgress) {
  DistributedFileFacility f(TierFacility());
  FileAgent agent(MachineId{77}, &f.bus(), "tier-wrapper", &f.naming(),
                  f.config().agent);

  struct Probe {
    bool armed = false;
    bool fired = false;
    FileId file{};
    std::uint64_t version = 0;
    Status reply_status = OkStatus();
  } probe;
  f.bus().RegisterService(
      "tier-wrapper",
      [&](std::uint32_t opcode, std::span<const std::uint8_t> request) {
        if (probe.armed && !probe.fired &&
            static_cast<FsOp>(opcode) == FsOp::kPwriteVec) {
          probe.fired = true;
          PeerReadRequest preq{probe.file, 0, kBlockSize, probe.version};
          auto r = f.bus().Call(
              agent.callback_address(),
              static_cast<std::uint32_t>(FsOp::kPeerRead), preq.Encode(),
              "tier-wrapper");
          Deserializer in{*r};
          probe.reply_status = DecodeStatus(in);
        }
        return *f.bus().Call(core::kFileServiceAddress, opcode, request,
                             "tier-wrapper");
      });

  const auto bytes = Pattern(kBlockSize, 31);
  auto od = *agent.Create(naming::ByName("drained"),
                          file::ServiceType::kBasic);
  const FileId id = *agent.FileOf(od);
  ASSERT_TRUE(agent.Pwrite(od, 0, bytes).ok());
  ASSERT_TRUE(agent.Flush(od).ok());
  std::vector<std::uint8_t> out(kBlockSize);
  ASSERT_TRUE(agent.Pread(od, 0, out).ok());  // arm the callback promise

  // Dirty the block again and flush with the probe armed: the peer-read
  // lands while the PwriteVec is in flight.
  ASSERT_TRUE(agent.Pwrite(od, 0, Pattern(kBlockSize, 32)).ok());
  probe = {true, false, id, f.files().Version(id), OkStatus()};
  ASSERT_TRUE(agent.Flush(od).ok());
  ASSERT_TRUE(probe.fired) << "the probe must have interposed the flush";
  EXPECT_FALSE(probe.reply_status.ok())
      << "a dirty block must never be peer-served";
  EXPECT_EQ(agent.stats().peer_serve_rejects, 1u);

  // After the drain the same blocks are clean at the new token: the agent
  // serves them.
  ASSERT_TRUE(agent.Pread(od, 0, out).ok());  // re-arm post-write promise
  auto served = PeerRead(f, agent.callback_address(), id, 0, kBlockSize,
                         f.files().Version(id));
  ASSERT_TRUE(served.ok());
  EXPECT_EQ(*served, Pattern(kBlockSize, 32));
  EXPECT_EQ(agent.stats().peer_serves, 1u);
  f.bus().UnregisterService("tier-wrapper");
}

// --- the storm oracle --------------------------------------------------------

// The tentpole guarantee, stress-tested: one writer mutating a hot file
// under a crowd of cache-tier readers, with lease-expiring clock lurches
// and reader crashes thrown in. Every read that returns must carry the
// bytes of the writer's last completed flush — a peer-served stale image is
// the failure this suite exists to catch. Deterministic per seed.
std::string RunTierStorm(std::uint64_t seed) {
  FacilityConfig cfg = TierFacility();
  cfg.cache_tier.hot_read_threshold = 2;
  DistributedFileFacility f(cfg);
  Machine& w = f.AddMachine();
  constexpr int kReaders = 6;
  std::vector<Machine*> readers;
  for (int i = 0; i < kReaders; ++i) readers.push_back(&f.AddMachine());

  auto oracle = Pattern(kBlockSize, 0);
  auto wd = *w.file_agent->Create(naming::ByName("storm"),
                                  file::ServiceType::kBasic);
  EXPECT_TRUE(w.file_agent->Pwrite(wd, 0, oracle).ok());
  EXPECT_TRUE(w.file_agent->Pwrite(wd, kBlockSize, Pattern(kBlockSize)).ok());
  EXPECT_TRUE(w.file_agent->Flush(wd).ok());
  const FileId id = *w.file_agent->FileOf(wd);

  std::vector<ObjectDescriptor> rds;
  std::vector<std::uint8_t> out(kBlockSize);
  for (Machine* r : readers) {
    auto rd = *r->file_agent->Open(naming::ByName("storm"));
    EXPECT_TRUE(r->file_agent->Pread(rd, 0, out).ok());
    EXPECT_EQ(out, oracle);
    rds.push_back(rd);
  }

  std::mt19937_64 rng(seed);
  for (int round = 0; round < 250; ++round) {
    const std::uint64_t kind = rng() % 12;
    if (kind < 3) {
      oracle = Pattern(kBlockSize, static_cast<std::uint8_t>(round + 1));
      EXPECT_TRUE(w.file_agent->Pwrite(wd, 0, oracle).ok());
      EXPECT_TRUE(w.file_agent->Flush(wd).ok());
    } else if (kind < 10) {
      const std::size_t r = rng() % readers.size();
      EvictBlockZero(f, id);
      EXPECT_TRUE(readers[r]->file_agent->Pread(rds[r], 0, out).ok());
      EXPECT_EQ(out, oracle) << "STALE READ at round " << round;
    } else if (kind < 11) {
      // Cache-tier peers die with their registrations still in the
      // server's advisory table: redirects at them must refuse and fall
      // back. Every reader that holds a promise dies at once, so each
      // crash leaves only dead redirect candidates behind it.
      for (std::size_t r = 0; r < readers.size(); ++r) {
        if (!readers[r]->file_agent->HoldsCallback(id)) continue;
        readers[r]->file_agent->Crash();
        rds[r] = *readers[r]->file_agent->Open(naming::ByName("storm"));
      }
    } else {
      f.clock().Advance(rng() % 2 == 0
                            ? 50 * kSimMillisecond
                            : f.config().callback.lease_ns + kSimSecond);
    }
  }
  for (std::size_t i = 0; i < readers.size(); ++i) {
    EXPECT_TRUE(readers[i]->file_agent->Close(rds[i]).ok());
  }
  EXPECT_TRUE(w.file_agent->Close(wd).ok());

  const auto& ss = f.file_server().stats();
  EXPECT_GT(ss.redirects_issued, 0u) << "the storm must have redirected";
  EXPECT_GT(ss.callback_breaks, 0u) << "writes must have broken promises";
  std::uint64_t fetches = 0, serves = 0, fallbacks = 0, rejects = 0;
  for (Machine* r : readers) {
    fetches += r->file_agent->stats().peer_fetches;
    serves += r->file_agent->stats().peer_serves;
    fallbacks += r->file_agent->stats().peer_fallbacks;
    rejects += r->file_agent->stats().peer_serve_rejects;
  }
  EXPECT_GT(fetches, 0u) << "some redirects must have been peer-served";
  EXPECT_GT(fallbacks, 0u)
      << "crashes and breaks must have forced some origin fallbacks";
  EXPECT_EQ(fetches, serves);

  return "redirects=" + std::to_string(ss.redirects_issued) +
         " breaks=" + std::to_string(ss.callback_breaks) +
         " fetches=" + std::to_string(fetches) +
         " fallbacks=" + std::to_string(fallbacks) +
         " rejects=" + std::to_string(rejects) +
         " calls=" + std::to_string(f.bus().stats().calls);
}

TEST(CacheTierTest, SeededPeerServingStormHasZeroStaleReads) {
  const std::string first = RunTierStorm(4242);
  const std::string second = RunTierStorm(4242);
  EXPECT_EQ(first, second) << "the storm must be deterministic per seed";
  EXPECT_NE(RunTierStorm(7), first) << "different seed, different schedule";
}

}  // namespace
}  // namespace rhodos::agent

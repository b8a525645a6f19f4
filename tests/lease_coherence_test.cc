// Callback/lease cache coherence (`ctest -L lease`): server-granted
// callback promises, break-before-reply ordering, lease-expiry staleness
// bounds when breaks cannot be delivered, NFSv4-style crash grace, and the
// shard-epoch fence. This is the CLIENT-CACHE coherence machinery — not the
// disk-substrate DiskLease, which lease_fsck_test covers.
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

FacilityConfig LeaseFacility() {
  FacilityConfig c;
  c.geometry.total_fragments = 16 * 1024;
  c.geometry.fragments_per_track = 32;
  c.agent.delayed_write = true;
  c.agent.cache_blocks = 64;
  c.agent.writeback_threshold = 0;  // flushes happen when the test says so
  c.agent.writeback_age_ns = 0;
  return c;
}

std::uint64_t BusCalls(DistributedFileFacility& f) {
  return f.bus().stats().calls;
}

// --- the zero-exchange promise -----------------------------------------------

TEST(LeaseCoherenceTest, WarmOpenAndWarmReadCostZeroExchanges) {
  DistributedFileFacility f(LeaseFacility());
  Machine& m = f.AddMachine();
  const auto bytes = Pattern(kBlockSize, 3);
  auto od = *m.file_agent->Create(naming::ByName("warm"),
                                  file::ServiceType::kBasic);
  ASSERT_TRUE(m.file_agent->Pwrite(od, 0, bytes).ok());
  ASSERT_TRUE(m.file_agent->Close(od).ok());

  // Reopen: name cache + unbroken callback = no validation round trip.
  std::uint64_t before = BusCalls(f);
  auto warm = m.file_agent->Open(naming::ByName("warm"));
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(BusCalls(f) - before, 0u) << "warm open must be zero-exchange";
  EXPECT_GE(m.file_agent->stats().callback_fast_opens, 1u);

  // Warm read: the cached block is clean and the promise still covers it.
  std::vector<std::uint8_t> out(kBlockSize);
  before = BusCalls(f);
  ASSERT_TRUE(m.file_agent->Pread(*warm, 0, out).ok());
  EXPECT_EQ(BusCalls(f) - before, 0u) << "warm read must be zero-exchange";
  EXPECT_EQ(out, bytes);

  // A read-only warm session closes without ever telling the server.
  before = BusCalls(f);
  ASSERT_TRUE(m.file_agent->Close(*warm).ok());
  EXPECT_EQ(BusCalls(f) - before, 0u) << "read-only local close is free";
}

// --- break-before-reply ------------------------------------------------------

TEST(LeaseCoherenceTest, BreakLandsBeforeTheWritersReply) {
  DistributedFileFacility f(LeaseFacility());
  Machine& a = f.AddMachine();
  Machine& b = f.AddMachine();
  const auto v1 = Pattern(kBlockSize, 21);
  const auto v2 = Pattern(kBlockSize, 42);

  auto wr = *a.file_agent->Create(naming::ByName("shared"),
                                  file::ServiceType::kBasic);
  ASSERT_TRUE(a.file_agent->Pwrite(wr, 0, v1).ok());
  ASSERT_TRUE(a.file_agent->Close(wr).ok());

  auto rd = *b.file_agent->Open(naming::ByName("shared"));
  const FileId id = *b.file_agent->FileOf(rd);
  std::vector<std::uint8_t> out(kBlockSize);
  ASSERT_TRUE(b.file_agent->Pread(rd, 0, out).ok());
  ASSERT_EQ(out, v1);
  ASSERT_TRUE(b.file_agent->HoldsCallback(id));
  EXPECT_EQ(b.file_agent->stats().callback_breaks, 0u);

  // By the time A's flush RETURNS, B's promise must already be revoked:
  // that ordering is what makes "I hold a callback" imply "nothing moved".
  auto wr2 = *a.file_agent->Open(naming::ByName("shared"));
  ASSERT_TRUE(a.file_agent->Pwrite(wr2, 0, v2).ok());
  ASSERT_TRUE(a.file_agent->Flush(wr2).ok());
  EXPECT_GE(b.file_agent->stats().callback_breaks, 1u);
  EXPECT_FALSE(b.file_agent->HoldsCallback(id));
  EXPECT_GE(f.file_server().stats().callback_breaks, 1u);
  // The writer never breaks itself: its own promise rides the reply.
  EXPECT_TRUE(a.file_agent->HoldsCallback(id));

  // B's open descriptor descends for the new bytes (the break already
  // dropped the clean block, so this is a plain miss, not a renewal).
  ASSERT_TRUE(b.file_agent->Pread(rd, 0, out).ok());
  EXPECT_EQ(out, v2) << "stale bytes served after a delivered break";
  EXPECT_TRUE(b.file_agent->HoldsCallback(id))
      << "the refetching read re-arms the promise";
  ASSERT_TRUE(a.file_agent->Close(wr2).ok());
  ASSERT_TRUE(b.file_agent->Close(rd).ok());
}

// --- lease expiry as the staleness bound -------------------------------------

TEST(LeaseCoherenceTest, PartitionedReaderServesOnlyUntilLeaseExpiry) {
  FacilityConfig cfg = LeaseFacility();
  cfg.agent.rpc.max_attempts = 2;  // fail fast once the service is unreachable
  DistributedFileFacility f(cfg);
  Machine& m = f.AddMachine();
  const auto bytes = Pattern(kBlockSize, 9);
  auto od = *m.file_agent->Create(naming::ByName("isolated"),
                                  file::ServiceType::kBasic);
  ASSERT_TRUE(m.file_agent->Pwrite(od, 0, bytes).ok());
  ASSERT_TRUE(m.file_agent->Flush(od).ok());
  std::vector<std::uint8_t> out(kBlockSize);
  ASSERT_TRUE(m.file_agent->Pread(od, 0, out).ok());

  // Cut the service away. Within the lease the promise still holds — the
  // server cannot have mutated the file without breaking us first, so warm
  // reads keep flowing from the cache at zero exchanges.
  f.bus().SetServiceDown(core::kFileServiceAddress);
  const std::uint64_t before = BusCalls(f);
  ASSERT_TRUE(m.file_agent->Pread(od, 0, out).ok());
  EXPECT_EQ(out, bytes);
  EXPECT_EQ(BusCalls(f) - before, 0u);

  // Past expiry the promise is worthless: the strict gate demands a
  // revalidation, which the partition denies — the read FAILS rather than
  // serve bytes whose staleness nothing bounds any more.
  f.clock().Advance(f.config().callback.lease_ns + kSimMillisecond);
  EXPECT_FALSE(m.file_agent->Pread(od, 0, out).ok())
      << "an expired promise must not serve cached bytes while partitioned";

  // Heal: one renewal revalidates the version and re-arms the fast path.
  f.bus().SetServiceUp(core::kFileServiceAddress);
  ASSERT_TRUE(m.file_agent->Pread(od, 0, out).ok());
  EXPECT_EQ(out, bytes);
  EXPECT_GE(m.file_agent->stats().callback_renewals, 1u);
  ASSERT_TRUE(m.file_agent->Close(od).ok());
}

TEST(LeaseCoherenceTest, UnreachableHolderBlocksWritersOnlyUntilExpiry) {
  DistributedFileFacility f(LeaseFacility());
  Machine& a = f.AddMachine();
  Machine& b = f.AddMachine();
  const auto v1 = Pattern(kBlockSize, 5);
  const auto v2 = Pattern(kBlockSize, 6);

  auto wr = *a.file_agent->Create(naming::ByName("hostage"),
                                  file::ServiceType::kBasic);
  ASSERT_TRUE(a.file_agent->Pwrite(wr, 0, v1).ok());
  ASSERT_TRUE(a.file_agent->Flush(wr).ok());

  // The grant is minted server-side DURING these exchanges, so the lease
  // cannot expire before `granted_after + lease_ns`.
  const SimTime granted_after = f.clock().Now();
  auto rd = *b.file_agent->Open(naming::ByName("hostage"));
  std::vector<std::uint8_t> out(kBlockSize);
  ASSERT_TRUE(b.file_agent->Pread(rd, 0, out).ok());

  // B's machine drops off the network still holding its promise. A's next
  // write cannot deliver the break — so it must WAIT OUT B's lease (the
  // staleness bound) instead of wedging forever or mutating early.
  f.bus().SetServiceDown(b.file_agent->callback_address());
  ASSERT_TRUE(a.file_agent->Pwrite(wr, 0, v2).ok());
  ASSERT_TRUE(a.file_agent->Flush(wr).ok());
  EXPECT_GE(f.file_server().stats().callback_break_failures, 1u);
  EXPECT_GE(f.clock().Now(), granted_after + f.config().callback.lease_ns)
      << "the mutation must not commit before the lost lease expired";

  // B comes back after its lease lapsed: revalidation, then the new bytes.
  f.bus().SetServiceUp(b.file_agent->callback_address());
  ASSERT_TRUE(b.file_agent->Pread(rd, 0, out).ok());
  EXPECT_EQ(out, v2);
  ASSERT_TRUE(a.file_agent->Close(wr).ok());
  ASSERT_TRUE(b.file_agent->Close(rd).ok());
}

TEST(LeaseCoherenceTest, ServerCrashOpensGraceForTheLostPromises) {
  DistributedFileFacility f(LeaseFacility());
  Machine& a = f.AddMachine();
  Machine& b = f.AddMachine();
  auto wr = *a.file_agent->Create(naming::ByName("graceful"),
                                  file::ServiceType::kBasic);
  ASSERT_TRUE(a.file_agent->Pwrite(wr, 0, Pattern(kBlockSize, 7)).ok());
  ASSERT_TRUE(a.file_agent->Flush(wr).ok());
  const SimTime granted_after = f.clock().Now();
  auto rd = *b.file_agent->Open(naming::ByName("graceful"));
  std::vector<std::uint8_t> out(kBlockSize);
  ASSERT_TRUE(b.file_agent->Pread(rd, 0, out).ok());

  // The crash destroys the callback table, but B still trusts its lease.
  // The recovered server must therefore hold ALL mutations until every
  // promise it cannot remember has expired on its own.
  f.CrashServers();
  ASSERT_TRUE(f.RecoverServers().ok());
  const auto v2 = Pattern(kBlockSize, 8);
  ASSERT_TRUE(a.file_agent->Pwrite(wr, 0, v2).ok());
  ASSERT_TRUE(a.file_agent->Flush(wr).ok());
  EXPECT_GE(f.file_server().stats().callback_grace_waits, 1u);
  EXPECT_GE(f.clock().Now(), granted_after + f.config().callback.lease_ns)
      << "grace must cover the longest lease the crash orphaned";

  ASSERT_TRUE(b.file_agent->Pread(rd, 0, out).ok());
  EXPECT_EQ(out, v2);
  ASSERT_TRUE(a.file_agent->Close(wr).ok());
  ASSERT_TRUE(b.file_agent->Close(rd).ok());
}

// --- shard failover ----------------------------------------------------------

TEST(LeaseCoherenceTest, ShardFenceDropsPromisesWithoutGrace) {
  FacilityConfig cfg = LeaseFacility();
  cfg.disk_count = 3;
  cfg.sharding.file_shards = 3;
  cfg.sharding.naming_shards = 2;
  DistributedFileFacility f(cfg);
  Machine& m = f.AddMachine();
  const auto v1 = Pattern(kBlockSize, 11);
  auto od = *m.file_agent->Create(naming::ByName("fenced"),
                                  file::ServiceType::kBasic);
  const FileId id = *m.file_agent->FileOf(od);
  ASSERT_TRUE(m.file_agent->Pwrite(od, 0, v1).ok());
  ASSERT_TRUE(m.file_agent->Flush(od).ok());
  std::vector<std::uint8_t> out(kBlockSize);
  ASSERT_TRUE(m.file_agent->Pread(od, 0, out).ok());
  ASSERT_TRUE(m.file_agent->HoldsCallback(id));

  const std::uint32_t home = f.placement().map().ShardForFile(id);
  ASSERT_GE(f.file_server(home).CallbackHolderCount(), 1u);

  // Kill the home shard; the failover edge bumps the routing epoch, which
  // revokes the agent's trust in the promise synchronously — so the fence
  // may drop the server table WITHOUT a grace stall.
  f.bus().SetServiceDown(f.placement().AddressOf(home));
  f.recovery().Tick();
  EXPECT_FALSE(m.file_agent->HoldsCallback(id))
      << "an epoch edge must invalidate every held promise";
  for (std::uint32_t s = 0; s < f.file_shard_count(); ++s) {
    EXPECT_EQ(f.file_server(s).CallbackHolderCount(), 0u);
  }

  // A rerouted write proceeds immediately — no shard waits out leases the
  // epoch already revoked.
  const SimTime t0 = f.clock().Now();
  const auto v2 = Pattern(kBlockSize, 12);
  ASSERT_TRUE(m.file_agent->Pwrite(od, 0, v2).ok());
  ASSERT_TRUE(m.file_agent->Flush(od).ok());
  EXPECT_LT(f.clock().Now() - t0, f.config().callback.lease_ns)
      << "fenced tables must not cost a grace window";
  for (std::uint32_t s = 0; s < f.file_shard_count(); ++s) {
    EXPECT_EQ(f.file_server(s).stats().callback_grace_waits, 0u);
  }

  // Readmission is another epoch edge: revalidate, then warm again.
  f.bus().SetServiceUp(f.placement().AddressOf(home));
  f.recovery().Tick();
  EXPECT_FALSE(m.file_agent->HoldsCallback(id));
  ASSERT_TRUE(m.file_agent->Pread(od, 0, out).ok());
  EXPECT_EQ(out, v2);
  EXPECT_TRUE(m.file_agent->HoldsCallback(id))
      << "the revalidating read re-arms the promise at the new epoch";
  ASSERT_TRUE(m.file_agent->Close(od).ok());
}

// --- redirect racing a break -------------------------------------------------

// Cache-tier interleaving: a writer's flush lands BETWEEN the server's
// redirect reply and the reader's peer fetch. The break-before-reply
// ordering has already revoked the serving peer's promise by then, so the
// peer must refuse the fetch (its token no longer vouches for the bytes)
// and the reader must fall back to the origin for the POST-write image —
// a pre-break token match or fresh bytes, never a torn or stale read.
TEST(LeaseCoherenceTest, RedirectDuringBreakFallsBackToFreshBytes) {
  FacilityConfig cfg = LeaseFacility();
  cfg.cache_tier.enabled = true;
  cfg.cache_tier.hot_read_threshold = 1;  // every read is hot
  // A one-block origin pool and no track cache: once block 1 has been read
  // at the origin, a read of block 0 reaches a disk and is redirected.
  cfg.file.block_pool_capacity = 1;
  cfg.disk_cache_tracks = 0;
  DistributedFileFacility f(cfg);
  Machine& w = f.AddMachine();
  Machine& p = f.AddMachine();
  const auto v1 = Pattern(kBlockSize, 51);
  const auto v2 = Pattern(kBlockSize, 52);

  auto wd = *w.file_agent->Create(naming::ByName("racy"),
                                  file::ServiceType::kBasic);
  ASSERT_TRUE(w.file_agent->Pwrite(wd, 0, v1).ok());
  ASSERT_TRUE(w.file_agent->Pwrite(wd, kBlockSize, Pattern(kBlockSize)).ok());
  ASSERT_TRUE(w.file_agent->Flush(wd).ok());

  // The peer warms up and registers as the file's only redirect candidate.
  auto pd = *p.file_agent->Open(naming::ByName("racy"));
  std::vector<std::uint8_t> out(kBlockSize);
  ASSERT_TRUE(p.file_agent->Pread(pd, 0, out).ok());
  ASSERT_EQ(out, v1);

  // The reader runs behind a wrapper service that injects the writer's
  // flush right after the server's (redirect) reply is formed — the
  // single-threaded sim's way of interleaving "write completes while the
  // redirect is in flight".
  agent::FileAgent reader(MachineId{88}, &f.bus(), "brk-wrapper",
                          &f.naming(), f.config().agent);
  bool armed = false;
  bool fired = false;
  f.bus().RegisterService(
      "brk-wrapper",
      [&](std::uint32_t opcode, std::span<const std::uint8_t> request) {
        auto reply = *f.bus().Call(core::kFileServiceAddress, opcode, request,
                                   "brk-wrapper");
        if (armed && !fired &&
            static_cast<agent::FsOp>(opcode) == agent::FsOp::kPread) {
          fired = true;
          EXPECT_TRUE(w.file_agent->Pwrite(wd, 0, v2).ok());
          EXPECT_TRUE(w.file_agent->Flush(wd).ok());
        }
        return reply;
      });

  auto rd = *reader.Open(naming::ByName("racy"));
  const FileId id = *reader.FileOf(rd);
  std::vector<std::uint8_t> one(kBlockSize);
  ASSERT_TRUE(f.files().Read(id, kBlockSize, one).ok());  // evicts block 0
  armed = true;
  ASSERT_TRUE(reader.Pread(rd, 0, out).ok());
  ASSERT_TRUE(fired) << "the interleaved flush must have run";
  EXPECT_EQ(out, v2) << "the raced read must carry the post-flush bytes";
  EXPECT_GE(reader.stats().peer_fallbacks, 1u)
      << "the broken peer must have refused the redirected fetch";
  EXPECT_EQ(reader.stats().peer_fetches, 0u);
  EXPECT_GE(p.file_agent->stats().peer_serve_rejects, 1u);
  EXPECT_GE(p.file_agent->stats().callback_breaks, 1u);

  // The fallback's reply re-armed the reader's promise at the new token:
  // the next read is warm and still the new bytes.
  EXPECT_TRUE(reader.HoldsCallback(id));
  const std::uint64_t before = BusCalls(f);
  ASSERT_TRUE(reader.Pread(rd, 0, out).ok());
  EXPECT_EQ(out, v2);
  EXPECT_EQ(BusCalls(f) - before, 0u);
  ASSERT_TRUE(reader.Close(rd).ok());
  f.bus().UnregisterService("brk-wrapper");
}

// --- the invalidation storm --------------------------------------------------

// One writer against a crowd of cached readers, with the clock lurching
// across lease expiries: every read that returns must carry the bytes of
// the writer's last completed flush. Zero stale reads, deterministically.
std::string RunStorm(std::uint64_t seed) {
  DistributedFileFacility f(LeaseFacility());
  Machine& w = f.AddMachine();
  constexpr int kReaders = 6;
  std::vector<Machine*> readers;
  for (int i = 0; i < kReaders; ++i) readers.push_back(&f.AddMachine());

  auto oracle = Pattern(kBlockSize, 0);
  auto wd = *w.file_agent->Create(naming::ByName("hot"),
                                  file::ServiceType::kBasic);
  EXPECT_TRUE(w.file_agent->Pwrite(wd, 0, oracle).ok());
  EXPECT_TRUE(w.file_agent->Flush(wd).ok());

  std::vector<ObjectDescriptor> rds;
  std::vector<std::uint8_t> out(kBlockSize);
  for (Machine* r : readers) {
    auto rd = *r->file_agent->Open(naming::ByName("hot"));
    EXPECT_TRUE(r->file_agent->Pread(rd, 0, out).ok());
    rds.push_back(rd);
  }

  std::mt19937_64 rng(seed);
  for (int round = 0; round < 200; ++round) {
    const std::uint64_t kind = rng() % 10;
    if (kind < 3) {
      oracle = Pattern(kBlockSize, static_cast<std::uint8_t>(round + 1));
      EXPECT_TRUE(w.file_agent->Pwrite(wd, 0, oracle).ok());
      EXPECT_TRUE(w.file_agent->Flush(wd).ok());
    } else if (kind < 9) {
      const std::size_t r = rng() % readers.size();
      EXPECT_TRUE(readers[r]->file_agent->Pread(rds[r], 0, out).ok());
      EXPECT_EQ(out, oracle) << "STALE READ at round " << round;
    } else {
      // Lurch: sometimes a hair, sometimes past every outstanding lease.
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
  EXPECT_GT(ss.callback_breaks, 0u) << "writes must have broken promises";
  EXPECT_GT(ss.callback_expired, 0u) << "the lurches must have expired some";
  std::uint64_t renewals = 0;
  for (Machine* r : readers) {
    renewals += r->file_agent->stats().callback_renewals;
  }
  EXPECT_GT(renewals, 0u) << "expired readers must have revalidated";

  return "grants=" + std::to_string(ss.callback_grants) +
         " breaks=" + std::to_string(ss.callback_breaks) +
         " expired=" + std::to_string(ss.callback_expired) +
         " renewals=" + std::to_string(renewals) +
         " calls=" + std::to_string(f.bus().stats().calls);
}

TEST(LeaseCoherenceTest, SeededInvalidationStormHasZeroStaleReads) {
  const std::string first = RunStorm(1234);
  const std::string second = RunStorm(1234);
  EXPECT_EQ(first, second) << "the storm must be deterministic per seed";
  EXPECT_NE(RunStorm(99), first) << "different seed, different schedule";
}

}  // namespace
}  // namespace rhodos::agent

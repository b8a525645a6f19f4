// Tests for the client-side agents (paper §3): file agent descriptors,
// cursors and caching; idempotent retry under message loss/duplication;
// device agent and stream redirection; mediumweight process twins; and the
// transaction agent's event-driven lifecycle.
#include <gtest/gtest.h>

#include <set>

#include "core/facility.h"

namespace rhodos::agent {
namespace {

using core::DistributedFileFacility;
using core::FacilityConfig;
using core::Machine;

FacilityConfig SmallFacility() {
  FacilityConfig c;
  c.geometry.total_fragments = 8192;
  c.geometry.fragments_per_track = 32;
  return c;
}

std::vector<std::uint8_t> Pattern(std::size_t n, std::uint8_t seed = 1) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::uint8_t>(seed + i * 11);
  }
  return v;
}

class FileAgentTest : public ::testing::Test {
 protected:
  FileAgentTest() : facility_(SmallFacility()), m_(facility_.AddMachine()) {}
  DistributedFileFacility facility_;
  Machine& m_;
};

TEST_F(FileAgentTest, DescriptorsAreAbove100000) {
  auto od = m_.file_agent->Create(naming::ByName("a"),
                                  file::ServiceType::kBasic);
  ASSERT_TRUE(od.ok());
  EXPECT_TRUE(IsFileDescriptor(*od));
  EXPECT_GT(*od, kDeviceDescriptorBound);
}

TEST_F(FileAgentTest, SequentialWriteReadWithCursor) {
  auto od = m_.file_agent->Create(naming::ByName("seq"),
                                  file::ServiceType::kBasic);
  ASSERT_TRUE(od.ok());
  const auto part1 = Pattern(100, 1);
  const auto part2 = Pattern(100, 2);
  ASSERT_TRUE(m_.file_agent->Write(*od, part1).ok());
  ASSERT_TRUE(m_.file_agent->Write(*od, part2).ok());  // cursor advanced
  ASSERT_TRUE(m_.file_agent->Lseek(*od, 0, SeekWhence::kSet).ok());
  std::vector<std::uint8_t> out(200);
  auto n = m_.file_agent->Read(*od, out);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 200u);
  EXPECT_TRUE(std::equal(part1.begin(), part1.end(), out.begin()));
  EXPECT_TRUE(std::equal(part2.begin(), part2.end(), out.begin() + 100));
}

TEST_F(FileAgentTest, LseekWhenceVariants) {
  auto od = m_.file_agent->Create(naming::ByName("seek"),
                                  file::ServiceType::kBasic);
  ASSERT_TRUE(od.ok());
  ASSERT_TRUE(m_.file_agent->Write(*od, Pattern(1000)).ok());
  EXPECT_EQ(*m_.file_agent->Lseek(*od, 10, SeekWhence::kSet), 10);
  EXPECT_EQ(*m_.file_agent->Lseek(*od, 5, SeekWhence::kCurrent), 15);
  EXPECT_EQ(*m_.file_agent->Lseek(*od, -100, SeekWhence::kEnd), 900);
  EXPECT_FALSE(m_.file_agent->Lseek(*od, -1, SeekWhence::kSet).ok());
}

TEST_F(FileAgentTest, OpenByAttributedNameAndGetAttribute) {
  auto od = m_.file_agent->Create(
      naming::AttributedName{{"name", "cfg"}, {"owner", "root"}},
      file::ServiceType::kBasic);
  ASSERT_TRUE(od.ok());
  ASSERT_TRUE(m_.file_agent->Write(*od, Pattern(321)).ok());
  ASSERT_TRUE(m_.file_agent->Close(*od).ok());

  auto od2 = m_.file_agent->Open(naming::AttributedName{{"owner", "root"}});
  ASSERT_TRUE(od2.ok());
  auto attrs = m_.file_agent->GetAttribute(*od2);
  ASSERT_TRUE(attrs.ok());
  EXPECT_EQ(attrs->size, 321u);
}

TEST_F(FileAgentTest, BadDescriptorsAreRejected) {
  std::vector<std::uint8_t> buf(10);
  EXPECT_EQ(m_.file_agent->Read(123456, buf).error().code,
            ErrorCode::kBadDescriptor);
  EXPECT_EQ(m_.file_agent->Close(123456).code(), ErrorCode::kBadDescriptor);
}

TEST_F(FileAgentTest, ClientCacheAbsorbsRepeatedReads) {
  auto od = m_.file_agent->Create(naming::ByName("hot"),
                                  file::ServiceType::kBasic);
  ASSERT_TRUE(od.ok());
  ASSERT_TRUE(m_.file_agent->Write(*od, Pattern(kBlockSize)).ok());
  std::vector<std::uint8_t> out(kBlockSize);
  ASSERT_TRUE(m_.file_agent->Pread(*od, 0, out).ok());
  const auto calls_before = facility_.bus().stats().calls;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(m_.file_agent->Pread(*od, 0, out).ok());
  }
  // All ten reads were served from the agent's cache: zero messages.
  EXPECT_EQ(facility_.bus().stats().calls, calls_before);
  EXPECT_GE(m_.file_agent->stats().cache_hits, 10u);
}

TEST_F(FileAgentTest, DelayedWritesReachServerAtClose) {
  auto od = m_.file_agent->Create(naming::ByName("dw"),
                                  file::ServiceType::kBasic);
  ASSERT_TRUE(od.ok());
  auto file = m_.file_agent->FileOf(*od);
  ASSERT_TRUE(file.ok());
  const auto data = Pattern(500, 9);
  ASSERT_TRUE(m_.file_agent->Write(*od, data).ok());
  // The server has not seen the bytes yet (delayed write).
  EXPECT_EQ(facility_.files().GetAttributes(*file)->size, 0u);
  ASSERT_TRUE(m_.file_agent->Close(*od).ok());
  EXPECT_EQ(facility_.files().GetAttributes(*file)->size, 500u);
}

// A write-through agent sends each pwrite as a write batch of one extent:
// one exchange, applied on the server before the reply, plus the break the
// server sends each other holder of a callback promise. The writer adopts
// the reply's version token, so its own cached copy stays valid, while the
// break's token drops another machine's stale copy.
TEST(WriteThroughAgentTest, PwriteIsOneExchangeAndMovesTheVersionToken) {
  FacilityConfig cfg = SmallFacility();
  cfg.agent.delayed_write = false;
  DistributedFileFacility f(cfg);
  Machine& writer = f.AddMachine();
  Machine& reader = f.AddMachine();

  auto od = writer.file_agent->Create(naming::ByName("wt"),
                                      file::ServiceType::kBasic);
  ASSERT_TRUE(od.ok());
  auto file = writer.file_agent->FileOf(*od);
  ASSERT_TRUE(file.ok());
  const auto old_bytes = Pattern(kBlockSize, 1);
  ASSERT_TRUE(writer.file_agent->Pwrite(*od, 0, old_bytes).ok());

  // Both machines cache the old block.
  std::vector<std::uint8_t> out(kBlockSize);
  ASSERT_TRUE(writer.file_agent->Pread(*od, 0, out).ok());
  auto rod = reader.file_agent->Open(naming::ByName("wt"));
  ASSERT_TRUE(rod.ok());
  ASSERT_TRUE(reader.file_agent->Pread(*rod, 0, out).ok());
  EXPECT_EQ(out, old_bytes);
  ASSERT_TRUE(reader.file_agent->Close(*rod).ok());

  const auto new_bytes = Pattern(kBlockSize, 7);
  const FileAgentStats reader_before = reader.file_agent->stats();
  const auto calls_before = f.bus().stats().calls;
  auto n = writer.file_agent->Pwrite(*od, 0, new_bytes);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, kBlockSize);
  // The write, and the break to the reader, whose promise outlived its
  // close.
  EXPECT_EQ(f.bus().stats().calls, calls_before + 2);
  EXPECT_EQ(reader.file_agent->stats().callback_breaks,
            reader_before.callback_breaks + 1);
  std::vector<std::uint8_t> on_server(kBlockSize);
  ASSERT_TRUE(f.files().Read(*file, 0, on_server).ok());
  EXPECT_EQ(on_server, new_bytes);

  // The writer's reopen keeps the block its write covered: a cache hit.
  ASSERT_TRUE(writer.file_agent->Close(*od).ok());
  const FileAgentStats writer_before = writer.file_agent->stats();
  auto wod = writer.file_agent->Open(naming::ByName("wt"));
  ASSERT_TRUE(wod.ok());
  ASSERT_TRUE(writer.file_agent->Pread(*wod, 0, out).ok());
  EXPECT_EQ(out, new_bytes);
  EXPECT_EQ(writer.file_agent->stats().stale_invalidations,
            writer_before.stale_invalidations);
  EXPECT_EQ(writer.file_agent->stats().cache_hits,
            writer_before.cache_hits + 1);

  // The break dropped the reader's old block: its reopen re-reads it.
  rod = reader.file_agent->Open(naming::ByName("wt"));
  ASSERT_TRUE(rod.ok());
  ASSERT_TRUE(reader.file_agent->Pread(*rod, 0, out).ok());
  EXPECT_EQ(out, new_bytes);
  EXPECT_GT(reader.file_agent->stats().stale_invalidations,
            reader_before.stale_invalidations);
}

// Regression: a pwrite whose end passed 2^64 was cached and acknowledged,
// landed its tail at the start of the file and made Close fail.
TEST_F(FileAgentTest, PwriteWrappingPastTheAddressSpaceIsRefused) {
  auto od = m_.file_agent->Create(naming::ByName("wrap"),
                                  file::ServiceType::kBasic);
  ASSERT_TRUE(od.ok());
  const std::vector<std::uint8_t> sevens(100, 7);
  ASSERT_TRUE(m_.file_agent->Pwrite(*od, 0, sevens).ok());
  ASSERT_TRUE(m_.file_agent->Flush(*od).ok());
  auto n = m_.file_agent->Pwrite(*od, ~std::uint64_t{0} - 50,
                                 std::vector<std::uint8_t>(200, 9));
  ASSERT_FALSE(n.ok());
  EXPECT_EQ(n.error().code, ErrorCode::kInvalidArgument);
  std::vector<std::uint8_t> out(200);
  auto got = m_.file_agent->Pread(*od, 0, out);
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(*got, 100u);
  EXPECT_EQ(std::vector<std::uint8_t>(out.begin(), out.begin() + 100), sevens);
  EXPECT_TRUE(m_.file_agent->Close(*od).ok());
}

TEST_F(FileAgentTest, DeleteByNameUnregistersAndPurges) {
  auto od = m_.file_agent->Create(naming::ByName("gone"),
                                  file::ServiceType::kBasic);
  ASSERT_TRUE(od.ok());
  ASSERT_TRUE(m_.file_agent->Write(*od, Pattern(10)).ok());
  ASSERT_TRUE(m_.file_agent->Flush(*od).ok());
  ASSERT_TRUE(m_.file_agent->Delete(naming::ByName("gone")).ok());
  EXPECT_FALSE(m_.file_agent->Open(naming::ByName("gone")).ok());
}

// --- idempotency under an unreliable network (§3) ---------------------------------

class LossyAgentTest : public ::testing::Test {
 protected:
  LossyAgentTest() {
    FacilityConfig cfg = SmallFacility();
    cfg.network.drop_rate = 0.15;
    cfg.network.duplicate_rate = 0.3;
    cfg.agent.rpc.max_attempts = 64;
    // This suite tests at-least-once idempotency, which needs actual wire
    // traffic to lose and duplicate: a write-through agent sends every
    // pwrite to the server instead of batching them into one flush.
    cfg.agent.delayed_write = false;
    facility_ = std::make_unique<DistributedFileFacility>(cfg);
    m_ = &facility_->AddMachine();
  }
  std::unique_ptr<DistributedFileFacility> facility_;
  Machine* m_ = nullptr;
};

TEST_F(LossyAgentTest, RepeatedExecutionProducesNoUncertainEffect) {
  // "Certain errors ... may lead to repeated execution of some operations.
  // However, their repetition in RHODOS does not produce any uncertain
  // effect." Run a write workload over a lossy, duplicating network and
  // verify the file ends up byte-exact.
  auto od = m_->file_agent->Create(naming::ByName("lossy"),
                                   file::ServiceType::kBasic);
  ASSERT_TRUE(od.ok());
  const auto data = Pattern(40 * 1024, 3);
  for (std::size_t off = 0; off < data.size(); off += 4096) {
    ASSERT_TRUE(m_->file_agent
                    ->Pwrite(*od, off,
                             {data.data() + off,
                              std::min<std::size_t>(4096,
                                                    data.size() - off)})
                    .ok());
  }
  ASSERT_TRUE(m_->file_agent->Close(*od).ok());
  // Retries definitely happened; duplicates definitely executed.
  EXPECT_GT(m_->file_agent->rpc_retries(), 0u);
  EXPECT_GT(facility_->bus().stats().duplicates, 0u);

  auto od2 = m_->file_agent->Open(naming::ByName("lossy"));
  ASSERT_TRUE(od2.ok());
  std::vector<std::uint8_t> out(data.size());
  ASSERT_TRUE(m_->file_agent->Pread(*od2, 0, out).ok());
  EXPECT_EQ(out, data);
}

TEST_F(LossyAgentTest, CreateTokensPreventDuplicateFiles) {
  // A duplicated create must not mint two files: the server replays the
  // original reply from its token table.
  for (int i = 0; i < 10; ++i) {
    auto od = m_->file_agent->Create(
        naming::ByName("file-" + std::to_string(i)),
        file::ServiceType::kBasic);
    ASSERT_TRUE(od.ok());
  }
  EXPECT_GT(facility_->file_server().stats().duplicate_replays +
                facility_->bus().stats().duplicates,
            0u);
  EXPECT_EQ(facility_->naming().FileCount(), 10u);
}

// --- device agent and redirection (§3) ----------------------------------------------

TEST(DeviceAgentTest, StandardStreamsHitTheConsole) {
  naming::NamingService ns;
  DeviceAgent da(&ns);
  const std::string text = "hello rhodos";
  ASSERT_TRUE(da.WriteStandard(kStdoutDescriptor,
                               {reinterpret_cast<const std::uint8_t*>(
                                    text.data()),
                                text.size()})
                  .ok());
  auto out = da.OutputOf("console");
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(std::string(out->begin(), out->end()), text);
}

TEST(DeviceAgentTest, OpenReadWriteDevice) {
  naming::NamingService ns;
  DeviceAgent da(&ns);
  ASSERT_TRUE(da.CreateDevice("tty7").ok());
  auto od = da.Open(naming::AttributedName{{"device", "tty7"}});
  ASSERT_TRUE(od.ok());
  EXPECT_TRUE(IsDeviceDescriptor(*od));
  const std::vector<std::uint8_t> keys{'a', 'b', 'c'};
  ASSERT_TRUE(da.FeedInput("tty7", keys).ok());
  std::vector<std::uint8_t> in(10);
  auto n = da.Read(*od, in);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 3u);
  ASSERT_TRUE(da.Close(*od).ok());
  EXPECT_FALSE(da.Read(*od, in).ok());
}

TEST(ProcessTest, DefaultStreamsAreZeroOneTwo) {
  ProcessContext p{ProcessId{1}};
  EXPECT_EQ(p.stdin_fd(), kStdinDescriptor);
  EXPECT_EQ(p.stdout_fd(), kStdoutDescriptor);
  EXPECT_EQ(p.stderr_fd(), kStderrDescriptor);
}

TEST(ProcessTest, RedirectionUsesFixedConstants) {
  ProcessContext p{ProcessId{1}};
  ASSERT_TRUE(p.RedirectStdout(100'010).ok());
  EXPECT_EQ(p.stdout_fd(), kRedirectedStdout);  // 100001
  ASSERT_TRUE(p.RedirectStdin(100'011).ok());
  EXPECT_EQ(p.stdin_fd(), kRedirectedStdin);  // 100002
  ASSERT_TRUE(p.RedirectStderr(100'012).ok());
  EXPECT_EQ(p.stderr_fd(), kRedirectedStderr);  // 100003
  EXPECT_EQ(*p.ResolveStream(p.stdout_fd()), 100'010);
  // Redirecting to a device descriptor is refused.
  EXPECT_FALSE(p.RedirectStdout(5).ok());
}

TEST(ProcessTest, TwinInheritsDescriptorsSharesState) {
  ProcessContext parent{ProcessId{1}};
  parent.AddDescriptor(100'010);
  auto child = parent.Twin(ProcessId{2});
  ASSERT_TRUE(child.ok());
  EXPECT_EQ(child->descriptors(), parent.descriptors());
  // Mediumweight: data space is shared, so new descriptors appear in both.
  child->AddDescriptor(100'011);
  EXPECT_EQ(parent.descriptors().size(), 2u);
}

TEST(ProcessTest, TwinRefusedWithLiveTransactions) {
  ProcessContext p{ProcessId{1}};
  p.AddTransaction(TxnId{42});
  EXPECT_EQ(p.Twin(ProcessId{2}).error().code,
            ErrorCode::kPermissionDenied);
  p.RemoveTransaction(TxnId{42});
  EXPECT_TRUE(p.Twin(ProcessId{2}).ok());
}

// --- transaction agent lifecycle (§3, §6) -------------------------------------------

TEST_F(FileAgentTest, TransactionAgentIsEventDriven) {
  auto process = facility_.CreateProcess();
  EXPECT_FALSE(m_.txn_agent->AgentAlive());

  auto t1 = m_.txn_agent->TBegin(process);
  ASSERT_TRUE(t1.ok());
  EXPECT_TRUE(m_.txn_agent->AgentAlive());  // first tbegin spawned it
  auto t2 = m_.txn_agent->TBegin(process);
  ASSERT_TRUE(t2.ok());

  ASSERT_TRUE(m_.txn_agent->TEnd(*t1, process).ok());
  EXPECT_TRUE(m_.txn_agent->AgentAlive());  // one txn still live
  ASSERT_TRUE(m_.txn_agent->TEnd(*t2, process).ok());
  EXPECT_FALSE(m_.txn_agent->AgentAlive());  // last txn done: retired
  EXPECT_EQ(m_.txn_agent->stats().spawns, 1u);
  EXPECT_EQ(m_.txn_agent->stats().retirements, 1u);
}

TEST_F(FileAgentTest, TransactionalReadWriteThroughAgent) {
  auto process = facility_.CreateProcess();
  auto t = m_.txn_agent->TBegin(process);
  ASSERT_TRUE(t.ok());
  auto od = m_.txn_agent->TCreate(*t, naming::ByName("bank"),
                                  file::LockLevel::kPage, kBlockSize);
  ASSERT_TRUE(od.ok());
  EXPECT_GT(*od, kDeviceDescriptorBound);
  const auto data = Pattern(256, 8);
  ASSERT_TRUE(m_.txn_agent->TWrite(*t, *od, data).ok());
  ASSERT_TRUE(m_.txn_agent->TLseek(*t, *od, 0, SeekWhence::kSet).ok());
  std::vector<std::uint8_t> out(256);
  ASSERT_TRUE(m_.txn_agent->TRead(*t, *od, out).ok());
  EXPECT_EQ(out, data);
  ASSERT_TRUE(m_.txn_agent->TEnd(*t, process).ok());

  // Committed data visible through the basic path too.
  auto bod = m_.file_agent->Open(naming::ByName("bank"));
  ASSERT_TRUE(bod.ok());
  std::vector<std::uint8_t> basic(256);
  ASSERT_TRUE(m_.file_agent->Pread(*bod, 0, basic).ok());
  EXPECT_EQ(basic, data);
}

TEST_F(FileAgentTest, StreamRedirectionRoutesToFile) {
  auto process = facility_.CreateProcess();
  // Default stdout goes to the console device.
  const std::string hello = "to console\n";
  ASSERT_TRUE(facility_
                  .WriteStream(m_, process, process.stdout_fd(),
                               {reinterpret_cast<const std::uint8_t*>(
                                    hello.data()),
                                hello.size()})
                  .ok());
  EXPECT_FALSE(m_.device_agent->OutputOf("console")->empty());

  // Redirect stdout to a file; further writes land in the file.
  auto od = m_.file_agent->Create(naming::ByName("out.log"),
                                  file::ServiceType::kBasic);
  ASSERT_TRUE(od.ok());
  ASSERT_TRUE(process.RedirectStdout(*od).ok());
  const std::string logged = "to file";
  ASSERT_TRUE(facility_
                  .WriteStream(m_, process, process.stdout_fd(),
                               {reinterpret_cast<const std::uint8_t*>(
                                    logged.data()),
                                logged.size()})
                  .ok());
  ASSERT_TRUE(m_.file_agent->Close(*od).ok());
  auto check = m_.file_agent->Open(naming::ByName("out.log"));
  std::vector<std::uint8_t> out(logged.size());
  ASSERT_TRUE(m_.file_agent->Pread(*check, 0, out).ok());
  EXPECT_EQ(std::string(out.begin(), out.end()), logged);
}

}  // namespace
}  // namespace rhodos::agent

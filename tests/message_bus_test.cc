// Unit tests for the simulated interconnect and the at-least-once RPC
// client.
#include <gtest/gtest.h>

#include "common/sim_clock.h"
#include "sim/message_bus.h"

namespace rhodos::sim {
namespace {

Payload Echo(std::uint32_t opcode, std::span<const std::uint8_t> request) {
  Payload reply{static_cast<std::uint8_t>(opcode)};
  reply.insert(reply.end(), request.begin(), request.end());
  return reply;
}

TEST(MessageBusTest, DeliversAndReplies) {
  SimClock clock;
  MessageBus bus(&clock);
  bus.RegisterService("echo", Echo);
  const std::vector<std::uint8_t> req{1, 2, 3};
  auto reply = bus.Call("echo", 9, req);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(*reply, (Payload{9, 1, 2, 3}));
  EXPECT_EQ(bus.stats().deliveries, 1u);
  EXPECT_GT(clock.Now(), 0);
}

TEST(MessageBusTest, UnknownAddressFails) {
  SimClock clock;
  MessageBus bus(&clock);
  auto reply = bus.Call("nowhere", 0, {});
  EXPECT_EQ(reply.error().code, ErrorCode::kNotConnected);
}

TEST(MessageBusTest, DropsLoseRequestsOrReplies) {
  SimClock clock;
  NetworkConfig net;
  net.drop_rate = 0.5;
  MessageBus bus(&clock, net, /*fault_seed=*/5);
  bus.RegisterService("echo", Echo);
  int lost = 0;
  for (int i = 0; i < 100; ++i) {
    if (!bus.Call("echo", 0, {}).ok()) ++lost;
  }
  EXPECT_GT(lost, 20);
  EXPECT_LT(lost, 95);
  EXPECT_GT(bus.stats().drops_request + bus.stats().drops_reply, 0u);
}

TEST(MessageBusTest, ReplyLossStillExecutesHandler) {
  // The hard case for idempotency: the server did the work, the client
  // never heard back.
  SimClock clock;
  NetworkConfig net;
  net.drop_rate = 0.4;
  MessageBus bus(&clock, net, /*fault_seed=*/7);
  int executions = 0;
  bus.RegisterService("svc", [&](std::uint32_t, std::span<const std::uint8_t>) {
    ++executions;
    return Payload{};
  });
  int acked = 0;
  for (int i = 0; i < 200; ++i) {
    if (bus.Call("svc", 0, {}).ok()) ++acked;
  }
  EXPECT_GT(executions, acked);  // some work was done without an ack
}

TEST(MessageBusTest, DuplicatesInvokeHandlerTwice) {
  SimClock clock;
  NetworkConfig net;
  net.duplicate_rate = 1.0;  // every request is retransmitted
  MessageBus bus(&clock, net);
  int executions = 0;
  bus.RegisterService("svc", [&](std::uint32_t, std::span<const std::uint8_t>) {
    ++executions;
    return Payload{};
  });
  ASSERT_TRUE(bus.Call("svc", 0, {}).ok());
  EXPECT_EQ(executions, 2);
  EXPECT_EQ(bus.stats().duplicates, 1u);
}

TEST(RpcClientTest, RetriesThroughLoss) {
  SimClock clock;
  NetworkConfig net;
  net.drop_rate = 0.6;
  MessageBus bus(&clock, net, /*fault_seed=*/13);
  bus.RegisterService("echo", Echo);
  RpcClient rpc(&bus, "echo", /*max_attempts=*/32);
  int ok = 0;
  for (int i = 0; i < 50; ++i) {
    if (rpc.Call(0, {}).ok()) ++ok;
  }
  EXPECT_EQ(ok, 50);  // retries mask a 60% loss rate
  EXPECT_GT(rpc.retries(), 0u);
}

TEST(RpcClientTest, GivesUpAfterMaxAttempts) {
  SimClock clock;
  NetworkConfig net;
  net.drop_rate = 1.0;  // nothing ever gets through
  MessageBus bus(&clock, net);
  bus.RegisterService("echo", Echo);
  RpcClient rpc(&bus, "echo", /*max_attempts=*/3);
  auto reply = rpc.Call(0, {});
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.error().code, ErrorCode::kUnavailable);
  EXPECT_EQ(rpc.retries(), 2u);
}

TEST(MessageBusTest, FailedExchangesChargeTheTimeoutInterval) {
  // A caller cannot learn "no reply is coming" faster than its timeout, so
  // every dropped exchange must cost simulated time.
  SimClock clock;
  NetworkConfig net;
  net.drop_rate = 1.0;
  MessageBus bus(&clock, net);
  bus.RegisterService("echo", Echo);
  const SimTime before = clock.Now();
  EXPECT_FALSE(bus.Call("echo", 0, {}).ok());
  EXPECT_EQ(bus.stats().timeouts, 1u);
  EXPECT_GE(clock.Now() - before, net.timeout_interval);
  EXPECT_GE(bus.stats().time_charged, net.timeout_interval);
}

TEST(MessageBusTest, DownServiceTimesOutWithoutInvokingHandler) {
  SimClock clock;
  MessageBus bus(&clock);
  int executions = 0;
  bus.RegisterService("svc", [&](std::uint32_t, std::span<const std::uint8_t>) {
    ++executions;
    return Payload{};
  });
  bus.SetServiceDown("svc");
  const SimTime before = clock.Now();
  auto reply = bus.Call("svc", 0, {});
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.error().code, ErrorCode::kMessageDropped);
  EXPECT_EQ(executions, 0);
  EXPECT_EQ(bus.stats().rejected_down, 1u);
  EXPECT_GE(clock.Now() - before, bus.config().timeout_interval);

  bus.SetServiceUp("svc");
  EXPECT_TRUE(bus.Call("svc", 0, {}).ok());
  EXPECT_EQ(executions, 1);
}

TEST(MessageBusTest, PartitionIsPerCaller) {
  SimClock clock;
  MessageBus bus(&clock);
  bus.RegisterService("svc", Echo);
  bus.PartitionPair("machine-0", "svc");
  EXPECT_FALSE(bus.Call("svc", 0, {}, "machine-0").ok());
  EXPECT_TRUE(bus.Call("svc", 0, {}, "machine-1").ok());
  EXPECT_EQ(bus.stats().rejected_partitioned, 1u);
  bus.HealPair("machine-0", "svc");
  EXPECT_TRUE(bus.Call("svc", 0, {}, "machine-0").ok());
}

TEST(MessageBusTest, EmptyCallerPartitionBlocksEveryone) {
  SimClock clock;
  MessageBus bus(&clock);
  bus.RegisterService("svc", Echo);
  bus.PartitionPair("", "svc");
  EXPECT_FALSE(bus.Call("svc", 0, {}, "machine-0").ok());
  EXPECT_FALSE(bus.Call("svc", 0, {}, "machine-1").ok());
  bus.HealPair("", "svc");
  EXPECT_TRUE(bus.Call("svc", 0, {}, "machine-0").ok());
}

TEST(MessageBusTest, ProbeReportsLivenessWithoutInvokingHandler) {
  SimClock clock;
  MessageBus bus(&clock);
  int executions = 0;
  bus.RegisterService("svc", [&](std::uint32_t, std::span<const std::uint8_t>) {
    ++executions;
    return Payload{};
  });
  EXPECT_TRUE(bus.Probe("svc").ok());
  EXPECT_EQ(executions, 0);
  bus.SetServiceDown("svc");
  EXPECT_FALSE(bus.Probe("svc").ok());
  bus.SetServiceUp("svc");
  bus.PartitionPair("machine-0", "svc");
  EXPECT_FALSE(bus.Probe("svc", "machine-0").ok());
  EXPECT_TRUE(bus.Probe("svc", "machine-1").ok());
  EXPECT_EQ(bus.stats().probes, 4u);
}

TEST(MessageBusTest, FaultPlanFiresInTimeOrder) {
  SimClock clock;
  MessageBus bus(&clock);
  bus.RegisterService("svc", Echo);
  FaultPlan plan;
  plan.ServiceDown(10 * kSimMillisecond, "svc")
      .ServiceUp(20 * kSimMillisecond, "svc");
  bus.SetFaultPlan(std::move(plan));
  EXPECT_EQ(bus.PendingFaultEvents(), 2u);

  EXPECT_TRUE(bus.Call("svc", 0, {}).ok());  // before 10ms: still up
  clock.Advance(10 * kSimMillisecond);
  EXPECT_FALSE(bus.Call("svc", 0, {}).ok());  // the down event fired
  EXPECT_EQ(bus.PendingFaultEvents(), 1u);
  clock.Advance(10 * kSimMillisecond);
  EXPECT_TRUE(bus.Call("svc", 0, {}).ok());  // the up event fired
  EXPECT_EQ(bus.PendingFaultEvents(), 0u);
}

TEST(MessageBusTest, FaultPlanAfterCallsGatesOnTraffic) {
  SimClock clock;
  MessageBus bus(&clock);
  bus.RegisterService("svc", Echo);
  FaultPlan plan;
  plan.ServiceDown(0, "svc").AfterCalls(3);
  bus.SetFaultPlan(std::move(plan));
  // The event fires during the third call to the service, killing it.
  EXPECT_TRUE(bus.Call("svc", 0, {}).ok());
  EXPECT_TRUE(bus.Call("svc", 0, {}).ok());
  EXPECT_FALSE(bus.Call("svc", 0, {}).ok());
  EXPECT_EQ(bus.PendingFaultEvents(), 0u);
}

TEST(MessageBusTest, ClearFaultsRestoresTheWorld) {
  SimClock clock;
  MessageBus bus(&clock);
  bus.RegisterService("svc", Echo);
  bus.SetServiceDown("svc");
  bus.PartitionPair("", "svc");
  FaultPlan plan;
  plan.ServiceDown(1 * kSimSecond, "svc");
  bus.SetFaultPlan(std::move(plan));
  bus.ClearFaults();
  EXPECT_EQ(bus.PendingFaultEvents(), 0u);
  EXPECT_TRUE(bus.Call("svc", 0, {}).ok());
}

TEST(RpcClientTest, AttemptsAreBoundedAgainstADownService) {
  SimClock clock;
  MessageBus bus(&clock);
  bus.RegisterService("svc", Echo);
  bus.SetServiceDown("svc");
  RpcRetryConfig rc;
  rc.max_attempts = 5;
  RpcClient rpc(&bus, "svc", rc);
  auto reply = rpc.Call(0, {});
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.error().code, ErrorCode::kUnavailable);
  EXPECT_EQ(bus.stats().rejected_down, 5u);  // exactly max_attempts tries
  EXPECT_EQ(rpc.retries(), 4u);
  EXPECT_EQ(rpc.health().failures, 1u);  // one failed Call(), many attempts
}

TEST(RpcClientTest, BackoffDelaysIncreaseMonotonically) {
  SimClock clock;
  MessageBus bus(&clock);
  bus.RegisterService("svc", Echo);
  bus.SetServiceDown("svc");
  RpcRetryConfig rc;
  rc.max_attempts = 6;
  RpcClient rpc(&bus, "svc", rc);
  ASSERT_FALSE(rpc.Call(0, {}).ok());
  const auto& delays = rpc.last_backoffs();
  ASSERT_EQ(delays.size(), 5u);  // one sleep before each retry
  SimTime total = 0;
  for (std::size_t i = 0; i < delays.size(); ++i) {
    if (i > 0) {
      EXPECT_GT(delays[i], delays[i - 1]) << "step " << i;
    }
    total += delays[i];
  }
  EXPECT_EQ(rpc.health().backoff_waited, total);
}

TEST(RpcClientTest, DeadlineExhaustionYieldsTimeout) {
  SimClock clock;
  MessageBus bus(&clock);
  bus.RegisterService("svc", Echo);
  bus.SetServiceDown("svc");
  RpcRetryConfig rc;
  rc.max_attempts = 100;  // the deadline, not the attempt cap, must stop it
  rc.deadline = 20 * kSimMillisecond;
  RpcClient rpc(&bus, "svc", rc);
  const SimTime before = clock.Now();
  auto reply = rpc.Call(0, {});
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.error().code, ErrorCode::kTimeout);
  EXPECT_EQ(rpc.health().deadline_exhausted, 1u);
  EXPECT_LT(bus.stats().rejected_down, 10u);  // nowhere near 100 attempts
  // It gave up near the budget instead of spinning forever.
  EXPECT_LE(clock.Now() - before, 2 * rc.deadline);
}

TEST(RpcClientTest, CircuitBreakerTellsDeadFromLossy) {
  SimClock clock;
  MessageBus bus(&clock);
  bus.RegisterService("svc", Echo);
  RpcRetryConfig rc;
  rc.max_attempts = 2;
  RpcClient rpc(&bus, "svc", rc);

  bus.SetServiceDown("svc");
  for (std::uint64_t i = 0; i < kUnhealthyThreshold; ++i) {
    EXPECT_FALSE(rpc.SuspectedDead());
    EXPECT_FALSE(rpc.Call(0, {}).ok());
  }
  EXPECT_TRUE(rpc.SuspectedDead());  // an unbroken failure run: dead

  bus.SetServiceUp("svc");
  EXPECT_TRUE(rpc.Call(0, {}).ok());
  EXPECT_FALSE(rpc.SuspectedDead());  // one success closes the circuit
  EXPECT_EQ(rpc.health().consecutive_failures, 0u);
}

TEST(RpcClientTest, LossyLinkDoesNotTripTheBreaker) {
  SimClock clock;
  NetworkConfig net;
  net.drop_rate = 0.4;
  MessageBus bus(&clock, net, /*fault_seed=*/21);
  bus.RegisterService("svc", Echo);
  RpcRetryConfig rc;
  rc.max_attempts = 16;
  RpcClient rpc(&bus, "svc", rc);
  int ok = 0;
  for (int i = 0; i < 40; ++i) {
    if (rpc.Call(0, {}).ok()) ++ok;
  }
  EXPECT_EQ(ok, 40);  // retries mask the loss, successes reset the run
  EXPECT_FALSE(rpc.SuspectedDead());
}

TEST(MessageBusTest, LatencyScalesWithPayload) {
  SimClock clock;
  NetworkConfig net;
  net.latency_per_message = 100;
  net.latency_per_kib = 10;
  MessageBus bus(&clock, net);
  bus.RegisterService("sink", [](std::uint32_t, std::span<const std::uint8_t>) {
    return Payload{};
  });
  ASSERT_TRUE(bus.Call("sink", 0, std::vector<std::uint8_t>(100)).ok());
  const SimTime small = clock.Now();
  ASSERT_TRUE(
      bus.Call("sink", 0, std::vector<std::uint8_t>(64 * 1024)).ok());
  const SimTime large = clock.Now() - small;
  EXPECT_GT(large, small);
}

}  // namespace
}  // namespace rhodos::sim

// Tests for the deterministic fault-injecting TCP proxy, and for the
// sweep farm protocol riding through it: faults corrupt *delivery* —
// fragmented writes, delayed reads, severed connections — never bytes, so
// a sweep run through a hostile link must still produce byte-identical
// results (reconnect + RESUME absorbing the cuts).
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "scenario/scenario.hpp"
#include "util/faultnet.hpp"
#include "util/socket.hpp"

namespace creditflow {
namespace {

// ---- Proxy-level: bytes survive every fault mode -------------------------

TEST(FaultProxy, ShortWritesAndDelaysNeverCorruptBytes) {
  util::Listener upstream = util::Listener::bind("127.0.0.1", 0);

  util::FaultProxy::Options options;
  options.target_port = upstream.port();
  options.seed = 7;
  options.short_write_probability = 1.0;  // fragment every chunk
  options.delay_probability = 0.5;
  options.max_delay_seconds = 0.005;
  util::FaultProxy proxy(options);

  // Echo through the upstream listener on this thread: accept the proxied
  // connection, then mirror traffic while the client thread drives it.
  std::string sent;
  for (int k = 0; k < 200; ++k) {
    sent += "message " + std::to_string(k) + " with some payload bytes\n";
  }
  std::string received;
  std::thread client([&] {
    util::Socket c = util::Socket::connect("127.0.0.1", proxy.port(), 5.0);
    ASSERT_TRUE(c.send_all(sent));
    while (received.size() < sent.size()) {
      const util::IoStatus status = c.recv_some(received, 5.0);
      if (status == util::IoStatus::kTimeout) continue;
      ASSERT_EQ(status, util::IoStatus::kOk);
    }
  });

  util::Socket server;
  for (int attempt = 0; attempt < 500 && !server.valid(); ++attempt) {
    server = upstream.accept();
    if (!server.valid()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  ASSERT_TRUE(server.valid());
  std::string echoed;
  std::size_t echoed_back = 0;
  while (echoed_back < sent.size()) {
    const util::IoStatus status = server.recv_some(echoed, 5.0);
    if (status == util::IoStatus::kTimeout) continue;
    ASSERT_EQ(status, util::IoStatus::kOk);
    ASSERT_TRUE(server.send_all(echoed.substr(echoed_back)));
    echoed_back = echoed.size();
  }
  client.join();

  // Delivery was tortured; the bytes were not.
  EXPECT_EQ(received, sent);
  EXPECT_EQ(echoed, sent);
  const auto counters = proxy.counters();
  EXPECT_EQ(counters.connections, 1u);
  EXPECT_GE(counters.short_writes, 1u);
  EXPECT_EQ(counters.disconnects, 0u);
}

TEST(FaultProxy, DeterministicCutSeversBothHalvesOnce) {
  util::Listener upstream = util::Listener::bind("127.0.0.1", 0);

  util::FaultProxy::Options options;
  options.target_port = upstream.port();
  options.disconnect_after_bytes = 64;
  options.max_disconnects = 1;
  util::FaultProxy proxy(options);

  util::Socket client = util::Socket::connect("127.0.0.1", proxy.port(), 5.0);
  util::Socket server;
  for (int attempt = 0; attempt < 500 && !server.valid(); ++attempt) {
    server = upstream.accept();
    if (!server.valid()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  ASSERT_TRUE(server.valid());

  // 100 bytes through a 64-byte budget: the server receives *exactly* the
  // prefix — a short write and a mid-message disconnect in one event.
  const std::string payload(100, 'x');
  (void)client.send_all(payload);
  std::string delivered;
  while (true) {
    const util::IoStatus status = server.recv_some(delivered, 2.0);
    if (status == util::IoStatus::kTimeout) continue;
    if (status != util::IoStatus::kOk) break;  // the cut
  }
  EXPECT_EQ(delivered, payload.substr(0, 64));
  EXPECT_EQ(proxy.counters().disconnects, 1u);

  // The client half is severed too: its next activity sees a dead peer.
  std::string nothing;
  util::IoStatus client_status = util::IoStatus::kTimeout;
  for (int attempt = 0; attempt < 100; ++attempt) {
    client_status = client.recv_some(nothing, 0.1);
    if (client_status != util::IoStatus::kTimeout) break;
  }
  EXPECT_NE(client_status, util::IoStatus::kOk);
  EXPECT_TRUE(nothing.empty());
}

// ---- Sweep-level: the protocol survives the hostile link -----------------

scenario::ScenarioSpec tiny_base() {
  scenario::ScenarioSpec spec;
  spec.name = "tiny";
  spec.config.protocol.initial_peers = 40;
  spec.config.protocol.max_peers = 40;
  spec.config.protocol.initial_credits = 30;
  spec.config.protocol.seed = 2012;
  spec.config.horizon = 60.0;
  spec.config.snapshot_interval = 15.0;
  return spec;
}

scenario::SweepSpec tiny_sweep() {
  scenario::SweepSpec sweep;
  sweep.axes.push_back(scenario::SweepAxis::parse("credits=20,40"));
  sweep.axes.push_back(scenario::SweepAxis::parse("tax.rate=0,0.2"));
  sweep.seeds = 2;
  return sweep;
}

/// Reference bytes from the single-process executor.
std::string reference_runs_csv() {
  scenario::SweepRunner::Options options;
  options.jobs = 1;
  options.keep_reports = false;
  scenario::SweepRunner runner(tiny_base(), tiny_sweep(), options);
  scenario::ResultSink sink;
  sink.add_all(runner.run());
  return sink.runs_csv();
}

struct SweepThroughProxy {
  std::vector<scenario::RunResult> results;
  scenario::WorkerReport report;
  util::FaultProxy::Counters counters;
};

SweepThroughProxy run_sweep_through(util::FaultProxy::Options fault_options) {
  scenario::Coordinator coordinator(scenario::Coordinator::Options{});
  fault_options.target_port = coordinator.port();
  util::FaultProxy proxy(fault_options);

  SweepThroughProxy out;
  std::string serve_error;
  std::thread serve([&] {
    scenario::SweepRunner::Options options;
    options.keep_reports = false;
    options.executor = &coordinator;
    try {
      out.results =
          scenario::SweepRunner(tiny_base(), tiny_sweep(), options).run();
    } catch (const std::exception& e) {
      serve_error = e.what();
    }
  });
  std::thread worker([&] {
    out.report =
        scenario::run_worker("127.0.0.1", proxy.port(), scenario::WorkerOptions{});
  });
  worker.join();
  serve.join();
  EXPECT_EQ(serve_error, "");
  out.counters = proxy.counters();
  return out;
}

TEST(FaultProxySweep, ShortWriteTortureIsByteIdentical) {
  util::FaultProxy::Options options;
  options.seed = 11;
  options.short_write_probability = 1.0;  // fragment every chunk both ways
  options.delay_probability = 0.25;
  options.max_delay_seconds = 0.002;
  const SweepThroughProxy sweep = run_sweep_through(options);

  EXPECT_TRUE(sweep.report.completed) << sweep.report.error;
  EXPECT_GE(sweep.counters.short_writes, 1u);
  scenario::ResultSink sink;
  sink.add_all(sweep.results);
  EXPECT_EQ(sink.runs_csv(), reference_runs_csv());
}

TEST(FaultProxySweep, MidSweepDisconnectIsAbsorbedByResumeByteIdentical) {
  util::FaultProxy::Options options;
  options.seed = 13;
  // Cut deterministically once the connection has carried the handshake
  // plus some protocol traffic — between a lease grant and its delivery —
  // then let the reconnect live.
  options.disconnect_after_bytes = 2048;
  options.max_disconnects = 1;
  const SweepThroughProxy sweep = run_sweep_through(options);

  EXPECT_TRUE(sweep.report.completed) << sweep.report.error;
  EXPECT_EQ(sweep.counters.disconnects, 1u);
  EXPECT_GE(sweep.report.reconnects, 1u);
  EXPECT_GE(sweep.counters.connections, 2u);  // the original + the resume
  // The run the cut caught undelivered is delivered once, not computed
  // again after the RESUME hands its lease back.
  EXPECT_EQ(sweep.report.duplicates, 0u);
  scenario::ResultSink sink;
  sink.add_all(sweep.results);
  EXPECT_EQ(sink.runs_csv(), reference_runs_csv());
}

}  // namespace
}  // namespace creditflow

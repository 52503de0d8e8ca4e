// prt::GraphCheck: every diagnostic kind on a deliberately broken graph,
// plus no-diagnostic passes over the real QR / Cholesky / LU plans across
// tree shapes, domain sizes (including h = 1 and h = infinity), boundary
// modes, node counts and panel-limited factorizations.
#include <gtest/gtest.h>

#include <string>

#include "chol/vsa_chol.hpp"
#include "lu/vsa_lu.hpp"
#include "prt/graph_check.hpp"
#include "prt/vsa.hpp"
#include "vsaqr/tree_qr.hpp"

namespace pulsarqr::prt {
namespace {

Vsa::Config quiet_cfg() {
  Vsa::Config c;
  c.nodes = 1;
  c.workers_per_node = 1;
  c.watchdog_seconds = 5.0;
  return c;
}

VdpFn nop() {
  return [](VdpContext&) {};
}

Packet bytes_packet(std::size_t bytes, int meta = 0) {
  return Packet::make(bytes, meta);
}

/// The single finding of a report that is expected to have exactly one
/// (copied out: the report is usually a temporary).
Diagnostic only(const GraphReport& rep) {
  EXPECT_EQ(rep.diagnostics.size(), 1u) << rep.to_string();
  return rep.diagnostics.at(0);
}

TEST(GraphCheck, CleanGraphHasNoDiagnostics) {
  Vsa vsa(quiet_cfg());
  vsa.add_vdp(tuple2(0, 0), 3,
              [](VdpContext& ctx) { ctx.push(0, ctx.pop(0)); }, 1, 1);
  vsa.add_vdp(tuple2(0, 1), 3, [](VdpContext& ctx) { ctx.pop(0); }, 1, 0);
  vsa.connect(tuple2(0, 0), 0, tuple2(0, 1), 0, 64);
  vsa.feed(tuple2(0, 0), 0, 64,
           {bytes_packet(8), bytes_packet(8), bytes_packet(8)});
  const GraphReport rep = GraphCheck::check(vsa);
  EXPECT_TRUE(rep.ok());
  EXPECT_TRUE(rep.diagnostics.empty()) << rep.to_string();
}

TEST(GraphCheck, DanglingOutput) {
  Vsa vsa(quiet_cfg());
  vsa.add_vdp(tuple2(1, 0), 2, nop(), 0, 1);
  const Diagnostic& d = only(GraphCheck::check(vsa));
  EXPECT_EQ(d.kind, CheckKind::DanglingOutput);
  EXPECT_EQ(d.severity, Severity::Error);
  EXPECT_EQ(d.vdp, tuple2(1, 0));
  EXPECT_EQ(d.slot, 0);
}

TEST(GraphCheck, UnfedInput) {
  Vsa vsa(quiet_cfg());
  vsa.add_vdp(tuple2(2, 0), 2, nop(), 0, 1);
  vsa.add_vdp(tuple2(2, 1), 2, nop(), 2, 0);  // slot 1 never wired
  vsa.connect(tuple2(2, 0), 0, tuple2(2, 1), 0, 64);
  const Diagnostic& d = only(GraphCheck::check(vsa));
  EXPECT_EQ(d.kind, CheckKind::UnfedInput);
  EXPECT_EQ(d.vdp, tuple2(2, 1));
  EXPECT_EQ(d.slot, 1);
}

TEST(GraphCheck, CounterStarvation) {
  Vsa vsa(quiet_cfg());
  vsa.add_vdp(tuple2(3, 0), 3, nop(), 1, 0);
  vsa.feed(tuple2(3, 0), 0, 64, {bytes_packet(8)});  // 1 packet, 3 firings
  const Diagnostic& d = only(GraphCheck::check(vsa));
  EXPECT_EQ(d.kind, CheckKind::Starvation);
  EXPECT_EQ(d.severity, Severity::Error);
  EXPECT_NE(d.message.find("deadlock"), std::string::npos);
}

TEST(GraphCheck, PacketLeakIsAWarning) {
  Vsa vsa(quiet_cfg());
  vsa.add_vdp(tuple2(4, 0), 1, nop(), 1, 0);
  vsa.feed(tuple2(4, 0), 0, 64,
           {bytes_packet(8), bytes_packet(8), bytes_packet(8)});
  const GraphReport rep = GraphCheck::check(vsa);
  EXPECT_TRUE(rep.ok());  // warnings do not fail the check
  const Diagnostic& d = only(rep);
  EXPECT_EQ(d.kind, CheckKind::PacketLeak);
  EXPECT_EQ(d.severity, Severity::Warning);
}

TEST(GraphCheck, EnabledEmptyCycle) {
  Vsa vsa(quiet_cfg());
  vsa.add_vdp(tuple2(5, 0), 1, nop(), 1, 1);
  vsa.add_vdp(tuple2(5, 1), 1, nop(), 1, 1);
  vsa.connect(tuple2(5, 0), 0, tuple2(5, 1), 0, 64);
  vsa.connect(tuple2(5, 1), 0, tuple2(5, 0), 0, 64);
  const Diagnostic& d = only(GraphCheck::check(vsa));
  EXPECT_EQ(d.kind, CheckKind::EnabledCycle);
  EXPECT_NE(d.message.find("(5,0)"), std::string::npos);
  EXPECT_NE(d.message.find("(5,1)"), std::string::npos);
}

TEST(GraphCheck, OversizeFeed) {
  Vsa vsa(quiet_cfg());
  vsa.add_vdp(tuple2(6, 0), 1, nop(), 1, 0);
  vsa.feed(tuple2(6, 0), 0, /*max_bytes=*/8, {bytes_packet(16)});
  const Diagnostic& d = only(GraphCheck::check(vsa));
  EXPECT_EQ(d.kind, CheckKind::OversizeFeed);
  EXPECT_NE(d.message.find("16"), std::string::npos);
  EXPECT_NE(d.message.find("8"), std::string::npos);
}

TEST(GraphCheck, DuplicateProducerOnInputSlot) {
  Vsa vsa(quiet_cfg());
  vsa.add_vdp(tuple2(7, 0), 1, nop(), 0, 1);
  vsa.add_vdp(tuple2(7, 1), 1, nop(), 0, 1);
  vsa.add_vdp(tuple2(7, 2), 2, nop(), 1, 0);
  vsa.connect(tuple2(7, 0), 0, tuple2(7, 2), 0, 64);
  vsa.connect(tuple2(7, 1), 0, tuple2(7, 2), 0, 64);
  const Diagnostic& d = only(GraphCheck::check(vsa));
  EXPECT_EQ(d.kind, CheckKind::DuplicateProducer);
  EXPECT_EQ(d.vdp, tuple2(7, 2));
}

TEST(GraphCheck, BlockedVdpAllInputsUnconnected) {
  Vsa vsa(quiet_cfg());
  vsa.add_vdp(tuple2(8, 0), 1, nop(), 2, 0);
  const Diagnostic& d = only(GraphCheck::check(vsa));
  EXPECT_EQ(d.kind, CheckKind::BlockedVdp);
  // failure_test depends on this wording for the thrown run() error.
  EXPECT_NE(d.message.find("unconnected input"), std::string::npos);
}

TEST(GraphCheck, BlockedVdpAllInputsStartDisabled) {
  Vsa vsa(quiet_cfg());
  vsa.add_vdp(tuple2(9, 0), 1, nop(), 1, 0);
  vsa.feed(tuple2(9, 0), 0, 64, {bytes_packet(8)}, /*enabled=*/false);
  const Diagnostic& d = only(GraphCheck::check(vsa));
  EXPECT_EQ(d.kind, CheckKind::BlockedVdp);
  EXPECT_NE(d.message.find("disabled"), std::string::npos);
}

TEST(GraphCheck, UnreachableVdp) {
  Vsa vsa(quiet_cfg());
  // A <-> B with the back edge disabled: no enabled cycle, but no source
  // ever reaches either VDP. A is additionally blocked (its only input
  // starts disabled), which suppresses its redundant unreachable finding.
  vsa.add_vdp(tuple2(10, 0), 1, nop(), 1, 1);
  vsa.add_vdp(tuple2(10, 1), 1, nop(), 1, 1);
  vsa.connect(tuple2(10, 0), 0, tuple2(10, 1), 0, 64);
  vsa.connect(tuple2(10, 1), 0, tuple2(10, 0), 0, 64, /*enabled=*/false);
  const GraphReport rep = GraphCheck::check(vsa);
  ASSERT_EQ(rep.diagnostics.size(), 2u) << rep.to_string();
  EXPECT_EQ(rep.diagnostics[0].kind, CheckKind::BlockedVdp);
  EXPECT_EQ(rep.diagnostics[0].vdp, tuple2(10, 0));
  EXPECT_EQ(rep.diagnostics[1].kind, CheckKind::Unreachable);
  EXPECT_EQ(rep.diagnostics[1].vdp, tuple2(10, 1));
}

TEST(GraphCheck, UnknownEndpointAndBadSlot) {
  Vsa vsa(quiet_cfg());
  vsa.add_vdp(tuple2(11, 0), 1, nop(), 0, 1);
  vsa.add_vdp(tuple2(11, 1), 1, nop(), 1, 0);
  vsa.connect(tuple2(11, 0), 0, tuple2(11, 9), 0, 64);  // unknown dst
  vsa.connect(tuple2(11, 0), 3, tuple2(11, 1), 0, 64);  // bad out slot
  const GraphReport rep = GraphCheck::check(vsa);
  EXPECT_FALSE(rep.ok());
  bool unknown = false, bad = false;
  for (const auto& d : rep.diagnostics) {
    unknown |= d.kind == CheckKind::UnknownVdp;
    bad |= d.kind == CheckKind::BadSlot;
  }
  EXPECT_TRUE(unknown) << rep.to_string();
  EXPECT_TRUE(bad) << rep.to_string();
}

TEST(GraphCheck, ReportRendersKindNames) {
  Vsa vsa(quiet_cfg());
  vsa.add_vdp(tuple2(12, 0), 3, nop(), 1, 0);
  vsa.feed(tuple2(12, 0), 0, 64, {bytes_packet(8)});
  const std::string text = GraphCheck::check(vsa).to_string();
  EXPECT_NE(text.find("error starvation"), std::string::npos) << text;
  EXPECT_NE(text.find("1 error(s)"), std::string::npos) << text;
}

TEST(GraphCheck, RunFailsFastOnMalformedGraph) {
  Vsa vsa(quiet_cfg());  // graph_check defaults to on
  vsa.add_vdp(tuple2(13, 0), 3, nop(), 1, 0);
  vsa.feed(tuple2(13, 0), 0, 64, {bytes_packet(8)});
  try {
    vsa.run();
    FAIL() << "expected GraphCheck error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("GraphCheck"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("(13,0)"), std::string::npos);
  }
}

// Regression: run() used to set ran_ BEFORE the graph check, so a retry
// after a lint failure reported the misleading "already ran" instead of
// the actual graph problem. Every retry must re-report the real error.
TEST(GraphCheck, RetryAfterLintFailureReportsTheGraphError) {
  Vsa vsa(quiet_cfg());
  vsa.add_vdp(tuple2(16, 0), 3, nop(), 1, 0);
  vsa.feed(tuple2(16, 0), 0, 64, {bytes_packet(8)});  // starved
  for (int attempt = 0; attempt < 2; ++attempt) {
    try {
      vsa.run();
      FAIL() << "expected GraphCheck error on attempt " << attempt;
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("GraphCheck"), std::string::npos)
          << "attempt " << attempt << ": " << what;
      EXPECT_EQ(what.find("already ran"), std::string::npos)
          << "attempt " << attempt << ": " << what;
    }
  }
}

TEST(GraphCheck, ConfigKnobBypassesTheCheck) {
  Vsa::Config c = quiet_cfg();
  c.graph_check = false;
  c.watchdog_seconds = 0.2;
  Vsa vsa(c);
  vsa.add_vdp(tuple2(14, 0), 3, nop(), 1, 0);
  vsa.feed(tuple2(14, 0), 0, 64, {});  // empty: never ready
  try {
    vsa.run();
    FAIL() << "expected watchdog error";
  } catch (const Error& e) {
    // Reaches the runtime watchdog instead of the static check.
    EXPECT_EQ(std::string(e.what()).find("GraphCheck"), std::string::npos);
  }
}

TEST(GraphCheck, DeclarationsValidateTheirArguments) {
  Vsa vsa(quiet_cfg());
  vsa.add_vdp(tuple2(15, 0), 1, nop(), 1, 1);
  EXPECT_THROW(vsa.declare_output_packets(tuple2(15, 9), 0, 1), Error);
  EXPECT_THROW(vsa.declare_output_packets(tuple2(15, 0), 5, 1), Error);
  EXPECT_THROW(vsa.declare_input_packets(tuple2(15, 0), 0, -2), Error);
}

// ---- the shipped plans lint clean --------------------------------------

vsaqr::TreeQrOptions qr_opt(plan::TreeKind tree, int h,
                            plan::BoundaryMode bm, int nodes = 1) {
  vsaqr::TreeQrOptions opt;
  opt.tree = {tree, h, bm};
  opt.ib = 2;
  opt.nodes = nodes;
  opt.workers_per_node = 2;
  return opt;
}

void expect_clean(const GraphReport& rep, const std::string& what) {
  EXPECT_TRUE(rep.ok()) << what << ":\n" << rep.to_string();
  EXPECT_TRUE(rep.diagnostics.empty()) << what << ":\n" << rep.to_string();
}

TEST(GraphCheck, DeclaredTotalsBalanceAnUnevenConsumer) {
  // P fires 4 times: 4 packets on output 0 but 1 on output 1. C fires 5
  // times: 4 pops on input 0, 1 on input 1. Counted one per firing, both
  // of C's inputs look starved; the declarations balance them.
  for (const bool declared : {false, true}) {
    SCOPED_TRACE(declared ? "declared" : "undeclared");
    Vsa vsa(quiet_cfg());
    vsa.add_vdp(tuple2(16, 0), 4, nop(), 0, 2);
    vsa.add_vdp(tuple2(16, 1), 5, nop(), 2, 0);
    vsa.connect(tuple2(16, 0), 0, tuple2(16, 1), 0, 8, /*enabled=*/false);
    vsa.connect(tuple2(16, 0), 1, tuple2(16, 1), 1, 8);
    if (declared) {
      vsa.declare_output_packets(tuple2(16, 0), 1, 1);
      vsa.declare_input_packets(tuple2(16, 1), 0, 4);
      vsa.declare_input_packets(tuple2(16, 1), 1, 1);
    }
    const GraphReport rep = GraphCheck::check(vsa);
    if (declared) {
      expect_clean(rep, "declared totals");
      continue;
    }
    ASSERT_EQ(rep.diagnostics.size(), 2u) << rep.to_string();
    for (int s = 0; s < 2; ++s) {
      EXPECT_EQ(rep.diagnostics[s].kind, CheckKind::Starvation);
      EXPECT_EQ(rep.diagnostics[s].vdp, tuple2(16, 1));
      EXPECT_EQ(rep.diagnostics[s].slot, s);
    }
  }
}

TEST(GraphCheckPlans, TreeQrSweepIsClean) {
  const int nb = 4;
  const struct { int mt, nt; } shapes[] = {{1, 1}, {2, 2}, {4, 3},
                                           {6, 4}, {8, 2}, {2, 4}};
  // h = 1 degenerates to a pure binary tree over singleton domains;
  // h = 100 >= mt degenerates to a single flat domain.
  const int hs[] = {1, 2, 3, 100};
  for (const auto& s : shapes) {
    const TileMatrix a(s.mt * nb, s.nt * nb, nb);
    for (int h : hs) {
      for (auto bm : {plan::BoundaryMode::Fixed, plan::BoundaryMode::Shifted}) {
        for (int nodes : {1, 2}) {
          const auto opt =
              qr_opt(plan::TreeKind::BinaryOnFlat, h, bm, nodes);
          expect_clean(vsaqr::lint_tree_qr(a, opt),
                       "qr mt=" + std::to_string(s.mt) +
                           " nt=" + std::to_string(s.nt) +
                           " h=" + std::to_string(h));
        }
      }
    }
    expect_clean(
        vsaqr::lint_tree_qr(
            a, qr_opt(plan::TreeKind::Flat, 1, plan::BoundaryMode::Shifted)),
        "qr flat");
  }
}

TEST(GraphCheckPlans, BinaryTsqrIsClean) {
  const int nb = 4;
  for (int mt : {1, 2, 3, 7, 8}) {
    const TileMatrix a(mt * nb, nb, nb);
    expect_clean(
        vsaqr::lint_tree_qr(a, qr_opt(plan::TreeKind::Binary, 1,
                                      plan::BoundaryMode::Shifted)),
        "tsqr mt=" + std::to_string(mt));
  }
}

TEST(GraphCheckPlans, PanelLimitedQrIsClean) {
  const int nb = 4;
  const TileMatrix a(6 * nb, 5 * nb, nb);
  for (int panels : {1, 2, 3}) {
    auto opt = qr_opt(plan::TreeKind::BinaryOnFlat, 2,
                      plan::BoundaryMode::Shifted);
    opt.panel_columns = panels;
    expect_clean(vsaqr::lint_tree_qr(a, opt),
                 "qr panels=" + std::to_string(panels));
  }
}

// ---- flows -----------------------------------------------------------------

TEST(GraphCheckFlow, FlowsReportPacketTotals) {
  Vsa::Config c = quiet_cfg();
  c.nodes = 2;
  Vsa vsa(c);
  vsa.add_vdp(tuple2(56, 0), 2,
              [](VdpContext& ctx) { ctx.push(0, ctx.pop(0)); }, 1, 1);
  vsa.add_vdp(tuple2(56, 1), 2, [](VdpContext& ctx) { ctx.pop(0); }, 1, 0);
  vsa.map_vdp(tuple2(56, 0), 0);
  vsa.map_vdp(tuple2(56, 1), c.workers_per_node);  // first worker of node 1
  vsa.connect(tuple2(56, 0), 0, tuple2(56, 1), 0, 64);
  vsa.feed(tuple2(56, 0), 0, 64, {bytes_packet(8), bytes_packet(8)});
  const GraphReport rep = GraphCheck::check(vsa);
  ASSERT_EQ(rep.flows.size(), 2u) << rep.to_string();
  const ChannelFlow& feed = rep.flows[1];  // declaration order: edge, feed
  EXPECT_TRUE(feed.from_feed);
  EXPECT_FALSE(feed.remote);
  EXPECT_EQ(feed.fed, 2);
  EXPECT_EQ(feed.delivered, 2);
  EXPECT_EQ(feed.consumed, 2);
  const ChannelFlow& edge = rep.flows[0];
  EXPECT_FALSE(edge.from_feed);
  EXPECT_TRUE(edge.remote);
  EXPECT_EQ(edge.src, tuple2(56, 0));
  EXPECT_EQ(edge.dst, tuple2(56, 1));
  EXPECT_EQ(edge.fed, 0);
  EXPECT_EQ(edge.delivered, 2);
  EXPECT_EQ(edge.consumed, 2);
  EXPECT_EQ(edge.max_bytes, 64u);
  EXPECT_EQ(rep.remote_frames(), 2);
  EXPECT_EQ(rep.remote_bytes_bound(), 128);
  EXPECT_EQ(rep.node_fires, (std::vector<long long>{2, 2}));
  // JSON rendering carries the same numbers for CI gating, one flow
  // object per channel with exactly these keys.
  const std::string js = rep.to_json();
  EXPECT_NE(js.find("\"flows\":[{\"src\":\"(56,0)\",\"src_slot\":0,"
                    "\"dst\":\"(56,1)\",\"dst_slot\":0,\"remote\":true,"
                    "\"fed\":0,\"delivered\":2,\"consumed\":2,"
                    "\"max_bytes\":64},{\"src\":\"feed\",\"src_slot\":-1,"
                    "\"dst\":\"(56,0)\",\"dst_slot\":0,\"remote\":false,"
                    "\"fed\":2,\"delivered\":2,\"consumed\":2,"
                    "\"max_bytes\":64}],\"node_fires\":[2,2]}"),
            std::string::npos)
      << js;
}

TEST(GraphCheckPlans, CholeskySweepIsClean) {
  const int nb = 4;
  for (int mt : {1, 2, 3, 5, 8}) {
    for (int nodes : {1, 2}) {
      chol::VsaCholOptions opt;
      opt.nodes = nodes;
      const TileMatrix a(mt * nb, mt * nb, nb);
      expect_clean(chol::lint_vsa_cholesky(a, opt),
                   "chol mt=" + std::to_string(mt));
    }
  }
}

TEST(GraphCheckPlans, LuSweepIsClean) {
  const int nb = 4;
  const struct { int mt, nt; } shapes[] = {{1, 1}, {3, 3}, {5, 3}, {3, 5},
                                           {8, 8}};
  for (const auto& s : shapes) {
    for (int nodes : {1, 2}) {
      lu::VsaLuOptions opt;
      opt.nodes = nodes;
      const TileMatrix a(s.mt * nb, s.nt * nb, nb);
      expect_clean(lu::lint_vsa_lu(a, opt),
                   "lu mt=" + std::to_string(s.mt) +
                       " nt=" + std::to_string(s.nt));
    }
  }
}

}  // namespace
}  // namespace pulsarqr::prt

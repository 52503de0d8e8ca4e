// vsa_lint — static verification of VSA plans and the transport protocol.
//
// Subcommand `lint` (the default) builds the requested systolic array
// (QR, Cholesky, LU, or all three) for a given tile shape and runs
// prt::GraphCheck over the constructed graph: wiring, packet balance,
// enabled-channel cycles, oversize feeds and reachability, plus each
// channel's packet totals and the placement's traffic line. No kernel
// ever runs and no thread is spawned, so arbitrarily large plans lint in
// milliseconds.
//
//   vsa_lint [lint] [--algo qr|chol|lu|all] --mt 8 --nt 6
//            [--nb 8 --ib 4 --tree hier --h 2 --boundary shifted
//             --nodes 2 --workers 2 --panels 3 --verbose --json]
//
// Subcommand `verify-protocol` runs the bounded model checker over the
// net::Reliable ack/retransmit protocol (prt::verify): every
// drop/duplicate/reorder/timeout interleaving within the budgets,
// asserting exactly-once in-order delivery and livelock freedom.
//
//   vsa_lint verify-protocol [--window 3 --faults 2 --ticks -1
//                             --max-states 4000000 --json]
//
// mt/nt are TILE counts (the matrix is mt*nb by nt*nb; chol and lu use
// mt x mt). `--json` replaces the human output with one machine-readable
// JSON object on stdout for CI gating.
//
// Exit codes, one per failure class:
//   0  everything verified clean
//   1  a linted plan has an error-severity graph finding
//   2  usage error (unknown flag/value, plan construction failure)
//   3  protocol violation or truncated (incomplete) model exploration
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "chol/vsa_chol.hpp"
#include "cli_args.hpp"
#include "lu/vsa_lu.hpp"
#include "prt/verify.hpp"
#include "vsaqr/tree_qr.hpp"

using namespace pulsarqr;

namespace {

using cli::Args;

void json_escape(std::string& out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

/// One linted plan, retained so --json can emit them all at the end.
struct PlanVerdict {
  std::string algo;
  std::string shape;
  prt::GraphReport report;
};

/// Print one plan's verdict and its traffic line (human mode); returns
/// its error count.
int report(const PlanVerdict& v, bool verbose, bool json) {
  if (json) return v.report.errors();
  if (v.report.ok() && v.report.diagnostics.empty()) {
    std::printf("%-5s %s: OK\n", v.algo.c_str(), v.shape.c_str());
  } else {
    std::printf("%-5s %s: %d error(s), %d warning(s)\n", v.algo.c_str(),
                v.shape.c_str(), v.report.errors(), v.report.warnings());
    verbose = true;
  }
  if (verbose && !v.report.diagnostics.empty()) {
    std::printf("%s\n", v.report.to_string().c_str());  // has the traffic line
  } else {
    std::printf("  %s\n", v.report.traffic().c_str());
  }
  return v.report.errors();
}

int run_lint(const Args& a) {
  const std::string algo = a.gets("algo", "all");
  const int mt = a.geti("mt", 8);
  const int nt = a.geti("nt", 6);
  const int nb = a.geti("nb", 8);
  const int nodes = a.geti("nodes", 1);
  const int workers = a.geti("workers", 2);
  const bool verbose = a.has("verbose");
  const bool json = a.has("json");
  if (mt < 1 || nt < 1 || nb < 1) {
    std::fprintf(stderr, "need --mt >= 1, --nt >= 1, --nb >= 1\n");
    return 2;
  }
  if (algo != "qr" && algo != "chol" && algo != "lu" && algo != "all") {
    std::fprintf(stderr, "unknown --algo %s (qr|chol|lu|all)\n", algo.c_str());
    return 2;
  }
  // The QR plan's own flags are read only when QR is linted, so a QR flag
  // given with --algo chol or lu is rejected as unread.
  const bool qr = algo == "qr" || algo == "all";
  vsaqr::TreeQrOptions qr_opt;
  const std::string tree = qr ? a.gets("tree", "hier") : "";
  if (tree == "flat") {
    qr_opt.tree.tree = plan::TreeKind::Flat;
  } else if (tree == "binary") {
    qr_opt.tree.tree = plan::TreeKind::Binary;
  } else if (tree == "hier" || tree == "binary-on-flat") {
    qr_opt.tree.tree = plan::TreeKind::BinaryOnFlat;
  } else if (qr) {
    std::fprintf(stderr, "unknown --tree %s (flat|binary|hier)\n",
                 tree.c_str());
    return 2;
  }
  if (qr) {
    qr_opt.tree.domain_size = a.geti("h", 6);
    qr_opt.tree.boundary = a.gets("boundary", "shifted") == "fixed"
                               ? plan::BoundaryMode::Fixed
                               : plan::BoundaryMode::Shifted;
    qr_opt.ib = std::min(a.geti("ib", 4), nb);
    qr_opt.panel_columns = a.geti("panels", -1);
    qr_opt.nodes = nodes;
    qr_opt.workers_per_node = workers;
  }
  a.reject_unread();

  std::vector<PlanVerdict> verdicts;
  try {
    if (qr) {
      const TileMatrix zero(mt * nb, nt * nb, nb);
      verdicts.push_back(
          {"qr",
           "mt=" + std::to_string(mt) + " nt=" + std::to_string(nt) +
               " tree=" + tree +
               " h=" + std::to_string(qr_opt.tree.domain_size),
           vsaqr::lint_tree_qr(zero, qr_opt)});
    }
    if (algo == "chol" || algo == "all") {
      chol::VsaCholOptions opt;
      opt.nodes = nodes;
      opt.workers_per_node = workers;
      const TileMatrix zero(mt * nb, mt * nb, nb);
      verdicts.push_back({"chol", "mt=" + std::to_string(mt),
                          chol::lint_vsa_cholesky(zero, opt)});
    }
    if (algo == "lu" || algo == "all") {
      lu::VsaLuOptions opt;
      opt.nodes = nodes;
      opt.workers_per_node = workers;
      const TileMatrix zero(mt * nb, mt * nb, nb);
      verdicts.push_back(
          {"lu", "mt=" + std::to_string(mt), lu::lint_vsa_lu(zero, opt)});
    }
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }

  int errors = 0;
  for (const PlanVerdict& v : verdicts) errors += report(v, verbose, json);
  if (json) {
    std::string out = "{\"plans\":[";
    for (std::size_t i = 0; i < verdicts.size(); ++i) {
      if (i != 0) out += ',';
      out += "{\"algo\":\"";
      json_escape(out, verdicts[i].algo);
      out += "\",\"shape\":\"";
      json_escape(out, verdicts[i].shape);
      out += "\",\"report\":";
      out += verdicts[i].report.to_json();
      out += '}';
    }
    out += "],\"errors\":" + std::to_string(errors) + "}";
    std::printf("%s\n", out.c_str());
  }
  return errors > 0 ? 1 : 0;
}

int run_verify_protocol(const Args& a) {
  prt::verify::ReliableModelOptions opt;
  opt.window = a.geti("window", opt.window);
  opt.max_faults = a.geti("faults", opt.max_faults);
  opt.max_ticks = a.geti("ticks", opt.max_ticks);
  opt.max_depth = a.geti("max-depth", opt.max_depth);
  opt.max_states = a.getll("max-states", opt.max_states);
  const bool json = a.has("json");
  a.reject_unread();
  if (opt.window < 1 || opt.max_faults < 0) {
    std::fprintf(stderr, "need --window >= 1 and --faults >= 0\n");
    return 2;
  }
  const prt::verify::ReliableModelResult res =
      prt::verify::check_reliable(opt);
  if (json) {
    std::string out = "{\"window\":" + std::to_string(opt.window) +
                      ",\"max_faults\":" + std::to_string(opt.max_faults) +
                      ",\"states\":" + std::to_string(res.states) +
                      ",\"transitions\":" + std::to_string(res.transitions) +
                      ",\"executions\":" + std::to_string(res.executions) +
                      ",\"depth\":" + std::to_string(res.depth) +
                      ",\"truncated\":";
    out += res.truncated ? "true" : "false";
    out += ",\"violations\":[";
    for (std::size_t i = 0; i < res.violations.size(); ++i) {
      if (i != 0) out += ',';
      out += '"';
      json_escape(out, res.violations[i]);
      out += '"';
    }
    out += "]}";
    std::printf("%s\n", out.c_str());
  } else {
    std::printf("%s\n", res.to_string().c_str());
  }
  return res.ok() ? 0 : 3;
}

}  // namespace

int main(int argc, char** argv) {
  // Bare flags default to `lint`.
  const bool named = argc > 1 && std::strncmp(argv[1], "--", 2) != 0;
  const std::string sub = named ? argv[1] : "lint";
  const Args a = cli::parse(argc, argv, named ? 2 : 1);
  if (sub == "lint") return run_lint(a);
  if (sub == "verify-protocol") return run_verify_protocol(a);
  std::fprintf(stderr, "unknown subcommand %s (lint|verify-protocol)\n",
               sub.c_str());
  return 2;
}

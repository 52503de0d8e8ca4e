// Construction of the 3D Virtual Systolic Array for hierarchical tree QR
// (Section V-C, Figure 8 of the paper).
//
// Array layout, per panel step k:
//   * one Factor VDP  F(k,d)   = tuple (0,k,d)    per domain d  [red]
//   * one Update VDP  U(k,d,l) = tuple (1,k,d,l)  per domain and trailing
//     column l                                              [orange]
//   * one TtFactor VDP B(k,p)  = tuple (2,k,p)    per binary pair p [blue]
//   * one TtUpdate VDP BU(k,p,l) = tuple (3,k,p,l)           [blue]
//
// Data movement:
//   * Column tiles stream "down" the steps: U(k,d,l) keeps the first tile
//     it sees (its domain head's row), combines every further tile with it
//     (tsmqr) and forwards the result to step k+1 through a solid channel.
//   * (V,T) transformation packets stream "right" along each step through
//     per-domain by-passing chains F(k,d) -> U(k,d,k+1) -> U(k,d,k+2) ...,
//     and per-pair chains B(k,p) -> BU(k,p,k+1) -> ... Each VDP forwards
//     the packet before using it, overlapping communication with compute.
//   * Domain-top tiles leave the flat pipelines through dashed channels
//     into the binary tree (F->B for the panel column, U->BU for trailing
//     columns); each pair's loser tile re-enters step k+1's flat pipeline
//     as that domain's LAST expected tile, through a dashed channel that
//     the consumer keeps disabled until it has consumed everything else —
//     the overlap mechanism of Figure 7(b). With fixed boundaries the
//     loser is the FIRST expected tile of its next-step domain, so the
//     consumer stalls on the binary tree, reproducing Figure 7(a).
//
// Finalized tiles (eliminated V tiles, binary losers, and each step's
// surviving R row) exit the array into the shared ResultStore together
// with their T factors.
#include <algorithm>
#include <map>
#include <memory>
#include <utility>

#include "blas/blas.hpp"
#include "kernels/tile_kernels.hpp"
#include "plan/domains.hpp"
#include "prt/graph_check.hpp"
#include "vsaqr/codec.hpp"
#include "vsaqr/result_store.hpp"
#include "vsaqr/tree_qr.hpp"

namespace pulsarqr::vsaqr {

namespace {

using prt::Packet;
using prt::Tuple;
using prt::VdpContext;

Tuple f_tuple(int k, int d) { return Tuple{0, k, d}; }
Tuple u_tuple(int k, int d, int l) { return Tuple{1, k, d, l}; }
Tuple b_tuple(int k, int p) { return Tuple{2, k, p}; }
Tuple bu_tuple(int k, int p, int l) { return Tuple{3, k, p, l}; }

/// A channel endpoint on a producer VDP.
struct Producer {
  Tuple vdp;
  int slot = -1;
};

/// Shared configuration of a flat-pipeline VDP (F or U).
struct FlatCfg {
  int k = 0;        ///< panel step
  int l = 0;        ///< column handled (== k for F)
  int pw = 0;       ///< panel width (tile columns of panel k)
  int ib = 0;
  bool is_factor = false;
  std::vector<int> rows;      ///< rows in consumption order
  std::vector<int> row_slot;  ///< input slot of each row's channel
  int vt_in = -1;             ///< U only: transformation-chain input
  int vt_out = -1;
  int solid_out = -1;  ///< U only: stream to step k+1
  int top_out = -1;    ///< F: R tile to binary; U: top tile to BU; -1 = sink
};

/// Configuration of a binary VDP (B or BU).
struct BinCfg {
  int k = 0;
  int l = 0;  ///< column (== k for B)
  int pw = 0;
  int ib = 0;
  int winner = 0;
  int loser = 0;
  int vt_out = -1;
  int win_out = -1;  ///< winner tile onward; -1 = deposit final
  int c2_out = -1;   ///< BU only: loser tile to next step (dashed)
};

struct FlatState {
  int idx = 0;
  Packet held;
  Matrix t;
};

// After consuming the packet of row `idx`, switch the active tile-input
// channel if the next expected row arrives on a different channel (the
// paper's dynamic enable/disable of the dashed channels).
void advance_tile_slot(VdpContext& ctx, const FlatCfg& cfg, int idx) {
  if (idx + 1 < static_cast<int>(cfg.rows.size()) &&
      cfg.row_slot[idx + 1] != cfg.row_slot[idx]) {
    ctx.disable_input(cfg.row_slot[idx]);
    ctx.enable_input(cfg.row_slot[idx + 1]);
  }
}

// Flat factor VDP (red): flat-tree reduction of one domain's panel tiles.
void factor_fire(VdpContext& ctx, const FlatCfg& cfg) {
  auto& st = ctx.local<FlatState>();
  const int idx = st.idx++;
  const int r = cfg.rows[idx];
  Packet tile = ctx.pop(cfg.row_slot[idx]);
  PQR_ASSERT(tile.meta() == r, "tree-qr: factor VDP received wrong tile row");
  advance_tile_slot(ctx, cfg, idx);
  auto& store = ctx.global<ResultStore>();
  kernels::Workspace& ws = kernels::tls_workspace();
  if (idx == 0) {
    st.held = std::move(tile);
    st.t = Matrix(cfg.ib, cfg.pw);
    MatrixView v = tile_view(st.held);
    kernels::geqrt(v, cfg.ib, st.t.view(), ws);
    store.put_tg(r, cfg.k, st.t.view());
    if (cfg.vt_out >= 0) ctx.push(cfg.vt_out, encode_vt(v, st.t.view(), r));
  } else {
    MatrixView v2 = tile_view(tile);
    MatrixView held = tile_view(st.held);
    PQR_ASSERT(held.rows >= cfg.pw, "tree-qr: short tile used as survivor");
    kernels::tsqrt(held.block(0, 0, cfg.pw, cfg.pw), v2, cfg.ib, st.t.view(),
                   ws);
    store.put_tt(r, cfg.k, st.t.view());
    store.put_tile(r, cfg.k, v2);  // eliminated: final for this column
    if (cfg.vt_out >= 0) ctx.push(cfg.vt_out, encode_vt(v2, st.t.view(), r));
  }
  if (idx == static_cast<int>(cfg.rows.size()) - 1) {
    if (cfg.top_out >= 0) {
      ctx.push(cfg.top_out, std::move(st.held));
    } else {
      store.put_tile(cfg.rows[0], cfg.k, tile_view(st.held));
    }
  }
}

// Flat update VDP (orange): applies the domain's transformations to one
// trailing column; keeps the head row's tile, streams the rest.
void update_fire(VdpContext& ctx, const FlatCfg& cfg) {
  auto& st = ctx.local<FlatState>();
  const int idx = st.idx++;
  Packet vt = ctx.pop(cfg.vt_in);
  if (cfg.vt_out >= 0) ctx.push(cfg.vt_out, vt);  // by-pass before use
  Packet tile = ctx.pop(cfg.row_slot[idx]);
  PQR_ASSERT(tile.meta() == cfg.rows[idx],
             "tree-qr: update VDP received wrong tile row");
  advance_tile_slot(ctx, cfg, idx);
  const VtView w = vt_view(vt);
  kernels::Workspace& ws = kernels::tls_workspace();
  if (idx == 0) {
    st.held = std::move(tile);
    kernels::ormqr(blas::Trans::Yes, w.v, w.t, cfg.ib, tile_view(st.held), ws);
  } else {
    kernels::tsmqr(blas::Trans::Yes, w.v, w.t, cfg.ib, tile_view(st.held),
                   tile_view(tile), ws);
    if (cfg.solid_out >= 0) {
      ctx.push(cfg.solid_out, std::move(tile));
    } else {
      // Last panel: this row of Q^T [trailing columns] is final.
      ctx.global<ResultStore>().put_tile(cfg.rows[idx], cfg.l,
                                         tile_view(tile));
    }
  }
  if (idx == static_cast<int>(cfg.rows.size()) - 1) {
    if (cfg.top_out >= 0) {
      ctx.push(cfg.top_out, std::move(st.held));
    } else {
      ctx.global<ResultStore>().put_tile(cfg.rows[0], cfg.l,
                                         tile_view(st.held));
    }
  }
}

// Binary factor VDP (blue): one ttqrt of two domain-top R tiles.
void tt_factor_fire(VdpContext& ctx, const BinCfg& cfg) {
  Packet rw = ctx.pop(0);
  Packet rl = ctx.pop(1);
  PQR_ASSERT(rw.meta() == cfg.winner && rl.meta() == cfg.loser,
             "tree-qr: binary VDP received wrong tiles");
  MatrixView w = tile_view(rw);
  MatrixView l = tile_view(rl);
  PQR_ASSERT(w.rows >= cfg.pw, "tree-qr: short tile used as tt survivor");
  // T is consumed by the store/codec copies below, so a frame-scoped
  // workspace buffer replaces the old per-firing heap Matrix. ttqrt leaves
  // T's unreferenced entries as it found them; zeroing them first makes
  // the deposit the same bytes in every incarnation of this VDP, which a
  // crash-recovery replay is checked against.
  kernels::Workspace& ws = kernels::tls_workspace();
  kernels::WsFrame frame(ws);
  MatrixView t = ws.matrix(cfg.ib, cfg.pw);
  blas::laset_all(0.0, 0.0, t);
  kernels::ttqrt(w.block(0, 0, cfg.pw, cfg.pw), l, cfg.ib, t, ws);
  auto& store = ctx.global<ResultStore>();
  store.put_tt(cfg.loser, cfg.k, t);
  store.put_tile(cfg.loser, cfg.k, l);  // loser: final for this column
  if (cfg.vt_out >= 0) ctx.push(cfg.vt_out, encode_vt(l, t, cfg.loser));
  if (cfg.win_out >= 0) {
    ctx.push(cfg.win_out, std::move(rw));
  } else {
    store.put_tile(cfg.winner, cfg.k, w);  // overall survivor: R(k,k)
  }
}

// Binary update VDP (blue): one ttmqr on the pair's trailing tiles at
// column l; the winner tile moves up the tree, the loser re-enters the
// next step's flat pipeline through the dashed channel.
void tt_update_fire(VdpContext& ctx, const BinCfg& cfg) {
  Packet vt = ctx.pop(2);
  if (cfg.vt_out >= 0) ctx.push(cfg.vt_out, vt);  // by-pass before use
  Packet c1 = ctx.pop(0);
  Packet c2 = ctx.pop(1);
  PQR_ASSERT(c1.meta() == cfg.winner && c2.meta() == cfg.loser,
             "tree-qr: binary update received wrong tiles");
  const VtView w = vt_view(vt);
  kernels::ttmqr(blas::Trans::Yes, w.v, w.t, cfg.ib, tile_view(c1),
                 tile_view(c2), kernels::tls_workspace());
  if (cfg.win_out >= 0) {
    ctx.push(cfg.win_out, std::move(c1));
  } else {
    ctx.global<ResultStore>().put_tile(cfg.winner, cfg.l, tile_view(c1));
  }
  if (cfg.c2_out >= 0) {
    ctx.push(cfg.c2_out, std::move(c2));
  } else {
    ctx.global<ResultStore>().put_tile(cfg.loser, cfg.l, tile_view(c2));
  }
}

/// One binary reduction pair.
struct PairInfo {
  int winner = 0;
  int loser = 0;
  int level = 0;
};

struct BinaryStructure {
  std::vector<PairInfo> pairs;  ///< level-major order
  /// Pair indices each head participates in, in order.
  std::map<int, std::vector<int>> pairs_of;
};

// GraphCheck balance declarations shared by the factorization and apply
// builders. Tile-input slots consume one packet per row routed to them
// (not one per firing once channels are grouped), top_out emits a single
// packet at the last firing, and solid_out skips the held head row.
void declare_flat_balance(prt::Vsa& vsa, const Tuple& tup,
                          const FlatCfg& cfg) {
  std::vector<long long> per_slot;
  for (int s : cfg.row_slot) {
    if (s >= static_cast<int>(per_slot.size())) per_slot.resize(s + 1, 0);
    ++per_slot[s];
  }
  for (std::size_t s = 0; s < per_slot.size(); ++s) {
    vsa.declare_input_packets(tup, static_cast<int>(s), per_slot[s]);
  }
  if (cfg.top_out >= 0) vsa.declare_output_packets(tup, cfg.top_out, 1);
  if (cfg.solid_out >= 0) {
    vsa.declare_output_packets(tup, cfg.solid_out,
                               static_cast<long long>(cfg.rows.size()) - 1);
  }
}

// Worker threads of tree QR's flat VDPs (Section V-D), shared by the
// factorization and apply builders; binary VDPs take their winner-side
// child's thread instead. Each panel step's flat VDPs, in creation order
// (domain-major, then column), are cut into contiguous blocks of
// max(workers_per_node, ceil(count / nodes)); blocks go to the nodes
// cyclically, continuing across steps, and the worker inside a node is
// the creation counter mod workers_per_node. On one node this is plain
// cyclic placement over the threads. With many VDPs per step it keeps a
// domain's pipeline, and the rows it streams to the next step, on one
// node, so only the binary merges and the block edges cross nodes
// (the row-block layout TSQR/CAQR assumes).
class FlatPlacement {
 public:
  FlatPlacement(int nodes, int workers_per_node)
      : nodes_(nodes), wpn_(workers_per_node) {}

  /// Starts a panel step that creates `count` flat VDPs.
  void begin_step(int count) {
    blocks_ += (placed_ + block_ - 1) / block_;
    block_ = std::max(wpn_, (count + nodes_ - 1) / nodes_);
    placed_ = 0;
  }

  /// Global thread of the step's next flat VDP.
  int next() {
    const int node = (blocks_ + placed_++ / block_) % nodes_;
    return node * wpn_ + counter_++ % wpn_;
  }

 private:
  int nodes_;
  int wpn_;
  int counter_ = 0;  ///< flat VDPs created so far, over all steps
  int blocks_ = 0;   ///< blocks used by earlier steps
  int block_ = 1;    ///< this step's block length
  int placed_ = 0;   ///< flat VDPs placed in this step
};

BinaryStructure make_binary(const std::vector<plan::Domain>& domains) {
  BinaryStructure bs;
  std::vector<int> heads;
  for (const auto& d : domains) heads.push_back(d.head());
  int level = 0;
  while (heads.size() > 1) {
    for (const auto& [w, l] : plan::binary_level(heads)) {
      const int idx = static_cast<int>(bs.pairs.size());
      bs.pairs.push_back({w, l, level});
      bs.pairs_of[w].push_back(idx);
      bs.pairs_of[l].push_back(idx);
    }
    ++level;
  }
  return bs;
}

class Builder {
 public:
  Builder(const TileMatrix& a, const TreeQrOptions& opt)
      : a_(a),
        opt_(opt),
        vsa_(opt),
        store_(std::make_shared<ResultStore>(a.rows(), a.cols(), a.nb(),
                                             opt.ib, opt.transport)),
        placement_(opt.nodes, opt.workers_per_node) {
    vsa_.set_global(store_);
    // A respawned node re-deposits what its dead incarnation published.
    if (opt.max_respawns > 0) store_->enable_dedup();
    tile_bytes_ = tile_packet_bytes(a.nb(), a.nb());
    vt_bytes_ = vt_packet_bytes(a.nb(), a.nb(), opt.ib);
  }

  void build() {
    panels_ = std::min(a_.mt(), a_.nt());
    if (opt_.panel_columns > 0) panels_ = std::min(panels_, opt_.panel_columns);
    for (int k = 0; k < panels_; ++k) build_step(k);
  }

  /// Static analysis of the constructed graph without executing it.
  prt::GraphReport lint() {
    build();
    return prt::GraphCheck::check(vsa_);
  }

  TreeQrRun run() {
    build();
    auto stats = vsa_.run();
    TreeQrRun out{
        store_->finish(plan::ReductionPlan(a_.mt(), a_.nt(), opt_.tree,
                                           opt_.panel_columns),
                       opt_.ib),
        stats,
        {},
        vdp_count_,
        channel_count_};
    if (opt_.trace) out.events = vsa_.recorder().collect();
    return out;
  }

 private:
  void connect(const Producer& src, const Tuple& dst, int slot,
               std::size_t bytes, bool enabled = true) {
    vsa_.connect(src.vdp, src.slot, dst, slot, bytes, enabled);
    ++channel_count_;
  }

  /// Feed the initial tiles of step 0 or wire the tile channels of step k.
  /// Returns (rows order, slot per row, number of tile slots).
  void wire_tile_inputs(const Tuple& dst, const std::vector<int>& rows, int l,
                        FlatCfg& cfg) {
    cfg.rows = rows;
    cfg.row_slot.resize(rows.size());
    if (cfg.k == 0) {
      // Step 0: one prefilled source channel carries the whole domain.
      std::vector<Packet> initial;
      for (int r : rows) {
        initial.push_back(encode_tile(a_.tile(r, l), r));
      }
      vsa_.feed(dst, 0, tile_bytes_, std::move(initial));
      ++channel_count_;
      for (auto& s : cfg.row_slot) s = 0;
      cfg.vt_in = 1;
      return;
    }
    // Group consecutive rows by producer; one channel per group. Only the
    // first group's channel starts enabled — the VDP walks the schedule.
    int slot = -1;
    const Producer* prev = nullptr;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const auto it = producers_.find({rows[i], l});
      PQR_ASSERT(it != producers_.end(), "tree-qr: no producer for tile");
      const Producer& p = it->second;
      if (prev == nullptr || !(prev->vdp == p.vdp && prev->slot == p.slot)) {
        ++slot;
        connect(p, dst, slot, tile_bytes_, /*enabled=*/slot == 0);
        prev = &it->second;
      }
      cfg.row_slot[i] = slot;
    }
    cfg.vt_in = slot + 1;
  }

  void build_step(int k) {
    const int mt = a_.mt();
    const int nt = a_.nt();
    const int pw = a_.tile_cols(k);
    const auto domains = plan::domains_for_panel(mt, k, opt_.tree);
    const auto bs = make_binary(domains);
    const bool has_binary = domains.size() > 1;

    std::map<std::pair<int, int>, Producer> next_producers;
    std::map<int, int> dom_of_head;
    for (std::size_t d = 0; d < domains.size(); ++d) {
      dom_of_head[domains[d].head()] = static_cast<int>(d);
    }
    // Threads of the flat VDPs (binary parents inherit the winner's).
    std::map<std::pair<int, int>, int> f_thread;  // (d, l) -> thread
    placement_.begin_step(static_cast<int>(domains.size()) * (nt - k));

    // ---- flat pipelines --------------------------------------------------
    for (std::size_t d = 0; d < domains.size(); ++d) {
      const auto& dom = domains[d];
      std::vector<int> rows;
      for (int r = dom.begin; r < dom.end; ++r) rows.push_back(r);

      for (int l = k; l < nt; ++l) {
        const bool is_factor = l == k;
        auto cfg = std::make_shared<FlatCfg>();
        cfg->k = k;
        cfg->l = l;
        cfg->pw = pw;
        cfg->ib = opt_.ib;
        cfg->is_factor = is_factor;
        const Tuple tup =
            is_factor ? f_tuple(k, static_cast<int>(d))
                      : u_tuple(k, static_cast<int>(d), l);

        // Output slot layout (allocated in a fixed order).
        int next_out = 0;
        if (is_factor) {
          if (k + 1 < nt) cfg->vt_out = next_out++;
          if (has_binary) cfg->top_out = next_out++;
        } else {
          if (l + 1 < nt) cfg->vt_out = next_out++;
          // At the last panel there is no next step: streamed tiles are
          // final (they are rows of Q^T applied to the trailing columns).
          if (rows.size() > 1 && k + 1 < panels_) cfg->solid_out = next_out++;
          if (has_binary) cfg->top_out = next_out++;
        }

        wire_tile_inputs(tup, rows, l, *cfg);
        const int num_inputs = is_factor ? cfg->vt_in : cfg->vt_in + 1;
        if (is_factor) cfg->vt_in = -1;

        auto fn = is_factor ? VdpFnFor(&factor_fire, cfg)
                            : VdpFnFor(&update_fire, cfg);
        vsa_.add_vdp(tup, static_cast<int>(rows.size()), std::move(fn),
                     num_inputs, next_out,
                     is_factor ? kColorFactor : kColorUpdate);
        declare_flat_balance(vsa_, tup, *cfg);
        ++vdp_count_;
        const int thread = placement_.next();
        vsa_.map_vdp(tup, thread);
        f_thread[{static_cast<int>(d), l}] = thread;
        if (!is_factor) vt_in_slot_[tup] = cfg->vt_in;
        last_out_slot_[tup] = cfg->top_out;

        // Solid stream into step k+1: register the non-top rows.
        if (!is_factor && cfg->solid_out >= 0) {
          for (std::size_t i = 1; i < rows.size(); ++i) {
            next_producers[{rows[i], l}] = Producer{tup, cfg->solid_out};
          }
        }
      }
      // Transformation chain along the step: F -> U(k+1) -> U(k+2) ...
      for (int l = k; l + 1 < nt; ++l) {
        const Tuple src = l == k ? f_tuple(k, static_cast<int>(d))
                                 : u_tuple(k, static_cast<int>(d), l);
        const Tuple dst = u_tuple(k, static_cast<int>(d), l + 1);
        // vt_out is always slot 0 when it exists.
        connect({src, 0}, dst, /*computed below*/ vt_slot_of(dst), vt_bytes_);
      }
    }

    // ---- binary tree -----------------------------------------------------
    // Current top/R producer of each live head, per column (k == panel R).
    std::map<std::pair<int, int>, Producer> cur;  // (head, l) -> producer
    if (has_binary) {
      for (std::size_t d = 0; d < domains.size(); ++d) {
        const int head = domains[d].head();
        // top_out slot of F/U: depends on its layout computed above; it is
        // the LAST output slot (see allocation order).
        for (int l = k; l < nt; ++l) {
          const Tuple tup = l == k ? f_tuple(k, static_cast<int>(d))
                                   : u_tuple(k, static_cast<int>(d), l);
          cur[{head, l}] = Producer{tup, last_out_slot_[tup]};
        }
      }
    }
    for (std::size_t pi = 0; pi < bs.pairs.size(); ++pi) {
      const auto& pr = bs.pairs[pi];
      const bool winner_continues =
          bs.pairs_of.at(pr.winner).back() != static_cast<int>(pi);
      const int bthread = f_thread[{dom_of_head[pr.winner], k}];
      for (int l = k; l < nt; ++l) {
        auto cfg = std::make_shared<BinCfg>();
        cfg->k = k;
        cfg->l = l;
        cfg->pw = pw;
        cfg->ib = opt_.ib;
        cfg->winner = pr.winner;
        cfg->loser = pr.loser;
        const bool is_b = l == k;
        const Tuple tup = is_b ? b_tuple(k, static_cast<int>(pi))
                               : bu_tuple(k, static_cast<int>(pi), l);
        int next_out = 0;
        if (is_b) {
          if (k + 1 < nt) cfg->vt_out = next_out++;
          if (winner_continues) cfg->win_out = next_out++;
        } else {
          if (l + 1 < nt) cfg->vt_out = next_out++;
          if (winner_continues) cfg->win_out = next_out++;
          if (k + 1 < panels_) cfg->c2_out = next_out++;
        }
        auto fn = is_b ? BinFnFor(&tt_factor_fire, cfg)
                       : BinFnFor(&tt_update_fire, cfg);
        vsa_.add_vdp(tup, 1, std::move(fn), is_b ? 2 : 3, next_out,
                     kColorBinary);
        ++vdp_count_;
        vsa_.map_vdp(tup, is_b ? bthread
                               : f_thread[{dom_of_head[pr.winner], l}]);

        // Wire the pair's tile inputs from the current producers.
        connect(cur.at({pr.winner, l}), tup, 0, tile_bytes_);
        connect(cur.at({pr.loser, l}), tup, 1, tile_bytes_);
        if (winner_continues) {
          cur[{pr.winner, l}] = Producer{tup, cfg->win_out};
        }
        // Loser's trailing tile re-enters step k+1 (dashed).
        if (!is_b && cfg->c2_out >= 0) {
          next_producers[{pr.loser, l}] = Producer{tup, cfg->c2_out};
        }
      }
      // Transformation chain of the pair: B -> BU(k+1) -> BU(k+2) ...
      for (int l = k; l + 1 < nt; ++l) {
        const Tuple src = l == k ? b_tuple(k, static_cast<int>(pi))
                                 : bu_tuple(k, static_cast<int>(pi), l);
        const Tuple dst = bu_tuple(k, static_cast<int>(pi), l + 1);
        connect({src, 0}, dst, 2, vt_bytes_);
      }
    }

    producers_ = std::move(next_producers);
  }

  // Helpers that wrap the firing functions with their shared config.
  static prt::VdpFn VdpFnFor(void (*fire)(VdpContext&, const FlatCfg&),
                             std::shared_ptr<FlatCfg> cfg) {
    return [fire, cfg = std::move(cfg)](VdpContext& ctx) { fire(ctx, *cfg); };
  }
  static prt::VdpFn BinFnFor(void (*fire)(VdpContext&, const BinCfg&),
                             std::shared_ptr<BinCfg> cfg) {
    return [fire, cfg = std::move(cfg)](VdpContext& ctx) { fire(ctx, *cfg); };
  }

  int vt_slot_of(const Tuple& dst) const {
    const auto it = vt_in_slot_.find(dst);
    PQR_ASSERT(it != vt_in_slot_.end(), "tree-qr: unknown vt slot");
    return it->second;
  }

  const TileMatrix& a_;
  TreeQrOptions opt_;
  prt::Vsa vsa_;
  std::shared_ptr<ResultStore> store_;
  FlatPlacement placement_;
  int panels_ = 0;
  std::size_t tile_bytes_ = 0;
  std::size_t vt_bytes_ = 0;
  int vdp_count_ = 0;
  int channel_count_ = 0;
  std::map<std::pair<int, int>, Producer> producers_;
  std::map<Tuple, int> vt_in_slot_;
  std::map<Tuple, int> last_out_slot_;
};

// ---- apply-only array -------------------------------------------------------
//
// The Q^T-application array is the factorization array with the factor
// VDPs removed: the per-domain and per-pair (V,T) chains are *fed* from
// the stored factors, B's tiles play the trailing columns, and every
// step is "panel-limited" (no column of B is ever eliminated), so the
// last step deposits its stream — the same machinery tree_qr_solve uses.
class ApplyBuilder {
 public:
  ApplyBuilder(const ref::TreeQrFactors& f, const TileMatrix& b,
               const TreeQrOptions& opt)
      : f_(f), b_(b), opt_(opt), vsa_(opt),
        placement_(opt.nodes, opt.workers_per_node) {
    require(b.rows() == f.a.rows() && b.nb() == f.a.nb(),
            "apply_qt: B must match the factored matrix rows and tile size");
    require(b.cols() >= 1, "apply_qt: B must have at least one column");
    store_ = std::make_shared<ResultStore>(b.rows(), b.cols(), b.nb(), f.ib,
                                           opt.transport);
    vsa_.set_global(store_);
    if (opt.max_respawns > 0) store_->enable_dedup();
    tile_bytes_ = tile_packet_bytes(b.nb(), b.nb());
    vt_bytes_ = vt_packet_bytes(f.a.nb(), f.a.nb(), f.ib);
  }

  TileMatrix run() {
    const int panels = f_.plan.panels();
    for (int k = 0; k < panels; ++k) build_step(k, panels);
    vsa_.run();
    // Every (row, column) tile of B was deposited exactly once; reuse the
    // factor-store completeness check, then take the tile matrix.
    return store_
        ->finish(plan::ReductionPlan(b_.mt(), std::max(b_.nt(), 1),
                                     {plan::TreeKind::Flat, 1,
                                      plan::BoundaryMode::Shifted}),
                 f_.ib)
        .a;
  }

 private:
  void connect(const Producer& src, const Tuple& dst, int slot,
               std::size_t bytes, bool enabled = true) {
    vsa_.connect(src.vdp, src.slot, dst, slot, bytes, enabled);
  }

  /// (V,T) packets of one domain's flat reduction, in firing order.
  std::vector<Packet> domain_vt_packets(int k, const plan::Domain& dom) {
    std::vector<Packet> out;
    out.push_back(
        encode_vt(f_.a.tile(dom.head(), k), f_.tg.t(dom.head(), k),
                  dom.head()));
    for (int r = dom.begin + 1; r < dom.end; ++r) {
      out.push_back(encode_vt(f_.a.tile(r, k), f_.tt.t(r, k), r));
    }
    return out;
  }

  void wire_tile_inputs(const Tuple& dst, const std::vector<int>& rows,
                        int l, FlatCfg& cfg) {
    cfg.rows = rows;
    cfg.row_slot.resize(rows.size());
    if (cfg.k == 0) {
      std::vector<Packet> initial;
      for (int r : rows) initial.push_back(encode_tile(b_.tile(r, l), r));
      vsa_.feed(dst, 0, tile_bytes_, std::move(initial));
      for (auto& s : cfg.row_slot) s = 0;
      cfg.vt_in = 1;
      return;
    }
    int slot = -1;
    const Producer* prev = nullptr;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const auto it = producers_.find({rows[i], l});
      PQR_ASSERT(it != producers_.end(), "apply_qt: no producer for tile");
      const Producer& p = it->second;
      if (prev == nullptr || !(prev->vdp == p.vdp && prev->slot == p.slot)) {
        ++slot;
        connect(p, dst, slot, tile_bytes_, /*enabled=*/slot == 0);
        prev = &it->second;
      }
      cfg.row_slot[i] = slot;
    }
    cfg.vt_in = slot + 1;
  }

  void build_step(int k, int panels) {
    const int mt = f_.plan.mt();
    const int bt = b_.nt();
    const int pw = f_.a.tile_cols(k);
    const auto domains = plan::domains_for_panel(mt, k, f_.plan.config());
    const auto bs = make_binary(domains);
    const bool has_binary = domains.size() > 1;

    std::map<std::pair<int, int>, Producer> next_producers;
    std::map<int, int> dom_of_head;
    for (std::size_t d = 0; d < domains.size(); ++d) {
      dom_of_head[domains[d].head()] = static_cast<int>(d);
    }

    // ---- flat apply pipelines (one per domain per B column) --------------
    placement_.begin_step(static_cast<int>(domains.size()) * bt);
    for (std::size_t d = 0; d < domains.size(); ++d) {
      const auto& dom = domains[d];
      std::vector<int> rows;
      for (int r = dom.begin; r < dom.end; ++r) rows.push_back(r);
      for (int c = 0; c < bt; ++c) {
        auto cfg = std::make_shared<FlatCfg>();
        cfg->k = k;
        cfg->l = c;  // deposits land in B's column c
        cfg->pw = pw;
        cfg->ib = f_.ib;
        const Tuple tup = Tuple{4, k, static_cast<int>(d), c};
        int next_out = 0;
        if (c + 1 < bt) cfg->vt_out = next_out++;
        if (rows.size() > 1 && k + 1 < panels) cfg->solid_out = next_out++;
        if (has_binary) cfg->top_out = next_out++;
        wire_tile_inputs(tup, rows, c, *cfg);
        const int num_inputs = cfg->vt_in + 1;
        vsa_.add_vdp(
            tup, static_cast<int>(rows.size()),
            [cfg](VdpContext& ctx) { update_fire(ctx, *cfg); }, num_inputs,
            next_out, kColorUpdate);
        declare_flat_balance(vsa_, tup, *cfg);
        const int thread = placement_.next();
        vsa_.map_vdp(tup, thread);
        thread_of_[{static_cast<int>(d), c}] = thread;
        vt_in_slot_[tup] = cfg->vt_in;
        last_out_slot_[tup] = cfg->top_out;
        if (cfg->solid_out >= 0) {
          for (std::size_t i = 1; i < rows.size(); ++i) {
            next_producers[{rows[i], c}] = Producer{tup, cfg->solid_out};
          }
        }
      }
      // Feed the domain's (V,T) chain into column 0, then chain onward.
      vsa_.feed(Tuple{4, k, static_cast<int>(d), 0},
                vt_in_slot_.at(Tuple{4, k, static_cast<int>(d), 0}),
                vt_bytes_, domain_vt_packets(k, dom));
      for (int c = 0; c + 1 < bt; ++c) {
        const Tuple src{4, k, static_cast<int>(d), c};
        const Tuple dst{4, k, static_cast<int>(d), c + 1};
        connect({src, 0}, dst, vt_in_slot_.at(dst), vt_bytes_);
      }
    }

    // ---- binary apply VDPs -----------------------------------------------
    std::map<std::pair<int, int>, Producer> cur;  // (head, c) -> producer
    if (has_binary) {
      for (std::size_t d = 0; d < domains.size(); ++d) {
        const int head = domains[d].head();
        for (int c = 0; c < bt; ++c) {
          const Tuple tup{4, k, static_cast<int>(d), c};
          cur[{head, c}] = Producer{tup, last_out_slot_.at(tup)};
        }
      }
    }
    for (std::size_t pi = 0; pi < bs.pairs.size(); ++pi) {
      const auto& pr = bs.pairs[pi];
      const bool winner_continues =
          bs.pairs_of.at(pr.winner).back() != static_cast<int>(pi);
      for (int c = 0; c < bt; ++c) {
        auto cfg = std::make_shared<BinCfg>();
        cfg->k = k;
        cfg->l = c;
        cfg->pw = pw;
        cfg->ib = f_.ib;
        cfg->winner = pr.winner;
        cfg->loser = pr.loser;
        const Tuple tup{5, k, static_cast<int>(pi), c};
        int next_out = 0;
        if (c + 1 < bt) cfg->vt_out = next_out++;
        if (winner_continues) cfg->win_out = next_out++;
        if (k + 1 < panels) cfg->c2_out = next_out++;
        vsa_.add_vdp(
            tup, 1, [cfg](VdpContext& ctx) { tt_update_fire(ctx, *cfg); }, 3,
            next_out, kColorBinary);
        vsa_.map_vdp(tup, thread_of_.at({dom_of_head[pr.winner], c}));
        connect(cur.at({pr.winner, c}), tup, 0, tile_bytes_);
        connect(cur.at({pr.loser, c}), tup, 1, tile_bytes_);
        if (winner_continues) cur[{pr.winner, c}] = Producer{tup, cfg->win_out};
        if (cfg->c2_out >= 0) {
          next_producers[{pr.loser, c}] = Producer{tup, cfg->c2_out};
        }
      }
      // The pair's (V,T) feed + chain.
      std::vector<Packet> vt;
      vt.push_back(
          encode_vt(f_.a.tile(pr.loser, k), f_.tt.t(pr.loser, k), pr.loser));
      vsa_.feed(Tuple{5, k, static_cast<int>(pi), 0}, 2, vt_bytes_,
                std::move(vt));
      for (int c = 0; c + 1 < bt; ++c) {
        connect({Tuple{5, k, static_cast<int>(pi), c}, 0},
                Tuple{5, k, static_cast<int>(pi), c + 1}, 2, vt_bytes_);
      }
    }
    producers_ = std::move(next_producers);
  }

  const ref::TreeQrFactors& f_;
  const TileMatrix& b_;
  TreeQrOptions opt_;
  prt::Vsa vsa_;
  std::shared_ptr<ResultStore> store_;
  std::size_t tile_bytes_ = 0;
  std::size_t vt_bytes_ = 0;
  FlatPlacement placement_;
  std::map<std::pair<int, int>, Producer> producers_;
  std::map<std::pair<int, int>, int> thread_of_;  ///< (domain, c) -> thread
  std::map<Tuple, int> vt_in_slot_;
  std::map<Tuple, int> last_out_slot_;
};

}  // namespace

TileMatrix apply_qt(const ref::TreeQrFactors& factors, const TileMatrix& b,
                    const TreeQrOptions& opt) {
  ApplyBuilder builder(factors, b, opt);
  return builder.run();
}

TreeQrRun tree_qr(const TileMatrix& a, const TreeQrOptions& opt) {
  require(opt.ib >= 1 && opt.ib <= a.nb(), "tree_qr: need 1 <= ib <= nb");
  Builder b(a, opt);
  return b.run();
}

prt::GraphReport lint_tree_qr(const TileMatrix& a, const TreeQrOptions& opt) {
  require(opt.ib >= 1 && opt.ib <= a.nb(), "lint_tree_qr: need 1 <= ib <= nb");
  Builder b(a, opt);
  return b.lint();
}

TreeQrRun domino_qr(const TileMatrix& a, TreeQrOptions opt) {
  opt.tree.tree = plan::TreeKind::Flat;
  return tree_qr(a, opt);
}

TreeQrRun tsqr(const TileMatrix& a, TreeQrOptions opt) {
  require(a.nt() == 1,
          "tsqr: the matrix must be a single tile-column panel (n <= nb)");
  opt.tree.tree = plan::TreeKind::Binary;
  return tree_qr(a, opt);
}

}  // namespace pulsarqr::vsaqr

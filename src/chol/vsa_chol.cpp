#include "chol/vsa_chol.hpp"

#include <memory>
#include <vector>

#include "blas/blas.hpp"
#include "lapack/cholesky.hpp"
#include "plan/column_placement.hpp"
#include "vsaqr/codec.hpp"
#include "vsaqr/result_store.hpp"

namespace pulsarqr::chol {

namespace {

using prt::Packet;
using prt::Tuple;
using prt::VdpContext;
using vsaqr::encode_tile;
using vsaqr::tile_view;

Tuple p_tuple(int k) { return Tuple{0, k}; }
Tuple s_tuple(int k, int j) { return Tuple{1, k, j}; }

struct PanelCfg {
  int k = 0;
  int mt = 0;
  int chain_out = -1;  ///< L chain to the step's first S; -1 on the last step
};

struct PanelState {
  int idx = 0;
  Packet held;  ///< L_kk after the first firing
};

void panel_fire(VdpContext& ctx, const PanelCfg& cfg) {
  auto& st = ctx.local<PanelState>();
  const int idx = st.idx++;
  const int r = cfg.k + idx;
  Packet tile = ctx.pop(0);
  PQR_ASSERT(tile.meta() == r, "vsa-chol: panel VDP received wrong row");
  auto& store = ctx.global<vsaqr::TileStore>();
  if (idx == 0) {
    lapack::potf2(tile_view(tile));
    store.put(cfg.k, cfg.k, tile_view(tile));
    st.held = std::move(tile);
  } else {
    blas::trsm(blas::Side::Right, blas::Uplo::Lower, blas::Trans::Yes,
               blas::Diag::NonUnit, 1.0, tile_view(st.held),
               tile_view(tile));
    store.put(r, cfg.k, tile_view(tile));
    if (cfg.chain_out >= 0) ctx.push(cfg.chain_out, std::move(tile));
  }
}

struct UpdateCfg {
  int k = 0;
  int j = 0;
  int mt = 0;
  int chain_out = -1;  ///< forward the L stream to the chain successor
  int solid_out = -1;  ///< updated tiles to step k+1 (always present)
};

struct UpdateState {
  int idx = 0;
  Packet ljk;  ///< L(j,k), kept when it passes through the chain
};

void update_fire(VdpContext& ctx, const UpdateCfg& cfg) {
  auto& st = ctx.local<UpdateState>();
  const int idx = st.idx++;
  const int i = cfg.k + 1 + idx;  // row of the arriving L tile
  Packet li = ctx.pop(1);
  PQR_ASSERT(li.meta() == i, "vsa-chol: update VDP received wrong L row");
  if (cfg.chain_out >= 0) ctx.push(cfg.chain_out, li);  // by-pass first
  if (i < cfg.j) {
    // Drain-only firing: this L belongs to columns left of ours. Arm the
    // tile stream one firing before we start consuming it, so the firing
    // rule starts waiting for tiles exactly when they are needed.
    if (i == cfg.j - 1) ctx.enable_input(0);
    return;
  }
  if (i == cfg.j) {
    st.ljk = li;  // keep (aliased: the chain only reads)
  }
  Packet tile = ctx.pop(0);
  PQR_ASSERT(tile.meta() == i, "vsa-chol: update VDP received wrong tile");
  // A(i,j) -= L(i,k) * L(j,k)^T ; at i == j this is the syrk step.
  blas::gemm(blas::Trans::No, blas::Trans::Yes, -1.0, tile_view(li),
             tile_view(st.ljk), 1.0, tile_view(tile));
  ctx.push(cfg.solid_out, std::move(tile));
}

class Builder {
 public:
  Builder(const TileMatrix& a, const VsaCholOptions& opt)
      : a_(a), opt_(opt), vsa_(opt) {
    require(a.rows() == a.cols(), "vsa_cholesky: matrix must be square");
    store_ = std::make_shared<vsaqr::TileStore>(a.rows(), a.cols(), a.nb(),
                                                opt.transport);
    vsa_.set_global(store_);
    // A respawned node re-deposits what its dead incarnation published.
    if (opt.max_respawns > 0) store_->enable_dedup();
    bytes_ = vsaqr::tile_packet_bytes(a.nb(), a.nb());
  }

  void build() {
    const int mt = a_.mt();
    plan::ColumnPlacement place(opt_.nodes, opt_.workers_per_node);
    for (int k = 0; k < mt; ++k) {
      // Panel VDP.
      auto pcfg = std::make_shared<PanelCfg>();
      pcfg->k = k;
      pcfg->mt = mt;
      const bool has_chain = k + 1 < mt;
      pcfg->chain_out = has_chain ? 0 : -1;
      vsa_.add_vdp(
          p_tuple(k), mt - k,
          [pcfg](VdpContext& ctx) { panel_fire(ctx, *pcfg); }, 1,
          has_chain ? 1 : 0, kCholPanel);
      // The first firing factorizes L_kk and pushes nothing on the chain.
      if (has_chain) vsa_.declare_output_packets(p_tuple(k), 0, mt - k - 1);
      vsa_.map_vdp(p_tuple(k), place.next(k));
      ++vdp_count_;
      wire_tiles(p_tuple(k), k, k, /*enabled=*/true);

      // Update VDPs. The L chain visits them in `chain` order; every one
      // but the last forwards it.
      const std::vector<int> chain = place.chain(k + 1, mt);
      for (int j = k + 1; j < mt; ++j) {
        const bool forwards = j != chain.back();
        auto ucfg = std::make_shared<UpdateCfg>();
        ucfg->k = k;
        ucfg->j = j;
        ucfg->mt = mt;
        ucfg->chain_out = forwards ? 0 : -1;
        ucfg->solid_out = forwards ? 1 : 0;
        vsa_.add_vdp(
            s_tuple(k, j), mt - k - 1,
            [ucfg](VdpContext& ctx) { update_fire(ctx, *ucfg); }, 2,
            forwards ? 2 : 1, kCholUpdate);
        // Drain-only firings (i < j) touch neither the tile stream nor the
        // solid output: both carry mt - j packets, not one per firing.
        vsa_.declare_input_packets(s_tuple(k, j), 0, mt - j);
        vsa_.declare_output_packets(s_tuple(k, j), ucfg->solid_out, mt - j);
        vsa_.map_vdp(s_tuple(k, j), place.next(j));
        ++vdp_count_;
        // The tile stream is consumed only from the (j-k)-th firing on;
        // keep it disabled until then so early firings are chain-only.
        wire_tiles(s_tuple(k, j), k, j, /*enabled=*/j == k + 1);
        // Solid stream to the next step's consumer. The consumer's tile
        // input starts enabled only if it is needed from its first firing
        // (P VDPs always; S VDPs only when they are the first trailing
        // column of their step).
        const Tuple dst = j == k + 1 ? p_tuple(k + 1) : s_tuple(k + 1, j);
        const bool dst_enabled = j <= k + 2;
        vsa_.connect(s_tuple(k, j), ucfg->solid_out, dst, 0, bytes_,
                     dst_enabled);
        ++channel_count_;
      }
      // Chain: P(k) -> S(k, chain[0]) -> S(k, chain[1]) -> ...
      Tuple src = p_tuple(k);
      for (int j : chain) {
        vsa_.connect(src, 0, s_tuple(k, j), 1, bytes_);
        ++channel_count_;
        src = s_tuple(k, j);
      }
    }
  }

  prt::GraphReport lint() {
    build();
    return prt::GraphCheck::check(vsa_);
  }

  VsaCholRun run() {
    build();
    auto stats = vsa_.run();
    VsaCholRun out{store_->finish(/*lower=*/true), stats, {}, vdp_count_,
                   channel_count_};
    if (opt_.trace) out.events = vsa_.recorder().collect();
    return out;
  }

 private:
  /// Step-0 consumers are fed the input tiles; later steps are wired by
  /// their producers (see run()).
  void wire_tiles(const Tuple& dst, int k, int j, bool enabled) {
    if (k > 0) {
      // The producing connect() was issued when S(k-1, j) was created;
      // only the enable state matters here and is set on that edge.
      return;
    }
    std::vector<Packet> initial;
    for (int i = j; i < a_.mt(); ++i) {
      initial.push_back(encode_tile(a_.tile(i, j), i));
    }
    vsa_.feed(dst, 0, bytes_, std::move(initial), enabled);
    ++channel_count_;
  }

  const TileMatrix& a_;
  VsaCholOptions opt_;
  prt::Vsa vsa_;
  std::shared_ptr<vsaqr::TileStore> store_;
  std::size_t bytes_ = 0;
  int vdp_count_ = 0;
  int channel_count_ = 0;
};

}  // namespace

VsaCholRun vsa_cholesky(const TileMatrix& a, const VsaCholOptions& opt) {
  Builder b(a, opt);
  return b.run();
}

prt::GraphReport lint_vsa_cholesky(const TileMatrix& a,
                                   const VsaCholOptions& opt) {
  Builder b(a, opt);
  return b.lint();
}

}  // namespace pulsarqr::chol

#include "lu/vsa_lu.hpp"

#include <algorithm>
#include <memory>
#include <vector>

#include "blas/blas.hpp"
#include "lapack/lu.hpp"
#include "plan/column_placement.hpp"
#include "vsaqr/codec.hpp"
#include "vsaqr/result_store.hpp"

namespace pulsarqr::lu {

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
  int kb = 0;          ///< pivot count of the diagonal tile
  int chain_out = -1;  ///< LU(k,k) then L(i,k) to the step's first S
};

struct PanelState {
  int idx = 0;
  Packet held;
};

void panel_fire(VdpContext& ctx, const PanelCfg& cfg) {
  auto& st = ctx.local<PanelState>();
  const int idx = st.idx++;
  const int r = cfg.k + idx;
  Packet tile = ctx.pop(0);
  PQR_ASSERT(tile.meta() == r, "vsa-lu: panel VDP received wrong row");
  auto& store = ctx.global<vsaqr::TileStore>();
  if (idx == 0) {
    lapack::getf2_nopiv(tile_view(tile));
    store.put(cfg.k, cfg.k, tile_view(tile));
    st.held = std::move(tile);
    if (cfg.chain_out >= 0) ctx.push(cfg.chain_out, st.held);
  } else {
    blas::trsm(blas::Side::Right, blas::Uplo::Upper, blas::Trans::No,
               blas::Diag::NonUnit, 1.0,
               ConstMatrixView(tile_view(st.held))
                   .block(0, 0, cfg.kb, cfg.kb),
               tile_view(tile));
    store.put(r, cfg.k, tile_view(tile));
    if (cfg.chain_out >= 0) ctx.push(cfg.chain_out, std::move(tile));
  }
}

struct UpdateCfg {
  int k = 0;
  int j = 0;
  int kb = 0;
  int chain_out = -1;
  int solid_out = -1;  ///< -1 only when the domain has no streamed rows
};

struct UpdateState {
  int idx = 0;
  Packet ukj;  ///< the held top tile, = U(k,j) after the first firing
};

void update_fire(VdpContext& ctx, const UpdateCfg& cfg) {
  auto& st = ctx.local<UpdateState>();
  const int idx = st.idx++;
  Packet chain = ctx.pop(1);
  PQR_ASSERT(chain.meta() == cfg.k + idx,
             "vsa-lu: update VDP received wrong chain packet");
  if (cfg.chain_out >= 0) ctx.push(cfg.chain_out, chain);  // by-pass first
  Packet tile = ctx.pop(0);
  PQR_ASSERT(tile.meta() == cfg.k + idx,
             "vsa-lu: update VDP received wrong tile");
  auto& store = ctx.global<vsaqr::TileStore>();
  if (idx == 0) {
    // chain == LU(k,k): finish U(k,j) on the pivot rows of the top tile.
    MatrixView t = tile_view(tile);
    blas::trsm(blas::Side::Left, blas::Uplo::Lower, blas::Trans::No,
               blas::Diag::Unit, 1.0,
               ConstMatrixView(tile_view(chain)).block(0, 0, cfg.kb, cfg.kb),
               MatrixView(t.data, cfg.kb, t.cols, t.ld));
    store.put(cfg.k, cfg.j, t);
    st.ukj = std::move(tile);
  } else {
    // chain == L(i,k): A(i,j) -= L(i,k) U(k,j).
    MatrixView li = tile_view(chain);
    MatrixView u = tile_view(st.ukj);
    blas::gemm(blas::Trans::No, blas::Trans::No, -1.0,
               ConstMatrixView(li).block(0, 0, li.rows, cfg.kb),
               ConstMatrixView(u.data, cfg.kb, u.cols, u.ld), 1.0,
               tile_view(tile));
    ctx.push(cfg.solid_out, std::move(tile));
  }
}

class Builder {
 public:
  Builder(const TileMatrix& a, const VsaLuOptions& opt)
      : a_(a), opt_(opt), vsa_(opt) {
    store_ = std::make_shared<vsaqr::TileStore>(a.rows(), a.cols(), a.nb(),
                                                opt.transport);
    vsa_.set_global(store_);
    // A respawned node re-deposits what its dead incarnation published.
    if (opt.max_respawns > 0) store_->enable_dedup();
    bytes_ = vsaqr::tile_packet_bytes(a.nb(), a.nb());
  }

  void build() {
    const int mt = a_.mt();
    const int nt = a_.nt();
    const int panels = std::min(mt, nt);
    plan::ColumnPlacement place(opt_.nodes, opt_.workers_per_node);
    for (int k = 0; k < panels; ++k) {
      const int kb = std::min(a_.tile_rows(k), a_.tile_cols(k));
      auto pcfg = std::make_shared<PanelCfg>();
      pcfg->k = k;
      pcfg->kb = kb;
      pcfg->chain_out = k + 1 < nt ? 0 : -1;
      vsa_.add_vdp(
          p_tuple(k), mt - k,
          [pcfg](VdpContext& ctx) { panel_fire(ctx, *pcfg); }, 1,
          pcfg->chain_out >= 0 ? 1 : 0, kLuPanel);
      vsa_.map_vdp(p_tuple(k), place.next(k));
      ++vdp_count_;
      feed_if_first_step(p_tuple(k), k, k);

      // The chain visits the update VDPs in `chain` order; every one but
      // the last forwards it.
      const std::vector<int> chain = place.chain(k + 1, nt);
      for (int j = k + 1; j < nt; ++j) {
        auto ucfg = std::make_shared<UpdateCfg>();
        ucfg->k = k;
        ucfg->j = j;
        ucfg->kb = kb;
        ucfg->chain_out = j != chain.back() ? 0 : -1;
        const bool has_stream = mt - k - 1 > 0;
        int next_out = ucfg->chain_out >= 0 ? 1 : 0;
        ucfg->solid_out = has_stream ? next_out++ : -1;
        vsa_.add_vdp(
            s_tuple(k, j), mt - k,
            [ucfg](VdpContext& ctx) { update_fire(ctx, *ucfg); }, 2,
            next_out, kLuUpdate);
        // The first firing keeps U(k,j) instead of streaming it onward.
        if (has_stream) {
          vsa_.declare_output_packets(s_tuple(k, j), ucfg->solid_out,
                                      mt - k - 1);
        }
        vsa_.map_vdp(s_tuple(k, j), place.next(j));
        ++vdp_count_;
        feed_if_first_step(s_tuple(k, j), k, j);
        // Solid stream to step k+1.
        if (has_stream) {
          const Tuple dst = j == k + 1 ? p_tuple(k + 1) : s_tuple(k + 1, j);
          vsa_.connect(s_tuple(k, j), ucfg->solid_out, dst, 0, bytes_);
          ++channel_count_;
        }
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

  VsaLuRun run() {
    build();
    auto stats = vsa_.run();
    VsaLuRun out{store_->finish(), stats, {}, vdp_count_, channel_count_};
    if (opt_.trace) out.events = vsa_.recorder().collect();
    return out;
  }

 private:
  void feed_if_first_step(const Tuple& dst, int k, int j) {
    if (k > 0) return;  // wired by the producing S(k-1, j)
    std::vector<Packet> initial;
    for (int i = 0; i < a_.mt(); ++i) {
      initial.push_back(encode_tile(a_.tile(i, j), i));
    }
    vsa_.feed(dst, 0, bytes_, std::move(initial));
    ++channel_count_;
  }

  const TileMatrix& a_;
  VsaLuOptions opt_;
  prt::Vsa vsa_;
  std::shared_ptr<vsaqr::TileStore> store_;
  std::size_t bytes_ = 0;
  int vdp_count_ = 0;
  int channel_count_ = 0;
};

}  // namespace

VsaLuRun vsa_lu(const TileMatrix& a, const VsaLuOptions& opt) {
  Builder b(a, opt);
  return b.run();
}

prt::GraphReport lint_vsa_lu(const TileMatrix& a, const VsaLuOptions& opt) {
  Builder b(a, opt);
  return b.lint();
}

}  // namespace pulsarqr::lu

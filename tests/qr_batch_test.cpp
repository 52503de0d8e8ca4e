// Property tests for the fused batched QR plan: every batch element must be
// BITWISE identical to running kernels::geqrt on the same matrix
// sequentially — both paths execute the same kernel code on the same bytes,
// so any divergence means the batch plan corrupted state (sliced the batch
// wrong, shared a workspace incorrectly, or raced on the views). Covered in
// double and float, across batch sizes that exercise one-VDP, multi-VDP and
// multi-chunk slicing, and across the tentpole's headline shapes (64x16,
// 128x32) plus ragged odd shapes and wide (m < n) tiles.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "kernels/tile_kernels.hpp"
#include "vsaqr/qr_batch.hpp"

namespace pulsarqr {
namespace {

template <class T>
void fill_rng(MatrixViewT<T> a, std::uint64_t seed) {
  Rng rng(seed);
  for (int j = 0; j < a.cols; ++j) {
    for (int i = 0; i < a.rows; ++i) {
      a(i, j) = static_cast<T>(rng.next_symmetric());
    }
  }
}

template <class T>
bool bitwise_equal(const MatrixT<T>& a, const MatrixT<T>& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     sizeof(T) * static_cast<std::size_t>(a.rows()) *
                         static_cast<std::size_t>(a.cols())) == 0;
}

struct Shape {
  int m, n;
};

/// Factor `batch` matrices of the given shapes (cycled) twice — once through
/// qr_batch, once sequentially through kernels::geqrt — and require bitwise
/// equality of both the factored tiles and the T factors.
template <class T>
void check_batch(int batch, std::span<const Shape> shapes, int ib,
                 const vsaqr::BatchOptions& opt_in) {
  SCOPED_TRACE(::testing::Message()
               << "batch=" << batch << " ib=" << ib
               << " workers=" << opt_in.workers_per_node
               << " chunk=" << opt_in.chunk);
  std::vector<MatrixT<T>> a_batch, t_batch, a_seq, t_seq;
  std::vector<MatrixViewT<T>> av, tv;
  a_batch.reserve(batch);
  for (int i = 0; i < batch; ++i) {
    const Shape s = shapes[static_cast<std::size_t>(i) % shapes.size()];
    const int k = std::min(s.m, s.n);
    a_batch.emplace_back(s.m, s.n);
    t_batch.emplace_back(std::min(ib, std::max(k, 1)), std::max(k, 1));
    fill_rng<T>(a_batch.back().view(), 0xb5ull * (i + 1));
    for (int j = 0; j < t_batch.back().cols(); ++j) {
      for (int r = 0; r < t_batch.back().rows(); ++r) {
        t_batch.back()(r, j) = T(0);
      }
    }
    a_seq.push_back(a_batch.back());
    t_seq.push_back(t_batch.back());
    av.push_back(a_batch.back().view());
    tv.push_back(t_batch.back().view());
  }

  vsaqr::BatchOptions opt = opt_in;
  opt.ib = ib;
  const vsaqr::BatchRun run = vsaqr::qr_batch(
      std::span<const MatrixViewT<T>>(av), std::span<const MatrixViewT<T>>(tv),
      opt);
  EXPECT_GT(run.vdp_count, 0);
  EXPECT_GE(run.chunks, run.vdp_count);
  EXPECT_EQ(run.stats.fires, run.chunks);

  kernels::Workspace ws;
  for (int i = 0; i < batch; ++i) {
    kernels::geqrt(a_seq[i].view(), ib, t_seq[i].view(), ws);
  }
  for (int i = 0; i < batch; ++i) {
    ASSERT_TRUE(bitwise_equal(a_batch[i], a_seq[i]))
        << "tile " << i << " differs from sequential geqrt";
    ASSERT_TRUE(bitwise_equal(t_batch[i], t_seq[i]))
        << "T factor " << i << " differs from sequential geqrt";
  }
}

const Shape kHeadline[] = {{64, 16}};
const Shape kMixed[] = {{64, 16}, {128, 32}, {13, 13}, {7, 19}, {33, 5},
                        {1, 1},   {2, 31}};

TEST(QrBatch, BitwiseEqualSingleMatrixF64) {
  check_batch<double>(1, kHeadline, 32, {});
}

TEST(QrBatch, BitwiseEqualHeadlineShapeF64) {
  vsaqr::BatchOptions opt;
  opt.workers_per_node = 2;
  check_batch<double>(96, kHeadline, 32, opt);
}

TEST(QrBatch, BitwiseEqualMixedShapesF64) {
  vsaqr::BatchOptions opt;
  opt.workers_per_node = 3;
  opt.chunk = 5;  // force many firings per VDP with ragged last chunks
  check_batch<double>(61, kMixed, 8, opt);
}

TEST(QrBatch, BitwiseEqualMoreVdpsThanMatricesF64) {
  vsaqr::BatchOptions opt;
  opt.workers_per_node = 8;  // nvdp must clamp to the batch size
  check_batch<double>(3, kMixed, 4, opt);
}

TEST(QrBatch, BitwiseEqualHeadlineShapeF32) {
  vsaqr::BatchOptions opt;
  opt.workers_per_node = 2;
  check_batch<float>(96, kHeadline, 32, opt);
}

TEST(QrBatch, BitwiseEqualMixedShapesF32) {
  vsaqr::BatchOptions opt;
  opt.workers_per_node = 2;
  opt.chunk = 3;
  check_batch<float>(40, kMixed, 8, opt);
}

TEST(QrBatch, EmptyBatchIsANoop) {
  const vsaqr::BatchRun run = vsaqr::qr_batch(
      std::span<const MatrixView>(), std::span<const MatrixView>(), {});
  EXPECT_EQ(run.vdp_count, 0);
  EXPECT_EQ(run.chunks, 0);
  EXPECT_EQ(run.stats.fires, 0);
  EXPECT_TRUE(run.matrix_seconds.empty());
}

TEST(QrBatch, RecordsPerMatrixLatency) {
  const int batch = 17;
  std::vector<Matrix> a, t;
  std::vector<MatrixView> av, tv;
  for (int i = 0; i < batch; ++i) {
    a.emplace_back(24, 8);
    t.emplace_back(8, 8);
    fill_random(a.back().view(), 1000 + i);
    av.push_back(a.back().view());
    tv.push_back(t.back().view());
  }
  vsaqr::BatchOptions opt;
  opt.ib = 8;
  opt.record_latency = true;
  const vsaqr::BatchRun run = vsaqr::qr_batch(
      std::span<const MatrixView>(av), std::span<const MatrixView>(tv), opt);
  ASSERT_EQ(run.matrix_seconds.size(), static_cast<std::size_t>(batch));
  for (double s : run.matrix_seconds) EXPECT_GE(s, 0.0);
}

TEST(QrBatch, RejectsMismatchedSpansAndSmallTFactors) {
  Matrix a(8, 4);
  Matrix t_ok(4, 4), t_small(4, 2);
  fill_random(a.view(), 7);
  const MatrixView av[] = {a.view()};
  const MatrixView tv_small[] = {t_small.view()};
  vsaqr::BatchOptions opt;
  opt.ib = 4;
  EXPECT_THROW(vsaqr::qr_batch(std::span<const MatrixView>(av),
                               std::span<const MatrixView>(), opt),
               Error);
  EXPECT_THROW(vsaqr::qr_batch(std::span<const MatrixView>(av),
                               std::span<const MatrixView>(tv_small), opt),
               Error);
}

// The results land in caller memory, which a forked socket node process
// cannot write back: a socket run is refused instead of silently losing
// every factor.
TEST(QrBatch, RejectsSocketTransport) {
  Matrix a(8, 4), t(4, 4);
  fill_random(a.view(), 8);
  const MatrixView av[] = {a.view()};
  const MatrixView tv[] = {t.view()};
  vsaqr::BatchOptions opt;
  opt.ib = 4;
  opt.transport = prt::Transport::Socket;
  EXPECT_THROW(vsaqr::qr_batch(std::span<const MatrixView>(av),
                               std::span<const MatrixView>(tv), opt),
               Error);
}

}  // namespace
}  // namespace pulsarqr

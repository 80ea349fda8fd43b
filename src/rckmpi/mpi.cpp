#include "rckmpi/mpi.hpp"

#include <algorithm>
#include <vector>

#include "common/aligned.hpp"

#include "coll/block_split.hpp"

namespace scc::rckmpi {

namespace {

// Internal tags per collective (MPICH reserves a context-id space; a fixed
// tag per operation suffices here because our communicators are global and
// calls are ordered per pair).
constexpr int kTagBcast = 101;
constexpr int kTagReduce = 102;
constexpr int kTagAllreduce = 103;
constexpr int kTagAllgather = 104;
constexpr int kTagAlltoall = 105;
constexpr int kTagScatter = 106;
constexpr int kTagBarrier = 107;

[[nodiscard]] std::span<const std::byte> as_b(std::span<const double> s) {
  return std::as_bytes(s);
}
[[nodiscard]] std::span<std::byte> as_b(std::span<double> s) {
  return std::as_writable_bytes(s);
}

}  // namespace

namespace detail {

/// Ring (bucket) ReduceScatter over the channel: MPICH's long-vector
/// choice in RCKMPI's tuning tables for the SCC. After p-1 rounds core i
/// owns block (i+1)%p of `work`, fully reduced.
sim::Task<> ring_reduce_scatter(Mpi& mpi, std::span<double> work,
                                ReduceOp op,
                                const std::vector<coll::Block>& blocks,
                                int tag) {
  auto& api = mpi.api();
  const int p = mpi.size();
  const int rank = mpi.rank();
  const int right = (rank + 1) % p;
  const int left = (rank + p - 1) % p;
  std::size_t max_count = 0;
  for (const coll::Block& b : blocks) max_count = std::max(max_count, b.count);
  std::span<double> tmp = mpi.scratch_span(max_count, 0);
  for (int r = 0; r < p - 1; ++r) {
    const coll::Block& sb =
        blocks[static_cast<std::size_t>((rank - r + p) % p)];
    const coll::Block& rb =
        blocks[static_cast<std::size_t>((rank - r - 1 + p) % p)];
    std::span<double> recv_tmp = tmp.subspan(0, rb.count);
    co_await mpi.channel().sendrecv(
        std::as_bytes(std::span<const double>(work.subspan(sb.offset, sb.count))),
        right, std::as_writable_bytes(recv_tmp), left, tag);
    co_await rcce::apply_reduce(api, recv_tmp,
                                work.subspan(rb.offset, rb.count), op);
  }
}

/// Ring Allgather of blocks where core i initially holds block (i+off)%p.
sim::Task<> ring_allgather_blocks(Mpi& mpi, std::span<double> data,
                                  const std::vector<coll::Block>& blocks,
                                  int off, int tag) {
  const int p = mpi.size();
  const int rank = mpi.rank();
  const int right = (rank + 1) % p;
  const int left = (rank + p - 1) % p;
  for (int r = 0; r < p - 1; ++r) {
    const coll::Block& sb =
        blocks[static_cast<std::size_t>(((rank + off - r) % p + p) % p)];
    const coll::Block& rb =
        blocks[static_cast<std::size_t>(((rank + off - r - 1) % p + p) % p)];
    co_await mpi.channel().sendrecv(
        std::as_bytes(std::span<const double>(data.subspan(sb.offset, sb.count))),
        right, std::as_writable_bytes(data.subspan(rb.offset, rb.count)),
        left, tag);
  }
}

}  // namespace detail

sim::Task<> Mpi::bcast(std::span<double> data, int root) {
  auto& api = this->api();
  co_await api.overhead(mem::sw::mpi_coll_call);
  const int p = size();
  if (p > 1 && data.size() >= static_cast<std::size_t>(4 * p)) {
    // Long vectors (MPICH): binomial scatter + ring allgather of blocks.
    const auto blocks =
        coll::split_blocks(data.size(), p, coll::SplitPolicy::kBalanced);
    const int rel0 = (rank() - root + p) % p;
    const auto range = [&](int lo, int hi) {
      hi = std::min(hi, p);
      const std::size_t first = blocks[static_cast<std::size_t>(lo)].offset;
      const coll::Block& last = blocks[static_cast<std::size_t>(hi - 1)];
      return data.subspan(first, last.offset + last.count - first);
    };
    int recv_mask = 0;
    if (rel0 != 0) {
      int m = 1;
      while ((rel0 & m) == 0) m <<= 1;
      const int src = (rel0 - m + root + p) % p;
      co_await channel_.recv(as_b(range(rel0, rel0 + m)), src, kTagBcast);
      recv_mask = m;
    } else {
      recv_mask = 1;
      while (recv_mask < p) recv_mask <<= 1;
    }
    for (int m = recv_mask >> 1; m > 0; m >>= 1) {
      if (rel0 + m < p) {
        const int dst = (rel0 + m + root) % p;
        auto part = range(rel0 + m, rel0 + 2 * m);
        co_await channel_.send(as_b(std::span<const double>(part)), dst,
                               kTagBcast);
      }
    }
    co_await detail::ring_allgather_blocks(*this, data, blocks,
                                           (p - root % p) % p, kTagBcast);
    co_return;
  }
  const int rel = (rank() - root + p) % p;
  int mask = 1;
  while (mask < p) {
    if (rel & mask) {
      const int src = (rel - mask + root + p) % p;
      co_await channel_.recv(as_b(data), src, kTagBcast);
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (rel + mask < p) {
      const int dst = (rel + mask + root) % p;
      co_await channel_.send(as_b(std::span<const double>(data)), dst,
                             kTagBcast);
    }
    mask >>= 1;
  }
}

sim::Task<> Mpi::reduce(std::span<const double> in, std::span<double> out,
                        ReduceOp op, int root) {
  auto& api = this->api();
  SCC_EXPECTS(in.size() == out.size());
  co_await api.overhead(mem::sw::mpi_coll_call);
  const int p = size();
  if (p == 1 || in.size() < static_cast<std::size_t>(p)) {
    // Short vectors: binomial tree.
    co_await reduce_binomial(in, out, op, root);
    co_return;
  }
  // Long vectors (RCKMPI tuning on the SCC): ring ReduceScatter followed
  // by a gather of the owned blocks to the root.
  std::span<double> work = scratch_span(in.size(), 1);
  std::copy(in.begin(), in.end(), work.begin());
  co_await api.priv_read(in.data(), in.size_bytes());
  co_await api.priv_write(work.data(), work.size_bytes());
  const auto blocks =
      coll::split_blocks(in.size(), p, coll::SplitPolicy::kBalanced);
  co_await detail::ring_reduce_scatter(*this, work, op, blocks, kTagReduce);
  if (rank() == root) {
    const coll::Block& own = blocks[static_cast<std::size_t>((root + 1) % p)];
    std::copy_n(work.data() + own.offset, own.count,
                out.data() + own.offset);
    co_await api.priv_write(out.data() + own.offset,
                            own.count * sizeof(double));
    for (int k = 1; k < p; ++k) {
      const int src = (root + k) % p;
      const coll::Block& b = blocks[static_cast<std::size_t>((src + 1) % p)];
      co_await channel_.recv(as_b(out.subspan(b.offset, b.count)), src,
                             kTagReduce);
    }
  } else {
    const coll::Block& own = blocks[static_cast<std::size_t>((rank() + 1) % p)];
    co_await channel_.send(
        as_b(std::span<const double>(work.subspan(own.offset, own.count))),
        root, kTagReduce);
  }
}

sim::Task<> Mpi::reduce_binomial(std::span<const double> in,
                                 std::span<double> out, ReduceOp op,
                                 int root) {
  auto& api = this->api();
  const int p = size();
  const int rel = (rank() - root + p) % p;
  std::span<double> acc = scratch_span(in.size(), 1);
  std::copy(in.begin(), in.end(), acc.begin());
  co_await api.priv_read(in.data(), in.size_bytes());
  co_await api.priv_write(acc.data(), acc.size_bytes());
  std::span<double> tmp = scratch_span(in.size(), 2);
  int mask = 1;
  while (mask < p) {
    if (rel & mask) {
      const int dst = (rel - mask + root + p) % p;
      co_await channel_.send(
          as_b(std::span<const double>(acc.data(), acc.size())), dst,
          kTagReduce);
      break;
    }
    if (rel + mask < p) {
      const int src = (rel + mask + root) % p;
      co_await channel_.recv(as_b(tmp), src, kTagReduce);
      co_await rcce::apply_reduce(api, tmp, acc, op);
    }
    mask <<= 1;
  }
  if (rel == 0) {
    std::copy(acc.begin(), acc.end(), out.begin());
    co_await api.priv_write(out.data(), out.size_bytes());
  }
}

sim::Task<> Mpi::allreduce(std::span<const double> in, std::span<double> out,
                           ReduceOp op) {
  auto& api = this->api();
  SCC_EXPECTS(in.size() == out.size());
  co_await api.overhead(mem::sw::mpi_coll_call);
  const int p = size();
  if (p > 1 && in.size() > kRecursiveDoublingMax &&
      in.size() >= static_cast<std::size_t>(p)) {
    // Long vectors: ring ReduceScatter + ring Allgather (the bucket
    // algorithm RCKMPI's tuning tables select on the SCC).
    std::copy(in.begin(), in.end(), out.begin());
    co_await api.priv_read(in.data(), in.size_bytes());
    co_await api.priv_write(out.data(), out.size_bytes());
    const auto blocks =
        coll::split_blocks(in.size(), p, coll::SplitPolicy::kBalanced);
    co_await detail::ring_reduce_scatter(*this, out, op, blocks,
                                         kTagAllreduce);
    co_await detail::ring_allgather_blocks(*this, out, blocks, 1,
                                           kTagAllreduce);
    co_return;
  }
  if (p == 1) {
    std::copy(in.begin(), in.end(), out.begin());
    co_await api.priv_read(in.data(), in.size_bytes());
    co_await api.priv_write(out.data(), out.size_bytes());
    co_return;
  }
  // Recursive doubling with non-power-of-two folding (MPICH).
  const int pof2 = [&] {
    int v = 1;
    while (v * 2 <= p) v *= 2;
    return v;
  }();
  const int rem = p - pof2;
  std::span<double> acc = scratch_span(in.size(), 1);
  std::copy(in.begin(), in.end(), acc.begin());
  co_await api.priv_read(in.data(), in.size_bytes());
  co_await api.priv_write(acc.data(), acc.size_bytes());
  std::span<double> tmp = scratch_span(in.size(), 2);
  int newrank;
  if (rank() < 2 * rem) {
    if (rank() % 2 == 0) {
      co_await channel_.send(
          as_b(std::span<const double>(acc.data(), acc.size())), rank() + 1,
          kTagAllreduce);
      newrank = -1;
    } else {
      co_await channel_.recv(as_b(tmp), rank() - 1, kTagAllreduce);
      co_await rcce::apply_reduce(api, tmp, acc, op);
      newrank = rank() / 2;
    }
  } else {
    newrank = rank() - rem;
  }
  if (newrank != -1) {
    for (int mask = 1; mask < pof2; mask <<= 1) {
      const int partner_new = newrank ^ mask;
      const int partner =
          partner_new < rem ? partner_new * 2 + 1 : partner_new + rem;
      co_await channel_.sendrecv(
          as_b(std::span<const double>(acc.data(), acc.size())), partner,
          as_b(tmp), partner, kTagAllreduce);
      co_await rcce::apply_reduce(api, tmp, acc, op);
    }
  }
  if (rank() < 2 * rem) {
    if (rank() % 2 == 1) {
      co_await channel_.send(
          as_b(std::span<const double>(acc.data(), acc.size())), rank() - 1,
          kTagAllreduce);
    } else {
      co_await channel_.recv(as_b(acc), rank() + 1, kTagAllreduce);
    }
  }
  std::copy(acc.begin(), acc.end(), out.begin());
  co_await api.priv_write(out.data(), out.size_bytes());
}

sim::Task<> Mpi::allgather(std::span<const double> contribution,
                           std::span<double> gathered) {
  auto& api = this->api();
  const int p = size();
  const std::size_t n = contribution.size();
  SCC_EXPECTS(gathered.size() == n * static_cast<std::size_t>(p));
  co_await api.overhead(mem::sw::mpi_coll_call);
  std::copy(contribution.begin(), contribution.end(),
            gathered.begin() + static_cast<std::ptrdiff_t>(
                                   static_cast<std::size_t>(rank()) * n));
  co_await api.priv_read(contribution.data(), contribution.size_bytes());
  co_await api.priv_write(gathered.data() + static_cast<std::size_t>(rank()) * n,
                          n * sizeof(double));
  if (p == 1) co_return;
  const int right = (rank() + 1) % p;
  const int left = (rank() + p - 1) % p;
  for (int r = 0; r < p - 1; ++r) {
    const auto send_of = static_cast<std::size_t>((rank() - r + p) % p);
    const auto recv_of = static_cast<std::size_t>((rank() - r - 1 + p) % p);
    co_await channel_.sendrecv(
        as_b(std::span<const double>(gathered.subspan(send_of * n, n))), right,
        as_b(gathered.subspan(recv_of * n, n)), left, kTagAllgather,
        mem::sw::mpi_nb_call);
  }
}

sim::Task<> Mpi::alltoall(std::span<const double> sendbuf,
                          std::span<double> recvbuf) {
  auto& api = this->api();
  const int p = size();
  SCC_EXPECTS(sendbuf.size() == recvbuf.size());
  SCC_EXPECTS(sendbuf.size() % static_cast<std::size_t>(p) == 0);
  const std::size_t n = sendbuf.size() / static_cast<std::size_t>(p);
  co_await api.overhead(mem::sw::mpi_coll_call);
  for (int r = 0; r < p; ++r) {
    const int partner = ((r - rank()) % p + p) % p;
    const auto off = static_cast<std::size_t>(partner) * n;
    if (partner == rank()) {
      std::copy_n(sendbuf.begin() + static_cast<std::ptrdiff_t>(off), n,
                  recvbuf.begin() + static_cast<std::ptrdiff_t>(off));
      co_await api.priv_read(sendbuf.data() + off, n * sizeof(double));
      co_await api.priv_write(recvbuf.data() + off, n * sizeof(double));
      continue;
    }
    co_await channel_.sendrecv(as_b(sendbuf.subspan(off, n)), partner,
                               as_b(recvbuf.subspan(off, n)), partner,
                               kTagAlltoall, mem::sw::mpi_nb_call);
  }
}

sim::Task<int> Mpi::reduce_scatter(std::span<const double> in,
                                   std::span<double> out, ReduceOp op) {
  auto& api = this->api();
  SCC_EXPECTS(out.size() == in.size());
  co_await api.overhead(mem::sw::mpi_coll_call);
  const int p = size();
  if (p == 1) {
    std::copy(in.begin(), in.end(), out.begin());
    co_await api.priv_read(in.data(), in.size_bytes());
    co_await api.priv_write(out.data(), out.size_bytes());
    co_return 0;
  }
  // Ring (bucket) algorithm directly; core i ends up owning block (i+1)%p.
  std::copy(in.begin(), in.end(), out.begin());
  co_await api.priv_read(in.data(), in.size_bytes());
  co_await api.priv_write(out.data(), out.size_bytes());
  const auto blocks =
      coll::split_blocks(in.size(), p, coll::SplitPolicy::kBalanced);
  co_await detail::ring_reduce_scatter(*this, out, op, blocks, kTagScatter);
  co_return (rank() + 1) % p;
}

sim::Task<> Mpi::barrier() {
  auto& api = this->api();
  co_await api.overhead(mem::sw::mpi_coll_call);
  const int p = size();
  for (int dist = 1; dist < p; dist *= 2) {
    const int to = (rank() + dist) % p;
    const int from = (rank() - dist + p) % p;
    co_await channel_.sendrecv({}, to, {}, from, kTagBarrier);
  }
}

}  // namespace scc::rckmpi

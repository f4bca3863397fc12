// Point-to-point messaging tests: blocking and nonblocking send/recv, tag and
// source matching, wildcards, ordering guarantees, truncation errors, and
// probe.

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "minimpi/minimpi.hpp"

namespace {

using mpi::any_source;
using mpi::any_tag;
using mpi::Comm;
using mpi::Datatype;

TEST(P2P, SendRecvFloats) {
  mpi::run(2, [](Comm& comm) {
    const Datatype f = Datatype::of<float>();
    if (comm.rank() == 0) {
      const std::vector<float> data{1.5f, -2.0f, 3.25f};
      comm.send(data.data(), data.size(), f, 1, 7);
    } else {
      std::vector<float> got(3, 0.0f);
      const mpi::Status s = comm.recv(got.data(), got.size(), f, 0, 7);
      EXPECT_EQ(s.source, 0);
      EXPECT_EQ(s.tag, 7);
      EXPECT_EQ(s.bytes, 3 * sizeof(float));
      EXPECT_EQ(got, (std::vector<float>{1.5f, -2.0f, 3.25f}));
    }
  });
}

TEST(P2P, TagMatchingSelectsCorrectMessage) {
  mpi::run(2, [](Comm& comm) {
    const Datatype i = Datatype::of<int>();
    if (comm.rank() == 0) {
      const int a = 111, b = 222;
      comm.send(&a, 1, i, 1, /*tag=*/1);
      comm.send(&b, 1, i, 1, /*tag=*/2);
    } else {
      int got = 0;
      comm.recv(&got, 1, i, 0, 2);  // request the second tag first
      EXPECT_EQ(got, 222);
      comm.recv(&got, 1, i, 0, 1);
      EXPECT_EQ(got, 111);
    }
  });
}

TEST(P2P, NonOvertakingSameTag) {
  mpi::run(2, [](Comm& comm) {
    const Datatype i = Datatype::of<int>();
    if (comm.rank() == 0) {
      for (int k = 0; k < 50; ++k) comm.send(&k, 1, i, 1, 3);
    } else {
      for (int k = 0; k < 50; ++k) {
        int got = -1;
        comm.recv(&got, 1, i, 0, 3);
        EXPECT_EQ(got, k) << "messages with equal (src, tag) must not overtake";
      }
    }
  });
}

TEST(P2P, AnySourceAnyTag) {
  mpi::run(3, [](Comm& comm) {
    const Datatype i = Datatype::of<int>();
    if (comm.rank() != 0) {
      const int v = comm.rank() * 10;
      comm.send(&v, 1, i, 0, comm.rank());
    } else {
      int sum = 0;
      for (int k = 0; k < 2; ++k) {
        int got = 0;
        const mpi::Status s = comm.recv(&got, 1, i, any_source, any_tag);
        EXPECT_EQ(got, s.source * 10);
        EXPECT_EQ(s.tag, s.source);
        sum += got;
      }
      EXPECT_EQ(sum, 30);
    }
  });
}

TEST(P2P, TruncationThrows) {
  EXPECT_THROW(
      mpi::run(2,
               [](Comm& comm) {
                 const Datatype i = Datatype::of<int>();
                 if (comm.rank() == 0) {
                   const std::vector<int> data(8, 1);
                   comm.send(data.data(), data.size(), i, 1, 0);
                 } else {
                   std::vector<int> small(2);
                   comm.recv(small.data(), small.size(), i, 0, 0);
                 }
               }),
      mpi::Error);
}

TEST(P2P, PartialElementThrowsThroughTestAsThroughWait) {
  // 12 bytes into a receive of 2 x 8-byte elements is not a whole number of
  // elements: wait() and test() must both reject it, not unpack one element
  // and drop the remaining 4 bytes.
  mpi::run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      const std::vector<std::byte> data(12, std::byte{7});
      comm.send(data.data(), data.size(), Datatype::bytes(1), 1, 0);
      comm.send(data.data(), data.size(), Datatype::bytes(1), 1, 1);
    } else {
      const Datatype d = Datatype::of<double>();
      std::vector<double> buf(2, 0.0);
      auto error_class = [](auto&& complete) {
        try {
          complete();
        } catch (const mpi::Error& e) {
          return e.error_class();
        }
        return mpi::ErrorClass::internal;
      };
      mpi::Request by_wait = comm.irecv(buf.data(), 2, d, 0, 0);
      EXPECT_EQ(error_class([&] { by_wait.wait(); }),
                mpi::ErrorClass::truncate);
      mpi::Request by_test = comm.irecv(buf.data(), 2, d, 0, 1);
      EXPECT_EQ(error_class([&] {
                  while (!by_test.test()) {
                  }
                }),
                mpi::ErrorClass::truncate);
      EXPECT_EQ(buf[0], 0.0) << "a rejected message must not be unpacked";
    }
  });
}

TEST(P2P, ReceiveFewerElementsThanCapacityIsFine) {
  mpi::run(2, [](Comm& comm) {
    const Datatype i = Datatype::of<int>();
    if (comm.rank() == 0) {
      const int v = 9;
      comm.send(&v, 1, i, 1, 0);
    } else {
      std::vector<int> buf(10, -1);
      const mpi::Status s = comm.recv(buf.data(), buf.size(), i, 0, 0);
      EXPECT_EQ(s.bytes, sizeof(int));
      EXPECT_EQ(s.count(sizeof(int)), 1u);
      EXPECT_EQ(buf[0], 9);
      EXPECT_EQ(buf[1], -1);
    }
  });
}

TEST(P2P, SendRecvWithSubarrayTypesTransposesLayout) {
  // Sender transmits a column of a 4x4 matrix; receiver stores it as a row.
  mpi::run(2, [](Comm& comm) {
    const Datatype b = Datatype::bytes(1);
    const int sizes[] = {4, 4};
    if (comm.rank() == 0) {
      std::vector<std::byte> m(16);
      for (int i = 0; i < 16; ++i) m[static_cast<std::size_t>(i)] = std::byte(i);
      const int sub[] = {4, 1}, st[] = {0, 2};  // column 2
      const Datatype col = Datatype::subarray(sizes, sub, st, b);
      comm.send(m.data(), 1, col, 1, 0);
    } else {
      std::vector<std::byte> m(16, std::byte{0});
      const int sub[] = {1, 4}, st[] = {1, 0};  // row 1
      const Datatype row = Datatype::subarray(sizes, sub, st, b);
      comm.recv(m.data(), 1, row, 0, 0);
      EXPECT_EQ(m[4], std::byte(2));
      EXPECT_EQ(m[5], std::byte(6));
      EXPECT_EQ(m[6], std::byte(10));
      EXPECT_EQ(m[7], std::byte(14));
    }
  });
}

TEST(P2P, IsendIrecvWaitAll) {
  mpi::run(4, [](Comm& comm) {
    const Datatype i = Datatype::of<int>();
    const int p = comm.size();
    // Halo-style exchange: everyone sends its rank to both neighbors.
    const int left = (comm.rank() - 1 + p) % p;
    const int right = (comm.rank() + 1) % p;
    int from_left = -1, from_right = -1;
    std::vector<mpi::Request> reqs;
    reqs.push_back(comm.irecv(&from_left, 1, i, left, 0));
    reqs.push_back(comm.irecv(&from_right, 1, i, right, 1));
    const int me = comm.rank();
    reqs.push_back(comm.isend(&me, 1, i, right, 0));
    reqs.push_back(comm.isend(&me, 1, i, left, 1));
    mpi::wait_all(reqs);
    EXPECT_EQ(from_left, left);
    EXPECT_EQ(from_right, right);
  });
}

TEST(P2P, RequestTestPollsToCompletion) {
  mpi::run(2, [](Comm& comm) {
    const Datatype i = Datatype::of<int>();
    if (comm.rank() == 1) {
      int got = 0;
      mpi::Request r = comm.irecv(&got, 1, i, 0, 0);
      std::optional<mpi::Status> s;
      while (!(s = r.test())) {
      }
      EXPECT_EQ(got, 42);
      EXPECT_EQ(s->source, 0);
    } else {
      const int v = 42;
      comm.send(&v, 1, i, 1, 0);
    }
  });
}

TEST(P2P, WaitAnyReturnsFirstCompletion) {
  mpi::run(3, [](mpi::Comm& comm) {
    const Datatype i = Datatype::of<int>();
    if (comm.rank() == 0) {
      int a = -1, b = -1;
      std::vector<mpi::Request> reqs;
      reqs.push_back(comm.irecv(&a, 1, i, 1, 0));
      reqs.push_back(comm.irecv(&b, 1, i, 2, 0));
      // Only rank 2 sends initially.
      const auto [idx, st] = mpi::wait_any(reqs);
      EXPECT_EQ(idx, 1u);
      EXPECT_EQ(st.source, 2);
      EXPECT_EQ(b, 222);
      EXPECT_FALSE(reqs[1].valid());
      // Unblock the remaining request.
      const int go = 1;
      comm.send(&go, 1, i, 1, 9);
      const auto [idx2, st2] = mpi::wait_any(reqs);
      EXPECT_EQ(idx2, 0u);
      EXPECT_EQ(a, 111);
    } else if (comm.rank() == 2) {
      const int v = 222;
      comm.send(&v, 1, i, 0, 0);
    } else {
      int go = 0;
      comm.recv(&go, 1, i, 0, 9);  // wait until rank 0 saw rank 2's message
      const int v = 111;
      comm.send(&v, 1, i, 0, 0);
    }
  });
}

TEST(P2P, WaitAnyWithNoValidRequestsThrows) {
  mpi::run(1, [](mpi::Comm&) {
    std::vector<mpi::Request> reqs(3);  // all invalid
    EXPECT_THROW(mpi::wait_any(reqs), mpi::Error);
  });
}

TEST(P2P, ProbeReportsSizeWithoutConsuming) {
  mpi::run(2, [](Comm& comm) {
    const Datatype d = Datatype::of<double>();
    if (comm.rank() == 0) {
      const std::vector<double> data(5, 3.14);
      comm.send(data.data(), data.size(), d, 1, 9);
    } else {
      const mpi::Status p = comm.probe(0, 9);
      EXPECT_EQ(p.bytes, 5 * sizeof(double));
      std::vector<double> buf(p.count(sizeof(double)));
      comm.recv(buf.data(), buf.size(), d, p.source, p.tag);
      EXPECT_DOUBLE_EQ(buf[4], 3.14);
    }
  });
}

TEST(P2P, IprobeReturnsNulloptWhenEmpty) {
  mpi::run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      EXPECT_FALSE(comm.iprobe(1, 0).has_value());
    }
    comm.barrier();
    const Datatype i = Datatype::of<int>();
    if (comm.rank() == 1) {
      const int v = 1;
      comm.send(&v, 1, i, 0, 0);
    }
    comm.barrier();
    if (comm.rank() == 0) {
      EXPECT_TRUE(comm.iprobe(1, 0).has_value());
      int got;
      comm.recv(&got, 1, i, 1, 0);
    }
  });
}

TEST(P2P, SendrecvExchangesWithoutDeadlock) {
  mpi::run(2, [](Comm& comm) {
    const Datatype i = Datatype::of<int>();
    const int mine = comm.rank() + 100;
    int theirs = -1;
    const int peer = 1 - comm.rank();
    comm.sendrecv(&mine, 1, i, peer, 0, &theirs, 1, i, peer, 0);
    EXPECT_EQ(theirs, peer + 100);
  });
}

TEST(P2P, InvalidRankThrows) {
  EXPECT_THROW(mpi::run(2,
                        [](Comm& comm) {
                          const int v = 0;
                          comm.send(&v, 1, Datatype::of<int>(), 5, 0);
                        }),
               mpi::Error);
}

TEST(P2P, NegativeTagThrows) {
  EXPECT_THROW(mpi::run(2,
                        [](Comm& comm) {
                          const int v = 0;
                          comm.send(&v, 1, Datatype::of<int>(),
                                    1 - comm.rank(), -3);
                        }),
               mpi::Error);
}

TEST(P2P, ZeroByteMessage) {
  mpi::run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(nullptr, 0, Datatype::of<int>(), 1, 0);
    } else {
      const mpi::Status s = comm.recv(nullptr, 0, Datatype::of<int>(), 0, 0);
      EXPECT_EQ(s.bytes, 0u);
    }
  });
}

TEST(P2P, ManyRanksRing) {
  // Pass a token around a large ring to stress thread scheduling.
  constexpr int kRanks = 64;
  mpi::run(kRanks, [](Comm& comm) {
    const Datatype i = Datatype::of<int>();
    const int p = comm.size();
    if (comm.rank() == 0) {
      int token = 1;
      comm.send(&token, 1, i, 1, 0);
      comm.recv(&token, 1, i, p - 1, 0);
      EXPECT_EQ(token, p);
    } else {
      int token = 0;
      comm.recv(&token, 1, i, comm.rank() - 1, 0);
      ++token;
      comm.send(&token, 1, i, (comm.rank() + 1) % p, 0);
    }
  });
}

}  // namespace

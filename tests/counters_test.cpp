//===- tests/counters_test.cpp - Algorithm-counter telemetry tests --------===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
// The complexity-telemetry contract: histogram bucket math, counter
// determinism for a fixed input (including -j 1 vs -j 8 over the module
// driver — the counters commute), the --counters-json schema round trip,
// and a hand-checked ground truth for the paper's Figure 2 CFG.
//
//===----------------------------------------------------------------------===//

#include "support/Statistic.h"

#include "obs/Json.h"
#include "obs/Metrics.h"
#include "obs/StatsJson.h"
#include "pass/ModulePipeline.h"
#include "pass/PassPipeline.h"
#include "structure/CycleEquivalence.h"
#include "workload/Generators.h"

#include "ParseOrDie.h"

#include <gtest/gtest.h>

#include <thread>

using namespace depflow;

//===----------------------------------------------------------------------===//
// Histogram bucket math
//===----------------------------------------------------------------------===//

TEST(HistStatistic, BucketIndexLayout) {
  // Bucket 0 <- 0; bucket i>=1 <- [2^(i-1), 2^i); last bucket overflows.
  EXPECT_EQ(HistStatistic::bucketIndex(0), 0u);
  EXPECT_EQ(HistStatistic::bucketIndex(1), 1u);
  EXPECT_EQ(HistStatistic::bucketIndex(2), 2u);
  EXPECT_EQ(HistStatistic::bucketIndex(3), 2u);
  EXPECT_EQ(HistStatistic::bucketIndex(4), 3u);
  EXPECT_EQ(HistStatistic::bucketIndex(7), 3u);
  EXPECT_EQ(HistStatistic::bucketIndex(8), 4u);
  EXPECT_EQ(HistStatistic::bucketIndex((1u << 14) - 1), 14u);
  EXPECT_EQ(HistStatistic::bucketIndex(1u << 14), 15u);
  EXPECT_EQ(HistStatistic::bucketIndex(std::uint64_t(1) << 40),
            HistStatistic::NumBuckets - 1);
}

TEST(HistStatistic, SampleMoments) {
  static HistStatistic H("counters-test", "HistSampleMoments", "test");
  std::uint64_t Base = H.count(); // Static: survives test-order shuffles.
  H.sample(0);
  H.sample(1);
  H.sample(5);
  H.sample(100);
  EXPECT_EQ(H.count() - Base, 4u);
  EXPECT_GE(H.sum(), 106u);
  EXPECT_GE(H.max(), 100u);
  EXPECT_GE(H.bucket(0), 1u); // 0
  EXPECT_GE(H.bucket(1), 1u); // 1
  EXPECT_GE(H.bucket(3), 1u); // 5 in [4, 8)
  EXPECT_GE(H.bucket(7), 1u); // 100 in [64, 128)
}

TEST(MaxStatistic, HighWaterOnly) {
  static MaxStatistic M("counters-test", "MaxHighWater", "test");
  M.update(7);
  M.update(3); // Lower: must not regress the gauge.
  EXPECT_GE(M.value(), 7u);
  EXPECT_EQ(statisticValue("counters-test", "MaxHighWater"), M.value());
}

//===----------------------------------------------------------------------===//
// Per-thread shards
//===----------------------------------------------------------------------===//

TEST(StatisticShards, ThreadsSumExactly) {
  static Statistic S("counters-test", "ShardThreadsCounter", "test");
  static HistStatistic H("counters-test", "ShardThreadsHist", "test");
  constexpr unsigned NumThreads = 8, PerThread = 5000;
  resetStatistics();
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != NumThreads; ++T)
    Threads.emplace_back([T] {
      for (unsigned I = 0; I != PerThread; ++I) {
        ++S;
        H.sample(T * PerThread + I);
      }
    });
  for (std::thread &Th : Threads)
    Th.join();

  // The samples are 0 .. NumThreads * PerThread - 1, once each.
  const std::uint64_t N = NumThreads * PerThread;
  std::vector<std::uint64_t> WantBuckets(HistStatistic::NumBuckets, 0);
  for (std::uint64_t V = 0; V != N; ++V)
    ++WantBuckets[HistStatistic::bucketIndex(V)];
  EXPECT_EQ(S.value(), N);
  EXPECT_EQ(statisticValue("counters-test", "ShardThreadsCounter"), N);
  EXPECT_EQ(H.count(), N);
  EXPECT_EQ(H.sum(), N * (N - 1) / 2);
  EXPECT_EQ(H.max(), N - 1);
  for (const StatisticSnapshot &Row : statisticsSnapshot())
    if (Row.Name == "ShardThreadsHist") {
      EXPECT_EQ(Row.Count, N);
      EXPECT_EQ(Row.Value, N * (N - 1) / 2);
      EXPECT_EQ(Row.Buckets, WantBuckets);
    }
}

TEST(StatisticShards, ExitedThreadStillCounted) {
  static Statistic S("counters-test", "ShardExitedThread", "test");
  resetStatistics();
  ++S; // The main thread's live shard.
  std::thread([] { S += 41; }).join(); // Folded into the retired total.
  EXPECT_EQ(S.value(), 42u);
  EXPECT_EQ(statisticValue("counters-test", "ShardExitedThread"), 42u);
}

TEST(StatisticShards, ResetClearsLiveAndRetired) {
  static Statistic S("counters-test", "ShardReset", "test");
  static HistStatistic H("counters-test", "ShardResetHist", "test");
  S += 3;
  H.sample(9);
  std::thread([] {
    S += 4;
    H.sample(100);
  }).join();
  ASSERT_GE(S.value(), 7u);
  const std::uint64_t AllocBytes = obs::processAllocatedBytes();
  resetStatistics();
  EXPECT_EQ(obs::processAllocatedBytes(), AllocBytes)
      << "the shards' allocation counters are fields, not slots";
  EXPECT_EQ(S.value(), 0u);
  EXPECT_EQ(H.count(), 0u);
  EXPECT_EQ(H.sum(), 0u);
  EXPECT_EQ(H.max(), 0u);
  for (unsigned I = 0; I != HistStatistic::NumBuckets; ++I)
    EXPECT_EQ(H.bucket(I), 0u) << "bucket " << I;

  // Counting restarts from zero in the live shard and in a shard that a
  // new thread takes over from the exited one.
  ++S;
  std::thread([] { S += 5; }).join();
  EXPECT_EQ(S.value(), 6u);
}

//===----------------------------------------------------------------------===//
// Figure 2 ground truth
//===----------------------------------------------------------------------===//

namespace {

const char *Fig2 = R"(func fig2(p) {
entry:
  x = 1
  if p goto thn else els
thn:
  y = 2
  goto join
els:
  y = 3
  goto join
join:
  z = x + y
  ret z
}
)";

} // namespace

TEST(CountersFigure2, HandComputedBracketCounts) {
  auto F = parseFunctionOrDie(Fig2);
  F->recomputePreds();
  CFGEdges E(*F);
  resetStatistics();
  CycleEquivalence CE = cycleEquivalenceClasses(*F, E);

  // The diamond plus the virtual exit->entry edge: the DFS touches each
  // of the 5 undirected edges once as a first traversal; only the two
  // arms of the diamond create (real) brackets, each deleted when its
  // other endpoint retires; no capping brackets are ever needed; and no
  // bracket list ever holds more than the two arm brackets at once.
  EXPECT_EQ(statisticValue("cycle-equiv", "NumCEEdgesVisited"), 5u);
  EXPECT_EQ(statisticValue("cycle-equiv", "NumCEBracketPushes"), 2u);
  EXPECT_EQ(statisticValue("cycle-equiv", "NumCEBracketPops"), 2u);
  EXPECT_EQ(statisticValue("cycle-equiv", "NumCECappingBrackets"), 0u);
  EXPECT_EQ(statisticValue("cycle-equiv", "MaxCEBracketList"), 2u);
  EXPECT_EQ(CE.NumClasses, 3u);
}

//===----------------------------------------------------------------------===//
// Determinism
//===----------------------------------------------------------------------===//

namespace {

std::vector<StatisticSnapshot> runPipelineAndSnapshot(unsigned Jobs) {
  // Fresh bit-identical module per run so neither run sees the other's IR.
  std::unique_ptr<Module> M = generateModule(24, 20260807);
  PassPipeline Pipe;
  Status S = PassPipeline::parse("separate,constprop,pre", Pipe);
  EXPECT_TRUE(S.ok()) << S.str();
  ModulePipelineOptions MPO;
  MPO.Jobs = Jobs;
  resetStatistics();
  ModulePipelineResult R = runPipelineOnModule(*M, Pipe, MPO);
  EXPECT_TRUE(R.ok()) << R.combinedStatus().str();
  return statisticsSnapshot();
}

void expectSnapshotsEqual(const std::vector<StatisticSnapshot> &A,
                          const std::vector<StatisticSnapshot> &B) {
  ASSERT_EQ(A.size(), B.size());
  for (std::size_t I = 0; I != A.size(); ++I) {
    EXPECT_EQ(A[I].Group, B[I].Group);
    EXPECT_EQ(A[I].Name, B[I].Name);
    EXPECT_EQ(A[I].Value, B[I].Value) << A[I].Group << "/" << A[I].Name;
    EXPECT_EQ(A[I].Kind, B[I].Kind);
    EXPECT_EQ(A[I].Count, B[I].Count) << A[I].Group << "/" << A[I].Name;
    EXPECT_EQ(A[I].Max, B[I].Max) << A[I].Group << "/" << A[I].Name;
    EXPECT_EQ(A[I].Buckets, B[I].Buckets) << A[I].Group << "/" << A[I].Name;
  }
}

} // namespace

TEST(CountersDeterminism, RepeatedRunsMatch) {
  expectSnapshotsEqual(runPipelineAndSnapshot(1), runPipelineAndSnapshot(1));
}

TEST(CountersDeterminism, ParallelMatchesSerial) {
  // Every counter mutation commutes (relaxed adds and CAS-max), and the
  // per-function work is scheduling-independent, so -j 8 must aggregate
  // to exactly the -j 1 totals — histograms and max gauges included.
  expectSnapshotsEqual(runPipelineAndSnapshot(1), runPipelineAndSnapshot(8));
}

//===----------------------------------------------------------------------===//
// --counters-json schema round trip
//===----------------------------------------------------------------------===//

TEST(CountersJson, RendersAndParsesBack) {
  // Touch at least one counter of each kind first.
  auto F = parseFunctionOrDie(Fig2);
  F->recomputePreds();
  CFGEdges E(*F);
  resetStatistics();
  cycleEquivalenceClasses(*F, E);
  static HistStatistic H("counters-test", "HistJsonRoundTrip", "test");
  H.sample(3);

  std::string Doc = obs::renderCountersJson("counters_test", "separate");
  obs::JsonValue V;
  std::string Error;
  ASSERT_TRUE(obs::parseJson(Doc, V, Error)) << Error;

  ASSERT_TRUE(V.isObject());
  ASSERT_TRUE(V.find("schema") && V.find("schema")->isString());
  EXPECT_EQ(V.find("schema")->String, "depflow-counters");
  ASSERT_TRUE(V.find("schema_version") && V.find("schema_version")->isNumber());
  EXPECT_EQ(unsigned(V.find("schema_version")->Number),
            obs::CountersSchemaVersion);
  EXPECT_EQ(V.find("tool")->String, "counters_test");
  EXPECT_EQ(V.find("pipeline")->String, "separate");

  const obs::JsonValue *Counters = V.find("counters");
  ASSERT_TRUE(Counters && Counters->isArray());
  ASSERT_FALSE(Counters->Array.empty());
  bool SawHistogram = false;
  for (const obs::JsonValue &Entry : Counters->Array) {
    ASSERT_TRUE(Entry.isObject());
    ASSERT_TRUE(Entry.find("group") && Entry.find("group")->isString());
    ASSERT_TRUE(Entry.find("name") && Entry.find("name")->isString());
    ASSERT_TRUE(Entry.find("kind") && Entry.find("kind")->isString());
    ASSERT_TRUE(Entry.find("value") && Entry.find("value")->isNumber());
    const std::string &Kind = Entry.find("kind")->String;
    EXPECT_TRUE(Kind == "counter" || Kind == "max" || Kind == "histogram");
    if (Kind == "histogram") {
      SawHistogram = true;
      ASSERT_TRUE(Entry.find("count") && Entry.find("count")->isNumber());
      ASSERT_TRUE(Entry.find("max") && Entry.find("max")->isNumber());
      const obs::JsonValue *Buckets = Entry.find("buckets");
      ASSERT_TRUE(Buckets && Buckets->isArray());
      EXPECT_EQ(Buckets->Array.size(), HistStatistic::NumBuckets);
    } else {
      EXPECT_EQ(Entry.find("buckets"), nullptr);
    }
  }
  EXPECT_TRUE(SawHistogram);

  // The same entries ride inside depflow-stats documents under
  // `counters.entries`, with the shared layout version.
  obs::StatsReport SR;
  SR.Tool = "counters_test";
  obs::JsonValue SV;
  ASSERT_TRUE(obs::parseJson(obs::renderStatsJson(SR), SV, Error)) << Error;
  const obs::JsonValue *Section = SV.find("counters");
  ASSERT_TRUE(Section && Section->isObject());
  EXPECT_EQ(unsigned(Section->find("version")->Number),
            obs::CountersSchemaVersion);
  ASSERT_TRUE(Section->find("entries") && Section->find("entries")->isArray());
  EXPECT_EQ(Section->find("entries")->Array.size(), Counters->Array.size());
}

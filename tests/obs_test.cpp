//===- tests/obs_test.cpp - Observability layer (src/obs/) ----------------===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
// Tests for the tracing/metrics subsystem: the JSON substrate round-trips,
// trace spans nest per worker track under a parallel pipeline run, the
// emitted Chrome trace document parses back, the --stats-json schema
// carries its version field, and the --time-passes totals agree with the
// trace-span sums within tolerance (the two reports come from the same
// clock around the same code).
//
//===----------------------------------------------------------------------===//

#include "obs/Bench.h"
#include "obs/Json.h"
#include "obs/Metrics.h"
#include "obs/StatsJson.h"
#include "obs/Trace.h"
#include "pass/ModulePipeline.h"
#include "workload/Generators.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <latch>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace depflow;

namespace {

// The recorder is process-global; every test that enables it cleans up so
// later tests (and reruns within one process) start from empty.
struct RecorderGuard {
  RecorderGuard() {
    obs::TraceRecorder::global().reset();
    obs::TraceRecorder::global().setEnabled(true);
  }
  ~RecorderGuard() {
    obs::TraceRecorder::global().setEnabled(false);
    obs::TraceRecorder::global().reset();
  }
};

obs::JsonValue parseOrFail(const std::string &Src) {
  obs::JsonValue V;
  std::string Error;
  bool OK = obs::parseJson(Src, V, Error);
  EXPECT_TRUE(OK) << Error << "\nin: " << Src;
  return V;
}

//===----------------------------------------------------------------------===//
// JSON substrate
//===----------------------------------------------------------------------===//

TEST(Json, WriterRoundTripsThroughParser) {
  std::string Out;
  obs::JsonWriter W(Out);
  W.beginObject();
  W.keyValue("name", "sp\"an\n\\x");
  W.keyValue("count", std::uint64_t(42));
  W.keyValue("neg", std::int64_t(-7));
  W.keyValue("ratio", 0.25);
  W.keyValue("on", true);
  W.key("list");
  W.beginArray();
  W.value(1);
  W.value("two");
  W.beginObject();
  W.keyValue("k", 3);
  W.endObject();
  W.endArray();
  W.endObject();

  obs::JsonValue V = parseOrFail(Out);
  ASSERT_TRUE(V.isObject());
  EXPECT_EQ(V.find("name")->String, "sp\"an\n\\x");
  EXPECT_EQ(V.find("count")->Number, 42);
  EXPECT_EQ(V.find("neg")->Number, -7);
  EXPECT_EQ(V.find("ratio")->Number, 0.25);
  EXPECT_TRUE(V.find("on")->Bool);
  ASSERT_TRUE(V.find("list")->isArray());
  ASSERT_EQ(V.find("list")->Array.size(), 3u);
  EXPECT_EQ(V.find("list")->Array[1].String, "two");
  EXPECT_EQ(V.find("list")->Array[2].find("k")->Number, 3);
}

TEST(Json, ParserRejectsTrailingGarbage) {
  obs::JsonValue V;
  std::string Error;
  EXPECT_FALSE(obs::parseJson("{} extra", V, Error));
  EXPECT_FALSE(obs::parseJson("[1,]", V, Error));
  EXPECT_FALSE(obs::parseJson("", V, Error));
}

//===----------------------------------------------------------------------===//
// Trace recorder
//===----------------------------------------------------------------------===//

TEST(Trace, DisabledRecorderStaysEmpty) {
  obs::TraceRecorder &R = obs::TraceRecorder::global();
  R.reset();
  ASSERT_FALSE(R.enabled());
  {
    obs::TraceSpan Span("cat", "ignored");
    obs::traceInstant("cat", "also-ignored");
  }
  EXPECT_TRUE(R.snapshot().empty());
}

TEST(Trace, SpansNestOnOneThread) {
  RecorderGuard G;
  {
    obs::TraceSpan Outer("t", "outer");
    obs::TraceSpan Inner("t", "inner");
    obs::traceInstant("t", "mark");
  }
  std::vector<obs::TraceEvent> Events = obs::TraceRecorder::global().snapshot();
  ASSERT_EQ(Events.size(), 3u);
  // Sorted by start time, ties broken longer-span-first: outer precedes
  // inner, the instant lands inside both.
  EXPECT_EQ(Events[0].Name, "outer");
  EXPECT_EQ(Events[1].Name, "inner");
  EXPECT_GE(Events[1].TsUs, Events[0].TsUs);
  EXPECT_LE(Events[1].TsUs + Events[1].DurUs, Events[0].TsUs + Events[0].DurUs);
  EXPECT_EQ(Events[2].Name, "mark");
  EXPECT_LT(Events[2].DurUs, 0); // Instant.
}

/// Runs the module pipeline over a generated module with the recorder on.
ModulePipelineResult tracedPipelineRun(Module &M, unsigned Jobs) {
  PassPipeline Pipe;
  EXPECT_TRUE(PassPipeline::parse("separate,constprop,pre", Pipe).ok());
  ModulePipelineOptions Opts;
  Opts.Jobs = Jobs;
  ModulePipelineResult R = runPipelineOnModule(M, Pipe, Opts);
  EXPECT_TRUE(R.ok()) << R.combinedStatus().str();
  return R;
}

TEST(Trace, ParallelRunNestsPerWorkerTrack) {
  std::unique_ptr<Module> M = generateModule(24, /*Seed=*/7);
  RecorderGuard G;
  tracedPipelineRun(*M, /*Jobs=*/8);

  std::vector<obs::TraceEvent> Events = obs::TraceRecorder::global().snapshot();
  ASSERT_FALSE(Events.empty());

  // Group span events by thread.
  std::map<std::uint32_t, std::vector<const obs::TraceEvent *>> ByTid;
  unsigned TaskSpans = 0, PassSpans = 0;
  for (const obs::TraceEvent &E : Events) {
    if (E.DurUs >= 0)
      ByTid[E.Tid].push_back(&E);
    if (std::string(E.Category) == "task")
      ++TaskSpans;
    if (std::string(E.Category) == "pass")
      ++PassSpans;
  }
  // One task span per function; three pass spans per function.
  EXPECT_EQ(TaskSpans, M->numFunctions());
  EXPECT_EQ(PassSpans, 3 * M->numFunctions());
  EXPECT_GE(ByTid.size(), 1u);
  EXPECT_LE(ByTid.size(), 8u);

  // Within each track, spans are properly nested: sweeping in start order,
  // each span either fits inside the innermost open span or begins after
  // it ended. (snapshot() orders ties parent-first.)
  for (auto &[Tid, Spans] : ByTid) {
    std::vector<const obs::TraceEvent *> Stack;
    for (const obs::TraceEvent *E : Spans) {
      while (!Stack.empty() &&
             E->TsUs >= Stack.back()->TsUs + Stack.back()->DurUs)
        Stack.pop_back();
      if (!Stack.empty())
        EXPECT_LE(E->TsUs + E->DurUs,
                  Stack.back()->TsUs + Stack.back()->DurUs)
            << "span '" << E->Name << "' straddles '" << Stack.back()->Name
            << "' on tid " << Tid;
      Stack.push_back(E);
    }
    // Every pass span sits inside a task span on its own track.
    for (const obs::TraceEvent *E : Spans)
      if (std::string(E->Category) == "pass") {
        bool Inside = false;
        for (const obs::TraceEvent *T : Spans)
          if (std::string(T->Category) == "task" && T->TsUs <= E->TsUs &&
              E->TsUs + E->DurUs <= T->TsUs + T->DurUs)
            Inside = true;
        EXPECT_TRUE(Inside) << "pass span '" << E->Name
                            << "' outside every task span";
      }
  }
}

TEST(Trace, ChromeJsonParsesBackAndCarriesTrackNames) {
  std::unique_ptr<Module> M = generateModule(6, /*Seed=*/11);
  RecorderGuard G;
  obs::TraceRecorder::global().setCurrentThreadName("test-main");
  tracedPipelineRun(*M, /*Jobs=*/2);

  obs::JsonValue V = parseOrFail(obs::TraceRecorder::global().toChromeJson());
  ASSERT_TRUE(V.isObject());
  EXPECT_EQ(V.find("displayTimeUnit")->String, "ms");
  const obs::JsonValue *Events = V.find("traceEvents");
  ASSERT_TRUE(Events && Events->isArray());
  ASSERT_FALSE(Events->Array.empty());

  bool SawWorkerName = false;
  unsigned Complete = 0;
  for (const obs::JsonValue &E : Events->Array) {
    ASSERT_TRUE(E.isObject());
    const std::string &Ph = E.find("ph")->String;
    EXPECT_EQ(E.find("pid")->Number, 1);
    if (Ph == "M") {
      EXPECT_EQ(E.find("name")->String, "thread_name");
      const obs::JsonValue *Args = E.find("args");
      ASSERT_TRUE(Args && Args->isObject());
      if (Args->find("name")->String.rfind("worker-", 0) == 0)
        SawWorkerName = true;
    } else if (Ph == "X") {
      ++Complete;
      EXPECT_TRUE(E.find("ts")->isNumber());
      EXPECT_TRUE(E.find("dur")->isNumber());
      EXPECT_GE(E.find("dur")->Number, 0);
      if (E.find("cat")->String == "pass") {
        const obs::JsonValue *Args = E.find("args");
        ASSERT_TRUE(Args && Args->isObject());
        EXPECT_TRUE(Args->find("function"));
      }
    } else {
      EXPECT_EQ(Ph, "i"); // Instants (analysis cache hits).
    }
  }
  EXPECT_TRUE(SawWorkerName);
  EXPECT_GE(Complete, 4 * M->numFunctions()); // tasks + 3 passes each.
}

//===----------------------------------------------------------------------===//
// --time-passes vs trace spans
//===----------------------------------------------------------------------===//

TEST(Trace, TimePassesTotalsMatchSpanSums) {
  std::unique_ptr<Module> M = generateModule(32, /*Seed=*/3);
  RecorderGuard G;
  ModulePipelineResult R = tracedPipelineRun(*M, /*Jobs=*/4);

  double RecordSum = 0;
  for (const PassInstrumentation::Record &Rec : R.aggregatePassRecords())
    RecordSum += Rec.Seconds;

  double SpanSumUs = 0;
  for (const obs::TraceEvent &E : obs::TraceRecorder::global().snapshot())
    if (E.DurUs >= 0 && std::string(E.Category) == "pass")
      SpanSumUs += E.DurUs;
  double SpanSum = SpanSumUs * 1e-6;

  // The span brackets the Seconds measurement (same steady clock, opened
  // just before, committed just after), so it can only be the larger of
  // the two — by at most the instrumentation's own record-keeping.
  EXPECT_GE(SpanSum, RecordSum * 0.999);
  double Tolerance = std::max(0.05 * SpanSum, 1e-3);
  EXPECT_LE(SpanSum - RecordSum, Tolerance)
      << "--time-passes total " << RecordSum << "s vs trace-span sum "
      << SpanSum << "s";
}

//===----------------------------------------------------------------------===//
// --stats-json schema
//===----------------------------------------------------------------------===//

TEST(StatsJson, CarriesSchemaVersionAndSections) {
  obs::StatsReport SR;
  SR.Tool = "obs_test";
  SR.Pipeline = "separate,constprop";
  SR.Functions = 3;
  SR.Jobs = 2;
  SR.Passes.push_back({"separate", 0.5, 1, 2, 1024});
  SR.Analyses.push_back({"dfg", 4, 2});

  obs::JsonValue V = parseOrFail(obs::renderStatsJson(SR));
  ASSERT_TRUE(V.isObject());
  EXPECT_EQ(V.find("schema")->String, "depflow-stats");
  ASSERT_TRUE(V.find("schema_version"));
  EXPECT_EQ(V.find("schema_version")->Number, obs::StatsSchemaVersion);
  EXPECT_EQ(V.find("tool")->String, "obs_test");
  EXPECT_EQ(V.find("functions")->Number, 3);
  EXPECT_EQ(V.find("jobs")->Number, 2);

  const obs::JsonValue *Passes = V.find("passes");
  ASSERT_TRUE(Passes && Passes->isArray());
  ASSERT_EQ(Passes->Array.size(), 1u);
  EXPECT_EQ(Passes->Array[0].find("pass")->String, "separate");
  EXPECT_EQ(Passes->Array[0].find("alloc_bytes")->Number, 1024);

  const obs::JsonValue *Analyses = V.find("analyses");
  ASSERT_TRUE(Analyses && Analyses->isArray());
  EXPECT_EQ(Analyses->Array[0].find("hits")->Number, 4);

  // Version 2: the counter registry appears once, as `counters`; the flat
  // `statistics` copy of version 1 is gone.
  EXPECT_EQ(obs::StatsSchemaVersion, 2u);
  EXPECT_FALSE(V.find("statistics"));
  const obs::JsonValue *Counters = V.find("counters");
  ASSERT_TRUE(Counters && Counters->isObject());
  EXPECT_EQ(Counters->find("version")->Number, obs::CountersSchemaVersion);
  const obs::JsonValue *Entries = Counters->find("entries");
  ASSERT_TRUE(Entries && Entries->isArray());
  EXPECT_FALSE(Entries->Array.empty());

  // Process metrics ride along.
  const obs::JsonValue *Process = V.find("process");
  ASSERT_TRUE(Process && Process->isObject());
  EXPECT_GT(Process->find("peak_rss_bytes")->Number, 0);
  EXPECT_GT(Process->find("allocated_bytes")->Number, 0);
}

//===----------------------------------------------------------------------===//
// Bench report schema
//===----------------------------------------------------------------------===//

TEST(Bench, ReportRendersSchemaDocument) {
  obs::BenchReport Report("obs_test");
  Report.add("row/1", {{"real_time", 1.5}, {"E", 64.0}}, "us", 100);

  obs::JsonValue V = parseOrFail(Report.renderJson());
  EXPECT_EQ(V.find("schema")->String, "depflow-bench");
  EXPECT_EQ(V.find("schema_version")->Number, obs::BenchSchemaVersion);
  EXPECT_EQ(V.find("bench")->String, "obs_test");
  const obs::JsonValue *Entries = V.find("entries");
  ASSERT_TRUE(Entries && Entries->isArray());
  ASSERT_EQ(Entries->Array.size(), 1u);
  const obs::JsonValue &E = Entries->Array[0];
  EXPECT_EQ(E.find("name")->String, "row/1");
  EXPECT_EQ(E.find("time_unit")->String, "us");
  EXPECT_EQ(E.find("iterations")->Number, 100);
  EXPECT_EQ(E.find("metrics")->find("E")->Number, 64.0);
}

//===----------------------------------------------------------------------===//
// Allocation/process metrics
//===----------------------------------------------------------------------===//

TEST(Metrics, CountersAdvanceWithAllocation) {
  std::uint64_t BytesBefore = obs::threadAllocatedBytes();
  std::uint64_t CountBefore = obs::threadAllocationCount();
  {
    std::vector<std::unique_ptr<int>> Keep;
    for (int I = 0; I != 64; ++I)
      Keep.push_back(std::make_unique<int>(I));
  }
  EXPECT_GE(obs::threadAllocatedBytes() - BytesBefore, 64 * sizeof(int));
  EXPECT_GE(obs::threadAllocationCount() - CountBefore, 64u);
  // Process totals include this thread.
  EXPECT_GE(obs::processAllocatedBytes(), obs::threadAllocatedBytes());
  EXPECT_GT(obs::peakRSSBytes(), 0u);
}

TEST(Metrics, ExitedThreadsFoldIntoProcessTotals) {
  // Rounds of 64 threads, all alive at once, each allocating a different
  // amount. An exited thread's counts fold into the retired total and its
  // record is reused, so the process totals stay exact while the record
  // list stops growing after the first round.
  constexpr unsigned NumThreads = 64;
  std::size_t RecordsAfterFirstRound = 0;
  for (unsigned Round = 0; Round != 4; ++Round) {
    std::vector<std::uint64_t> Bytes(NumThreads), Counts(NumThreads);
    std::vector<std::uint64_t> StartBytes(NumThreads, ~std::uint64_t(0));
    std::vector<std::thread> Threads;
    Threads.reserve(NumThreads);
    std::latch AllStarted(NumThreads);
    const std::uint64_t ProcBytes0 = obs::processAllocatedBytes();
    const std::uint64_t ProcCount0 = obs::processAllocationCount();
    const std::uint64_t MainBytes0 = obs::threadAllocatedBytes();
    const std::uint64_t MainCount0 = obs::threadAllocationCount();
    for (unsigned T = 0; T != NumThreads; ++T)
      Threads.emplace_back([&, T] {
        StartBytes[T] = obs::threadAllocatedBytes();
        AllStarted.arrive_and_wait();
        std::vector<std::unique_ptr<int>> Keep;
        for (unsigned I = 0; I != T + Round; ++I)
          Keep.push_back(std::make_unique<int>(int(I)));
        Keep.clear();
        Bytes[T] = obs::threadAllocatedBytes();
        Counts[T] = obs::threadAllocationCount();
      });
    for (std::thread &Th : Threads)
      Th.join();

    std::uint64_t WantBytes = obs::threadAllocatedBytes() - MainBytes0;
    std::uint64_t WantCount = obs::threadAllocationCount() - MainCount0;
    for (unsigned T = 0; T != NumThreads; ++T) {
      EXPECT_EQ(StartBytes[T], 0u) << "a reused record starts from zero";
      WantBytes += Bytes[T];
      WantCount += Counts[T];
    }
    EXPECT_EQ(obs::processAllocatedBytes() - ProcBytes0, WantBytes);
    EXPECT_EQ(obs::processAllocationCount() - ProcCount0, WantCount);
    if (Round == 0)
      RecordsAfterFirstRound = obs::allocationRecordCount();
    else
      EXPECT_EQ(obs::allocationRecordCount(), RecordsAfterFirstRound)
          << "round " << Round;
  }
}

} // namespace

// hypart::obs tracing tests: span nesting, JSON escaping (round-tripped
// through the shared JsonWriter escaper), NullSink no-op behavior, and
// structural validity of the Chrome trace / JSONL outputs.
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/json_writer.hpp"
#include "obs/span.hpp"

namespace {

using namespace hypart;
using namespace hypart::obs;

// Minimal structural JSON check: braces/brackets balance outside string
// literals, escapes are well-formed, and the document is a single value.
bool structurally_valid_json(const std::string& s) {
  int depth = 0;
  bool in_string = false;
  bool closed_top = false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    char c = s[i];
    if (in_string) {
      if (c == '\\') {
        if (i + 1 >= s.size()) return false;
        ++i;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return false;  // raw control character inside a string literal
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{':
      case '[':
        if (closed_top) return false;
        ++depth;
        break;
      case '}':
      case ']':
        if (--depth < 0) return false;
        if (depth == 0) closed_top = true;
        break;
      default: break;
    }
  }
  return depth == 0 && !in_string && closed_top;
}

TEST(NullSinkTest, DropsEventsAndFlushIsNoop) {
  NullSink sink;
  TraceEvent e;
  e.name = "x";
  sink.event(e);
  sink.flush();  // must not crash; nothing observable by design
}

TEST(NullSinkTest, HelpersAreNullSafe) {
  // All emit helpers and Span accept a null sink without touching it.
  emit_complete(nullptr, "a", "b", 0, 1, kPipelinePid, 0);
  emit_instant(nullptr, "a", "b", 0, kPipelinePid, 0);
  emit_counter(nullptr, "a", 0, kPipelinePid, 1.0);
  emit_process_name(nullptr, kPipelinePid, "p");
  emit_thread_name(nullptr, kPipelinePid, 0, "t");
  Span span(nullptr, "span", "cat");
  span.arg("k", std::int64_t{1});
}

TEST(SpanTest, NestedSpansEmitInnerBeforeOuter) {
  ChromeTraceSink sink;
  {
    Span outer(&sink, "outer", "test");
    {
      Span inner(&sink, "inner", "test");
    }
  }
  EXPECT_EQ(sink.event_count(), 2u);
  std::string json = sink.str();
  std::size_t inner_pos = json.find("\"inner\"");
  std::size_t outer_pos = json.find("\"outer\"");
  ASSERT_NE(inner_pos, std::string::npos);
  ASSERT_NE(outer_pos, std::string::npos);
  EXPECT_LT(inner_pos, outer_pos);  // inner destructs (and emits) first
  EXPECT_TRUE(structurally_valid_json(json));
}

TEST(SpanTest, OuterSpanContainsInnerSpan) {
  JsonlSink sink;
  {
    Span outer(&sink, "outer", "test");
    {
      Span inner(&sink, "inner", "test");
    }
  }
  // Line 0 is the inner span, line 1 the outer; pull ts/dur out of each.
  const std::string& out = sink.str();
  auto number_after = [&](std::size_t from, const char* field) {
    std::size_t p = out.find(field, from);
    EXPECT_NE(p, std::string::npos) << field;
    return std::stod(out.substr(p + std::strlen(field)));
  };
  std::size_t line2 = out.find('\n');
  ASSERT_NE(line2, std::string::npos);
  double inner_ts = number_after(0, "\"ts\":");
  double inner_dur = number_after(0, "\"dur\":");
  double outer_ts = number_after(line2, "\"ts\":");
  double outer_dur = number_after(line2, "\"dur\":");
  EXPECT_LE(outer_ts, inner_ts);
  EXPECT_GE(outer_ts + outer_dur, inner_ts + inner_dur);
}

TEST(EscapingTest, EventJsonRoundTripsThroughJsonWriter) {
  // The event serializer must escape exactly like the shared JsonWriter.
  const std::string nasty = "we\"ird\\name\nwith\ttabs\rand\x01ctl";
  TraceEvent e;
  e.name = nasty;
  e.cat = "cat\"egory";
  e.phase = Phase::Instant;
  e.args.emplace_back("key\n", ArgValue{std::string("val\"ue")});
  std::string json = event_to_json(e);
  EXPECT_NE(json.find(JsonWriter::escape(nasty)), std::string::npos);
  EXPECT_NE(json.find(JsonWriter::escape("cat\"egory")), std::string::npos);
  EXPECT_NE(json.find(JsonWriter::escape("key\n")), std::string::npos);
  EXPECT_NE(json.find(JsonWriter::escape("val\"ue")), std::string::npos);
  EXPECT_TRUE(structurally_valid_json(json));
}

TEST(ChromeTraceSinkTest, EmitsTraceEventsArrayWithRequiredFields) {
  ChromeTraceSink sink;
  emit_process_name(&sink, kSimPid, "simulator");
  emit_thread_name(&sink, kSimPid, 0, "proc 0");
  emit_complete(&sink, "compute", "sim", 10.0, 5.0, kSimPid, 0,
                {{"step", std::int64_t{3}}, {"iterations", std::int64_t{7}}});
  emit_instant(&sink, "msg", "sim", 15.0, kSimPid, 0,
               {{"src", std::int64_t{0}}, {"dst", std::int64_t{1}}});
  emit_counter(&sink, "busiest_link_words", 15.0, kSimPid, 4.0);

  std::string json = sink.str();
  EXPECT_TRUE(structurally_valid_json(json));
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  for (const char* field : {"\"ph\"", "\"ts\"", "\"pid\"", "\"tid\""})
    EXPECT_NE(json.find(field), std::string::npos) << field;
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\""), std::string::npos);
}

TEST(JsonlSinkTest, OneValidJsonObjectPerLine) {
  JsonlSink sink;
  emit_complete(&sink, "a", "c", 1.0, 2.0, kPipelinePid, 0);
  emit_instant(&sink, "b", "c", 3.0, kPipelinePid, 1);
  const std::string& out = sink.str();
  std::size_t lines = 0, pos = 0, nl;
  while ((nl = out.find('\n', pos)) != std::string::npos) {
    std::string line = out.substr(pos, nl - pos);
    EXPECT_TRUE(structurally_valid_json(line)) << line;
    ++lines;
    pos = nl + 1;
  }
  EXPECT_EQ(lines, 2u);
  EXPECT_EQ(pos, out.size());  // output ends with a newline
}

TEST(ConcurrencyTest, JsonlSinkKeepsLinesWholeUnderConcurrentEmission) {
  // 8 threads race complete/instant events into one sink; every output
  // line must still be one structurally valid JSON object (no interleaved
  // fragments) and every event must be present.
  JsonlSink sink;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t)
    pool.emplace_back([&sink, t] {
      for (int i = 0; i < kPerThread; ++i) {
        emit_complete(&sink, "span_t" + std::to_string(t), "race", i, 1.0, kPipelinePid,
                      static_cast<std::uint64_t>(t));
        emit_instant(&sink, "mark_t" + std::to_string(t), "race", i, kPipelinePid,
                     static_cast<std::uint64_t>(t));
      }
    });
  for (auto& th : pool) th.join();

  const std::string out = sink.str();
  std::size_t lines = 0, pos = 0, nl;
  while ((nl = out.find('\n', pos)) != std::string::npos) {
    std::string line = out.substr(pos, nl - pos);
    ASSERT_TRUE(structurally_valid_json(line)) << "line " << lines << ": " << line;
    ++lines;
    pos = nl + 1;
  }
  EXPECT_EQ(lines, static_cast<std::size_t>(kThreads) * kPerThread * 2);
  EXPECT_EQ(pos, out.size());
}

TEST(ConcurrencyTest, ChromeTraceSinkCountsEveryConcurrentEvent) {
  ChromeTraceSink sink;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 250;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t)
    pool.emplace_back([&sink, t] {
      for (int i = 0; i < kPerThread; ++i)
        emit_complete(&sink, "e", "race", i, 1.0, kPipelinePid,
                      static_cast<std::uint64_t>(t));
    });
  for (auto& th : pool) th.join();
  EXPECT_EQ(sink.event_count(), static_cast<std::size_t>(kThreads) * kPerThread);
  EXPECT_TRUE(structurally_valid_json(sink.str()));
}

TEST(WallClockTest, Monotonic) {
  double a = wall_clock_us();
  double b = wall_clock_us();
  EXPECT_GE(b, a);
  EXPECT_GE(a, 0.0);
}

}  // namespace

// e2ebench — the repository's end-to-end benchmark.
//
//   e2ebench --workload paper_cell|anon_load|onion_crypto [--seed 1]
//            [--seconds 30] [--trace 0|1] [--size full|small]
//            [--pins FILE] [--state-dir DIR] [--trace-dir DIR]
//            [--cross-check 0|1]
//
// Single process, single thread. A timed run repeats the workload's batch
// (set-up, then simulation to completion) while the next batch still fits
// in --seconds, with groups of set-up-only repetitions before, between and
// after the batches, and reports setup_s and run_s as medians and
// peak_rss_mb as the process peak RSS at the end of the first batch.
// --trace 1 runs one untraced batch and then one traced batch (loop
// profiler, link tap, benchmark spans) and reports the per-layer split
// instead.
//
// Every batch's simulated outputs (its fingerprint) must match the other
// batches of the process, the pin in --pins for this workload/size/seed if
// there is one, and the fingerprint an earlier run at the same seed left in
// --state-dir (kept per pins-file content, so a re-pin starts afresh). A
// mismatch, or a delivered message whose bytes differ from what was sent,
// makes the run incorrect and the exit code 1. The last stdout line is
// always one JSON object:
//   {"correct":...,"attempted":...,"failed":...,"metrics":{...}}
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "layers.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace {

using e2e::Fingerprint;
using e2e::Metric;
using e2e::Metrics;
using HostClock = std::chrono::steady_clock;

double seconds_since(HostClock::time_point start) {
  return std::chrono::duration<double>(HostClock::now() - start).count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 30;
  bool trace = false;
  std::string size = "full";
  std::string pins;
  std::string state_dir;
  std::string trace_dir;
  bool cross_check = false;
};

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      o.seconds = std::stod(value);
    } else if (flag == "--trace") {
      o.trace = value != "0";
    } else if (flag == "--size") {
      o.size = value;
    } else if (flag == "--pins") {
      o.pins = value;
    } else if (flag == "--state-dir") {
      o.state_dir = value;
    } else if (flag == "--trace-dir") {
      o.trace_dir = value;
    } else if (flag == "--cross-check") {
      o.cross_check = value != "0";
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!e2e::is_workload(o.workload)) {
    throw std::invalid_argument("--workload must be paper_cell, anon_load or "
                                "onion_crypto");
  }
  if (o.size != "full" && o.size != "small") {
    throw std::invalid_argument("--size must be full or small");
  }
  return o;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// The pinned fingerprint for (workload, size, seed), or "" if none. The
/// pins hold sections "[workload size seed]" followed by "key value" lines.
std::string pinned(const std::string& pins, const Options& o) {
  std::istringstream in(pins);
  const std::string header = "[" + o.workload + " " + o.size + " " +
                             std::to_string(o.seed) + "]";
  std::string line, text;
  bool inside = false;
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] == '[') {
      inside = line == header;
      continue;
    }
    if (inside && !line.empty() && line[0] != '#') text += line + "\n";
  }
  return text;
}

/// Prints the lines of `got` that differ from `want`.
void print_diff(const char* against, const std::string& want,
                const std::string& got) {
  std::printf("MISMATCH against %s:\n", against);
  std::istringstream w(want), g(got);
  std::string wl, gl;
  while (true) {
    const bool more_w = static_cast<bool>(std::getline(w, wl));
    const bool more_g = static_cast<bool>(std::getline(g, gl));
    if (!more_w && !more_g) break;
    if (!more_w) wl = "<none>";
    if (!more_g) gl = "<none>";
    if (wl != gl) std::printf("  want: %s\n  got:  %s\n", wl.c_str(), gl.c_str());
  }
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // KiB -> MB
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const Metrics& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted) +
          ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    json += (i > 0 ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

/// FNV-1a of `text` as 16 hex digits.
std::string hash_hex(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  char out[17];
  std::snprintf(out, sizeof(out), "%016llx",
                static_cast<unsigned long long>(h));
  return out;
}

int run(const Options& o) {
  // Set-up-only repetitions, taken in groups before the first batch,
  // between batches and after the last, so setup_s's median spans the
  // whole run rather than its first second. The first group also warms the
  // allocator and page cache for the timed batches.
  constexpr int kSetupOnlyReps = 64;
  constexpr int kSetupGroup = 16;

  std::vector<double> setup_samples, run_samples;
  std::uint64_t attempted = 0, failed = 0;
  bool correct = true;
  // The fingerprint every batch must reproduce: the pin if there is one,
  // else what an earlier run at this seed left in the state directory,
  // else the first batch of this run.
  const std::string pins = o.pins.empty() ? "" : read_file(o.pins);
  std::string reference = pinned(pins, o);
  const char* reference_from = "the pinned fingerprint";
  // Earlier runs' fingerprints live under a hash of the pins, so changing
  // the pins (a re-pin after an intended behaviour change) drops them.
  const std::string state_dir =
      o.state_dir.empty() ? "" : o.state_dir + "/pins-" + hash_hex(pins);
  const std::string state_file =
      state_dir.empty() ? ""
                        : state_dir + "/" + o.workload + "-" + o.size +
                              "-seed" + std::to_string(o.seed) + ".txt";
  if (reference.empty() && !state_file.empty() &&
      std::filesystem::exists(state_file)) {
    reference = read_file(state_file);
    reference_from = "an earlier run at this seed";
  }
  const bool record_state = reference.empty() && !state_file.empty();

  // Checks one finished batch; returns its outcome.
  const auto check = [&](const e2e::Workload& workload) {
    e2e::Outcome outcome = workload.outcome();
    const std::string text = outcome.fingerprint.text();
    bool ok = outcome.corrupted == 0;
    if (!ok) {
      std::printf("CORRUPTED: %llu delivered messages differ from what was "
                  "sent\n",
                  static_cast<unsigned long long>(outcome.corrupted));
    }
    if (reference.empty()) {
      reference = text;
      reference_from = "the first batch of this run";
    } else if (text != reference) {
      print_diff(reference_from, reference, text);
      ok = false;
    }
    attempted += outcome.offered;
    failed += ok ? 0 : outcome.offered;
    correct = correct && ok;
    return outcome;
  };

  int setup_only_left = kSetupOnlyReps;
  const auto setup_only = [&](int reps) {
    for (; reps > 0 && setup_only_left > 0; --reps, --setup_only_left) {
      auto workload = e2e::make_workload(o.workload, o.size, o.seed);
      setup_samples.push_back(workload->setup({}).total_s());
    }
  };
  setup_only(kSetupGroup);

  e2e::Outcome last;
  std::uint64_t events = 0;
  double first_batch_peak_rss_mb = 0;
  const auto phase_start = HostClock::now();
  while (true) {
    const auto batch_start = HostClock::now();
    auto workload = e2e::make_workload(o.workload, o.size, o.seed);
    setup_samples.push_back(workload->setup({}).total_s());
    const auto run_start = HostClock::now();
    workload->run();
    run_samples.push_back(seconds_since(run_start));
    last = check(*workload);
    events = workload->environment().simulator().executed_events();
    // Read once, so peak_rss_mb does not depend on how many batches fit
    // in --seconds: later batches reuse the heap in different layouts.
    if (run_samples.size() == 1) first_batch_peak_rss_mb = peak_rss_mb();
    const double batch_s = seconds_since(batch_start);
    if (o.trace || seconds_since(phase_start) + batch_s > o.seconds) break;
    setup_only(kSetupGroup);
  }
  setup_only(setup_only_left);

  for (const std::string& line : last.summary) std::printf("%s\n", line.c_str());
  std::printf("fingerprint (%s):\n%s", reference_from, reference.c_str());
  std::printf("batches: %zu timed, %zu set-ups; %llu events per batch\n",
              run_samples.size(), setup_samples.size(),
              static_cast<unsigned long long>(events));
  std::printf("run samples:");
  for (double v : run_samples) std::printf(" %.3f", v);
  std::printf("\nset-up samples:");
  for (double v : setup_samples) std::printf(" %.4f", v);
  std::printf("\n");

  Metrics metrics;
  if (!o.trace) {
    metrics.push_back({"setup_s", median(setup_samples), "s"});
    metrics.push_back({"run_s", median(run_samples), "s"});
    metrics.push_back({"peak_rss_mb", first_batch_peak_rss_mb, "MB"});
  } else {
    p2panon::obs::capacity::LoopProfiler profiler(
        p2panon::obs::capacity::LoopProfiler::Config{1});
    e2e::ChannelTap tap;
    e2e::SpanLog spans(true);
    auto workload = e2e::make_workload(o.workload, o.size, o.seed);
    e2e::TracedRun traced;
    traced.workload_name = o.workload;
    traced.check_split = o.size == "full";
    traced.setup = workload->setup({&profiler, &tap, &spans});
    const auto run_start = HostClock::now();
    workload->run();
    traced.wall_s = seconds_since(run_start);
    check(*workload);
    traced.workload = workload.get();
    traced.untraced_run_s = median(run_samples);
    traced.profiler = &profiler;
    traced.tap = &tap;
    traced.spans = &spans;
    traced.seed = o.seed;
    std::vector<std::string> problems;
    metrics = e2e::layer_metrics(traced, problems);
    for (const std::string& problem : problems) {
      std::printf("COVERAGE: %s\n", problem.c_str());
      correct = false;
    }
    std::printf("%-34s %16s  %s\n", "per-layer metric", "value", "unit");
    for (const Metric& m : metrics) {
      std::printf("%-34s %16.6g  %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    if (!o.trace_dir.empty()) {
      std::filesystem::create_directories(o.trace_dir);
      const std::string path = o.trace_dir + "/" + o.workload + "-" + o.size +
                               "-seed" + std::to_string(o.seed) + ".jsonl";
      if (spans.write_jsonl(path)) {
        std::printf("spans: %s (host ns on the sim_us axis)\n", path.c_str());
      }
    }
  }

  if (o.cross_check && o.workload == "paper_cell") {
    Fingerprint fp = e2e::harness_reference(o.size, o.seed);
    std::string text = fp.text();
    // The harness does not count offered messages; compare the rest.
    std::string ours = reference.substr(0, reference.find("messages_offered"));
    if (text != ours) {
      print_diff("harness::run_durability_experiment", text, ours);
      correct = false;
    } else {
      std::printf("cross-check: matches harness::run_durability_experiment\n");
    }
  }

  if (correct && record_state) {
    std::filesystem::create_directories(state_dir);
    std::ofstream(state_file) << reference;
    std::printf("fingerprint recorded in %s\n", state_file.c_str());
  }

  print_result(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  try {
    options = parse(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s\n", e.what());
    return 2;
  }
  try {
    return run(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s\n", e.what());
    return 2;
  }
}

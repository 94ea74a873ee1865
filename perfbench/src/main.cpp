// perfbench: the repository benchmark. Runs one workload from a seed and
// prints its end-to-end metrics (untraced) or its per-layer metrics
// (traced); the last line of standard output is the JSON result.
//
//   $ perfbench --workload <lu16-offline|cg16-adaptive|tiled-replay>
//               --seed <n> --seconds <s> --trace <0|1>
//               [--out-dir <dir>] [--git-rev <rev>]
//
// Exit codes: 0 every output check passed; 1 a check failed (the result
// line says how many); 2 bad arguments; 3 an unoptimised build, whose
// timings are never published.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "env.hpp"
#include "run.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "%s\nusage: perfbench --workload <lu16-offline|cg16-adaptive|tiled-replay> "
               "--seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>] [--git-rev <rev>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opts;
  std::string git_rev = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      return usage(("missing value for " + flag).c_str());
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      opts.workload = value;
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opts.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      opts.trace = value == "1";
    } else if (flag == "--out-dir") {
      opts.out_dir = value;
    } else if (flag == "--git-rev") {
      git_rev = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  void (*workload)(perfbench::Run&) = nullptr;
  if (opts.workload == "lu16-offline") {
    workload = perfbench::lu16_offline;
  } else if (opts.workload == "cg16-adaptive") {
    workload = perfbench::cg16_adaptive;
  } else if (opts.workload == "tiled-replay") {
    workload = perfbench::tiled_replay;
  } else {
    return usage(("unknown workload '" + opts.workload + "'").c_str());
  }

  const unsigned nproc = std::thread::hardware_concurrency();
  std::printf("env %s\n",
              perfbench::environment_json(opts, git_rev, nproc > 1 ? nproc - 1 : 1).c_str());
  if (!perfbench::optimized_build()) {
    std::fprintf(stderr, "refusing to time an unoptimised build (no __OPTIMIZE__ or no NDEBUG)\n");
    return 3;
  }

  try {
    std::filesystem::create_directories(opts.out_dir);
    perfbench::Run run(opts);
    workload(run);
    if (opts.trace) {
      const std::string spans = (std::filesystem::path(opts.out_dir) /
                                 ("spans-" + opts.workload + "-seed" +
                                  std::to_string(opts.seed) + ".csv"))
                                    .string();
      run.tracer.write_csv(spans);
      run.tracer.print_profile();
      std::printf("spans written to %s\n", spans.c_str());
    }
    return perfbench::report(run);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}

#include "env.hpp"

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  unsigned int max_leaf = __get_cpuid_max(0x80000000, nullptr);
  if (max_leaf >= 0x80000004) {
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2],
                  &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string out(brand);
    const auto first = out.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : out.substr(first);
  }
#endif
  return "unknown";
}

std::size_t sysconf_bytes(int name) {
  const long v = sysconf(name);
  return v > 0 ? static_cast<std::size_t>(v) : 0;
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

/// Escapes the characters JSON strings cannot hold raw.
std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out + "\"";
}

}  // namespace

std::size_t l2_cache_bytes() { return sysconf_bytes(_SC_LEVEL2_CACHE_SIZE); }

std::string environment_json(const Options& opts, const std::string& git_rev,
                             std::size_t shards) {
  char buf[160];
  std::string out = "{";
  std::snprintf(buf, sizeof(buf), "\"nproc\": %u, ", std::thread::hardware_concurrency());
  out += buf;
  out += "\"cpu_model\": " + quoted(cpu_model()) + ", ";
  std::snprintf(buf, sizeof(buf), "\"l2_bytes\": %zu, \"l3_bytes\": %zu, ", l2_cache_bytes(),
                sysconf_bytes(_SC_LEVEL3_CACHE_SIZE));
  out += buf;
  out += "\"compiler\": " + quoted(compiler()) + ", ";
  out += "\"build_type\": " + quoted(PERFBENCH_BUILD_TYPE) + ", ";
  out += std::string("\"optimized\": ") + (optimized_build() ? "true" : "false") + ", ";
  out += "\"git_revision\": " + quoted(git_rev) + ", ";
  out += "\"workload\": " + quoted(opts.workload) + ", ";
  std::snprintf(buf, sizeof(buf), "\"seed\": %llu, \"replay_shards\": %zu, \"trace\": %s}",
                static_cast<unsigned long long>(opts.seed), shards,
                opts.trace ? "true" : "false");
  out += buf;
  return out;
}

}  // namespace perfbench
